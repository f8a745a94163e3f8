"""End-to-end runs of the command-line front end, in process."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from resilp import cli
from resilp.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

SCHED_YES = {"machines": 2, "ptimes": [[1, 2]], "counts": [2], "K": 2, "cmax": 3}
SCHED_NO = {"machines": 2, "ptimes": [[1, 2]], "counts": [2], "K": 2, "cmax": 2}
RDSCP = {"n": 2, "family": [[1], [2], [1, 2]], "s": 1, "d": 1, "t": 2}
RCS = {"alphabet": ["a", "b"], "strings": ["aa", "ab"], "d": 1, "m": 1}
BRIBERY = {
    "candidates": 2,
    "votes": [{"order": [1, 2], "count": 2}, {"order": [2, 1], "count": 1}],
    "scoring": [1, 0],
    "ba": 1,
    "b": 1,
}
POLICY = {
    "users": ["u1", "u2", "u3"],
    "resources": ["r1", "r2", "r3"],
    "vr": [["u1", "r1"], ["u2", "r1"], ["u2", "r2"], ["u3", "r2"]],
    "p": ["r1", "r2"],
    "s": 1,
    "d": 1,
    "t": 2,
}


def write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_without_time(out):
    report = json.loads(out)
    del report["wall_time"]
    return report


def test_encode_emits_system_json(tmp_path, capsys):
    path = write(tmp_path, SCHED_YES)
    code, out, err = run(capsys, "encode", "--problem", "sched", path, "--kappa")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"variables", "zvars", "rows"}
    assert doc["zvars"] == ["d0", "d1"]
    assert re.fullmatch(r"kappa=\d+ size_bytes=\d+\n", err)


def test_encode_kappa_ignores_multiplicity(tmp_path, capsys):
    # same distinct contents, different copy counts: same variable layout
    a = dict(RDSCP, family=[[1], [2], [1, 2]])
    b = dict(RDSCP, family=[[1], [1], [2], [1, 2], [1, 2]])
    _, out_a, err_a = run(
        capsys, "encode", "--problem", "rdscp", write(tmp_path, a, "a.json"), "--kappa"
    )
    _, out_b, err_b = run(
        capsys, "encode", "--problem", "rdscp", write(tmp_path, b, "b.json"), "--kappa"
    )
    count = lambda blob: len(json.loads(blob)["variables"])
    assert count(out_a) == count(out_b)
    assert err_a.split()[0] == err_b.split()[0]


def test_encode_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "encode", "--problem", "sched", str(path))
    assert code == 2 and out == "" and "error:" in err


def test_check_resilient_fixture(tmp_path, capsys):
    code, out, _ = run(
        capsys, "check", "--problem", "sched", write(tmp_path, SCHED_YES)
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["resilient"] is True
    assert report["verdict"]["witness"] is None
    assert report["kappa"] == 7


def test_check_witness_decodes(tmp_path, capsys):
    code, out, _ = run(
        capsys, "check", "--problem", "sched", write(tmp_path, SCHED_NO), "--decode"
    )
    assert code == 1
    report = json.loads(out)
    assert report["verdict"]["witness"] == {"d0": 1, "d1": 1}
    assert report["decoded"]["adversary"] == {"delays": [1, 1]}
    assert report["decoded"]["solution"] is None


def test_check_decode_sample_solution_when_resilient(tmp_path, capsys):
    code, out, _ = run(
        capsys, "check", "--problem", "sched", write(tmp_path, SCHED_YES), "--decode"
    )
    assert code == 0
    decoded = json.loads(out)["decoded"]
    assert decoded["scenario"] == {"d0": 0, "d1": 0}
    table = decoded["solution"]["assignment"]
    assert sum(row[0] for row in table) == 2


@pytest.mark.parametrize(
    "problem,doc",
    [
        ("sched", SCHED_NO),
        ("rdscp", RDSCP),
        ("rcs", RCS),
        ("bribery", BRIBERY),
        ("policy", POLICY),
    ],
)
def test_encode_then_raw_check_matches_direct_check(problem, doc, tmp_path, capsys):
    path = write(tmp_path, doc)
    code_enc, out_enc, _ = run(capsys, "encode", "--problem", problem, path)
    assert code_enc == 0
    raw = write(tmp_path, json.loads(out_enc), "system.json")

    direct_code, direct_out, _ = run(capsys, "check", "--problem", problem, path)
    raw_code, raw_out, _ = run(capsys, "check", "--raw", raw)
    assert raw_code == direct_code
    assert json.loads(raw_out)["verdict"] == json.loads(direct_out)["verdict"]


@pytest.mark.parametrize(
    "problem,doc",
    [
        ("sched", SCHED_YES),
        ("sched", SCHED_NO),
        ("rdscp", RDSCP),
        ("rcs", RCS),
        ("bribery", BRIBERY),
        ("policy", POLICY),
    ],
)
def test_check_oracle_flag_agrees(problem, doc, tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "check", "--problem", problem, write(tmp_path, doc),
        "--oracle", "--exhaustive",
    )
    assert code in (0, 1)
    report = json.loads(out)
    assert report["oracle"] is report["verdict"]["resilient"]
    assert report["exhaustive"] is report["verdict"]["resilient"]


def test_injected_oracle_mutant_exits_3(tmp_path, capsys, monkeypatch):
    import resilp.oracles as oracles

    monkeypatch.setattr(oracles, "sched_oracle", lambda inst, **kw: False)
    code, out, err = run(
        capsys, "check", "--problem", "sched", write(tmp_path, SCHED_YES), "--oracle"
    )
    assert code == 3
    assert json.loads(out)["oracle"] is False
    assert "disagreement" in err


def test_unexpected_crash_exits_2_with_traceback(tmp_path, capsys, monkeypatch):
    import resilp.scheduling as scheduling

    def broken(inst):
        raise RuntimeError("encoder bug")

    monkeypatch.setattr(scheduling, "encode", broken)
    code, out, err = run(capsys, "check", "--problem", "sched", write(tmp_path, SCHED_YES))
    assert code == 2 and out == ""
    assert "Traceback" in err and "RuntimeError: encoder bug" in err


def test_unanswerable_sample_scenario_exits_2_with_traceback(
    tmp_path, capsys, monkeypatch
):
    # the engine keeps its own solver, so only the decode step sees None
    monkeypatch.setattr(cli, "solve_feasibility", lambda system: None)
    code, out, err = run(
        capsys, "check", "--problem", "sched", write(tmp_path, SCHED_YES), "--decode"
    )
    assert code == 2 and out == ""
    assert "RuntimeError: resilient verdict with an unanswerable scenario" in err


def test_unanswerable_sample_scenario_exits_2_under_optimize(tmp_path):
    # python -O strips asserts; the check must not be one
    argv = ["check", "--problem", "sched", write(tmp_path, SCHED_YES), "--decode"]
    script = (
        "import sys, resilp.cli as cli\n"
        "cli.solve_feasibility = lambda system: None\n"
        f"sys.exit(cli.main({argv!r}))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert "Traceback" in done.stderr


def test_check_scenario_budget_exits_2(tmp_path, capsys):
    sched, rdscp = write(tmp_path, SCHED_YES), write(tmp_path, RDSCP, "r.json")
    cases = [
        (["check", "--problem", "sched", sched, "--max-scenarios", "1"], "budget"),
        (
            ["check", "--problem", "sched", sched, "--exhaustive", "--max-points", "1"],
            "box product exceeds 1 points",
        ),
        (["oracle", "--problem", "sched", sched, "--max-points", "1"], "exceeds 1"),
        (
            ["check", "--problem", "rdscp", rdscp, "--max-patterns", "0"],
            "more than 0 cover patterns; raise the cap",
        ),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and message in err, argv


@pytest.mark.filterwarnings("ignore:columns renamed during normalization")
def test_aggregate_distance_reaches_encoder_and_oracle(tmp_path, capsys):
    # after any one changed cell some center is within 1 of every string,
    # but not always one whose mismatches over all strings total 1
    doc = {"alphabet": ["a", "b"], "strings": ["ab", "ab", "aa"], "d": 1, "m": 1}
    path = write(tmp_path, doc)
    check = ["check", "--problem", "rcs", path]
    assert run(capsys, *check)[0] == 0
    assert run(capsys, *check, "--aggregate-distance")[0] == 1
    code, out, err = run(capsys, *check, "--aggregate-distance", "--oracle")
    assert code == 1, err
    assert json.loads(out)["oracle"] is False


def test_check_raw_wide_system_exits_0(tmp_path, capsys):
    doc = {
        "variables": [
            {"name": f"x{i}", "lower": 0, "upper": 1} for i in range(1200)
        ],
        "zvars": [],
        "rows": [],
    }
    code, out, err = run(capsys, "check", "--raw", write(tmp_path, doc))
    assert code == 0, err
    assert json.loads(out)["verdict"] == {
        "resilient": True,
        "witness": None,
        "scenarios_checked": 1,
    }


def test_oracle_subcommand_exit_codes(tmp_path, capsys):
    code_yes, out_yes, _ = run(
        capsys, "oracle", "--problem", "sched", write(tmp_path, SCHED_YES, "y.json")
    )
    code_no, out_no, _ = run(
        capsys, "oracle", "--problem", "sched", write(tmp_path, SCHED_NO, "n.json")
    )
    assert (code_yes, code_no) == (0, 1)
    assert json.loads(out_yes)["answer"] is True
    assert json.loads(out_no)["answer"] is False


def test_gen_hitting_set_verifies(tmp_path, capsys):
    src = write(tmp_path, {"n": 2, "sets": [[1, 2]], "k": 1})
    code, out, err = run(
        capsys, "gen", "--reduction", "hitting-set", src, "--verify"
    )
    assert code == 0 and "verified" in err
    gen_path = write(tmp_path, json.loads(out), "gen.json")
    # {1,2} is hit by one vertex, so the built instance must answer no
    assert run(capsys, "oracle", "--problem", "rdscp", gen_path)[0] == 1


def test_gen_empty_set_system_is_vacuously_hit(tmp_path, capsys):
    src = write(tmp_path, {"n": 1, "sets": [], "k": 0})
    code, out, err = run(
        capsys, "gen", "--reduction", "hitting-set", src, "--verify"
    )
    assert code == 0
    gen_path = write(tmp_path, json.loads(out), "gen.json")
    assert run(capsys, "oracle", "--problem", "rdscp", gen_path)[0] == 1


def test_gen_single_triple_matching(tmp_path, capsys):
    src = write(tmp_path, {"n": 1, "triples": [[1, 1, 1]], "k": 1})
    code, out, err = run(capsys, "gen", "--reduction", "3dm", src, "--verify")
    assert code == 0 and "verified" in err
    gen_path = write(tmp_path, json.loads(out), "gen.json")
    assert run(capsys, "oracle", "--problem", "rdscp", gen_path)[0] == 0


def test_gen_verification_failure_exits_3(tmp_path, capsys, monkeypatch):
    import resilp.oracles as oracles

    monkeypatch.setattr(oracles, "rdscp_oracle", lambda inst, **kw: None)
    src = write(tmp_path, {"n": 2, "sets": [[1, 2]], "k": 1})
    code, _, err = run(capsys, "gen", "--reduction", "hitting-set", src, "--verify")
    assert code == 3 and "verification failed" in err


def test_gen_malformed_source_exits_2(tmp_path, capsys):
    src = write(tmp_path, {"n": 2, "k": 1})
    assert run(capsys, "gen", "--reduction", "hitting-set", src)[0] == 2
    # members are read as given: no float truncation, no string coercion
    for members in ([1.9, 2.5], ["1", "2"], [True, 2]):
        src = write(tmp_path, {"n": 2, "sets": [members], "k": 1}, "m.json")
        assert run(capsys, "gen", "--reduction", "hitting-set", src)[0] == 2
    src = write(tmp_path, {"n": 1, "triples": [[1, 1]], "k": 1}, "t.json")
    assert run(capsys, "gen", "--reduction", "3dm", src)[0] == 2


def test_gen_random_deterministic(capsys):
    first = run(capsys, "gen-random", "--family", "rcs", "--seed", "5")
    second = run(capsys, "gen-random", "--family", "rcs", "--seed", "5")
    assert first == second
    code, out, _ = run(
        capsys, "gen-random", "--family", "system", "--seed", "3", "--count", "3"
    )
    assert code == 0
    batch = json.loads(out)
    assert isinstance(batch, list) and len(batch) == 3


def test_text_format(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "check", "--problem", "sched", write(tmp_path, SCHED_NO),
        "--format", "text",
    )
    assert code == 1
    assert "resilient: false" in out
    assert "d1: 1" in out


def test_rcs_ingest_normalization_warns(tmp_path, capsys):
    doc = {"alphabet": ["a", "b"], "strings": ["ab", "ab"], "d": 0, "m": 0}
    path = write(tmp_path, doc)
    with pytest.warns(UserWarning):
        code = main(["check", "--problem", "rcs", path])
    capsys.readouterr()
    assert code == 0


def test_parser_is_built_once_across_calls(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = write(tmp_path, SCHED_YES)
    assert run(capsys, "check", "--problem", "sched", path)[0] == 0
    one_build = len(built)
    assert one_build > 0
    assert run(capsys, "encode", "--problem", "sched", path)[0] == 0
    assert run(capsys, "check", "--problem", "sched", path, "--decode")[0] == 0
    assert len(built) == one_build


def test_flags_of_one_call_do_not_reach_the_next(tmp_path, capsys):
    path = write(tmp_path, SCHED_NO)
    cli._build_parser.cache_clear()
    fresh_code, fresh_out, _ = run(capsys, "check", "--problem", "sched", path)
    code, out, _ = run(
        capsys,
        "check", "--problem", "sched", path,
        "--oracle", "--decode", "--format", "text",
    )
    assert code == 1 and "oracle: false" in out and "decoded:" in out
    again_code, again_out, _ = run(capsys, "check", "--problem", "sched", path)
    assert again_code == fresh_code == 1
    again = report_without_time(again_out)
    assert again == report_without_time(fresh_out)
    assert not {"oracle", "decoded"} & set(again)


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "the following arguments are required: command"),
        (
            ["check", "--problem", "sched", "--raw", "{path}"],
            "argument --raw: not allowed with argument --problem",
        ),
        (["check", "--problem", "nope", "{path}"], "argument --problem: invalid choice"),
    ],
    ids=["no-subcommand", "problem-and-raw", "unknown-problem"],
)
def test_usage_error_returns_2_and_spares_the_next_call(argv, message, tmp_path, capsys):
    path = write(tmp_path, SCHED_YES)
    valid = ["check", "--problem", "sched", path]
    before_code, before_out, _ = run(capsys, *valid)
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith("usage: resilp") and message in err
    after_code, after_out, _ = run(capsys, *valid)
    assert after_code == before_code == 0
    assert report_without_time(after_out) == report_without_time(before_out)


def test_help_returns_0(capsys):
    code, out, err = run(capsys, "check", "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: resilp check")

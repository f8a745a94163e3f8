"""End-to-end runs of the command-line front end, in process."""

import argparse
import io
import json
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from resilp import cli
from resilp.cli import main

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


@pytest.mark.parametrize("error", [RuntimeError, KeyError, TypeError])
def test_unexpected_crash_exits_2_with_traceback(tmp_path, capsys, monkeypatch, error):
    # input errors are ResilpErrors; any other exception is a bug
    import resilp.scheduling as scheduling

    def broken(inst):
        raise error("encoder bug")

    monkeypatch.setattr(scheduling, "encode", broken)
    code, out, err = run(capsys, "check", "--problem", "sched", write(tmp_path, SCHED_YES))
    assert code == 2 and out == ""
    assert "Traceback" in err and f"{error.__name__}: " in err and "encoder bug" in err


def test_check_scenario_budget_exits_2(tmp_path, capsys):
    sched = write(tmp_path, SCHED_YES)
    cases = [
        (["check", "--problem", "sched", sched, "--max-scenarios", "1"], "budget"),
        (
            ["check", "--problem", "sched", sched, "--exhaustive", "--max-points", "1"],
            "box product exceeds 1 points",
        ),
        (["oracle", "--problem", "sched", sched, "--max-points", "1"], "exceeds 1"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and message in err, argv


def test_cli_and_the_oracles_share_one_point_budget():
    # cli keeps its own copy so that a start does not import the oracles
    from resilp import engine, oracles

    assert cli._MAX_POINTS == oracles._MAX_POINTS
    assert cli._build_parser()[1]["check"].get_default("max_scenarios") == (
        engine._MAX_SCENARIOS
    )


RCS_SMALL = {"alphabet": ["a", "b"], "strings": ["aa", "ab"], "d": 1, "m": 1}


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["oracle", "--problem", "rcs"], RCS_SMALL),
        (["check", "--problem", "rcs", "--oracle"], RCS_SMALL),
        (["check", "--problem", "sched"], SCHED_YES),
    ],
    ids=["oracle-rcs", "check-rcs-oracle", "check-sched"],
)
def test_max_points_where_nothing_enumerates_is_refused(argv, doc, tmp_path, capsys):
    argv = [*argv, write(tmp_path, doc)]
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, "--max-points", "0")
    assert (code, out) == (2, "")
    assert err == (
        "error: --max-points applies to --exhaustive, or to --raw or --problem "
        "sched input under --oracle or oracle\n"
    )


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


@pytest.mark.parametrize(
    "command, which",
    [
        ("encode", "--problem"),
        ("check", "--problem"),
        ("oracle", "--problem"),
        ("check", "--raw"),
    ],
)
def test_aggregate_distance_outside_rcs_is_refused(tmp_path, capsys, command, which):
    if which == "--raw":
        sched = write(tmp_path, SCHED_YES)
        _, system, _ = run(capsys, "encode", "--problem", "sched", sched)
        argv = [command, "--raw", write(tmp_path, json.loads(system), "raw.json")]
    else:
        argv = [command, "--problem", "sched", write(tmp_path, SCHED_YES)]
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, "--aggregate-distance")
    assert (code, out) == (2, "")
    assert err == "error: --aggregate-distance applies to --problem rcs only\n"


def test_aggregate_decode_keeps_the_total_mismatch_within_d(tmp_path, capsys):
    doc = {"alphabet": ["a", "b"], "strings": ["ab", "aa"], "d": 1, "m": 0}
    code, out, err = run(
        capsys, "check", "--problem", "rcs", write(tmp_path, doc),
        "--decode", "--aggregate-distance",
    )
    assert code == 0, err
    decoded = json.loads(out)["decoded"]
    center = decoded["solution"]["center"]
    corrupted = decoded["adversary"]["corrupted"]
    assert corrupted == doc["strings"]
    total = sum(a != b for row in corrupted for a, b in zip(center, row))
    assert total <= doc["d"]


def _raw_system(pinned_x):
    # z may take 1, so x + z <= 1 has an answer for every z only when x is 0
    return {
        "variables": [
            {"name": "x", "lower": pinned_x, "upper": pinned_x},
            {"name": "z", "lower": 0, "upper": 1},
        ],
        "zvars": ["z"],
        "rows": [{"coeffs": {"x": 1, "z": 1}, "rel": "<=", "rhs": 1}],
    }


@pytest.mark.parametrize("pinned_x, expected", [(0, 0), (1, 1)])
def test_oracle_raw_answers_as_exhaustive_check(pinned_x, expected, tmp_path, capsys):
    path = write(tmp_path, _raw_system(pinned_x))
    code, out, err = run(capsys, "oracle", "--raw", path)
    assert code == expected, err
    check_code, check_out, _ = run(capsys, "check", "--raw", path, "--exhaustive")
    assert check_code == expected
    assert json.loads(out)["answer"] is json.loads(check_out)["exhaustive"]


def test_raw_oracle_and_exhaustive_share_one_enumeration(tmp_path, capsys, monkeypatch):
    import resilp.oracles as oracles

    path = write(tmp_path, _raw_system(1))
    calls = []
    plain = oracles.forall_exists_oracle

    def counted(system, **kw):
        calls.append(system)
        return plain(system, **kw)

    monkeypatch.setattr(oracles, "forall_exists_oracle", counted)
    code, out, _ = run(capsys, "check", "--raw", path, "--oracle", "--exhaustive")
    assert code == 1 and len(calls) == 1
    report = json.loads(out)
    assert report["oracle"] is report["exhaustive"] is False


@pytest.mark.parametrize("doc", [SCHED_YES, SCHED_NO])
def test_encoded_system_reads_from_stdin(doc, tmp_path, capsys, monkeypatch):
    path = write(tmp_path, doc)
    direct_code, direct_out, _ = run(capsys, "check", "--problem", "sched", path)
    resilient = json.loads(direct_out)["verdict"]["resilient"]
    code, system_text, _ = run(capsys, "encode", "--problem", "sched", path)
    assert code == 0

    monkeypatch.setattr("sys.stdin", io.StringIO(system_text))
    code, out, err = run(capsys, "check", "--raw", "-")
    assert code == direct_code, err
    assert json.loads(out)["verdict"]["resilient"] is resilient

    monkeypatch.setattr("sys.stdin", io.StringIO(system_text))
    code, out, err = run(capsys, "oracle", "--raw", "-")
    assert code == direct_code, err
    assert json.loads(out)["answer"] is resilient


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


def test_gen_runs_the_source_oracles_only_under_verify(tmp_path, capsys, monkeypatch):
    import resilp.oracles as oracles

    def unasked(*args):
        raise AssertionError("source oracle ran without --verify")

    monkeypatch.setattr(oracles, "hitting_set_oracle", unasked)
    monkeypatch.setattr(oracles, "matching_3dm_oracle", unasked)
    src = write(tmp_path, {"n": 2, "sets": [[1, 2]], "k": 1})
    code, out, _ = run(capsys, "gen", "--reduction", "hitting-set", src)
    assert code == 0 and json.loads(out)["s"] == 1
    src = write(tmp_path, {"n": 1, "triples": [[1, 1, 1]], "k": 1}, "t.json")
    code, out, _ = run(capsys, "gen", "--reduction", "3dm", src)
    assert code == 0 and json.loads(out)["d"] == 1


def test_gen_verify_refuses_a_large_source_before_searching_it(tmp_path, capsys):
    # 21 disjoint edges over 42 vertices: the instance has 63 sets, and an
    # unbudgeted search for a hitting set of 20 would not end
    edges = [[2 * i + 1, 2 * i + 2] for i in range(21)]
    src = write(tmp_path, {"n": 42, "sets": edges, "k": 20})
    code, out, err = run(capsys, "gen", "--reduction", "hitting-set", src, "--verify")
    assert (code, out) == (2, "")
    assert "family larger than 12 sets" in err and "Traceback" not in err


def test_gen_verify_refuses_a_large_family_before_building_it(
    tmp_path, capsys, monkeypatch
):
    from resilp import setcover

    def unasked(*args):
        raise AssertionError("the generator ran on an over-budget source")

    monkeypatch.setattr(setcover, "gen_from_3dm", unasked)
    # 3 * 570 + 570 sets; the instance alone would hold 976,980 members
    triples = [[i, i, i] for i in range(1, 571)]
    src = write(tmp_path, {"n": 570, "triples": triples, "k": 1})
    start = time.perf_counter()
    code, out, err = run(capsys, "gen", "--reduction", "3dm", src, "--verify")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err == "error: family larger than 12 sets\n"
    # a malformed source is still refused for what is wrong with it
    src = write(tmp_path, {"n": 570, "triples": triples + [[1, 1]], "k": 1}, "t.json")
    code, out, err = run(capsys, "gen", "--reduction", "3dm", src, "--verify")
    assert (code, out) == (2, "")
    assert err == "error: every triple needs three coordinates\n"


@pytest.mark.parametrize(
    "machines, K", [(40, 1), (1200, 0)], ids=["2**40-box", "1200-machines"]
)
def test_sched_oracle_agrees_with_check_on_wide_instances(tmp_path, capsys, machines, K):
    doc = {"machines": machines, "ptimes": [[1] * machines], "counts": [1],
           "K": K, "cmax": 1}
    path = write(tmp_path, doc)
    code, out, _ = run(capsys, "oracle", "--problem", "sched", path)
    check_code, check_out, _ = run(capsys, "check", "--problem", "sched", path)
    assert code == check_code == 0
    assert json.loads(out)["answer"] is json.loads(check_out)["verdict"]["resilient"]


def test_pattern_search_is_budgeted(tmp_path, capsys):
    # all 63 non-empty subsets of a 6-element universe, covers of up to 6
    # sets: about 7.6e7 combinations to try
    family = [
        [e for e in range(1, 7) if mask >> (e - 1) & 1] for mask in range(1, 64)
    ]
    path = write(tmp_path, {"n": 6, "family": family, "s": 0, "d": 1, "t": 6})
    code, out, err = run(capsys, "encode", "--problem", "rdscp", path)
    assert (code, out) == (2, "")
    assert "exceed the pattern search budget" in err


def _write_text(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    return str(path)


NULL_BOUND = {
    "variables": [{"name": "x", "lower": 0, "upper": None}], "zvars": [], "rows": []
}
STRING_INTEGER_COEFF = {
    "variables": [{"name": "x", "lower": 0, "upper": 3},
                  {"name": "z", "lower": 0, "upper": 1}],
    "zvars": ["z"],
    "rows": [{"coeffs": {"x": "3", "z": 1}, "rel": "<=", "rhs": "+2/1"}],
}


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["check", "--raw"], json.dumps(NULL_BOUND), "variable 'x'"),
        (["check", "--raw"], json.dumps(STRING_INTEGER_COEFF), "not a rational: '3'"),
        (["check", "--raw"], "[" * 100_000 + "]" * 100_000, "nests too deeply"),
        # just over the generators' 10**6-member budget: 1,082,400 members
        (
            ["gen", "--reduction", "3dm"],
            json.dumps({"n": 600, "triples": [[i, i, i] for i in range(1, 601)], "k": 1}),
            "1082400 set members",
        ),
        # 60 * C(59, 3) + 4 + 1 = 1,950,545 members
        (
            ["gen", "--reduction", "hitting-set"],
            json.dumps({"n": 60, "sets": [[1, 2, 3, 4]], "k": 1}),
            "1950545 set members",
        ),
    ],
    ids=["null-bound", "string-integer", "deep-nesting", "3dm-600", "hitting-set-60"],
)
def test_bad_input_exits_2_with_a_named_error(argv, text, message, tmp_path, capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, _write_text(tmp_path, text))
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err and "Traceback" not in err


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
    # a plain line on stderr, on every call, and no Python warning
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "check", "--problem", "rcs", path)
        assert code == 0
        assert err == "warning: columns renamed during normalization: 1\n"


def test_rcs_decode_shows_the_input_symbols(tmp_path, capsys):
    # both columns are renamed on reading; the first scenario moves nothing
    doc = {"alphabet": ["a", "b"], "strings": ["bb", "ba", "ab"], "d": 1, "m": 1}
    path = write(tmp_path, doc)
    for _ in range(2):
        code, out, err = run(capsys, "check", "--problem", "rcs", path, "--decode")
        decoded = json.loads(out)["decoded"]
        assert code == 0
        assert err == "warning: columns renamed during normalization: 0, 1\n"
        assert decoded["adversary"] == {"corrupted": ["bb", "ba", "ab"]}
        assert decoded["solution"] == {"center": "bb"}


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


@pytest.mark.parametrize(
    "argv,code,stream,start,end",
    [
        # the command's parser leaves --bogus over; the top-level parser
        # reports it, as the nested parse did
        (
            ["check", "--problem", "sched", "{path}", "--bogus"], 2, "err",
            "usage: resilp [-h]",
            "resilp: error: unrecognized arguments: --bogus\n",
        ),
        (["check", "-h"], 0, "out", "usage: resilp check", ""),
        (
            ["nosuch"], 2, "err",
            "usage: resilp [-h]",
            "resilp: error: argument command: invalid choice: 'nosuch' "
            "(choose from 'encode', 'check', 'oracle', 'gen', 'gen-random')\n",
        ),
    ],
    ids=["unrecognized-argument", "command-help", "unknown-command"],
)
def test_the_command_parser_prints_what_the_nested_parse_printed(
    argv, code, stream, start, end, tmp_path, capsys
):
    path = write(tmp_path, SCHED_YES)
    got, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    text, other = (out, err) if stream == "out" else (err, out)
    assert got == code and other == ""
    assert text.startswith(start) and text.endswith(end)


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["check", "--problem", "sched", "{path}", "--max-scenarios", "-5"], "--max-scenarios", -5),
        (["check", "--problem", "sched", "{path}", "--oracle", "--max-points", "-1"], "--max-points", -1),
        (["oracle", "--problem", "sched", "{path}", "--max-points", "-1"], "--max-points", -1),
        (["gen-random", "--family", "system", "--count", "-2"], "--count", -2),
    ],
)
def test_negative_budgets_and_counts_are_usage_errors(argv, flag, value, tmp_path, capsys):
    path = write(tmp_path, SCHED_YES)
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"usage: resilp {argv[0]} ")
    assert err.endswith(f"error: argument {flag}: must not be negative: {value}\n")
    # zero parses: a zero budget is refused only once something exceeds it
    zero = [arg if arg != str(value) else "0" for arg in argv]
    assert "usage:" not in run(capsys, *(arg.format(path=path) for arg in zero))[2]


def test_the_cli_prints_what_the_committed_digest_records():
    """``tools/cli_digest.py --check``: every run it makes prints what
    ``tools/cli_digest.txt`` records.  A change that means to change an
    output writes that file again."""
    tool = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"
    done = subprocess.run(
        [sys.executable, str(tool), "--check"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]

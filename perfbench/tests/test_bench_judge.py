import copy
import importlib
import json

import pytest

import run
import workloads

EXPECTED = json.loads(run.EXPECTED_PATH.read_text())
SUITE = {iid: (problem, doc) for iid, problem, doc in workloads.acceptance_suite()}
# A small non-resilient instance, so the witness is compared too.
LATE = next(iid for iid in sorted(SUITE)
            if iid.startswith("sched-") and not EXPECTED[iid]["resilient"])


@pytest.fixture(scope="module")
def cli():
    return importlib.import_module("resilp.cli")


def argv_for(tmp_path, iid):
    return run.write_instance(tmp_path, iid, *SUITE[iid])


def test_matching_outcome_passes(cli, tmp_path):
    _, code, out = run.decide_in_process(cli, argv_for(tmp_path, LATE), 10)
    assert code == 1
    assert run.judge(code, out, EXPECTED[LATE]) is None


@pytest.mark.parametrize("field", ["resilient", "witness", "scenarios_checked"])
def test_an_altered_expected_entry_is_caught(cli, tmp_path, field):
    _, code, out = run.decide_in_process(cli, argv_for(tmp_path, LATE), 10)
    want = copy.deepcopy(EXPECTED[LATE])
    if field == "resilient":
        want["resilient"] = True
    elif field == "witness":
        name = next(iter(want["witness"]))
        want["witness"][name] += 1
    else:
        want["scenarios_checked"] += 1
    assert run.judge(code, out, want).startswith("drift")


def test_error_exit_codes_and_overruns_fail(cli, tmp_path):
    want = EXPECTED[LATE]
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    _, code, out = run.decide_in_process(cli, ["check", "--problem", "sched", str(bad)], 10)
    assert code == 2
    assert run.judge(code, out, want) == "exit code 2"
    assert run.judge(3, "", want) == "exit code 3"
    assert run.judge(None, "", want) == "limit overrun"
    assert run.judge(0, "not json", want) == "unreadable report"


def test_in_process_limit_interrupts_the_decision(cli, tmp_path):
    argv = run.write_instance(tmp_path, *workloads.SCHED_SCALED[0])
    seconds, code, _ = run.decide_in_process(cli, argv, 0.05)
    assert code is None
    assert seconds < 1.0


class FakeSetup:
    def __init__(self, items, expected):
        self.items = items
        self.expected = expected


def test_a_failing_instance_does_not_stop_the_pass(monkeypatch):
    monkeypatch.setattr(run, "STARTED", run.time.perf_counter())
    want = {"resilient": True, "witness": None, "scenarios_checked": 2}
    report = json.dumps({"verdict": want})
    setup = FakeSetup([("a", []), ("b", []), ("c", [])], dict.fromkeys("abc", want))

    def decide(iid, argv, limit):
        if iid == "b":
            raise RuntimeError("boom")
        return 0.001, 0, report

    records = run.run_pass(setup, decide)
    assert [r.iid for r in records] == ["a", "b", "c"]
    assert [r.failure is None for r in records] == [True, False, True]
    assert [r.scenarios for r in records] == [2, 0, 2]

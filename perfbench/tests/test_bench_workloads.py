import json

import pytest

import run
import workloads

EXPECTED = json.loads(run.EXPECTED_PATH.read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_the_same_workload(name):
    assert workloads.build(name, 7, EXPECTED) == workloads.build(name, 7, EXPECTED)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_orders_but_does_not_change_the_instances(name):
    a = workloads.build(name, 1, EXPECTED)
    b = workloads.build(name, 2, EXPECTED)
    assert sorted(i[0] for i in a) == sorted(i[0] for i in b)
    assert {i[0]: i[2] for i in a} == {i[0]: i[2] for i in b}


def test_acceptance_mix_is_the_seeded_suite():
    suite = workloads.build("acceptance-mix", 0, EXPECTED)
    assert len(suite) == 560
    counts = {}
    for iid, problem, _ in suite:
        counts[problem] = counts.get(problem, 0) + 1
    assert counts == dict(workloads.SUITE_SIZES)


def test_cli_cold_draws_small_named_problem_instances():
    draw = workloads.build("cli-cold", 3, EXPECTED)
    assert len(draw) == workloads.CLI_COLD_SPAWNS
    assert len({iid for iid, _, _ in draw}) == len(draw)
    for iid, problem, _ in draw:
        assert problem != "raw"
        assert EXPECTED[iid]["scenarios_checked"] <= workloads.CLI_COLD_MAX_SCENARIOS


def test_expected_file_covers_every_instance_exactly():
    ids = [iid for iid, _, _ in workloads.all_instances()]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(EXPECTED)
    for entry in EXPECTED.values():
        assert set(entry) == {"resilient", "witness", "scenarios_checked"}
        assert (entry["witness"] is None) == entry["resilient"]


def test_pinned_instances_keep_their_documented_outcomes():
    want = {
        "sched-4x2-K8": (True, 495),
        "sched-3x3-K6": (True, 84),
        "sched-3x3-K7-late": (False, 118),
        "bribery-borda-ba2-b2": (True, 50),
        "rcs-6x4-d3-m2": (True, 124),
        "rcs-8x4-d3-m2-late": (False, 22),
    }
    got = {k: (EXPECTED[k]["resilient"], EXPECTED[k]["scenarios_checked"]) for k in want}
    assert got == want

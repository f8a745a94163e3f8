"""What ``check --decode`` reads: the verdict's sample and the decoder
pair every problem module defines.

Every module reads a scenario with ``decode_scenario(inst, z)``, which
raises :class:`ScenarioError` on a scenario its encoding could not have
produced, and an answer with ``decode_solution(inst, adversary, x)``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from resilp import bribery, closest_string, scheduling, setcover
from resilp.engine import check_resiliency, enumerate_scenarios, substitute
from resilp.errors import ScenarioError
from resilp.ilp import IntAssignment, VarId, solve_feasibility
from resilp.jsonio import resiliency_from_dict

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# problem -> (module, instance reader)
PROBLEMS = {
    "rdscp": (setcover, setcover.RdscpInstance.from_dict),
    "rcs": (closest_string, lambda doc: closest_string.instance_from_dict(doc)[0]),
    "sched": (scheduling, scheduling.SchedulingInstance.from_dict),
    "bribery": (bribery, bribery.BriberyInstance.from_dict),
}

DOCS = {
    "rdscp": {"n": 2, "family": [[1], [2], [1, 2]], "s": 1, "d": 1, "t": 2},
    "rcs": {"alphabet": ["a", "b"], "strings": ["aa", "ab"], "d": 1, "m": 1},
    "sched": {"machines": 2, "ptimes": [[1, 2]], "counts": [2], "K": 2, "cmax": 3},
    "bribery": {
        "candidates": 2,
        "votes": [{"order": [1, 2], "count": 2}, {"order": [2, 1], "count": 1}],
        "scoring": [1, 0],
        "ba": 1,
        "b": 1,
    },
}


@pytest.mark.parametrize("problem", PROBLEMS)
def test_decode_scenario_refuses_a_name_the_encoding_lacks(problem):
    module, read = PROBLEMS[problem]
    inst = read(DOCS[problem])
    first = next(enumerate_scenarios(module.encode(inst)))
    module.decode_scenario(inst, first)
    ghost = IntAssignment({**first.values, VarId(len(first.values), "ghost"): 0})
    with pytest.raises(ScenarioError):
        module.decode_scenario(inst, ghost)


def _expected_instances():
    """Every (id, problem, doc) of perfbench/workloads.py, which
    perfbench/expected.json covers exactly."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.all_instances()


def test_every_expected_instance_carries_its_first_scenario():
    instances = _expected_instances()
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    assert {iid for iid, _, _ in instances} == set(expected)
    for iid, problem, doc in instances:
        if problem == "raw":
            system = resiliency_from_dict(doc)
        else:
            module, read = PROBLEMS[problem]
            system = module.encode(read(doc))
        first = next(enumerate_scenarios(system), None)
        verdict = check_resiliency(system)
        if first is None:
            assert verdict.sample is None, iid
        else:
            answer = solve_feasibility(substitute(system, first))
            assert verdict.sample == (first, answer), iid

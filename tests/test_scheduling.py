"""Makespan-with-delays encoder and its decoders."""

import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from resilp.engine import (
    check_resiliency,
    enumerate_scenarios,
    substitute,
)
from resilp.errors import ValidationError
from resilp.ilp import IntAssignment, VarId, solve_feasibility
from resilp.jsonio import resiliency_from_dict, resiliency_to_dict
from resilp.oracles import sched_oracle
from resilp.scheduling import (
    SchedulingInstance,
    decode_scenario,
    decode_schedule,
    encode,
)


def test_exact_fit_with_no_downtime():
    inst = SchedulingInstance(1, ((1,),), (3,), 0, 3)
    assert check_resiliency(encode(inst)).resilient
    assert sched_oracle(inst) is True


def test_one_delay_unit_breaks_the_exact_fit():
    inst = SchedulingInstance(1, ((1,),), (3,), 1, 3)
    verdict = check_resiliency(encode(inst))
    assert not verdict.resilient
    assert verdict.witness_z.by_name() == {"d0": 1}
    assert sched_oracle(inst) is False


def test_concentrated_delay_starves_two_machines():
    inst = SchedulingInstance(2, ((1, 1),), (3,), 2, 2)
    verdict = check_resiliency(encode(inst))
    assert not verdict.resilient
    # scenarios run in ascending variable order, so the first failure
    # loads the delay onto the second machine
    assert verdict.witness_z.by_name() == {"d0": 0, "d1": 2}
    # the mirrored split fails just the same, further down the order
    system = encode(inst)
    failing = [
        tuple(s.by_name()[f"d{i}"] for i in range(2))
        for s in enumerate_scenarios(system)
        if solve_feasibility(substitute(system, s)) is None
    ]
    assert (2, 0) in failing and (0, 2) in failing
    assert sched_oracle(inst) is False


def test_variable_boxes():
    inst = SchedulingInstance(2, ((2, 3), (1, 1)), (2, 4), 3, 9)
    system = encode(inst)
    for _, b in system.z_vars:
        assert (b.lower, b.upper) == (0, inst.K)
    bounds = {vid.name: b for vid, b in system.x_vars}
    assert bounds["x[0,1]"].upper == 2
    assert bounds["x[1,0]"].upper == 4


def test_zero_time_machine_keeps_explicit_coefficients():
    # a machine where every job is free still mentions its assignment
    # variables, so the capacity row stays a mixed row after a JSON hop
    inst = SchedulingInstance(2, ((0, 2),), (2,), 1, 2)
    system = encode(inst)
    assert len(system.rows_xz) == 2
    again = resiliency_from_dict(resiliency_to_dict(system))
    assert again == system
    assert len(again.rows_xz) == 2


def test_decode_schedule_single_machine():
    inst = SchedulingInstance(1, ((1,),), (3,), 0, 3)
    system = encode(inst)
    scenario = next(enumerate_scenarios(system))
    delays = decode_scenario(inst, scenario)
    assert delays == (0,)
    x = solve_feasibility(substitute(system, scenario))
    assert decode_schedule(inst, delays, x) == [[3]]


def test_decode_schedule_with_a_delayed_machine():
    inst = SchedulingInstance(2, ((1, 1),), (2,), 1, 2)
    system = encode(inst)
    assert check_resiliency(system).resilient
    for scenario in enumerate_scenarios(system):
        delays = decode_scenario(inst, scenario)
        x = solve_feasibility(substitute(system, scenario))
        table = decode_schedule(inst, delays, x)
        assert sum(row[0] for row in table) == 2
        for i in range(2):
            assert delays[i] + table[i][0] <= 2


def test_zero_jobs_always_schedulable():
    # horizon must still absorb the delay itself: a delay past cmax dooms
    # a machine with no jobs at all
    assert not check_resiliency(
        encode(SchedulingInstance(2, ((3, 3),), (0,), 2, 0))
    ).resilient
    inst = SchedulingInstance(2, ((3, 3),), (0,), 2, 2)
    assert check_resiliency(encode(inst)).resilient
    assert sched_oracle(inst) is True
    system = encode(inst)
    scenario = next(enumerate_scenarios(system))
    x = solve_feasibility(substitute(system, scenario))
    assert decode_schedule(inst, decode_scenario(inst, scenario), x) == [[0], [0]]


def test_decode_schedule_rejects_a_short_placement_under_optimize():
    # python -O strips asserts; the count-row check must not be one
    script = (
        "from resilp.errors import ValidationError\n"
        "from resilp.ilp import IntAssignment, VarId\n"
        "from resilp.scheduling import SchedulingInstance, decode_schedule\n"
        "inst = SchedulingInstance(2, ((1, 1),), (2,), 0, 2)\n"
        "x = IntAssignment({VarId(0, 'x[0,0]'): 0, VarId(1, 'x[0,1]'): 0})\n"
        "try:\n"
        "    print(decode_schedule(inst, (0, 0), x))\n"
        "except ValidationError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_decode_scenario_validation():
    inst = SchedulingInstance(2, ((1, 1),), (1,), 1, 2)
    with pytest.raises(ValidationError):
        decode_scenario(inst, IntAssignment({VarId(0, "d0"): 1}))
    with pytest.raises(ValidationError):
        decode_scenario(
            inst,
            IntAssignment({VarId(0, "d0"): 1, VarId(1, "d1"): 1}),
        )


def test_instance_validation_and_round_trip():
    inst = SchedulingInstance(2, ((1, 2), (0, 3)), (1, 2), 1, 5)
    assert SchedulingInstance.from_dict(inst.to_dict()) == inst
    with pytest.raises(ValidationError):
        SchedulingInstance(0, ((1,),), (1,), 0, 1)
    with pytest.raises(ValidationError):
        SchedulingInstance(2, ((1,),), (1,), 0, 1)  # row shorter than machines
    with pytest.raises(ValidationError):
        SchedulingInstance(1, ((1,),), (1, 2), 0, 1)  # counts mismatch
    with pytest.raises(ValidationError):
        SchedulingInstance(1, ((-1,),), (1,), 0, 1)
    # ptimes, its rows and counts are ordered, never sets
    with pytest.raises(ValidationError, match="ptimes must be a list"):
        SchedulingInstance(2, {(1, 2), (0, 3)}, (1, 2), 1, 5)
    with pytest.raises(ValidationError, match="processing times must be a list"):
        SchedulingInstance(2, ((1, 2), {0, 3}), (1, 2), 1, 5)
    with pytest.raises(ValidationError, match="job counts must be a list"):
        SchedulingInstance(2, ((1, 2), (0, 3)), {1, 2}, 1, 5)
    with pytest.raises(ValidationError):
        SchedulingInstance.from_dict({"machines": 1})


def _random_instance(rng):
    machines = rng.randint(1, 3)
    ntypes = rng.randint(1, 2)
    ptimes = tuple(
        tuple(rng.randint(0, 3) for _ in range(machines))
        for _ in range(ntypes)
    )
    counts = tuple(rng.randint(0, 4) for _ in range(ntypes))
    return SchedulingInstance(
        machines, ptimes, counts, rng.randint(0, 3), rng.randint(0, 8)
    )


def test_encoder_agrees_with_delay_oracle():
    rng = random.Random(60901)
    yes = no = 0
    for _ in range(60):
        inst = _random_instance(rng)
        got = check_resiliency(encode(inst)).resilient
        want = sched_oracle(inst)
        assert got == want, inst.to_dict()
        if want:
            yes += 1
        else:
            no += 1
    assert yes and no


def test_less_downtime_preserves_yes():
    rng = random.Random(60902)
    exercised = 0
    for _ in range(60):
        inst = _random_instance(rng)
        if inst.K == 0 or not sched_oracle(inst):
            continue
        relaxed = SchedulingInstance(
            inst.machines, inst.ptimes, inst.counts, inst.K - 1, inst.cmax
        )
        assert check_resiliency(encode(relaxed)).resilient
        exercised += 1
    assert exercised > 10


def test_longer_horizon_preserves_yes():
    rng = random.Random(60903)
    exercised = 0
    for _ in range(60):
        inst = _random_instance(rng)
        if not sched_oracle(inst):
            continue
        relaxed = SchedulingInstance(
            inst.machines, inst.ptimes, inst.counts, inst.K, inst.cmax + 1
        )
        assert check_resiliency(encode(relaxed)).resilient
        exercised += 1
    assert exercised > 10


def test_no_downtime_collapses_to_plain_makespan():
    # local brute force written from the problem statement, nothing shared
    def plain_fits(inst):
        slots = [range(n + 1) for n in inst.counts for _ in range(inst.machines)]
        ntypes = len(inst.counts)
        for flat in product(*slots):
            table = [
                flat[t * inst.machines : (t + 1) * inst.machines]
                for t in range(ntypes)
            ]
            if any(sum(row) != inst.counts[t] for t, row in enumerate(table)):
                continue
            if all(
                sum(inst.ptimes[t][i] * table[t][i] for t in range(ntypes))
                <= inst.cmax
                for i in range(inst.machines)
            ):
                return True
        return False

    rng = random.Random(60904)
    for _ in range(40):
        base = _random_instance(rng)
        inst = SchedulingInstance(
            base.machines, base.ptimes, base.counts, 0, base.cmax
        )
        assert check_resiliency(encode(inst)).resilient == plain_fits(inst)

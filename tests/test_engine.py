"""Engine tests: scenario enumeration, substitution, the resiliency loop.

The independent reference here is `_dumb_forall_exists`: raw double box
enumeration with inline row checks, sharing nothing with the engine.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from resilp.engine import (
    ResiliencySystem,
    check_resiliency,
    enumerate_scenarios,
    substitute,
)
from resilp.errors import BudgetError, ScenarioError, ValidationError
from resilp.ilp import (
    IntAssignment,
    LinearRow,
    LinearSystem,
    Rel,
    VarBounds,
    VarId,
    evaluate,
    iter_feasible,
    make_vars,
    solve_feasibility,
)
from resilp.scheduling import SchedulingInstance, encode


def _rsys(x_specs, z_specs, rows_x=(), rows_xz=(), rows_z=()):
    """Build a partitioned system from name-keyed row specs."""
    xv = make_vars(x_specs)
    zv = make_vars(z_specs)
    byname = {vid.name: vid for vid, _ in xv}
    byname.update({vid.name: vid for vid, _ in zv})

    def rows(specs):
        return tuple(
            LinearRow({byname[n]: c for n, c in coeffs.items()}, rel, rhs)
            for coeffs, rel, rhs in specs
        )

    return ResiliencySystem(xv, zv, rows(rows_x), rows(rows_xz), rows(rows_z))


def _holds(row, value_of):
    lhs = Fraction(0)
    for vid, c in row.coeffs.items():
        lhs += c * value_of[vid]
    return lhs <= row.rhs if row.rel is Rel.LEQ else lhs == row.rhs


def _dumb_forall_exists(system):
    """Ground truth: enumerate both boxes in full, no propagation."""
    zr = [range(b.lower, b.upper + 1) for _, b in system.z_vars]
    xr = [range(b.lower, b.upper + 1) for _, b in system.x_vars]
    zids = [vid for vid, _ in system.z_vars]
    xids = [vid for vid, _ in system.x_vars]
    for zpoint in itertools.product(*zr):
        zmap = dict(zip(zids, zpoint))
        if not all(_holds(row, zmap) for row in system.rows_z):
            continue
        survived = False
        for xpoint in itertools.product(*xr):
            full = dict(zip(xids, xpoint))
            full.update(zmap)
            if all(_holds(r, full) for r in system.rows_x) and all(
                _holds(r, full) for r in system.rows_xz
            ):
                survived = True
                break
        if not survived:
            return False
    return True


def test_resilient_when_x_can_always_duck():
    sys_ = _rsys(
        [("x", 0, 2)],
        [("z", 0, 1)],
        rows_xz=[({"x": 1, "z": 1}, Rel.LEQ, 2)],
    )
    verdict = check_resiliency(sys_)
    assert verdict.resilient
    assert verdict.witness_z is None
    assert verdict.scenarios_checked == 2  # z in {0, 1}


def test_not_resilient_with_lex_first_witness():
    sys_ = _rsys(
        [("x", 0, 1)],
        [("z", 0, 1)],
        rows_x=[({"x": -1}, Rel.LEQ, -1)],  # x >= 1
        rows_xz=[({"x": 1, "z": 1}, Rel.LEQ, 1)],
    )
    verdict = check_resiliency(sys_)
    assert not verdict.resilient
    assert verdict.witness_z.by_name() == {"z": 1}
    assert verdict.scenarios_checked == 2


def test_empty_adversarial_domain_is_vacuously_resilient():
    sys_ = _rsys(
        [("x", 0, 1)],
        [("z", 0, 1)],
        rows_x=[({}, Rel.LEQ, -1)],  # x side can never be satisfied...
        rows_z=[({"z": 1}, Rel.LEQ, -1)],  # ...but no scenario exists
    )
    verdict = check_resiliency(sys_)
    assert verdict.resilient
    assert verdict.scenarios_checked == 0


def test_no_z_variables_means_single_empty_scenario():
    sys_ = _rsys([("x", 0, 1)], [], rows_x=[({"x": 1}, Rel.LEQ, 0)])
    scenarios = list(enumerate_scenarios(sys_))
    assert len(scenarios) == 1 and scenarios[0].values == {}
    assert check_resiliency(sys_).resilient


def test_scenario_enumeration_is_lexicographic_and_complete():
    sys_ = _rsys(
        [],
        [("a", 0, 2), ("b", 0, 2)],
        rows_z=[({"a": 1, "b": 1}, Rel.LEQ, 3)],
    )
    got = [tuple(s.by_name().values()) for s in enumerate_scenarios(sys_)]
    expected = [
        p
        for p in itertools.product(range(3), range(3))
        if p[0] + p[1] <= 3
    ]
    assert got == expected  # product() is already lexicographic


def test_substitute_folds_adversary_into_rhs():
    sys_ = _rsys(
        [("x", 0, 5)],
        [("z", 0, 3)],
        rows_xz=[({"x": 2, "z": -3}, Rel.LEQ, 4)],
    )
    ((z, _),) = sys_.z_vars
    scenario = IntAssignment({z: 2})
    sub = substitute(sys_, scenario)
    assert len(sub.rows) == 1
    row = sub.rows[0]
    assert row.rhs == Fraction(10)  # 4 - (-3)*2
    assert {v.name for v in row.support()} == {"x"}
    assert [vid.name for vid, _ in sub.variables] == ["x"]


def test_substitute_rejects_inadmissible_scenarios():
    sys_ = _rsys(
        [("x", 0, 1)],
        [("z", 0, 3)],
        rows_z=[({"z": 1}, Rel.LEQ, 1)],
    )
    ((z, _),) = sys_.z_vars
    with pytest.raises(ScenarioError):
        substitute(sys_, IntAssignment({z: 2}))  # breaks z-row
    with pytest.raises(ScenarioError):
        substitute(sys_, IntAssignment({z: 9}))  # breaks box
    with pytest.raises(ScenarioError):
        substitute(sys_, IntAssignment({VarId(0, "other"): 0}))  # wrong domain


def test_substituted_feasible_set_matches_joint_semantics():
    rng = random.Random(0xA5A5)
    for _ in range(60):
        sys_ = _random_partitioned(rng)
        for scenario in enumerate_scenarios(sys_):
            sub = substitute(sys_, scenario)
            brute = set()
            ranges = [range(b.lower, b.upper + 1) for _, b in sys_.x_vars]
            xids = [vid for vid, _ in sys_.x_vars]
            for xpoint in itertools.product(*ranges):
                full = dict(zip(xids, xpoint))
                full.update(scenario.values)
                if all(_holds(r, full) for r in sys_.rows_x) and all(
                    _holds(r, full) for r in sys_.rows_xz
                ):
                    brute.add(xpoint)
            witness = solve_feasibility(sub)
            assert (witness is not None) == bool(brute)
            if witness is not None:
                assert tuple(witness.by_name().values()) in brute


def _random_partitioned(rng, max_vars=2, width=2, max_rows=3):
    nx = rng.randint(0, max_vars)
    nz = rng.randint(0, max_vars)
    xv = [(f"x{i}", 0, rng.randint(0, width)) for i in range(nx)]
    zv = [(f"z{i}", 0, rng.randint(0, width)) for i in range(nz)]

    def coeffs(names):
        support = rng.sample(names, rng.randint(1, len(names)))
        return {n: rng.choice([-3, -2, -1, 1, 2, 3]) for n in support}

    def rows(pool, force_mix=None):
        out = []
        for _ in range(rng.randint(0, max_rows)):
            if not pool:
                continue
            cs = coeffs(pool)
            if force_mix and not (set(cs) & set(force_mix)):
                cs[rng.choice(force_mix)] = rng.choice([-2, -1, 1, 2])
            rel = Rel.EQ if rng.random() < 0.2 else Rel.LEQ
            out.append((cs, rel, rng.randint(-3, 3)))
        return out

    xnames = [n for n, _, _ in xv]
    znames = [n for n, _, _ in zv]
    rows_x = rows(xnames)
    rows_z = rows(znames)
    rows_xz = []
    if xnames and znames:
        for cs, rel, rhs in rows(xnames + znames):
            if not set(cs) & set(xnames):
                cs[rng.choice(xnames)] = rng.choice([-2, -1, 1, 2])
            rows_xz.append((cs, rel, rhs))
    return _rsys(xv, zv, rows_x, rows_xz, rows_z)


def _fraction_fold(system, scenario):
    """The substituted system by plain Fraction arithmetic (test reference)."""
    zset = {vid for vid, _ in system.z_vars}
    folded = []
    for row in system.rows_xz:
        rhs = row.rhs
        xcoeffs = {}
        for vid, c in row.coeffs.items():
            if vid in zset:
                rhs -= c * scenario[vid]
            else:
                xcoeffs[vid] = c
        folded.append(LinearRow(xcoeffs, row.rel, rhs))
    return LinearSystem(system.x_vars, system.rows_x + tuple(folded))


def test_substitute_matches_a_plain_fraction_fold():
    rng = random.Random(0xF01D)
    scenarios = 0
    for _ in range(150):
        sys_ = _random_partitioned(rng)
        for scenario in enumerate_scenarios(sys_):
            scenarios += 1
            sub = substitute(sys_, scenario)
            assert sub == _fraction_fold(sys_, scenario)
            # the search rows substitute seeds against ones compiled afresh
            fresh = LinearSystem(sub.variables, sub.rows)
            assert [a.values for a in iter_feasible(sub)] == [
                a.values for a in iter_feasible(fresh)
            ]
    assert scenarios > 100


def test_each_row_compiles_once_per_system(monkeypatch):
    from resilp import engine, ilp

    inst = SchedulingInstance(3, ((1, 2, 3), (2, 1, 2), (3, 3, 1)), (4, 4, 4), 6, 12)
    system = encode(inst)
    calls = {"_int_row": 0, "evaluate": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    compile_row = counted(ilp._int_row)
    monkeypatch.setattr(ilp, "_int_row", compile_row)
    monkeypatch.setattr(engine, "_int_row", compile_row)
    monkeypatch.setattr(engine, "evaluate", counted(engine.evaluate))
    verdict = check_resiliency(system)
    assert verdict.resilient and verdict.scenarios_checked == 84
    rows = len(system.rows_x) + len(system.rows_xz) + len(system.rows_z)
    assert calls == {"_int_row": rows, "evaluate": 0}
    check_resiliency(system)  # the compiled kernel is kept on the system
    assert calls == {"_int_row": rows, "evaluate": 0}


def test_each_block_is_built_once(monkeypatch):
    from resilp import ilp

    built = []
    init = ilp.LinearSystem.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(ilp.LinearSystem, "__init__", counted)
    inst = SchedulingInstance(3, ((1, 2, 3), (2, 1, 2), (3, 3, 1)), (4, 4, 4), 6, 12)
    system = encode(inst)
    assert len(built) == 2  # the x block and the z block
    zsys = system.z_system()
    assert len(built) == 2
    assert system._kernel.zsys is zsys
    assert len(built) == 2


def test_substitute_names_the_first_violation():
    sys_ = _rsys(
        [("x", 0, 1)],
        [("z", 0, 3), ("w", 0, 3)],
        rows_z=[({"z": 1}, Rel.LEQ, 1), ({"w": 2}, Rel.EQ, 2)],
    )
    z, w = (vid for vid, _ in sys_.z_vars)
    cases = [
        ({z: 2, w: 1}, "scenario is not admissible: row 0 violated"),
        ({z: 1, w: 2}, "scenario is not admissible: row 1 violated"),
        ({z: -1, w: 1}, "scenario is not admissible: bound of 'z' violated"),
        ({z: 0}, "bad scenario domain: missing: w"),
        ({z: 0, w: 1, VarId(0, "x"): 0}, "bad scenario domain: unexpected: x"),
    ]
    for values, message in cases:
        with pytest.raises(ScenarioError) as info:
            substitute(sys_, IntAssignment(values))
        assert str(info.value) == message
    assert substitute(sys_, IntAssignment({z: 1, w: 1})).rows == ()


def test_engine_agrees_with_dumb_double_enumeration():
    rng = random.Random(0x5EED)
    for _ in range(150):
        sys_ = _random_partitioned(rng)
        assert check_resiliency(sys_).resilient == _dumb_forall_exists(sys_)


def test_witnesses_are_sound():
    rng = random.Random(0xDEAD)
    seen = 0
    for _ in range(150):
        sys_ = _random_partitioned(rng)
        verdict = check_resiliency(sys_)
        if verdict.resilient:
            continue
        seen += 1
        assert evaluate(sys_.z_system(), verdict.witness_z) is None
        assert solve_feasibility(substitute(sys_, verdict.witness_z)) is None
    assert seen > 10  # the sample must actually exercise the branch


def test_scenario_count_is_exact_for_resilient_verdicts():
    rng = random.Random(0x1234)
    for _ in range(80):
        sys_ = _random_partitioned(rng)
        verdict = check_resiliency(sys_)
        total = sum(1 for _ in enumerate_scenarios(sys_))
        if verdict.resilient:
            assert verdict.scenarios_checked == total
        else:
            assert 1 <= verdict.scenarios_checked <= total
            # the witness is the lexicographically first failure
            scenarios = list(enumerate_scenarios(sys_))
            first_bad = next(
                i
                for i, sc in enumerate(scenarios)
                if solve_feasibility(substitute(sys_, sc)) is None
            )
            assert scenarios[first_bad].values == verdict.witness_z.values
            assert verdict.scenarios_checked == first_bad + 1


def test_tightening_the_adversary_never_breaks_resilience():
    rng = random.Random(0x77)
    checked = 0
    for _ in range(120):
        sys_ = _random_partitioned(rng)
        if not sys_.z_vars or not check_resiliency(sys_).resilient:
            continue
        checked += 1
        zids = [vid for vid, _ in sys_.z_vars]
        extra = LinearRow(
            {rng.choice(zids): rng.choice([-2, -1, 1, 2])},
            Rel.LEQ,
            rng.randint(-2, 2),
        )
        tighter = ResiliencySystem(
            sys_.x_vars,
            sys_.z_vars,
            sys_.rows_x,
            sys_.rows_xz,
            sys_.rows_z + (extra,),
        )
        assert check_resiliency(tighter).resilient
    assert checked > 20


def test_relaxing_the_x_side_never_breaks_resilience():
    rng = random.Random(0x88)
    checked = 0
    for _ in range(120):
        sys_ = _random_partitioned(rng)
        if not (sys_.rows_x or sys_.rows_xz):
            continue
        if not check_resiliency(sys_).resilient:
            continue
        checked += 1
        if sys_.rows_x:
            drop = rng.randrange(len(sys_.rows_x))
            relaxed = ResiliencySystem(
                sys_.x_vars,
                sys_.z_vars,
                sys_.rows_x[:drop] + sys_.rows_x[drop + 1 :],
                sys_.rows_xz,
                sys_.rows_z,
            )
        else:
            drop = rng.randrange(len(sys_.rows_xz))
            relaxed = ResiliencySystem(
                sys_.x_vars,
                sys_.z_vars,
                sys_.rows_x,
                sys_.rows_xz[:drop] + sys_.rows_xz[drop + 1 :],
                sys_.rows_z,
            )
        assert check_resiliency(relaxed).resilient
    assert checked > 20


def test_kappa_counts_blocks_and_answerable_rows():
    sys_ = _rsys(
        [("x0", 0, 1), ("x1", 0, 1)],
        [("z0", 0, 1)],
        rows_x=[({"x0": 1}, Rel.LEQ, 1)],
        rows_xz=[({"x1": 1, "z0": 1}, Rel.LEQ, 1), ({"x0": 1, "z0": -1}, Rel.LEQ, 0)],
        rows_z=[({"z0": 1}, Rel.LEQ, 1)],
    )
    assert sys_.kappa == 2 + 1 + 1 + 2  # z-only rows do not count


def test_block_membership_is_validated():
    x = make_vars([("x", 0, 1)])
    z = tuple((VarId(i, n), VarBounds(0, 1)) for i, n in [(0, "z")])
    xid, zid = x[0][0], z[0][0]
    with pytest.raises(ValidationError):
        ResiliencySystem(x, z, (LinearRow({zid: 1}, Rel.LEQ, 1),), (), ())
    with pytest.raises(ValidationError):
        ResiliencySystem(x, z, (), (), (LinearRow({xid: 1}, Rel.LEQ, 1),))
    with pytest.raises(ValidationError):
        ResiliencySystem((("x", VarBounds(0, 1)),), (), (), (), ())
    with pytest.raises(ValidationError):
        ResiliencySystem(((VarId(0, "x"), (0, 1)),), (), (), (), ())



def test_system_names_a_shared_name_and_a_stray_mixed_row():
    x = make_vars([("x", 0, 1)])
    z = make_vars([("z", 0, 1)])
    with pytest.raises(ValidationError, match="duplicate variable name: 'x'"):
        ResiliencySystem(x, make_vars([("x", 0, 1)]), (), (), ())
    stray = LinearRow({x[0][0]: 1, VarId(5, "ghost"): 1}, Rel.LEQ, 1)
    with pytest.raises(ValidationError, match="xz-row 0 references unknown variables"):
        ResiliencySystem(x, z, (), (stray,), ())

def test_exhaustive_mode_collects_every_failure():
    sys_ = _rsys(
        [("x", 0, 1)],
        [("z", 0, 3)],
        rows_xz=[({"x": 1, "z": 1}, Rel.LEQ, 2)],  # z >= 2 kills x
    )
    scenarios = list(enumerate_scenarios(sys_))
    failures = [
        s for s in scenarios if solve_feasibility(substitute(sys_, s)) is None
    ]
    assert len(scenarios) == 4
    assert [f.by_name()["z"] for f in failures] == [3]
    verdict = check_resiliency(sys_)
    assert verdict.resilient is False
    assert verdict.witness_z.by_name()["z"] == 3


def test_wide_x_block_needs_no_recursion():
    sys_ = _rsys([(f"x{i}", 0, 1) for i in range(1200)], [])
    verdict = check_resiliency(sys_)
    assert verdict.resilient
    assert verdict.scenarios_checked == 1


def test_scenario_budget_raises():
    sys_ = _rsys([], [("z", 0, 9)])
    with pytest.raises(BudgetError):
        check_resiliency(sys_, max_scenarios=5)
    assert check_resiliency(sys_, max_scenarios=10).scenarios_checked == 10

"""Engine tests: scenario enumeration, substitution, the resiliency loop.

The independent reference here is `_dumb_forall_exists`: raw double box
enumeration with inline row checks, sharing nothing with the engine.
"""

from __future__ import annotations

import itertools
import random
import sys
import threading
import warnings
from fractions import Fraction

import pytest

from resilp import bribery, closest_string, engine
from resilp.engine import (
    ResiliencySystem,
    ResiliencyVerdict,
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

# Same instances as the sched-scaled and search-heavy benchmark workloads,
# copied so these tests stand alone.
SCHED_SCALED = (
    SchedulingInstance(4, ((1, 2, 2, 3), (2, 1, 3, 1)), (5, 5), 8, 10),
    SchedulingInstance(3, ((1, 2, 3), (2, 1, 2), (3, 3, 1)), (4, 4, 4), 6, 12),
    SchedulingInstance(3, ((2, 2, 1), (1, 3, 3), (1, 3, 2)), (3, 3, 4), 7, 8),
)
BRIBERY_BA2_B2 = {
    "candidates": 3,
    "votes": [
        {"order": [1, 2, 3], "count": 3},
        {"order": [2, 1, 3], "count": 2},
        {"order": [2, 3, 1], "count": 1},
        {"order": [3, 1, 2], "count": 2},
    ],
    "scoring": [2, 1, 0],
    "ba": 2,
    "b": 2,
}
RCS_6X4 = {
    "alphabet": ["a", "b"],
    "strings": ["aaaaba", "aaaaab", "aaaaab", "babaaa"],
    "d": 3,
    "m": 2,
}
RCS_8X4_LATE = {
    "alphabet": ["a", "b"],
    "strings": ["aaabbaaa", "aaabbaba", "bbaaaaaa", "aabaaaab"],
    "d": 3,
    "m": 2,
}


def _bribery_system(doc):
    return bribery.encode(bribery.BriberyInstance.from_dict(doc))


def _rcs_system(doc):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the reader renames some columns
        inst, _ = closest_string.instance_from_dict(doc)
    return closest_string.encode(inst)


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
    assert type(row.rhs) is int  # the row's scale is 1, so no Fraction is built
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


def _acceptance_suites():
    """(system, verdict) for the 560 systems of the acceptance suites."""
    import test_acceptance as suites

    verdicts = [(system, verdict) for system, verdict in suites.raw_suite()]
    for suite in (
        suites.rdscp_suite, suites.rcs_suite, suites.sched_suite, suites.bribery_suite
    ):
        verdicts += [(system, verdict) for _, system, verdict in suite()]
    assert len(verdicts) == 560
    return verdicts


def _root_kind(system):
    """How the kernel starts each scenario's x search: from the x rows'
    own fixpoint ("fixpoint", "narrowed" when it cuts some x box) or,
    when the x rows alone have no point, from the x boxes ("boxes")."""
    lo, hi, todo = system._kernel.root
    if todo.start == 0 and system.rows_x:
        return "boxes"
    boxes = [(b.lower, b.upper) for _, b in system.x_vars]
    return "fixpoint" if list(zip(lo, hi)) == boxes else "narrowed"


def _assert_substitute_matches_a_fresh_fold(system):
    """Over every scenario: substitute equals the plain Fraction fold, and
    the search it seeds (the kernel's root included) yields the points of
    the same system compiled afresh, in the same order."""
    scenarios = 0
    for scenario in enumerate_scenarios(system):
        scenarios += 1
        sub = substitute(system, scenario)
        assert sub == _fraction_fold(system, scenario)
        fresh = LinearSystem(sub.variables, sub.rows)
        assert [a.values for a in iter_feasible(sub)] == [
            a.values for a in iter_feasible(fresh)
        ]
    return scenarios


def test_substitute_matches_a_plain_fraction_fold():
    rng = random.Random(0xF01D)
    scenarios = 0
    for _ in range(150):
        scenarios += _assert_substitute_matches_a_fresh_fold(_random_partitioned(rng))
    assert scenarios > 100


def test_substitute_matches_a_fresh_fold_on_the_rational_sweep():
    from test_ilp import _random_rational_resiliency

    rng = random.Random(0xF7AC)
    kinds = []
    for _ in range(400):
        sys_ = _random_rational_resiliency(rng)
        if _assert_substitute_matches_a_fresh_fold(sys_):
            kinds.append(_root_kind(sys_))
    assert kinds.count("narrowed") >= 20 and kinds.count("boxes") >= 20


def test_substitute_matches_a_fresh_fold_on_the_acceptance_suites():
    kinds = []
    for system, _ in _acceptance_suites():
        if _assert_substitute_matches_a_fresh_fold(system):
            kinds.append(_root_kind(system))
    assert kinds.count("narrowed") >= 100 and kinds.count("boxes") >= 20


@pytest.mark.parametrize(
    "build, narrowed, boxes",
    [
        (lambda: encode(SCHED_SCALED[0]), 0, 8),
        (lambda: _bribery_system(BRIBERY_BA2_B2), 30, 42),
        (lambda: _rcs_system(RCS_6X4), 21, 22),
    ],
    ids=["sched-4x2-K8", "bribery-borda-ba2-b2", "rcs-6x4-d3-m2"],
)
def test_the_root_is_the_x_rows_own_fixpoint(build, narrowed, boxes):
    system = build()
    lo, hi, todo = system._kernel.root
    cut = [
        j for j, (_, b) in enumerate(system.x_vars)
        if (lo[j], hi[j]) != (b.lower, b.upper)
    ]
    assert (len(cut), len(system.x_vars)) == (narrowed, boxes)
    # the root scans the mixed rows only: the search rows after the x rows
    first = next(enumerate_scenarios(system))
    rows, _, _ = substitute(system, first)._search
    assert todo == range(len(system._kernel.x_rows), len(rows))


def test_x_rows_with_no_point_start_every_scenario_from_the_boxes():
    # the x rows ask for x1 + x2 >= 3 on unit boxes: no scenario has an answer
    sys_ = _rsys(
        [("x1", 0, 1), ("x2", 0, 1)],
        [("z", 0, 2)],
        rows_x=[({"x1": -1, "x2": -1}, Rel.LEQ, -3)],
        rows_xz=[({"x1": 1, "z": 1}, Rel.LEQ, 4)],
    )
    assert sys_._kernel.root == ([0, 0], [1, 1], range(2))
    first = next(enumerate_scenarios(sys_))
    verdict = check_resiliency(sys_)
    assert verdict == ResiliencyVerdict(False, first, 1, (first, None))
    assert verdict.witness_z.by_name() == {"z": 0}
    assert verdict == _unmemoized(sys_)
    _assert_substitute_matches_a_fresh_fold(sys_)


def test_an_always_false_mixed_pair_is_scanned_at_the_root():
    # 2x + z = 2: the gcd 2 divides the shifted rhs 2 - z only at z = 0,
    # so z = 1 compiles the pair to rows no point meets and no x reads
    sys_ = _rsys(
        [("x", 0, 3)],
        [("z", 0, 1)],
        rows_x=[({"x": 1}, Rel.LEQ, 2)],
        rows_xz=[({"x": 2, "z": 1}, Rel.EQ, 2)],
    )
    assert sys_._kernel.root == ([0], [2], range(1, 3))
    zero, one = enumerate_scenarios(sys_)
    rows, watch, root = substitute(sys_, one)._search
    assert rows[1:] == [((), -1), ((), -1)] and list(root[2]) == [1, 2]
    assert solve_feasibility(substitute(sys_, one)) is None
    verdict = check_resiliency(sys_)
    assert verdict.witness_z.by_name() == {"z": 1}
    assert verdict.scenarios_checked == 2
    assert verdict.sample[1].by_name() == {"x": 1}
    _assert_substitute_matches_a_fresh_fold(sys_)


def test_changing_a_returned_value_changes_no_later_answer():
    inst = SCHED_SCALED[2]  # not resilient: witness at scenario 118 of 120
    system = encode(inst)
    expected = check_resiliency(encode(inst))
    first = next(enumerate_scenarios(system))
    fold = _fraction_fold(system, first)
    verdict = check_resiliency(system)
    assert verdict == expected
    # a folded mixed row of a substituted system, a yielded scenario and
    # a solve's answer, each changed in place
    sub = substitute(system, first)
    for row in sub.rows[len(system.rows_x):]:
        for vid in row.coeffs:
            row.coeffs[vid] += 7
    scenario = next(enumerate_scenarios(system))
    for vid in scenario.values:
        scenario.values[vid] += 1
    answer = solve_feasibility(substitute(system, first))
    for vid in answer.values:
        answer.values[vid] = -1
    verdict.witness_z.values.clear()
    verdict.sample[1].values.clear()
    assert check_resiliency(system) == expected
    assert substitute(system, first) == fold
    assert solve_feasibility(substitute(system, first)) == expected.sample[1]


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
    system.z_system()
    check_resiliency(system)  # the walk and the kernel reuse both blocks
    assert len(built) == 2


def test_the_kernel_reuses_the_x_blocks_compiled_search():
    system = encode(SCHED_SCALED[0])
    assert system._kernel.x_rows is system._xsys._search.rows


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


# ------------------------------------------------------------ shift memo


def _unmemoized(system):
    """The verdict of solving every scenario, stopping at the first without
    an answer: enumerate_scenarios -> substitute -> solve_feasibility."""
    checked = 0
    sample = None
    for scenario in enumerate_scenarios(system):
        checked += 1
        x_values = solve_feasibility(substitute(system, scenario))
        if sample is None:
            sample = (scenario, x_values)
        if x_values is None:
            return ResiliencyVerdict(False, scenario, checked, sample)
    return ResiliencyVerdict(True, None, checked, sample)


def _memo_fires(system):
    """Whether two admissible scenarios of ``system`` share a shift: the
    z part of every mixed row (x variables read as 0)."""
    shifts = [
        tuple(
            sum(c * scenario.values.get(vid, 0) for vid, c in row.coeffs.items())
            for row in system.rows_xz
        )
        for scenario in enumerate_scenarios(system)
    ]
    return len(set(shifts)) < len(shifts)


def test_memo_matches_solving_every_scenario_on_the_rational_sweep():
    from test_ilp import _random_rational_resiliency

    rng = random.Random(0xF7AC)
    fired = 0
    for _ in range(400):
        sys_ = _random_rational_resiliency(rng)
        assert check_resiliency(sys_) == _unmemoized(sys_)
        fired += _memo_fires(sys_)
    assert fired > 40  # 52 of the 400 systems repeat a shift


def test_memo_matches_solving_every_scenario_on_the_acceptance_suites():
    for system, verdict in _acceptance_suites():
        assert verdict == _unmemoized(system)


def _counting(monkeypatch):
    """The systems ``check_resiliency`` hands the solver, from now on."""
    calls = []

    def counted(sub):
        calls.append(sub)
        return solve_feasibility(sub)

    monkeypatch.setattr(engine, "solve_feasibility", counted)
    return calls


@pytest.mark.parametrize(
    "build, solves, scenarios",
    [
        (lambda: _bribery_system(BRIBERY_BA2_B2), 44, 50),
        (lambda: _rcs_system(RCS_6X4), 108, 124),
        (lambda: encode(SCHED_SCALED[0]), 495, 495),
    ],
    ids=["bribery-borda-ba2-b2", "rcs-6x4-d3-m2", "sched-4x2-K8"],
)
def test_memo_skips_repeated_shifts_and_counts_every_scenario(
    build, solves, scenarios, monkeypatch
):
    system = build()
    expected = _unmemoized(system)
    assert expected.resilient and expected.scenarios_checked == scenarios
    calls = _counting(monkeypatch)
    assert check_resiliency(system) == expected
    assert len(calls) == solves


def _two_dials():
    """x = z1 + z2 on unit boxes: the shifts of (0, 1) and (1, 0) agree,
    and (1, 1) asks for x = 2."""
    return _rsys(
        [("x", 0, 1)],
        [("z1", 0, 1), ("z2", 0, 1)],
        rows_xz=[({"x": 1, "z1": -1, "z2": -1}, Rel.EQ, 0)],
    )


def test_an_equal_shift_is_answered_without_a_solve(monkeypatch):
    calls = _counting(monkeypatch)
    verdict = check_resiliency(_two_dials())
    assert len(calls) == 3
    assert not verdict.resilient
    assert verdict.witness_z.by_name() == {"z1": 1, "z2": 1}
    assert verdict.scenarios_checked == 4
    assert verdict.sample[0].by_name() == {"z1": 0, "z2": 0}
    assert verdict.sample[1].by_name() == {"x": 0}


@pytest.mark.parametrize(
    "build",
    [_two_dials, lambda: _bribery_system(BRIBERY_BA2_B2), lambda: _rcs_system(RCS_6X4)],
    ids=["two-dials", "bribery-borda-ba2-b2", "rcs-6x4-d3-m2"],
)
def test_a_full_memo_only_costs_solves(build, monkeypatch):
    system = build()
    expected = check_resiliency(system)
    monkeypatch.setattr(engine, "_MAX_SHIFTS", 1)
    calls = _counting(monkeypatch)
    assert check_resiliency(system) == expected
    if build is _two_dials:  # (0, 1)'s shift is not kept, so (1, 0) is solved
        assert len(calls) == 4


def test_shift_rows_are_scaled_from_rationals():
    # z1/2 + z2/3 scales by 6 to 3*z1 + 2*z2, a multiple of the second row;
    # two mixed rows for two z variables keep the memo off all the same
    sys_ = _rsys(
        [("x", 0, 3)],
        [("z1", 0, 2), ("z2", 0, 3)],
        rows_xz=[
            ({"x": 1, "z1": Fraction(1, 2), "z2": Fraction(1, 3)}, Rel.LEQ, 3),
            ({"x": Fraction(1, 5), "z1": 6, "z2": 4}, Rel.LEQ, 9),
        ],
    )
    kernel = sys_._kernel
    shifts = [form.shift for form, _, _ in kernel.mixed]
    assert shifts == [((0, 3), (1, 2)), ((0, 30), (1, 20))]
    assert kernel.memo is False
    assert check_resiliency(sys_) == _unmemoized(sys_)


def test_the_memo_runs_only_when_shifts_can_repeat():
    for inst in SCHED_SCALED:  # B has full column rank: 4/4, 3/3, 3/3
        assert encode(inst)._kernel.memo is False
    for system in (
        _bribery_system(BRIBERY_BA2_B2),
        _rcs_system(RCS_6X4),
        _rcs_system(RCS_8X4_LATE),
    ):
        assert system._kernel.memo is True
    # the memo key reads only the z indexes B reads: 11 of rcs-6x4's 132
    system = _rcs_system(RCS_6X4)
    read = {j for form, _, _ in system._kernel.mixed for j, _ in form.shift}
    assert read <= set(range(len(system.z_vars)))
    assert (len(read), len(system.z_vars)) == (11, 132)


def test_a_system_with_no_scenario_compiles_no_kernel():
    sys_ = _rsys(
        [("x", 0, 1)],
        [("z", 0, 1)],
        rows_xz=[({"x": 1, "z": 1}, Rel.LEQ, 1)],
        rows_z=[({"z": 1}, Rel.LEQ, -1)],
    )
    assert check_resiliency(sys_).scenarios_checked == 0
    assert "_kernel" not in vars(sys_)


# ---------------------------------------------------- z walk and defined z


def _full_search(system):
    """The z points of the full z search, defined variables included."""
    return [a.values for a in iter_feasible(system.z_system())]


def _walked(system):
    return [s.values for s in enumerate_scenarios(system)]


def test_the_walk_matches_the_full_z_search_on_the_rational_sweep():
    from test_ilp import _random_rational_resiliency

    rng = random.Random(0xF7AC)
    defining = 0
    for _ in range(400):
        sys_ = _random_rational_resiliency(rng)
        assert _walked(sys_) == _full_search(sys_)
        defining += bool(sys_._zwalk.defined)
    assert defining >= 10  # 10 of the 400 systems have a defined variable


def test_the_walk_matches_the_full_z_search_on_the_acceptance_suites():
    systems = [system for system, _ in _acceptance_suites()]
    for system in systems:
        assert _walked(system) == _full_search(system)
    assert sum(bool(system._zwalk.defined) for system in systems) == 161


@pytest.mark.parametrize(
    "build, defined, points",
    [
        (lambda: encode(SCHED_SCALED[0]), 0, 495),
        (lambda: encode(SCHED_SCALED[1]), 0, 84),
        (lambda: encode(SCHED_SCALED[2]), 0, 120),
        (lambda: _bribery_system(BRIBERY_BA2_B2), 6, 50),
        (lambda: _rcs_system(RCS_6X4), 11, 124),
        (lambda: _rcs_system(RCS_8X4_LATE), 11, 190),
        (lambda: _rcs_system({**RCS_8X4_LATE, "d": 4, "m": 4}), 11, 6768),
    ],
    ids=[
        "sched-4x2-K8",
        "sched-3x3-K6",
        "sched-3x3-K7-late",
        "bribery-borda-ba2-b2",
        "rcs-6x4-d3-m2",
        "rcs-8x4-d3-m2-late",
        "rcs-8x4-d4-m4",
    ],
)
def test_the_walk_computes_the_census_and_yields_the_full_search(
    build, defined, points
):
    system = build()
    # the census variables of the transfer block, which are all B reads
    walk = system._zwalk
    assert len(walk.defined) == defined
    if defined:
        read = {j for form, _, _ in system._kernel.mixed for j, _ in form.shift}
        assert {v for v, *_ in walk.defined} == read
    walked = _walked(system)
    assert len(walked) == points
    assert walked == _full_search(system)


def _box_points(system):
    """The z points by plain box enumeration, in lexicographic order."""
    zids = [vid for vid, _ in system.z_vars]
    ranges = [range(b.lower, b.upper + 1) for _, b in system.z_vars]
    points = [dict(zip(zids, p)) for p in itertools.product(*ranges)]
    return [p for p in points if all(_holds(row, p) for row in system.rows_z)]


_A_PLUS_B = ({"a": 1, "b": 1, "v": -1}, Rel.EQ, 0)


@pytest.mark.parametrize(
    "z_specs, rows_z, defined",
    [
        # v = a + b fits v's box, and does not once the box cuts
        ([("a", 0, 2), ("b", 0, 2), ("v", 0, 4)], [_A_PLUS_B], ["v"]),
        ([("a", 0, 2), ("b", 0, 2), ("v", 0, 3)], [_A_PLUS_B], []),
        # v reads w, which comes after it (and w has a second row)
        ([("a", 0, 2), ("v", 0, 2)], [({"a": 1, "v": 1}, Rel.EQ, 2)], ["v"]),
        (
            [("v", 0, 2), ("w", 0, 2)],
            [({"v": 1, "w": 1}, Rel.EQ, 2), ({"w": 1}, Rel.LEQ, 1)],
            [],
        ),
        # v's coefficient is 1 once the row is scaled, and 2 is not
        (
            [("a", 0, 4), ("v", 0, 4)],
            [({"a": Fraction(1, 2), "v": Fraction(-1, 2)}, Rel.EQ, 0)],
            ["v"],
        ),
        ([("a", 0, 4), ("v", 0, 8)], [({"a": 1, "v": -2}, Rel.EQ, 0)], []),
    ],
    ids=[
        "box-fits",
        "box-cuts",
        "lower-index",
        "higher-index",
        "scaled-to-1",
        "coefficient-2",
    ],
)
def test_a_defined_variable_keeps_the_points_of_the_box(z_specs, rows_z, defined):
    sys_ = _rsys([], z_specs, rows_z=rows_z)
    walk = sys_._zwalk
    assert [walk.zids[v].name for v, *_ in walk.defined] == defined
    assert _walked(sys_) == _box_points(sys_)


def _capped():
    return _rsys(
        [("x", 0, 1)],
        [("z", 0, 3), ("w", 0, 3)],
        rows_xz=[({"x": 1, "z": -1}, Rel.LEQ, 0)],
        rows_z=[({"z": 1, "w": 1}, Rel.LEQ, 3)],
    )


def test_substitute_checks_a_walked_scenario_whose_values_changed():
    sys_ = _capped()
    z, w = (vid for vid, _ in sys_.z_vars)
    scenario = next(enumerate_scenarios(sys_))
    assert scenario.values == {z: 0, w: 0}
    assert substitute(sys_, scenario).rows[0].rhs == 0
    scenario.values[w] = 4  # the point the walk yielded is unchanged
    with pytest.raises(ScenarioError, match="row 0 violated"):
        substitute(sys_, scenario)


def test_substitute_checks_a_point_from_another_systems_walk():
    loose = _capped()
    strict = _rsys(
        [("x", 0, 1)],
        [("z", 0, 3), ("w", 0, 3)],
        rows_xz=[({"x": 1, "z": -1}, Rel.LEQ, 0)],
        rows_z=[({"z": 1, "w": 1}, Rel.LEQ, 2)],
    )
    *_, last = enumerate_scenarios(strict)
    *_, other = enumerate_scenarios(loose)
    assert other.by_name() == {"z": 3, "w": 0} != last.by_name()
    with pytest.raises(ScenarioError, match="row 0 violated"):
        substitute(strict, other)


# ------------------------------------------------- interleaved walks


def _interleaved(monkeypatch, step):
    """Make ``engine.enumerate_scenarios`` run other walks of the same
    system between its yields, as a thread switch would: before it hands
    over its i-th scenario, ``step(i, start)`` may start walks (``start()``
    returns a new one) and advance them."""
    real = engine.enumerate_scenarios

    def walk(system):
        for i, scenario in enumerate(real(system)):
            step(i, lambda: real(system))
            yield scenario

    monkeypatch.setattr(engine, "enumerate_scenarios", walk)


def _one_unit():
    """x + z1 + z2 <= 1 on unit boxes: (1, 1) asks for x = -1, and the
    point before it, (1, 0), shares the shift of (0, 1), which has an
    answer."""
    return _rsys(
        [("x", 0, 1)],
        [("z1", 0, 1), ("z2", 0, 1)],
        rows_xz=[({"x": 1, "z1": 1, "z2": 1}, Rel.LEQ, 1)],
    )


def test_a_second_walk_one_point_behind_changes_no_answer(monkeypatch):
    sys_ = _one_unit()
    alone = check_resiliency(sys_)
    assert not alone.resilient and alone.scenarios_checked == 4
    behind = []

    def step(i, start):
        if i == 0:
            behind.append(start())
        else:
            next(behind[0])

    _interleaved(monkeypatch, step)
    assert check_resiliency(sys_) == alone


@pytest.mark.parametrize("seed", range(10))
def test_seeded_interleavings_keep_the_witness_of_a_lone_check(seed, monkeypatch):
    system = _rcs_system(RCS_8X4_LATE)
    alone = check_resiliency(system)
    assert not alone.resilient and alone.scenarios_checked == 22
    rng = random.Random(seed)
    others = []

    def step(i, start):
        if rng.random() < 0.3:
            others.append(start())
        for _ in range(rng.randint(0, 3) if others else 0):
            next(rng.choice(others), None)

    _interleaved(monkeypatch, step)
    assert check_resiliency(system) == alone


def test_substitute_folds_an_earlier_point_of_the_walk_without_evaluate(
    monkeypatch,
):
    sys_ = _capped()
    walk = enumerate_scenarios(sys_)
    first, second = next(walk), next(walk)
    assert (first.by_name(), second.by_name()) == ({"z": 0, "w": 0}, {"z": 0, "w": 1})
    next(enumerate_scenarios(sys_))  # another walk of the system moves on too

    def refused(*args):
        raise AssertionError("evaluate ran on a point the walk yielded")

    monkeypatch.setattr(engine, "evaluate", refused)
    assert substitute(sys_, first).rows[0].rhs == 0
    assert substitute(sys_, second).rows[0].rhs == 0


def test_threads_checking_one_system_each_get_the_answer_of_a_lone_check():
    sys_ = _one_unit()
    alone = check_resiliency(sys_)
    answers = []

    def checks():
        answers.extend(check_resiliency(sys_) for _ in range(50))

    threads = [threading.Thread(target=checks) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as CPython can
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [alone] * 400

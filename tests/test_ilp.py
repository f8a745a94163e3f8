"""Core solver tests: evaluation order, exact arithmetic, search.

The reference point throughout is a deliberately naive box enumerator
(`_brute_points`) that shares no code with the solver.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from resilp.closest_string import ColumnType
from resilp.engine import (
    ResiliencySystem,
    ResiliencyVerdict,
    check_resiliency,
    enumerate_scenarios,
    substitute,
)
from resilp.errors import DomainError, ScenarioError, ValidationError
from resilp.ilp import (
    IntAssignment,
    LinearRow,
    LinearSystem,
    Rel,
    VarBounds,
    VarId,
    Violation,
    _int_row,
    _propagate,
    evaluate,
    read_transfer,
    transfer,
    format_rational,
    iter_feasible,
    make_vars,
    parse_rational,
    solve_feasibility,
)
from resilp.oracles import forall_exists_oracle
from resilp.setcover import FamilyGroup


def _brute_points(system):
    """Every feasible point by raw product enumeration (test oracle)."""
    ranges = [
        range(b.lower, b.upper + 1) for _, b in system.variables
    ]
    varids = [vid for vid, _ in system.variables]
    out = []
    for point in itertools.product(*ranges):
        ok = True
        for row in system.rows:
            lhs = Fraction(0)
            for vid, c in row.coeffs.items():
                lhs += c * point[vid.index]
            if row.rel is Rel.LEQ:
                ok = lhs <= row.rhs
            else:
                ok = lhs == row.rhs
            if not ok:
                break
        if ok:
            out.append(dict(zip(varids, point)))
    return out


def _system(var_specs, row_specs):
    """row_specs: list of ({name: coeff}, rel, rhs)."""
    variables = make_vars(var_specs)
    byname = {vid.name: vid for vid, _ in variables}
    rows = tuple(
        LinearRow({byname[n]: c for n, c in coeffs.items()}, rel, rhs)
        for coeffs, rel, rhs in row_specs
    )
    return LinearSystem(variables, rows)


def test_evaluate_satisfies_simple_row():
    sys_ = _system([("x", 0, 5)], [({"x": 1}, Rel.LEQ, 3)])
    ((x, _),) = sys_.variables
    a = IntAssignment({x: 2})
    assert evaluate(sys_, a) is None


def test_evaluate_reports_first_violated_row():
    sys_ = _system([("x", 0, 5)], [({"x": 1}, Rel.LEQ, 3)])
    ((x, _),) = sys_.variables
    a = IntAssignment({x: 4})
    violation = evaluate(sys_, a)
    assert violation is not None and violation.row == 0


def test_evaluate_row_order_decides_report():
    sys_ = _system(
        [("x", 0, 5)],
        [({"x": 1}, Rel.LEQ, 10), ({"x": 1}, Rel.LEQ, 1), ({"x": 1}, Rel.LEQ, 2)],
    )
    ((x, _),) = sys_.variables
    violation = evaluate(sys_, IntAssignment({x: 4}))
    assert violation.row == 1


def test_evaluate_reports_bound_when_rows_hold():
    sys_ = _system([("x", 0, 3)], [({"x": 1}, Rel.LEQ, 100)])
    ((x, _),) = sys_.variables
    violation = evaluate(sys_, IntAssignment({x: 7}))
    assert violation.row is None
    assert violation.var == x


def test_evaluate_domain_must_match_exactly():
    sys_ = _system([("x", 0, 3), ("y", 0, 3)], [])
    (x, _), (y, _) = sys_.variables
    with pytest.raises(DomainError):
        evaluate(sys_, IntAssignment({x: 1}))
    stray = VarId(7, "stray")
    with pytest.raises(DomainError):
        evaluate(sys_, IntAssignment({x: 1, y: 1, stray: 0}))


def test_solve_finds_the_unique_point():
    # 3x + 5y <= 7 and x + y >= 2 over [0,2]^2.  Frozen expectation below
    # was computed by the brute enumerator, which must agree forever.
    sys_ = _system(
        [("x", 0, 2), ("y", 0, 2)],
        [
            ({"x": 3, "y": 5}, Rel.LEQ, 7),
            ({"x": -1, "y": -1}, Rel.LEQ, -2),
        ],
    )
    points = _brute_points(sys_)
    assert [{v.name: val for v, val in p.items()} for p in points] == [
        {"x": 2, "y": 0}
    ]
    witness = solve_feasibility(sys_)
    assert witness is not None
    assert evaluate(sys_, witness) is None
    assert witness.by_name() == {"x": 2, "y": 0}


def test_solve_reports_parity_infeasibility():
    sys_ = _system([("x", 0, 3)], [({"x": 2}, Rel.EQ, 1)])
    assert solve_feasibility(sys_) is None


def test_solve_empty_system_is_feasible():
    sys_ = LinearSystem((), ())
    witness = solve_feasibility(sys_)
    assert witness is not None and witness.values == {}


def test_solve_constant_false_row():
    sys_ = _system([("x", 0, 1)], [({}, Rel.LEQ, -1)])
    assert solve_feasibility(sys_) is None


def test_iter_feasible_lexicographic_order():
    sys_ = _system(
        [("x", 0, 2), ("y", 0, 2)],
        [({"x": 1, "y": 1}, Rel.LEQ, 2)],
    )
    seen = [tuple(a.by_name().values()) for a in iter_feasible(sys_)]
    assert seen == sorted(seen)
    assert seen == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


def _random_system(rng, max_vars=4, max_width=4):
    n = rng.randint(0, max_vars)
    specs = []
    for i in range(n):
        lo = rng.randint(-2, 2)
        specs.append((f"v{i}", lo, lo + rng.randint(0, max_width)))
    variables = make_vars(specs)
    rows = []
    for _ in range(rng.randint(0, 4)):
        if n == 0:
            rows.append(LinearRow({}, Rel.LEQ, rng.randint(-2, 2)))
            continue
        support = rng.sample(range(n), rng.randint(1, n))
        coeffs = {
            variables[j][0]: rng.choice([-3, -2, -1, 1, 2, 3]) for j in support
        }
        rel = Rel.EQ if rng.random() < 0.25 else Rel.LEQ
        rows.append(LinearRow(coeffs, rel, rng.randint(-4, 4)))
    return LinearSystem(variables, tuple(rows))


def test_solver_bit_matches_brute_enumeration():
    rng = random.Random(0xC0FFEE)
    for _ in range(200):
        sys_ = _random_system(rng)
        brute = _brute_points(sys_)
        witness = solve_feasibility(sys_)
        assert (witness is not None) == bool(brute)
        if witness is not None:
            assert evaluate(sys_, witness) is None


def test_enumeration_matches_brute_exactly():
    rng = random.Random(0xFEED)
    for _ in range(100):
        sys_ = _random_system(rng, max_vars=3, max_width=3)
        brute = [
            tuple(sorted((v.name, val) for v, val in p.items()))
            for p in _brute_points(sys_)
        ]
        mine = [
            tuple(sorted(a.by_name().items())) for a in iter_feasible(sys_)
        ]
        assert sorted(brute) == mine  # same set, and lexicographic order


def _random_rational_resiliency(rng, max_vars=2, max_width=3, max_rows=3):
    """Partitioned system whose coefficients and right-hand sides are p/q
    with q in 1..6, with x, z and mixed rows and about 25% ``=`` rows.

    Half of the ``=`` rows get the row's value at a random box point as
    their right-hand side, so equalities are not almost always infeasible.
    """

    def block(prefix):
        specs = []
        for i in range(rng.randint(0, max_vars)):
            lo = rng.randint(-2, 1)
            specs.append((f"{prefix}{i}", lo, lo + rng.randint(0, max_width)))
        return make_vars(specs)

    def frac(span):
        q = rng.randint(1, 6)
        return Fraction(rng.randint(-span * q, span * q), q)

    def row(support):
        coeffs = {}
        for vid in support:
            c = frac(3)
            coeffs[vid] = c if c else Fraction(1, rng.randint(1, 6))
        rel = Rel.EQ if rng.random() < 0.25 else Rel.LEQ
        if rel is Rel.EQ and rng.random() < 0.5:
            rhs = sum(
                c * rng.randint(bounds[v].lower, bounds[v].upper)
                for v, c in coeffs.items()
            )
        else:
            rhs = frac(4)
        return LinearRow(coeffs, rel, rhs)

    xv, zv = block("x"), block("z")
    bounds = dict(xv + zv)
    xs = [vid for vid, _ in xv]
    zs = [vid for vid, _ in zv]

    def rows(pick):
        return tuple(row(pick()) for _ in range(rng.randint(0, max_rows)))

    def some(pool):
        return rng.sample(pool, rng.randint(1, len(pool)))

    rows_x = rows(lambda: some(xs)) if xs else ()
    rows_z = rows(lambda: some(zs)) if zs else ()
    rows_xz = rows(lambda: some(xs) + some(zs)) if xs and zs else ()
    return ResiliencySystem(xv, zv, rows_x, rows_xz, rows_z)


def test_rational_sweep_engine_matches_oracle():
    rng = random.Random(0xF7AC)
    outcomes = []
    for _ in range(400):
        sys_ = _random_rational_resiliency(rng)
        verdict = check_resiliency(sys_)
        assert verdict.resilient == forall_exists_oracle(sys_)
        outcomes.append(verdict.resilient)
    assert outcomes.count(True) > 40 and outcomes.count(False) > 40


def test_rational_sweep_verdict_carries_the_first_scenario():
    rng = random.Random(0xF7AC)
    empty = 0
    for _ in range(400):
        sys_ = _random_rational_resiliency(rng)
        first = next(enumerate_scenarios(sys_), None)
        verdict = check_resiliency(sys_)
        if first is None:
            assert verdict.sample is None
            empty += 1
        else:
            answer = solve_feasibility(substitute(sys_, first))
            assert verdict.sample == (first, answer)
    assert 0 < empty < 400


def test_rational_sweep_enumeration_matches_brute():
    rng = random.Random(0x9A7E)
    scenario_points = 0
    for _ in range(400):
        sys_ = _random_rational_resiliency(rng)
        zsys = sys_.z_system()
        assert [a.values for a in iter_feasible(zsys)] == _brute_points(zsys)
        for scenario in enumerate_scenarios(sys_):
            sub = substitute(sys_, scenario)
            points = _brute_points(sub)
            assert [a.values for a in iter_feasible(sub)] == points
            scenario_points += len(points)
    assert scenario_points > 400


def test_rational_substitute_matches_a_plain_fraction_fold():
    rng = random.Random(0x5B57)
    checked = rejected = 0
    for _ in range(400):
        sys_ = _random_rational_resiliency(rng)
        zsys = sys_.z_system()
        zids = [vid for vid, _ in sys_.z_vars]
        zset = set(zids)
        # every z-box point and a margin of one around it
        ranges = [range(b.lower - 1, b.upper + 2) for _, b in sys_.z_vars]
        for point in itertools.product(*ranges):
            scenario = IntAssignment(dict(zip(zids, point)))
            violation = evaluate(zsys, scenario)
            if violation is not None:
                rejected += 1
                with pytest.raises(ScenarioError) as info:
                    substitute(sys_, scenario)
                assert str(info.value) == f"scenario is not admissible: {violation}"
                continue
            checked += 1
            sub = substitute(sys_, scenario)
            folded = []
            for row in sys_.rows_xz:
                shift = sum(c * scenario[v] for v, c in row.coeffs.items() if v in zset)
                xcoeffs = {v: c for v, c in row.coeffs.items() if v not in zset}
                folded.append(LinearRow(xcoeffs, row.rel, row.rhs - shift))
            assert sub == LinearSystem(sys_.x_vars, sys_.rows_x + tuple(folded))
            fresh = LinearSystem(sub.variables, sub.rows)
            assert [a.values for a in iter_feasible(sub)] == [
                a.values for a in iter_feasible(fresh)
            ]
    assert checked > 400 and rejected > 400


def _full_sweep(rows, lo, hi):
    """Reference propagation, shrinking lo and hi in place: sweep every
    search row until nothing changes."""
    changed = True
    while changed:
        changed = False
        for items, rhs in rows:
            minlhs = sum(c * (lo[j] if c > 0 else hi[j]) for j, c in items)
            if minlhs > rhs:
                return False
            for j, c in items:
                slack = rhs - minlhs + c * (lo[j] if c > 0 else hi[j])
                if c > 0 and slack // c < hi[j]:
                    hi[j] = slack // c
                    changed = True
                elif c < 0 and -(slack // -c) > lo[j]:
                    lo[j] = -(slack // -c)
                    changed = True
                if lo[j] > hi[j]:
                    return False
    return True


def test_queue_propagation_matches_full_sweep():
    rng = random.Random(0x0B0E)
    roots = children = 0
    for _ in range(300):
        sys_ = _random_rational_resiliency(rng, max_vars=3, max_rows=4)
        systems = [sys_.z_system(), LinearSystem(sys_.x_vars, sys_.rows_x)]
        for scenario in itertools.islice(enumerate_scenarios(sys_), 3):
            systems.append(substitute(sys_, scenario))
        for system in systems:
            if not system.variables:
                continue
            rows, watch, _ = system._search
            lo, hi = [], []
            for _, b in system.variables:
                a, c = sorted(rng.randint(b.lower, b.upper) for _ in range(2))
                lo.append(a)
                hi.append(c)
            ref = (lo.copy(), hi.copy())
            ok = _propagate(rows, watch, lo, hi, range(len(rows)))
            assert ok == _full_sweep(rows, *ref)
            roots += 1
            if not ok:
                continue
            assert (lo, hi) == ref
            # a child of that fixpoint: fix one open variable, rescan its rows
            open_ = [j for j in range(len(lo)) if lo[j] < hi[j]]
            if not open_:
                continue
            k = rng.choice(open_)
            lo[k] = hi[k] = rng.randint(lo[k], hi[k])
            ref = (lo.copy(), hi.copy())
            ok = _propagate(rows, watch, lo, hi, watch[k])
            assert ok == _full_sweep(rows, *ref)
            if ok:
                assert (lo, hi) == ref
            children += 1
    assert roots > 500 and children > 100


def test_gcd_tightening_settles_parity_rows_at_once():
    # 2a - 2b = 1 has no integer point; interval cuts alone would walk a
    # through its whole box, one child per value.
    wide = [("a", 0, 10**9), ("b", 0, 10**9)]
    assert solve_feasibility(_system(wide, [({"a": 2, "b": -2}, Rel.EQ, 1)])) is None
    third = Fraction(1, 3)
    parity = [({"a": 2 * third, "b": -4 * third}, Rel.EQ, third)]
    assert solve_feasibility(_system(wide, parity)) is None
    # a <= row keeps its points: 2a + 2b <= 3 reads a + b <= 1
    leq = _system([("a", 0, 3), ("b", 0, 3)], [({"a": 2, "b": 2}, Rel.LEQ, 3)])
    assert [a.values for a in iter_feasible(leq)] == _brute_points(leq)


def test_wide_system_needs_no_recursion():
    sys_ = LinearSystem(make_vars([(f"v{i}", 0, 1) for i in range(1200)]), ())
    witness = solve_feasibility(sys_)
    assert witness is not None
    assert set(witness.values.values()) == {0}
    assert len(witness.values) == 1200


def test_solver_is_deterministic():
    rng = random.Random(31337)
    systems = [_random_system(rng) for _ in range(40)]
    first = [solve_feasibility(s) for s in systems]
    second = [solve_feasibility(s) for s in systems]
    assert [(w is None) for w in first] == [(w is None) for w in second]
    for a, b in zip(first, second):
        if a is not None:
            assert a.values == b.values


def test_rational_parse_and_format():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("4/6") == Fraction(2, 3)
    assert format_rational(Fraction(5)) == 5
    assert format_rational(Fraction(-7, 2)) == "-7/2"
    assert parse_rational(format_rational(Fraction(22, 7))) == Fraction(22, 7)


def test_integer_rows_stay_ints():
    assert type(parse_rational(3)) is int
    assert parse_rational("6/3") == 2
    x = VarId(0, "x")
    row = LinearRow({x: 2}, Rel.LEQ, 5)
    assert type(row.coeffs[x]) is int and type(row.rhs) is int
    assert type(LinearRow({x: Fraction(1, 2)}, Rel.LEQ, 5).coeffs[x]) is Fraction
    with pytest.raises(ValidationError):
        LinearRow({x: True}, Rel.LEQ, 5)
    with pytest.raises(ValidationError):
        LinearRow({x: 1}, Rel.LEQ, True)


def test_int_rows_compile_as_their_fraction_twins():
    rng = random.Random(0x1D7)
    ids = [VarId(i, f"v{i}") for i in range(5)]
    for _ in range(200):
        support = rng.sample(ids, rng.randint(0, 5))
        coeffs = {vid: rng.randint(-6, 6) for vid in support}
        rel, rhs = rng.choice(list(Rel)), rng.randint(-9, 9)
        ints = LinearRow(coeffs, rel, rhs)
        twin = LinearRow(
            {vid: Fraction(c) for vid, c in coeffs.items()}, rel, Fraction(rhs)
        )
        assert ints == twin
        for folded in (frozenset(), frozenset(rng.sample(support, len(support) // 2))):
            a, b = _int_row(ints, folded), _int_row(twin, folded)
            for field in ("sides", "g", "shift", "rhs", "scale"):
                assert getattr(a, field) == getattr(b, field)
                assert type(getattr(a, field)) is type(getattr(b, field))


@pytest.mark.parametrize(
    "bad",
    [
        1.5, "1.5", "1/0", "a/b", None, True, "1/-2",
        # the schema's pattern, -?[0-9]+/[0-9]+, matched in full
        "3", "+3/4", "3/4\n", "\u0663/4",
        pytest.param("1" * 5000 + "/1", id="5000-digit numerator"),
    ],
)
def test_rational_rejects_non_rationals(bad):
    with pytest.raises(ValidationError):
        parse_rational(bad)


def test_row_rejects_float_coefficients():
    x = VarId(0, "x")
    with pytest.raises(ValidationError):
        LinearRow({x: 0.5}, Rel.LEQ, 1)
    with pytest.raises(ValidationError):
        LinearRow({x: 1}, Rel.LEQ, 0.5)



def test_row_and_assignment_name_a_bad_key_or_value():
    with pytest.raises(ValidationError, match="coefficient key must be a VarId: 'x'"):
        LinearRow({"x": 1}, Rel.LEQ, 1)
    with pytest.raises(ValidationError, match="assignment value must be an integer: 1.0"):
        IntAssignment({VarId(0, "x"): 1.0})

def test_system_validates_density_and_names():
    # a bare VarId unpacks as (index, name), which is not a pair either
    with pytest.raises(ValidationError, match=r"\(VarId, VarBounds\) pairs"):
        LinearSystem((VarId(0, "x"), VarId(1, "y")), ())
    with pytest.raises(ValidationError):
        LinearSystem(((VarId(1, "x"), VarBounds(0, 1)),), ())
    with pytest.raises(ValidationError):
        LinearSystem(
            ((VarId(0, "x"), VarBounds(0, 1)), (VarId(1, "x"), VarBounds(0, 1))),
            (),
        )
    ghost = VarId(5, "ghost")
    with pytest.raises(ValidationError):
        LinearSystem(
            ((VarId(0, "x"), VarBounds(0, 1)),),
            (LinearRow({ghost: 1}, Rel.LEQ, 0),),
        )


def test_bounds_validation():
    with pytest.raises(ValidationError):
        VarBounds(2, 1)
    with pytest.raises(ValidationError):
        VarBounds(0.5, 2)
    with pytest.raises(ValidationError):
        VarBounds(None, 3)
    with pytest.raises(ValidationError):
        VarBounds(0, None)


def test_zero_coefficients_count_as_support_but_not_value():
    sys_ = _system(
        [("x", 0, 3), ("y", 0, 3)],
        [({"x": 0, "y": 1}, Rel.LEQ, 1)],
    )
    row = sys_.rows[0]
    assert {v.name for v in row.support()} == {"x", "y"}
    (x, _), (y, _) = sys_.variables
    a = IntAssignment({x: 3, y: 1})
    assert evaluate(sys_, a) is None


# --- transfer blocks ------------------------------------------------------------


def _bits_transfer(cost, budget=1):
    """Two types, 0 and 1, holding 2 and 1 units; a move costs ``cost``."""
    return transfer(
        ((0,), (1,)), lambda s, d: f"m{s[0]}{d[0]}", lambda d: f"c{d[0]}",
        {(0,): 2, (1,): 1}.get, 3, cost, budget,
    )


def test_transfer_lays_out_moves_census_arrivals_and_budget():
    variables, outflow, arrivals, spend = _bits_transfer(lambda s, d: abs(s[0] - d[0]))
    assert [(v.name, b.lower, b.upper) for v, b in variables] == [
        ("m00", 0, 2), ("m01", 0, 2), ("m10", 0, 1), ("m11", 0, 1),
        ("c0", 0, 3), ("c1", 0, 3),
    ]
    vid = {v.name: v for v, _ in variables}
    assert outflow == {(0,): {vid["m00"]: 1, vid["m01"]: 1},
                       (1,): {vid["m10"]: 1, vid["m11"]: 1}}
    assert arrivals == [
        LinearRow({vid["m00"]: 1, vid["m10"]: 1, vid["c0"]: -1}, Rel.EQ, 0),
        LinearRow({vid["m01"]: 1, vid["m11"]: 1, vid["c1"]: -1}, Rel.EQ, 0),
    ]
    assert spend == [LinearRow({vid["m01"]: 1, vid["m10"]: 1}, Rel.LEQ, 1)]
    # no move costs anything: the budget row would be vacuous
    assert _bits_transfer(lambda s, d: 0)[3] == []


def test_read_transfer_agrees_with_the_rows_transfer_builds():
    cost = lambda s, d: abs(s[0] - d[0])  # noqa: E731
    types = ((0,), (1,))
    variables, outflow, arrivals, spend = _bits_transfer(cost)
    source = {(0,): 2, (1,): 1}
    rows = [LinearRow(out, Rel.EQ, source[s]) for s, out in outflow.items()]
    system = LinearSystem(variables, tuple(rows + arrivals + spend))
    seen = 0
    for point in iter_feasible(system):
        flows = read_transfer(
            point.by_name(), types, lambda s, d: f"m{s[0]}{d[0]}",
            lambda d: f"c{d[0]}", source.get, cost, 1,
        )
        assert flows == {(s, d): point.by_name()[f"m{s[0]}{d[0]}"]
                         for s in types for d in types}
        seen += 1
    assert seen == 3  # stay put, or move one unit either way


def test_value_classes_compare_hash_print_and_stay_frozen():
    x, y = VarId(0, "x"), VarId(1, "a")
    assert x == VarId(index=0, name="x") and hash(x) == hash((0, "x"))
    # ordered by (index, name), with all four comparisons
    assert x < y and x <= y and y > x and y >= x and not x < x
    assert VarId(0, "a") < VarId(0, "b") and sorted([y, x]) == [x, y]
    with pytest.raises(TypeError):
        x < VarBounds(0, 1)
    # equal only within one class, field by field in order
    assert VarBounds(0, 1) == VarBounds(0, 1) != VarBounds(0, 2)
    assert VarBounds(0, 1) != VarId(0, 1) and VarBounds(0, 1) != (0, 1)
    assert Violation() == Violation(row=None, var=None) != Violation(row=0)
    assert repr(x) == "VarId(index=0, name='x')"
    assert repr(VarBounds(0, 1)) == "VarBounds(lower=0, upper=1)"
    assert repr(Violation(row=2)) == "Violation(row=2, var=None)"
    assert str(Violation(var=x)) == "bound of 'x' violated"
    verdict = ResiliencyVerdict(True, None, 3)
    assert verdict.sample is None and verdict == ResiliencyVerdict(True, None, 3, None)
    assert repr(verdict) == (
        "ResiliencyVerdict(resilient=True, witness_z=None, scenarios_checked=3, "
        "sample=None)"
    )
    # a record that checks nothing is a NamedTuple: on purpose, it equals
    # and hashes as the plain tuple of its fields, and unpacks as one
    column = ColumnType(("a", "b"), 2)
    assert x == (0, "x") and Violation(row=2) == (2, None) and column == (("a", "b"), 2)
    index, name = x
    assert (index, name) == (0, "x")
    group = FamilyGroup(frozenset({1}), (0, 2))
    assert group.multiplicity == 2
    records = ((Violation(row=0), "row"), (verdict, "sample"), (column, "count"))
    records += ((group, "copies"), (_int_row(LinearRow({x: 1}, Rel.LEQ, 1)), "rhs"))
    point = IntAssignment({x: 1})
    with pytest.raises(TypeError):
        hash(point)  # a dict field leaves the value unhashable
    system = LinearSystem(make_vars([("x", 0, 1)]), ())
    assert system == LinearSystem(make_vars([("x", 0, 1)]), ())
    for value, field in ((x, "index"), (point, "values"), (system, "rows")) + records:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.other = None
    assert system._search is system._search  # cached on the instance

"""Core solver tests: evaluation order, exact arithmetic, search.

The reference point throughout is a deliberately naive box enumerator
(`_brute_points`) that shares no code with the solver.
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
from resilp.errors import DomainError, UnboundedVarError, ValidationError
from resilp.ilp import (
    IntAssignment,
    LinearRow,
    LinearSystem,
    Rel,
    VarBounds,
    VarId,
    evaluate,
    format_rational,
    iter_feasible,
    make_vars,
    parse_rational,
    solve_feasibility,
)
from resilp.oracles import forall_exists_oracle


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


def test_solve_rejects_unbounded_variable():
    variables = ((VarId(0, "x"), VarBounds(0, None)),)
    sys_ = LinearSystem(variables, ())
    with pytest.raises(UnboundedVarError):
        solve_feasibility(sys_)


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


@pytest.mark.parametrize("bad", [1.5, "1.5", "1/0", "a/b", None, True, "1/-2"])
def test_rational_rejects_non_rationals(bad):
    with pytest.raises(ValidationError):
        parse_rational(bad)


def test_row_rejects_float_coefficients():
    x = VarId(0, "x")
    with pytest.raises(ValidationError):
        LinearRow({x: 0.5}, Rel.LEQ, 1)
    with pytest.raises(ValidationError):
        LinearRow({x: 1}, Rel.LEQ, 0.5)


def test_system_validates_density_and_names():
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
    assert not VarBounds(None, 3).finite


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

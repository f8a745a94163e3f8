"""Bounded integer feasibility for exact-rational linear systems.

Variables live in finite integer boxes.  Rows are sparse linear
constraints with ``<=`` or ``=`` relations and :class:`fractions.Fraction`
coefficients; no floating point enters the core.  The search scales each
row by the LCM of its denominators, so it works on integers only, and reads
each ``=`` row as a pair of ``<=`` rows.  Feasibility is decided by a
depth-first branch-and-prune search over variables in index order, run on
an explicit stack rather than by recursion, with row-based interval
propagation: a branch dies as soon as some row's minimal achievable
left-hand side exceeds its right-hand side.

The same search, run to exhaustion, enumerates every feasible point in
lexicographic order of variable values; the resiliency engine uses that
to walk adversarial scenarios.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Tuple, Union

from .errors import DomainError, UnboundedVarError, ValidationError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(value: Union[int, str]) -> Fraction:
    """Parse a serialized rational: a JSON integer or a ``"p/q"`` string.

    Floats are rejected so inexact values can never leak into a system.
    """
    if isinstance(value, bool):
        raise ValidationError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_RE.match(value):
        num, _, den = value.partition("/")
        if not den:
            return Fraction(int(num))
        if int(den) == 0:
            raise ValidationError(f"zero denominator: {value!r}")
        return Fraction(int(num), int(den))
    raise ValidationError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> Union[int, str]:
    """Serialize a rational as a bare integer when possible, else ``"p/q"``."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


class Rel(str, Enum):
    """Row relation: less-or-equal or equality."""

    LEQ = "<="
    EQ = "="


@dataclass(frozen=True, order=True)
class VarId:
    """A variable: dense index within its system plus a unique name."""

    index: int
    name: str


@dataclass(frozen=True)
class VarBounds:
    """Inclusive integer box for one variable.

    ``None`` on either side means unbounded; the solver refuses such
    variables with :class:`UnboundedVarError`, but the type tolerates them
    so deserialized documents can be inspected before being solved.
    """

    lower: Optional[int]
    upper: Optional[int]

    def __post_init__(self):
        for side in (self.lower, self.upper):
            if side is not None and (isinstance(side, bool) or not isinstance(side, int)):
                raise ValidationError(f"bound must be an integer or None: {side!r}")
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise ValidationError(f"empty box: [{self.lower}, {self.upper}]")

    @property
    def finite(self) -> bool:
        return self.lower is not None and self.upper is not None


def _coerce_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ValidationError(f"coefficient must be an int or Fraction, got {value!r}")


@dataclass(frozen=True)
class LinearRow:
    """One sparse constraint: ``sum(coeffs[v] * a[v]) rel rhs``.

    The key set of ``coeffs`` is the row's support, zero coefficients
    included; block classification of serialized systems relies on which
    variables a row mentions, not on which coefficients are nonzero.
    """

    coeffs: Mapping[VarId, Fraction]
    rel: Rel
    rhs: Fraction

    def __post_init__(self):
        clean = {}
        for vid, c in dict(self.coeffs).items():
            if not isinstance(vid, VarId):
                raise ValidationError(f"coefficient key must be a VarId: {vid!r}")
            clean[vid] = _coerce_rational(c)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "rel", Rel(self.rel))
        object.__setattr__(self, "rhs", _coerce_rational(self.rhs))

    def support(self) -> frozenset:
        return frozenset(self.coeffs)


@dataclass(frozen=True)
class LinearSystem:
    """A conjunction of rows over box-bounded integer variables."""

    variables: Tuple[Tuple[VarId, VarBounds], ...]
    rows: Tuple[LinearRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(tuple(v) for v in self.variables))
        object.__setattr__(self, "rows", tuple(self.rows))
        names = set()
        for i, (vid, bounds) in enumerate(self.variables):
            if not isinstance(vid, VarId) or not isinstance(bounds, VarBounds):
                raise ValidationError("variables must be (VarId, VarBounds) pairs")
            if vid.index != i:
                raise ValidationError(
                    f"variable indices must be dense: {vid.name!r} has index "
                    f"{vid.index}, expected {i}"
                )
            if vid.name in names:
                raise ValidationError(f"duplicate variable name: {vid.name!r}")
            names.add(vid.name)
        known = {vid for vid, _ in self.variables}
        for r, row in enumerate(self.rows):
            unknown = row.support() - known
            if unknown:
                bad = ", ".join(sorted(v.name for v in unknown))
                raise ValidationError(f"row {r} references unknown variables: {bad}")


@dataclass(frozen=True)
class IntAssignment:
    """A total integer assignment for some variable set."""

    values: Mapping[VarId, int]

    def __post_init__(self):
        clean = {}
        for vid, v in dict(self.values).items():
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValidationError(f"assignment value must be an integer: {v!r}")
            clean[vid] = v
        object.__setattr__(self, "values", clean)

    def __getitem__(self, vid: VarId) -> int:
        return self.values[vid]

    def by_name(self) -> dict:
        """Name -> value, ordered by variable index."""
        return {vid.name: v for vid, v in sorted(self.values.items())}


@dataclass(frozen=True)
class Violation:
    """First failed constraint found by :func:`evaluate`.

    Exactly one of ``row`` (row index) and ``var`` (box bound) is set.
    """

    row: Optional[int] = None
    var: Optional[VarId] = None

    def __str__(self):
        if self.row is not None:
            return f"row {self.row} violated"
        return f"bound of {self.var.name!r} violated"


def evaluate(system: LinearSystem, assignment: IntAssignment) -> Optional[Violation]:
    """Check ``assignment`` against every row and box of ``system``.

    Returns ``None`` when everything holds, otherwise the first violated
    row (in row order), or the first violated box bound (in variable
    order) when all rows hold.  The assignment's domain must be exactly
    the system's variable set; anything else raises :class:`DomainError`.
    """
    have = set(assignment.values)
    want = {vid for vid, _ in system.variables}
    if have != want:
        raise DomainError(
            missing=(v.name for v in want - have),
            extra=(v.name for v in have - want),
        )
    for i, row in enumerate(system.rows):
        lhs = Fraction(0)
        for vid, c in row.coeffs.items():
            lhs += c * assignment.values[vid]
        ok = lhs <= row.rhs if row.rel is Rel.LEQ else lhs == row.rhs
        if not ok:
            return Violation(row=i)
    for vid, bounds in system.variables:
        v = assignment.values[vid]
        if bounds.lower is not None and v < bounds.lower:
            return Violation(var=vid)
        if bounds.upper is not None and v > bounds.upper:
            return Violation(var=vid)
    return None


# ---------------------------------------------------------------------------
# branch-and-prune search
# ---------------------------------------------------------------------------


def _compiled_rows(system: LinearSystem):
    """Search rows as (items, rhs) with items = ((var index, coeff), ...).

    This is the one place rows become search rows.  Each row is multiplied
    by the LCM of its denominators, so every coefficient and right-hand
    side is an int; a positive scale keeps the same integer points and the
    same propagation cuts.  Every search row reads ``<=``: an ``=`` row
    becomes the adjacent pair ``lhs <= rhs`` and ``-lhs <= -rhs``.
    """
    out = []
    for row in system.rows:
        scale = math.lcm(
            row.rhs.denominator, *(c.denominator for c in row.coeffs.values())
        )
        items = tuple(
            sorted(
                (vid.index, c.numerator * (scale // c.denominator))
                for vid, c in row.coeffs.items()
                if c != 0
            )
        )
        rhs = row.rhs.numerator * (scale // row.rhs.denominator)
        out.append((items, rhs))
        if row.rel is Rel.EQ:
            out.append((tuple((j, -c) for j, c in items), -rhs))
    return out


def _propagate(rows, lo, hi) -> bool:
    """Shrink boxes until fixpoint; False when some row cannot be met.

    For each row the minimal achievable lhs is computed from interval
    endpoints; any value of a variable that would push the row past its
    rhs even with every other variable at its friendliest endpoint is cut.
    Values removed here cannot occur in any feasible completion, so the
    same propagation is safe during exhaustive enumeration.  Rows come from
    :func:`_compiled_rows`, so all arithmetic is on ints.
    """
    changed = True
    while changed:
        changed = False
        for items, rhs in rows:
            minlhs = 0
            for j, c in items:
                minlhs += c * (lo[j] if c > 0 else hi[j])
            if minlhs > rhs:
                return False
            for j, c in items:
                cmin = c * (lo[j] if c > 0 else hi[j])
                slack = rhs - (minlhs - cmin)
                if c > 0:
                    cap = slack // c
                    if cap < hi[j]:
                        hi[j] = cap
                        if lo[j] > hi[j]:
                            return False
                        changed = True
                else:
                    floor_ = -(slack // -c)
                    if floor_ > lo[j]:
                        lo[j] = floor_
                        if lo[j] > hi[j]:
                            return False
                        changed = True
    return True


def _branches(lo, hi, k):
    """Child boxes of (lo, hi) that fix variable k, in ascending value order."""
    for v in range(lo[k], hi[k] + 1):
        nlo = lo.copy()
        nhi = hi.copy()
        nlo[k] = nhi[k] = v
        yield nlo, nhi


def iter_feasible(system: LinearSystem) -> Iterator[IntAssignment]:
    """All feasible points, in lexicographic order of variable values.

    Bounds are validated eagerly (raising :class:`UnboundedVarError`)
    before the generator is handed back.
    """
    for vid, bounds in system.variables:
        if not bounds.finite:
            raise UnboundedVarError(vid.name)
    rows = _compiled_rows(system)
    varids = [vid for vid, _ in system.variables]
    lo0 = [bounds.lower for _, bounds in system.variables]
    hi0 = [bounds.upper for _, bounds in system.variables]
    n = len(varids)

    def search():
        # One lazy child iterator per open level: the top one yields the
        # next sibling to visit, so points come out in lexicographic order
        # and only the boxes on the current path are held in memory.
        stack = [iter([(lo0, hi0)])]
        while stack:
            box = next(stack[-1], None)
            if box is None:
                stack.pop()
                continue
            lo, hi = box
            if not _propagate(rows, lo, hi):
                continue
            k = next((i for i in range(n) if lo[i] < hi[i]), None)
            if k is None:
                yield IntAssignment({varids[i]: lo[i] for i in range(n)})
            else:
                stack.append(_branches(lo, hi, k))

    return search()


def solve_feasibility(system: LinearSystem) -> Optional[IntAssignment]:
    """First feasible point in lexicographic order, or ``None``.

    The returned witness always passes :func:`evaluate`; the
    feasible/infeasible bit is deterministic across runs.
    """
    return next(iter_feasible(system), None)


def make_vars(specs: Sequence[Tuple[str, int, int]]) -> Tuple[Tuple[VarId, VarBounds], ...]:
    """Build a dense variable tuple from (name, lower, upper) triples."""
    return tuple(
        (VarId(i, name), VarBounds(lower, upper))
        for i, (name, lower, upper) in enumerate(specs)
    )

"""Bounded integer feasibility for exact-rational linear systems.

Variables live in finite integer boxes.  Rows are sparse linear
constraints with ``<=`` or ``=`` relations and exact rational
coefficients: an integral value read or built as an ``int`` stays an
``int``, and :class:`fractions.Fraction` holds any other rational (both
have ``numerator`` and ``denominator``, which is all the compiler reads);
no floating point enters the core.  Each system is compiled for the
search once, on first use: every row is scaled by the LCM of its
denominators and divided by the gcd of its coefficients (gcd tightening),
so the search works on integers only, and each ``=`` row is read as a pair
of ``<=`` rows.  Feasibility is decided by a depth-first branch-and-prune
search over variables in index order, run on an explicit stack rather than
by recursion, with row-based interval propagation: a branch dies as soon
as some row's minimal achievable left-hand side exceeds its right-hand
side.  Propagation is queue-driven: a child box starts from its parent's
fixpoint, so only the rows that read a variable just fixed or tightened
are scanned again.  The root box is the variable boxes with every row
queued, unless the compiled system names a narrower root: a box at the
fixpoint of some of its rows, with every other row queued.  The
resiliency engine starts each scenario from the fixpoint of its x rows.

The value classes check their fields when a caller builds them; the
values the solver and the engine build from checked parts skip the
checks (:func:`_build`).

The same search, run to exhaustion, enumerates every feasible point in
lexicographic order of variable values; the resiliency engine uses that
to walk adversarial scenarios.

Two encoders phrase a move between types the same way: integer variables
count the units of type s that become type d, a census counts what
arrives at each type, and a budget row caps the cost of the paid moves.
:func:`transfer` builds that block and :func:`read_transfer` reads an
assignment of it back, checking every row it stands for.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DomainError, ValidationError

_RATIONAL_RE = re.compile(r"-?[0-9]+/[0-9]+")


def parse_rational(value: Union[int, str]) -> Union[int, Fraction]:
    """Parse a serialized rational: a JSON integer or a ``"p/q"`` string.

    A JSON integer stays an int.  The string must match ``-?[0-9]+/[0-9]+``
    in full, the pattern of the schema in docs/formats.md, and becomes a
    :class:`~fractions.Fraction`.  Floats are rejected so inexact values
    can never leak into a system.
    """
    if type(value) is int:
        return value
    if isinstance(value, str) and _RATIONAL_RE.fullmatch(value):
        num, _, den = value.partition("/")
        try:
            num, den = int(num), int(den)
        except ValueError:  # more digits than int() reads
            raise ValidationError(
                f"rational has too many digits: {len(value)} characters"
            ) from None
        if den == 0:
            raise ValidationError(f"zero denominator: {value!r}")
        return Fraction(num, den)
    raise ValidationError(f"not a rational: {value!r}")


def format_rational(value: Union[int, Fraction]) -> Union[int, str]:
    """Serialize a rational as a bare integer when possible, else ``"p/q"``."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


class Rel(str, Enum):
    """Row relation: less-or-equal or equality."""

    LEQ = "<="
    EQ = "="


class Value:
    """Base of resilp's immutable value classes that check their fields.

    A record whose constructor checks nothing is a ``typing.NamedTuple``
    instead (:class:`VarId`, :class:`Violation`), which hashes and
    compares in C and equals a plain tuple with the same items.

    A subclass names its fields, in order, in ``_fields``; its
    ``__init__`` checks its arguments and stores each field once with
    ``object.__setattr__``, which keeps the fields where CPython reads
    them fastest.  An instance equals only an instance of the same class
    with equal fields, hashes its fields (so a dict field leaves it
    unhashable), prints as ``Name(field=value, ...)`` and refuses to have
    an attribute assigned or deleted.  The standard library's class
    decorator would give the same behaviour, but it costs every ``resilp``
    start an import of ``inspect`` and an ``exec`` per decorated class.
    """

    _fields: Tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _build(cls, *fields):
    """A ``cls`` instance holding ``fields``, in ``cls._fields`` order,
    without running the checks of ``cls.__init__``.

    Only for fields that are valid already: parts of a system that were
    checked once per system, or ints that a search produced.  A caller
    hands each mutable field over as an object of its own.
    """
    self = object.__new__(cls)
    for name, value in zip(cls._fields, fields):
        object.__setattr__(self, name, value)
    return self


class VarId(NamedTuple):
    """A variable: dense index within its system plus a unique name,
    ordered by ``(index, name)``."""

    index: int
    name: str


class VarBounds(Value):
    """Inclusive integer box for one variable: two ints, lower <= upper."""

    _fields = ("lower", "upper")

    def __init__(self, lower: int, upper: int):
        for side in (lower, upper):
            if type(side) is not int:
                raise ValidationError(f"bound must be an integer: {side!r}")
        if lower > upper:
            raise ValidationError(f"empty box: [{lower}, {upper}]")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


def _coerce_rational(value) -> Union[int, Fraction]:
    # The int test comes first: it is the common case, and an isinstance
    # test against Fraction goes through ABCMeta.__instancecheck__.
    if type(value) is int or isinstance(value, Fraction):
        return value
    raise ValidationError(f"coefficient must be an int or Fraction, got {value!r}")


class LinearRow(Value):
    """One sparse constraint: ``sum(coeffs[v] * a[v]) rel rhs``.

    The key set of ``coeffs`` is the row's support, zero coefficients
    included; block classification of serialized systems relies on which
    variables a row mentions, not on which coefficients are nonzero.
    """

    _fields = ("coeffs", "rel", "rhs")

    def __init__(
        self,
        coeffs: Mapping[VarId, Union[int, Fraction]],
        rel: Rel,
        rhs: Union[int, Fraction],
    ):
        clean = {}
        for vid, c in dict(coeffs).items():
            if not isinstance(vid, VarId):
                raise ValidationError(f"coefficient key must be a VarId: {vid!r}")
            clean[vid] = _coerce_rational(c)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "rel", Rel(rel))
        object.__setattr__(self, "rhs", _coerce_rational(rhs))

    def support(self) -> frozenset:
        return frozenset(self.coeffs)


class LinearSystem(Value):
    """A conjunction of rows over box-bounded integer variables."""

    _fields = ("variables", "rows")

    def __init__(
        self,
        variables: Tuple[Tuple[VarId, VarBounds], ...],
        rows: Tuple[LinearRow, ...],
    ):
        variables = tuple(tuple(v) for v in variables)
        rows = tuple(rows)
        names = set()
        for i, (vid, bounds) in enumerate(variables):
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
        known = {vid for vid, _ in variables}
        for r, row in enumerate(rows):
            unknown = row.support() - known
            if unknown:
                bad = ", ".join(sorted(v.name for v in unknown))
                raise ValidationError(f"row {r} references unknown variables: {bad}")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "rows", rows)

    @cached_property
    def _search(self) -> "_Search":
        """The system compiled for the search, on first use, with its
        variable boxes as the root and every row queued there.

        :func:`resilp.engine.substitute` sets it on the systems it returns,
        from rows and a root compiled once per partitioned system.
        """
        lo = [bounds.lower for _, bounds in self.variables]
        hi = [bounds.upper for _, bounds in self.variables]
        return _layout([_int_row(row) for row in self.rows], lo, hi)


class IntAssignment(Value):
    """A total integer assignment for some variable set."""

    _fields = ("values",)

    def __init__(self, values: Mapping[VarId, int]):
        clean = {}
        for vid, v in dict(values).items():
            if type(v) is not int:
                raise ValidationError(f"assignment value must be an integer: {v!r}")
            clean[vid] = v
        object.__setattr__(self, "values", clean)

    def __getitem__(self, vid: VarId) -> int:
        return self.values[vid]

    def by_name(self) -> dict:
        """Name -> value, ordered by variable index."""
        return {vid.name: v for vid, v in sorted(self.values.items())}


class Violation(NamedTuple):
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
        lhs = 0
        for vid, c in row.coeffs.items():
            lhs += c * assignment.values[vid]
        ok = lhs <= row.rhs if row.rel is Rel.LEQ else lhs == row.rhs
        if not ok:
            return Violation(row=i)
    for vid, bounds in system.variables:
        if not bounds.lower <= assignment.values[vid] <= bounds.upper:
            return Violation(var=vid)
    return None


# ---------------------------------------------------------------------------
# branch-and-prune search
# ---------------------------------------------------------------------------

_FALSE = ((), -1)  # a search row no point meets: 0 <= -1


class _IntRow(NamedTuple):
    """One row times the LCM of all its denominators, ready to become
    search rows for any right-hand side.

    ``sides`` holds the row's items ``((var index, coeff), ...)`` over the
    searched variables, sorted, zero coefficients dropped and divided by
    their gcd ``g``; an ``=`` row also holds the same items negated.
    ``shift`` holds the scaled items over the variables that are folded
    into the right-hand side instead (not divided by ``g``), ``rhs`` the
    scaled right-hand side and ``scale`` the LCM.
    """

    sides: tuple
    g: int
    shift: tuple
    rhs: int
    scale: int

    def search_rows(self, rhs: int) -> list:
        """The search rows, all ``<=``, for this row against ``rhs``: an int
        on the row's scale with the folded terms already moved into it.

        Gcd tightening: the searched part of the lhs is a multiple of ``g``,
        so a ``<=`` row keeps the same integer points with rhs ``rhs // g``,
        and an ``=`` row whose rhs ``g`` does not divide has none.  An ``=``
        row always gives two rows, so row positions do not depend on rhs.
        """
        q, r = divmod(rhs, self.g)
        if len(self.sides) == 1:
            return [(self.sides[0], q)]
        if r:
            return [_FALSE, _FALSE]
        return [(self.sides[0], q), (self.sides[1], -q)]


def _int_row(row: LinearRow, folded=frozenset()) -> _IntRow:
    """Compile ``row``, with the variables in ``folded`` moved to the shift.

    With :meth:`_IntRow.search_rows` this is the one place rows become
    search rows.  The row is multiplied by the LCM of all its denominators,
    folded coefficients included, so every number is an int; a positive
    scale keeps the same integer points and the same propagation cuts.
    """
    scale = math.lcm(
        row.rhs.denominator, *(c.denominator for c in row.coeffs.values())
    )
    items, shift = [], []
    for vid, c in row.coeffs.items():
        if c:
            scaled = (vid.index, c.numerator * (scale // c.denominator))
            (shift if vid in folded else items).append(scaled)
    g = math.gcd(*(c for _, c in items)) or 1
    items = tuple(sorted((j, c // g) for j, c in items))
    sides = (items,)
    if row.rel is Rel.EQ:
        sides += (tuple((j, -c) for j, c in items),)
    rhs = row.rhs.numerator * (scale // row.rhs.denominator)
    return _IntRow(sides, g, tuple(shift), rhs, scale)


class _Search(NamedTuple):
    """A system compiled for the search: its search rows, per variable
    index the positions of the rows that read that variable, and the
    root ``(lo, hi, todo)``: the box the search starts from and the rows
    to scan there.  The root box is the variable boxes with every row
    queued, or a box where the rows left out of ``todo`` are already at
    their fixpoint (see :func:`_propagate`)."""

    rows: list
    watch: list
    root: tuple


def _layout(forms: Sequence[_IntRow], lo: list, hi: list, head=None) -> _Search:
    """``forms`` laid out in order as a search over the boxes ``lo``, ``hi``
    with every row queued: each form's search rows against its own rhs,
    after the rows of ``head`` (a search over the same variables) when
    given, and per variable the positions of the rows that read it.

    With :func:`_int_row` this is the one place rows become a search.
    """
    rows, watch = [], [[] for _ in lo]
    if head is not None:
        rows, watch = list(head.rows), [w.copy() for w in head.watch]
    for form in forms:
        for r, items in enumerate(form.sides, len(rows)):
            for j, _ in items:
                watch[j].append(r)
        rows += form.search_rows(form.rhs)
    return _Search(rows, watch, (lo, hi, range(len(rows))))


def _propagate(rows, watch, lo, hi, todo) -> bool:
    """Shrink boxes until fixpoint; False when some row cannot be met.

    For each row the minimal achievable lhs is computed from interval
    endpoints; any value of a variable that would push the row past its
    rhs even with every other variable at its friendliest endpoint is cut.
    Values removed here cannot occur in any feasible completion, so the
    same propagation is safe during exhaustive enumeration.  Rows come from
    :func:`_int_row`, so all arithmetic is on ints.

    Only the rows in ``todo`` are scanned at first; a row is scanned again
    when a variable it reads is tightened.  The greatest common fixpoint of
    the cuts is unique, so this reaches the same boxes as sweeping every
    row until nothing changes, provided every row left out of ``todo``
    already holds at its fixpoint (the caller's box differs from one such
    box only in variables the ``todo`` rows read).
    """
    todo = list(todo)
    queued = set(todo)
    for r in todo:  # rows appended below are visited too
        items, rhs = rows[r]
        minlhs = 0
        for j, c in items:
            minlhs += c * (lo[j] if c > 0 else hi[j])
        if minlhs > rhs:
            return False
        # slack = rhs - minlhs >= 0, so no cut empties a box: a dead box
        # shows up as minlhs > rhs on some row.  A cut moves only the
        # endpoint minlhs does not read, so this row stays at its own
        # fixpoint and is not queued again by its own cuts.
        slack = rhs - minlhs
        for j, c in items:
            if c > 0:
                cap = lo[j] + slack // c
                if cap >= hi[j]:
                    continue
                hi[j] = cap
            else:
                floor_ = hi[j] - slack // -c
                if floor_ <= lo[j]:
                    continue
                lo[j] = floor_
            for w in watch[j]:
                if w not in queued:
                    queued.add(w)
                    todo.append(w)
        queued.discard(r)
    return True


def _branches(lo, hi, k):
    """Child boxes of (lo, hi) that fix variable k, in ascending value order."""
    for v in range(lo[k], hi[k] + 1):
        nlo = lo.copy()
        nhi = hi.copy()
        nlo[k] = nhi[k] = v
        yield nlo, nhi, k


def _walk(search: _Search) -> Iterator[list]:
    """Every point of the root box of ``search`` that meets its rows, as an
    int list, in lexicographic order.

    The root scans the rows of the root queue first (see :func:`_propagate`)
    and works on copies of the root box; each point the walk yields is a
    list of its own, which the caller may keep or change.
    """
    rows, watch, (lo, hi, root) = search
    n = len(lo)
    # One lazy child iterator per open level: the top one yields the next
    # sibling to visit, so points come out in lexicographic order and only
    # the boxes on the current path are held in memory.  A box carries the
    # variable its parent branched on (-1 at the root).
    stack = [iter([(lo.copy(), hi.copy(), -1)])]
    while stack:
        box = next(stack[-1], None)
        if box is None:
            stack.pop()
            continue
        lo, hi, k = box
        # A child box is its parent's fixpoint with variable k fixed, so
        # only the rows that read k need scanning first.
        todo = watch[k] if k >= 0 else root
        if not _propagate(rows, watch, lo, hi, todo):
            continue
        # Variables before k were fixed at the parent; k is fixed now.
        k = next((i for i in range(k + 1, n) if lo[i] < hi[i]), None)
        if k is None:
            yield lo
        else:
            stack.append(_branches(lo, hi, k))


def iter_feasible(system: LinearSystem) -> Iterator[IntAssignment]:
    """All feasible points, in lexicographic order of variable values."""
    varids = [vid for vid, _ in system.variables]
    points = _walk(system._search)
    return (_build(IntAssignment, dict(zip(varids, z))) for z in points)


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


def transfer(types, move, census, upper, total, cost, budget) -> tuple:
    """Variables and rows of a block that moves units between ``types``.

    ``move(s, d)`` names the count of units of type s that become type d,
    ``census(d)`` the count that ends at d.  Returns four things:

    - the variables: the moves in (s, d) order, each with box
      [0, upper(s)], then the census variables, each with box [0, total];
    - per source s, the coefficients of its outflow (each move out of s,
      its stay included, with coefficient 1); the caller finishes the row;
    - the arrival rows: census(d) equals the moves into d;
    - the budget row, ``sum(cost(s, d) * move(s, d)) <= budget`` over the
      moves that cost something, as a list; it is empty when no move
      costs anything, where the row would be vacuous.
    """
    variables = make_vars(
        [(move(s, d), 0, upper(s)) for s in types for d in types]
        + [(census(d), 0, total) for d in types]
    )
    ids = [vid for vid, _ in variables]
    moves = dict(zip(product(types, repeat=2), ids))
    counts = dict(zip(types, ids[len(moves):]))
    arrivals = [
        LinearRow({**{moves[s, d]: 1 for s in types}, counts[d]: -1}, Rel.EQ, 0)
        for d in types
    ]
    outflow = {s: {moves[s, d]: 1 for d in types} for s in types}
    paid = {vid: c for (s, d), vid in moves.items() if (c := cost(s, d))}
    spend = [LinearRow(paid, Rel.LEQ, budget)] if paid else []
    return variables, outflow, arrivals, spend


def read_transfer(values, types, move, census, source, cost, budget) -> dict:
    """The counts ``{(s, d): count}`` of a :func:`transfer` block, in (s, d)
    order, read from ``values`` (name -> int; a missing name reads as 0).

    Raises :class:`ValidationError` when a name is not one of the block's
    variables, when a count is negative, when a source s does not send
    exactly ``source(s)`` units, when the moves cost more than ``budget``,
    or when a census variable differs from what arrives.  Types are
    tuples; a message shows one as its items joined.
    """
    known = {move(s, d) for s in types for d in types} | set(map(census, types))
    if not values.keys() <= known:
        unknown = ", ".join(sorted(values.keys() - known))
        raise ValidationError(f"not a variable of the block: {unknown}")
    flows = {}
    for s in types:
        out = 0
        for d in types:
            count = flows[s, d] = values.get(move(s, d), 0)
            if count < 0:
                raise ValidationError(f"negative flow: {move(s, d)} = {count}")
            out += count
        if out != source(s):
            raise ValidationError(
                f"flow out of {_show(s)} is {out}, census says {source(s)}"
            )
    spent = sum(count * cost(s, d) for (s, d), count in flows.items() if count)
    if spent > budget:
        raise ValidationError(f"moves cost {spent} > budget {budget}")
    for d in types:
        if values.get(census(d), 0) != sum(flows[s, d] for s in types):
            raise ValidationError(
                f"census variable for {_show(d)} disagrees with the flow"
            )
    return flows


def _show(t) -> str:
    return "".join(map(str, t))

"""Adversarial resiliency of partitioned integer linear systems.

A partitioned system splits its variables into a plain block ``x`` and an
adversarial block ``z``, and its rows into three groups: rows over x only,
rows mixing x and z, and rows over z only.  The system is *resilient* when
for every integral z-point that satisfies the z-only rows and the z boxes,
the remaining system over x (with the z terms folded into the right-hand
sides) still has an integral solution.

``check_resiliency`` decides that by walking scenarios in lexicographic
order and running the bounded-box solver on each substituted system; it
stops at the first failing scenario, which becomes the witness.  An empty
scenario set (the adversary has no admissible move at all) is vacuously
resilient with zero scenarios checked.

Each row compiles once, by ``ilp._int_row``, and rows become a search
only through ``ilp._layout``, so the engine never counts search-row
positions.  The z rows compile in the z walk, the x rows in the search
of the system's x block, and the mixed rows in the kernel.

``enumerate_scenarios`` runs the search of :mod:`resilp.ilp` (the walk
``iter_feasible`` also runs) on the compiled z rows, with the defined z
variables left out: the walk picks them on the compiled rows and lays
out only the rows it keeps.  A z variable v is defined when exactly one
z row reads it, that row is an ``=`` row whose rhs its gcd divides, v's
compiled coefficient there is 1 or -1, every other variable of the row
comes before v, and the row's other boxes put v inside its own box, so
the row never cuts.  Such a v has one value for each point of the
others, and two points never first differ at v.  So the walk holds v's
box at one value, drops its row and computes v at each leaf: the points
and their order are those of the full search.  The census variables of
``ilp.transfer`` blocks are defined.

Each partitioned system is compiled once, on first use, into an integer
kernel: the x block's search rows, watch lists and boxes, and each mixed
row as a scaled x part, a scaled z part ``form.shift`` (its row of B, by
z index, the one form B is kept in) and a scaled base right-hand side.
Per scenario, ``substitute`` computes rhs = base - B*z in ints, and hands
the solver those rows with the substituted system.

A compiled system (``_zwalk``, ``_kernel``, the x block's ``_search``)
is never written after it is built: a check keeps its state in its own
locals and in the scenarios it yields, so checks of one system may run in
several threads, and each returns what a lone check returns.  Each
scenario ``enumerate_scenarios`` yields records its walk and its point,
as an int list, in its instance dict outside its fields.  A scenario
whose record names this system's walk (by identity) and whose values
still equal that list is admissible by construction and is not checked
again, however far the walk has moved on.  Any other scenario, including
a yielded one whose values were changed afterwards, is checked in full by
``evaluate`` against the z system, which also names its first violation.
A copy or pickle of a scenario holds its values only (see
:class:`~resilp.ilp.Value`), so it has no record and is checked in full;
a copied system compiles again when it is first used.

The kernel also compiles the root of every scenario's x search once: it
propagates the x block's rows alone from its boxes, over its own watch
lists, and each search starts from that fixpoint with only the mixed
rows queued.  That box contains the fixpoint of all the rows, and the
greatest common fixpoint is unique, so the root box, every node and the
lex-first x are those of a search from the x boxes with every row
queued.  When the x rows alone have no point, every search starts from
the x boxes with every row queued.  The substituted system, its folded
mixed rows and the scenarios and answers the walks yield are built from
parts checked once per system and from the walks' ints, so they skip the
value classes' checks; each holds dicts of its own, so a caller that
changes one changes neither the kernel nor a later answer.

The x side sees a scenario only through its shift B*z, the z terms of
the mixed rows: the x rows and x boxes stay fixed, and each mixed row's
rhs is base - shift.  So ``check_resiliency`` keeps, for one call, the
shifts of the scenarios it found feasible, and counts a later scenario
with an equal shift as checked without substituting or solving it.  A
scenario's key sums each ``form.shift`` over the int list its own record
holds.  Only feasible shifts are kept, so the first failing scenario
is always solved and becomes the witness.  The memo runs only when the
kernel has fewer mixed rows than z variables: then B's columns are
linearly dependent, so two distinct z can share a shift.  With at least
as many rows it is off: that covers every B of full column rank, where
each shift is new, and a dependent B it misses only costs solves.  It
stops growing at ``_MAX_SHIFTS`` keys, past which a new shift is simply
solved.

Each block is indexed densely from zero so that both the z subsystem and
the substituted x system are well-formed :class:`~resilp.ilp.LinearSystem`
values; variable names stay unique across the whole system.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Tuple

from .errors import BudgetError, DomainError, ScenarioError, ValidationError
from .ilp import (
    IntAssignment,
    LinearRow,
    LinearSystem,
    Value,
    VarBounds,
    VarId,
    _int_row,
    _Search,
    _build,
    _layout,
    _propagate,
    _walk,
    evaluate,
    solve_feasibility,
)

# Scenarios check_resiliency checks at most when no other cap is given.
_MAX_SCENARIOS = 1_000_000

# Shifts one check_resiliency call keeps at most; a shift past the cap is
# solved, so the cap bounds memory and never changes an answer.
_MAX_SHIFTS = 1 << 16


class ResiliencySystem(Value):
    """A linear system partitioned for the "for every z there is an x" game."""

    _fields = ("x_vars", "z_vars", "rows_x", "rows_xz", "rows_z")

    def __init__(
        self,
        x_vars: Tuple[Tuple[VarId, VarBounds], ...],
        z_vars: Tuple[Tuple[VarId, VarBounds], ...],
        rows_x: Tuple[LinearRow, ...],
        rows_xz: Tuple[LinearRow, ...],
        rows_z: Tuple[LinearRow, ...],
    ):
        # Each block is its own dense index space, checked as a system of
        # its own rows; names are global, and mixed rows read both blocks.
        xsys = LinearSystem(x_vars, rows_x)
        zsys = LinearSystem(z_vars, rows_z)
        rows_xz = tuple(rows_xz)
        xnames = {vid.name for vid, _ in xsys.variables}
        for vid, _ in zsys.variables:
            if vid.name in xnames:
                raise ValidationError(f"duplicate variable name: {vid.name!r}")
        known = {vid for vid, _ in xsys.variables + zsys.variables}
        for r, row in enumerate(rows_xz):
            if not row.support() <= known:
                raise ValidationError(f"xz-row {r} references unknown variables")
        Value.__init__(
            self, xsys.variables, zsys.variables, xsys.rows, rows_xz, zsys.rows
        )
        object.__setattr__(self, "_xsys", xsys)
        object.__setattr__(self, "_zsys", zsys)

    @property
    def kappa(self) -> int:
        """Dimension-plus-rows parameter: both variable blocks and every
        row the x side must answer for (z-only rows shape the scenario set
        but never the substituted systems)."""
        return (
            len(self.x_vars)
            + len(self.z_vars)
            + len(self.rows_x)
            + len(self.rows_xz)
        )

    def z_system(self) -> LinearSystem:
        """The z block with the z-only rows, built once per system."""
        return self._zsys

    @cached_property
    def _zwalk(self) -> "_ZWalk":
        return _ZWalk(self.z_system())

    @cached_property
    def _kernel(self) -> "_Kernel":
        return _Kernel(self)


class _ZWalk:
    """The z search of a :class:`ResiliencySystem` as
    :func:`enumerate_scenarios` walks it, in ``search``: the z rows
    compiled once, with the rows of defined variables left out, laid out
    over the z boxes with each defined variable held at one value (see the
    module docstring).

    ``zids`` holds the z ids in index order and ``zkeys`` the same as a
    set.  ``defined`` holds ``(v, c, rhs, rest)`` per defined variable, in
    index order, for v = c * (rhs - rest·z).  Nothing here is written
    after it is built: each yielded scenario records its own point (see
    the module docstring), so walks of one system may run at once.
    """

    def __init__(self, zsys: LinearSystem):
        self.zids = [vid for vid, _ in zsys.variables]
        self.zkeys = frozenset(self.zids)
        self.defined = []
        lo = [b.lower for _, b in zsys.variables]
        hi = [b.upper for _, b in zsys.variables]
        forms = [_int_row(row) for row in zsys.rows]
        readers = Counter(j for form in forms for j, _ in form.sides[0])
        kept = []
        for form in forms:
            items = form.sides[0]
            q, r = divmod(form.rhs, form.g)
            if len(form.sides) == 2 and items and not r:
                v, c = items[-1]
                rest = items[:-1]
                low = sum(a * (lo[j] if a > 0 else hi[j]) for j, a in rest)
                high = sum(a * (hi[j] if a > 0 else lo[j]) for j, a in rest)
                least, most = sorted((c * (q - low), c * (q - high)))
                if (
                    c in (1, -1)
                    and readers[v] == 1
                    and lo[v] <= least
                    and most <= hi[v]
                ):
                    self.defined.append((v, c, q, rest))
                    hi[v] = lo[v]
                    continue
            kept.append(form)
        self.defined.sort()
        self.search = _layout(kept, lo, hi)


class _Kernel:
    """A :class:`ResiliencySystem` compiled once for :func:`substitute`.

    The x rows are the search rows of the system's x block, compiled there
    once.  Each mixed row compiles to its scaled x items, its scaled z
    items (``form.shift``, B's row) and its scaled base rhs, so a scenario
    only moves right-hand sides: rhs = base - B*z, in ints.  The watch
    lists cover the x rows and then the mixed rows, in the layout
    :func:`substitute` emits them.  ``root`` is the ``(lo, hi, todo)``
    every scenario's search starts from, and ``memo`` whether the shift
    memo runs (see the module docstring).
    """

    def __init__(self, system: ResiliencySystem):
        zkeys = system._zwalk.zkeys
        # (compiled row, x coefficients, relation) per mixed row; the x
        # coefficients keep zero entries, as the folded LinearRow does.
        self.mixed = [
            (
                _int_row(row, zkeys),
                {vid: c for vid, c in row.coeffs.items() if vid not in zkeys},
                row.rel,
            )
            for row in system.rows_xz
        ]
        self.memo = len(self.mixed) < len(zkeys)
        xsearch = system._xsys._search
        self.x_rows, xwatch, (lo, hi, todo) = xsearch
        # The mixed rows go after the x rows.  The layout's root, the x
        # boxes with every row queued, stays when the x rows have no point.
        rows, self.watch, self.root = _layout(
            [form for form, _, _ in self.mixed], lo, hi, xsearch
        )
        xlo, xhi = lo.copy(), hi.copy()  # the x system's own root stays whole
        if _propagate(self.x_rows, xwatch, xlo, xhi, todo):
            self.root = (xlo, xhi, range(len(self.x_rows), len(rows)))


class ResiliencyVerdict(NamedTuple):
    """Outcome of a resiliency check.

    ``witness_z`` is the lexicographically first failing scenario when not
    resilient, else ``None``.  ``scenarios_checked`` counts scenarios
    examined before termination; for a resilient verdict it equals the
    exact number of admissible scenarios.  ``sample`` is the first
    scenario with the x the check found for it (``None`` when that
    scenario has no answer), or ``None`` when there is no scenario.
    """

    resilient: bool
    witness_z: Optional[IntAssignment]
    scenarios_checked: int
    sample: Optional[Tuple[IntAssignment, Optional[IntAssignment]]] = None


def enumerate_scenarios(system: ResiliencySystem) -> Iterator[IntAssignment]:
    """Every integral z-box point satisfying all z-only rows, each exactly
    once, in lexicographic order of z values (variables in index order)."""
    walk = system._zwalk
    zids, defined = walk.zids, walk.defined
    for z in _walk(walk.search):
        for v, c, q, rest in defined:
            z[v] = c * (q - sum(a * z[j] for j, a in rest))
        scenario = _build(IntAssignment, dict(zip(zids, z)))
        vars(scenario)["_walked"] = (walk, z)  # outside the fields
        yield scenario


def substitute(system: ResiliencySystem, scenario: IntAssignment) -> LinearSystem:
    """Fold a scenario into the mixed rows, leaving a system over x only.

    The scenario must be admissible (z boxes and z-only rows); anything
    else raises :class:`ScenarioError`.  Mixed rows keep their x support
    (zero coefficients included) and relation; only the right-hand side
    moves.  x boxes are unchanged.
    """
    kernel, walk = system._kernel, system._zwalk
    values = scenario.values
    z = None
    if values.keys() == walk.zkeys:
        z = [values[vid] for vid in walk.zids]
    # A point this system's walk yielded (a _ZWalk compares by identity),
    # still unchanged, is admissible; evaluate checks any other scenario.
    if getattr(scenario, "_walked", None) != (walk, z):
        try:
            violation = evaluate(system.z_system(), scenario)
        except DomainError as exc:
            raise ScenarioError(f"bad scenario domain: {exc}") from exc
        if violation is not None:
            raise ScenarioError(f"scenario is not admissible: {violation}")
    rows = list(kernel.x_rows)
    folded = []
    for form, xcoeffs, rel in kernel.mixed:
        rhs = form.rhs - sum(c * z[j] for j, c in form.shift)
        rows += form.search_rows(rhs)
        if form.scale > 1:  # an integral row keeps an int rhs
            rhs = Fraction(rhs, form.scale)
        folded.append(_build(LinearRow, xcoeffs.copy(), rel, rhs))
    sub = _build(LinearSystem, system.x_vars, system.rows_x + tuple(folded))
    # Seed the cached compiled form, so the solver does not compile again.
    vars(sub)["_search"] = _Search(rows, kernel.watch, kernel.root)
    return sub


def check_resiliency(
    system: ResiliencySystem, *, max_scenarios: int = _MAX_SCENARIOS
) -> ResiliencyVerdict:
    """Decide resiliency by scenario enumeration plus per-scenario solving.

    Stops at the first failing scenario.  More than ``max_scenarios``
    scenarios raise :class:`BudgetError`.

    A scenario whose shift B*z equals that of a scenario already found
    feasible is counted as checked and not solved again (see the module
    docstring).  The verdict, witness, count and sample are those of
    solving every scenario.
    """
    checked = 0
    sample = None
    for scenario in enumerate_scenarios(system):
        checked += 1
        if checked > max_scenarios:
            raise BudgetError(
                f"scenario budget exceeded ({max_scenarios}); raise the cap "
                "to keep searching"
            )
        if sample is None:
            # Fetched at the first scenario, so a system with none never
            # compiles its kernel.
            kernel = system._kernel
            seen = set()
        if kernel.memo:
            z = scenario._walked[1]  # its own point, as an int list
            key = tuple(
                [sum(c * z[j] for j, c in form.shift) for form, _, _ in kernel.mixed]
            )
            if key in seen:
                continue
        x_values = solve_feasibility(substitute(system, scenario))
        if sample is None:
            sample = (scenario, x_values)
        if x_values is None:
            return ResiliencyVerdict(False, scenario, checked, sample)
        if kernel.memo and len(seen) < _MAX_SHIFTS:
            seen.add(key)
    return ResiliencyVerdict(True, None, checked, sample)


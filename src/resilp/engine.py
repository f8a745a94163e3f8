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

Each partitioned system is compiled once, on first use, into an integer
kernel: the x rows and z rows become fixed search rows, and each mixed row
a scaled x part, a scaled z part and a scaled base right-hand side.  Per
scenario, ``substitute`` checks admissibility and computes
rhs = base - B*z in ints, and hands the solver those rows with the
substituted system; ``evaluate`` runs only to name a rejected scenario's
first violation.

Each block is indexed densely from zero so that both the z subsystem and
the substituted x system are well-formed :class:`~resilp.ilp.LinearSystem`
values; variable names stay unique across the whole system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Tuple

from .errors import BudgetError, DomainError, ScenarioError, ValidationError
from .ilp import (
    IntAssignment,
    LinearRow,
    LinearSystem,
    VarBounds,
    VarId,
    _int_row,
    _Search,
    _watch,
    evaluate,
    iter_feasible,
    solve_feasibility,
)


@dataclass(frozen=True)
class ResiliencySystem:
    """A linear system partitioned for the "for every z there is an x" game."""

    x_vars: Tuple[Tuple[VarId, VarBounds], ...]
    z_vars: Tuple[Tuple[VarId, VarBounds], ...]
    rows_x: Tuple[LinearRow, ...]
    rows_xz: Tuple[LinearRow, ...]
    rows_z: Tuple[LinearRow, ...]

    def __post_init__(self):
        # Each block is its own dense index space, checked as a system of
        # its own rows; names are global, and mixed rows read both blocks.
        xsys = LinearSystem(self.x_vars, self.rows_x)
        zsys = LinearSystem(self.z_vars, self.rows_z)
        object.__setattr__(self, "x_vars", xsys.variables)
        object.__setattr__(self, "z_vars", zsys.variables)
        object.__setattr__(self, "rows_x", xsys.rows)
        object.__setattr__(self, "rows_xz", tuple(self.rows_xz))
        object.__setattr__(self, "rows_z", zsys.rows)
        object.__setattr__(self, "_zsys", zsys)
        xnames = {vid.name for vid, _ in self.x_vars}
        for vid, _ in self.z_vars:
            if vid.name in xnames:
                raise ValidationError(f"duplicate variable name: {vid.name!r}")
        known = {vid for vid, _ in self.x_vars + self.z_vars}
        for r, row in enumerate(self.rows_xz):
            if not row.support() <= known:
                raise ValidationError(f"xz-row {r} references unknown variables")

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
    def _kernel(self) -> "_Kernel":
        return _Kernel(self)


class _Kernel:
    """A :class:`ResiliencySystem` compiled once for :func:`substitute`.

    The x rows compile to fixed search rows.  Each mixed row compiles to
    its scaled x items, its scaled z items (the shift) and its scaled base
    rhs, so a scenario only moves right-hand sides: rhs = base - B*z, in
    ints.  The watch lists cover the x rows and then the mixed rows, in
    the layout :func:`substitute` emits them.
    """

    def __init__(self, system: ResiliencySystem):
        self.zsys = system.z_system()
        self.zids = [vid for vid, _ in system.z_vars]
        self.zkeys = set(self.zids)
        self.zbox = [(b.lower, b.upper) for _, b in system.z_vars]
        xforms = [_int_row(row) for row in system.rows_x]
        self.x_rows = [r for form in xforms for r in form.search_rows(form.rhs)]
        # (compiled row, x coefficients, relation) per mixed row; the x
        # coefficients keep zero entries, as the folded LinearRow does.
        self.mixed = [
            (
                _int_row(row, self.zkeys),
                {vid: c for vid, c in row.coeffs.items() if vid not in self.zkeys},
                row.rel,
            )
            for row in system.rows_xz
        ]
        self.watch = _watch(
            len(system.x_vars), xforms + [form for form, _, _ in self.mixed]
        )

    def admitted(self, scenario: IntAssignment) -> Optional[list]:
        """The scenario's z values in index order, or ``None`` when it is
        not admissible.  Checked in ints: the domain, then the compiled z
        rows, then the z boxes."""
        values = scenario.values
        if values.keys() != self.zkeys:
            return None
        z = [values[vid] for vid in self.zids]
        if all(
            sum(c * z[j] for j, c in items) <= rhs
            for items, rhs in self.zsys._search.rows
        ) and all(
            (lower is None or lower <= v) and (upper is None or v <= upper)
            for v, (lower, upper) in zip(z, self.zbox)
        ):
            return z
        return None


@dataclass(frozen=True)
class ResiliencyVerdict:
    """Outcome of a resiliency check.

    ``witness_z`` is the lexicographically first failing scenario when not
    resilient, else ``None``.  ``scenarios_checked`` counts scenarios
    examined before termination; for a resilient verdict it equals the
    exact number of admissible scenarios.
    """

    resilient: bool
    witness_z: Optional[IntAssignment]
    scenarios_checked: int


def enumerate_scenarios(system: ResiliencySystem) -> Iterator[IntAssignment]:
    """Every integral z-box point satisfying all z-only rows, each exactly
    once, in lexicographic order of z values (variables in index order)."""
    return iter_feasible(system.z_system())


def substitute(system: ResiliencySystem, scenario: IntAssignment) -> LinearSystem:
    """Fold a scenario into the mixed rows, leaving a system over x only.

    The scenario must be admissible (z boxes and z-only rows); anything
    else raises :class:`ScenarioError`.  Mixed rows keep their x support
    (zero coefficients included) and relation; only the right-hand side
    moves.  x boxes are unchanged.
    """
    kernel = system._kernel
    z = kernel.admitted(scenario)
    if z is None:
        # evaluate names the first violation for the message; only a
        # rejected scenario pays for it.
        try:
            violation = evaluate(kernel.zsys, scenario)
        except DomainError as exc:
            raise ScenarioError(f"bad scenario domain: {exc}") from exc
        raise ScenarioError(f"scenario is not admissible: {violation}")
    rows = list(kernel.x_rows)
    folded = []
    for form, xcoeffs, rel in kernel.mixed:
        rhs = form.rhs - sum(c * z[j] for j, c in form.shift)
        rows += form.search_rows(rhs)
        folded.append(LinearRow(xcoeffs, rel, Fraction(rhs, form.scale)))
    sub = LinearSystem(system.x_vars, system.rows_x + tuple(folded))
    # Seed the cached compiled form, so the solver does not compile again.
    vars(sub)["_search"] = _Search(rows, kernel.watch)
    return sub


def check_resiliency(
    system: ResiliencySystem, *, max_scenarios: Optional[int] = 1_000_000
) -> ResiliencyVerdict:
    """Decide resiliency by scenario enumeration plus per-scenario solving.

    Stops at the first failing scenario.  ``max_scenarios`` guards runaway
    adversarial domains; ``None`` disables the guard.
    """
    checked = 0
    for scenario in enumerate_scenarios(system):
        checked += 1
        if max_scenarios is not None and checked > max_scenarios:
            raise BudgetError(
                f"scenario budget exceeded ({max_scenarios}); raise the cap "
                "to keep searching"
            )
        if solve_feasibility(substitute(system, scenario)) is None:
            return ResiliencyVerdict(False, scenario, checked)
    return ResiliencyVerdict(True, None, checked)


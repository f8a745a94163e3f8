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

Each block is indexed densely from zero so that both the z subsystem and
the substituted x system are well-formed :class:`~resilp.ilp.LinearSystem`
values; variable names stay unique across the whole system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from .errors import BudgetError, ScenarioError, ValidationError
from .ilp import (
    IntAssignment,
    LinearRow,
    LinearSystem,
    VarBounds,
    VarId,
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
        for field in ("x_vars", "z_vars", "rows_x", "rows_xz", "rows_z"):
            object.__setattr__(self, field, tuple(getattr(self, field)))
        # Each block is its own dense index space; names are global.
        names = set()
        for block in (self.x_vars, self.z_vars):
            for i, (vid, _) in enumerate(block):
                if vid.index != i:
                    raise ValidationError(
                        f"block indices must be dense: {vid.name!r} has "
                        f"index {vid.index}, expected {i}"
                    )
                if vid.name in names:
                    raise ValidationError(f"duplicate variable name: {vid.name!r}")
                names.add(vid.name)
        xset = {vid for vid, _ in self.x_vars}
        zset = {vid for vid, _ in self.z_vars}
        for r, row in enumerate(self.rows_x):
            if row.support() & zset:
                raise ValidationError(f"x-row {r} touches adversarial variables")
            if not row.support() <= xset:
                raise ValidationError(f"x-row {r} references unknown variables")
        for r, row in enumerate(self.rows_z):
            if row.support() & xset:
                raise ValidationError(f"z-row {r} touches plain variables")
            if not row.support() <= zset:
                raise ValidationError(f"z-row {r} references unknown variables")
        for r, row in enumerate(self.rows_xz):
            if not row.support() <= (xset | zset):
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
        return LinearSystem(self.z_vars, self.rows_z)


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
    zsys = system.z_system()
    try:
        violation = evaluate(zsys, scenario)
    except Exception as exc:
        raise ScenarioError(f"bad scenario domain: {exc}") from exc
    if violation is not None:
        raise ScenarioError(f"scenario is not admissible: {violation}")
    zset = {vid for vid, _ in system.z_vars}
    folded = []
    for row in system.rows_xz:
        shift = sum(
            (c * scenario[vid] for vid, c in row.coeffs.items() if vid in zset),
            start=0,
        )
        xcoeffs = {vid: c for vid, c in row.coeffs.items() if vid not in zset}
        folded.append(LinearRow(xcoeffs, row.rel, row.rhs - shift))
    return LinearSystem(system.x_vars, system.rows_x + tuple(folded))


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


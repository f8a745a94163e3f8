"""Makespan scheduling with adversarial machine delays.

Jobs come in types; all jobs of a type take the same time on a given
machine (times may differ across machines).  An adversary hands each
machine a start-up delay, spending at most ``K`` time units in total;
the plain side must then assign every job so each machine finishes by
``cmax`` including its delay.
"""

from __future__ import annotations

from typing import List, Tuple

from .engine import ResiliencySystem
from .errors import ScenarioError, ValidationError
from .ilp import IntAssignment, LinearRow, Rel, Value, make_vars
from .jsonio import read_object, require_int, require_ints, require_seq


class SchedulingInstance(Value):
    """``ptimes[t][i]`` is the processing time of a type-``t`` job on
    machine ``i``; ``counts[t]`` is how many such jobs exist."""

    _fields = ("machines", "ptimes", "counts", "K", "cmax")

    def __init__(
        self,
        machines: int,
        ptimes: Tuple[Tuple[int, ...], ...],
        counts: Tuple[int, ...],
        K: int,
        cmax: int,
    ):
        require_int(machines, "machines", 1)
        ptimes = tuple(
            require_ints(row, "processing times", 0)
            for row in require_seq(ptimes, "ptimes")
        )
        counts = require_ints(counts, "job counts", 0)
        require_int(K, "K", 0)
        require_int(cmax, "cmax", 0)
        if not ptimes:
            raise ValidationError("need at least one job type")
        if len(counts) != len(ptimes):
            raise ValidationError("one job count per type required")
        for t, row in enumerate(ptimes):
            if len(row) != machines:
                raise ValidationError(
                    f"type {t} needs a time for each of {machines} machines"
                )
        object.__setattr__(self, "machines", machines)
        object.__setattr__(self, "ptimes", ptimes)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "cmax", cmax)

    @property
    def ntypes(self) -> int:
        return len(self.ptimes)

    @staticmethod
    def from_dict(doc) -> "SchedulingInstance":
        return SchedulingInstance(
            *read_object(
                doc, ("machines", "ptimes", "counts", "K", "cmax"), "instance"
            )
        )

    def to_dict(self) -> dict:
        return {
            "machines": self.machines,
            "ptimes": [list(r) for r in self.ptimes],
            "counts": list(self.counts),
            "K": self.K,
            "cmax": self.cmax,
        }


def _dname(i: int) -> str:
    return f"d{i}"


def _xname(t: int, i: int) -> str:
    return f"x[{t},{i}]"


def encode(inst: SchedulingInstance) -> ResiliencySystem:
    """One delay variable per machine, one count variable per
    (type, machine) pair.

    Capacity rows carry a coefficient for every type on the machine even
    when the processing time is zero, so each machine's row mentions its
    full column of assignment variables.
    """
    z_vars = make_vars([(_dname(i), 0, inst.K) for i in range(inst.machines)])
    pairs = [(t, i) for t in range(inst.ntypes) for i in range(inst.machines)]
    x_vars = make_vars([(_xname(t, i), 0, inst.counts[t]) for t, i in pairs])
    xid = {pair: vid for pair, (vid, _) in zip(pairs, x_vars)}

    # total delay the adversary may hand out
    rows_z = (
        LinearRow({vid: 1 for vid, _ in z_vars}, Rel.LEQ, inst.K),
    )

    # every job of every type is placed somewhere
    rows_x = tuple(
        LinearRow(
            {xid[(t, i)]: 1 for i in range(inst.machines)},
            Rel.EQ,
            inst.counts[t],
        )
        for t in range(inst.ntypes)
    )

    # machine load plus its delay fits under the makespan
    rows_xz = []
    for i in range(inst.machines):
        coeffs = {xid[(t, i)]: inst.ptimes[t][i] for t in range(inst.ntypes)}
        coeffs[z_vars[i][0]] = 1
        rows_xz.append(LinearRow(coeffs, Rel.LEQ, inst.cmax))

    return ResiliencySystem(x_vars, z_vars, rows_x, tuple(rows_xz), rows_z)


def decode_scenario(inst: SchedulingInstance, scenario: IntAssignment) -> Tuple[int, ...]:
    """Scenario -> per-machine delay vector, validated against the budget."""
    values = scenario.by_name()
    expected = {_dname(i) for i in range(inst.machines)}
    if set(values) != expected:
        raise ScenarioError("scenario names do not match the delay variables")
    delays = tuple(values[_dname(i)] for i in range(inst.machines))
    if any(d < 0 or d > inst.K for d in delays):
        raise ScenarioError("delay outside [0, K]")
    if sum(delays) > inst.K:
        raise ScenarioError(f"delays total {sum(delays)} > {inst.K}")
    return delays


def decode_solution(
    inst: SchedulingInstance,
    delays: Tuple[int, ...],
    x_values: IntAssignment,
) -> List[List[int]]:
    """Assignment counts -> ``table[i][t]`` jobs of type t on machine i.

    Validates the count rows and the finish-time contract for every
    machine, raising :class:`ValidationError` on a breach.
    """
    values = x_values.by_name()
    table = [
        [values.get(_xname(t, i), 0) for t in range(inst.ntypes)]
        for i in range(inst.machines)
    ]
    for t in range(inst.ntypes):
        placed = sum(table[i][t] for i in range(inst.machines))
        if placed != inst.counts[t]:
            raise ValidationError(
                f"type {t}: placed {placed} of {inst.counts[t]} jobs"
            )
    for i in range(inst.machines):
        load = delays[i] + sum(
            inst.ptimes[t][i] * table[i][t] for t in range(inst.ntypes)
        )
        if load > inst.cmax:
            raise ValidationError(
                f"machine {i} finishes at {load} > {inst.cmax}"
            )
    return table

"""Two-round bribery in scoring-rule elections.

Voters are grouped by their full preference order.  An adversary first
moves voters between orders, paying one unit per adjacent swap (the
swap distance between the two orders) per voter moved, spending at most
``ba`` in total.  Our side then moves voters the same way with budget
``b``; the question is whether candidate 1 can always be made the unique
winner under the given scoring vector.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, List, Sequence, Tuple

from .engine import ResiliencySystem
from .errors import ArgumentError, BudgetError, ScenarioError, ValidationError
from .ilp import IntAssignment, LinearRow, Rel, Value, read_transfer, transfer
from .jsonio import read_object, require_int, require_ints, require_seq


def kendall(a: Sequence[int], b: Sequence[int]) -> int:
    """Discordant pairs between two orderings of the same elements.

    Equals the number of adjacent transpositions needed to turn one into
    the other.
    """
    if len(a) != len(b) or set(a) != set(b) or len(set(a)) != len(a):
        raise ArgumentError(
            f"orders must rank the same distinct elements: {a!r} vs {b!r}"
        )
    pos = {c: i for i, c in enumerate(b)}
    n = len(a)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if pos[a[i]] > pos[a[j]]
    )


def voter_types(m: int) -> Tuple[Tuple[int, ...], ...]:
    """All strict preference orders over candidates 1..m, lexicographic."""
    return tuple(permutations(range(1, m + 1)))


class Election(Value):
    """Candidate count, voter census by preference order, scoring vector.

    ``census`` maps an order to how many voters hold it; orders absent
    from the map hold zero voters.  It may also be given as a sequence of
    ``(order, count)`` pairs, as a document's votes are; repeated orders
    then add up.  The scoring vector awards ``scoring[r]`` points to the
    candidate at rank ``r`` and must be nonincreasing.
    """

    _fields = ("m", "census", "scoring")

    def __init__(
        self, m: int, census: Dict[Tuple[int, ...], int], scoring: Tuple[int, ...]
    ):
        require_int(m, "candidate count", 1)
        scoring = require_ints(scoring, "scoring entries")
        if len(scoring) != m:
            raise ValidationError("scoring vector needs one entry per candidate")
        if any(scoring[r] < scoring[r + 1] for r in range(m - 1)):
            raise ValidationError("scoring vector must be nonincreasing")
        votes = (
            census.items() if isinstance(census, dict) else require_seq(census, "votes")
        )
        full = list(range(1, m + 1))
        clean = {}
        for entry in votes:
            if len(require_seq(entry, "vote entries")) != 2:
                raise ValidationError("a vote entry is an (order, count) pair")
            order, count = entry
            order = require_ints(order, "vote order")
            if sorted(order) != full:
                raise ValidationError(f"not a permutation of 1..{m}: {order}")
            clean[order] = clean.get(order, 0) + require_int(count, "voter counts", 0)
        Value.__init__(self, m, clean, scoring)

    @property
    def voters(self) -> int:
        return sum(self.census.values())

    def count(self, order: Tuple[int, ...]) -> int:
        return self.census.get(tuple(order), 0)

    def score_of(self, candidate: int, order: Tuple[int, ...]) -> int:
        return self.scoring[order.index(candidate)]

    def tally(self, census: Dict[Tuple[int, ...], int]) -> Dict[int, int]:
        """Points per candidate under the given census."""
        points = {c: 0 for c in range(1, self.m + 1)}
        for order, count in census.items():
            for c in points:
                points[c] += count * self.score_of(c, order)
        return points


class BriberyInstance(Value):
    _fields = ("election", "ba", "b")

    def __init__(self, election: Election, ba: int, b: int):
        require_int(ba, "ba", 0)
        require_int(b, "b", 0)
        Value.__init__(self, election, ba, b)

    @staticmethod
    def from_dict(doc) -> "BriberyInstance":
        candidates, votes, scoring, ba, b = read_object(
            doc, ("candidates", "votes", "scoring", "ba", "b"), "instance"
        )
        pairs = [
            read_object(entry, ("order", "count"), "vote entry")
            for entry in require_seq(votes, "votes")
        ]
        return BriberyInstance(Election(candidates, pairs, scoring), ba, b)

    def to_dict(self) -> dict:
        votes = [
            {"order": list(order), "count": count}
            for order, count in sorted(self.election.census.items())
        ]
        return {
            "candidates": self.election.m,
            "votes": votes,
            "scoring": list(self.election.scoring),
            "ba": self.ba,
            "b": self.b,
        }


def _key(order: Tuple[int, ...]) -> str:
    return "".join(str(c) for c in order)


def _zname(src: Tuple[int, ...], dst: Tuple[int, ...]) -> str:
    return f"z[{_key(src)}->{_key(dst)}]"


def _yname(order: Tuple[int, ...]) -> str:
    return f"y[{_key(order)}]"


def _xname(src: Tuple[int, ...], dst: Tuple[int, ...]) -> str:
    return f"x[{_key(src)}->{_key(dst)}]"


def _wname(order: Tuple[int, ...]) -> str:
    return f"w[{_key(order)}]"


_MAX_CANDIDATES = 4


def encode(inst: BriberyInstance) -> ResiliencySystem:
    """Flow formulation over preference orders.

    Adversarial block: a transfer matrix from the original census plus
    the intermediate census it produces, cost-capped by ``ba``.  Plain
    block: a second transfer matrix out of the intermediate census plus
    the final census, cost-capped by ``b``; one row per rival candidate
    forces candidate 1 strictly ahead.  Zero-cost diagonal entries stay
    out of the cost rows; a rival that ties candidate 1 on every order
    yields a constant-false row, which is the honest answer.

    Type count is m!, hence the candidate budget.
    """
    m = inst.election.m
    if m > _MAX_CANDIDATES:
        raise BudgetError(
            f"{m} candidates exceed the order budget (m <= {_MAX_CANDIDATES})"
        )
    types = voter_types(m)
    V = inst.election.voters

    z_vars, z_out, z_arrivals, z_spend = transfer(
        types, _zname, _yname, inst.election.count, V, kendall, inst.ba
    )
    zid = {vid.name: vid for vid, _ in z_vars}
    x_vars, x_out, x_arrivals, x_spend = transfer(
        types, _xname, _wname, lambda src: V, V, kendall, inst.b
    )
    xid = {vid.name: vid for vid, _ in x_vars}

    # every original voter is moved (possibly to their own order); the
    # intermediate census collects the arrivals; the adversary's swap budget
    rows_z = [
        LinearRow(out, Rel.EQ, inst.election.count(src))
        for src, out in z_out.items()
    ]
    rows_z += z_arrivals + z_spend
    # response moves exactly the voters the adversary left at each order
    rows_xz = [
        LinearRow({**out, zid[_yname(src)]: -1}, Rel.EQ, 0)
        for src, out in x_out.items()
    ]
    # final census collects the response arrivals; the response swap budget
    rows_x = x_arrivals + x_spend
    # candidate 1 strictly beats every rival on the final census
    for rival in range(2, m + 1):
        coeffs = {}
        for order in types:
            gap = inst.election.score_of(rival, order) - inst.election.score_of(
                1, order
            )
            if gap != 0:
                coeffs[xid[_wname(order)]] = gap
        rows_x.append(LinearRow(coeffs, Rel.LEQ, -1))

    return ResiliencySystem(
        x_vars, z_vars, tuple(rows_x), tuple(rows_xz), tuple(rows_z)
    )


Moves = List[Tuple[Tuple[int, ...], Tuple[int, ...], int]]
Census = Dict[Tuple[int, ...], int]


def _read_moves(inst, values, move, census, source, budget) -> Tuple[Moves, Census]:
    """One transfer block -> its explicit moves plus the census they leave."""
    types = voter_types(inst.election.m)
    flows = read_transfer(
        values.by_name(), types, move, census, source, kendall, budget
    )
    moves = [
        (src, dst, count) for (src, dst), count in flows.items() if count and src != dst
    ]
    return moves, {dst: sum(flows[src, dst] for src in types) for dst in types}


def decode_scenario(
    inst: BriberyInstance, scenario: IntAssignment
) -> Tuple[Moves, Census]:
    """The z block -> the adversary's moves out of the original census and
    the intermediate census they leave.

    A name outside the block, or a flow that breaks a marginal or the
    budget ``ba``, raises :class:`ScenarioError`.
    """
    try:
        return _read_moves(
            inst, scenario, _zname, _yname, inst.election.count, inst.ba
        )
    except ValidationError as exc:
        raise ScenarioError(str(exc)) from exc


def decode_solution(
    inst: BriberyInstance, adversary: Tuple[Moves, Census], x_values: IntAssignment
) -> Tuple[Moves, Census]:
    """The x block -> our moves out of the intermediate census of
    ``adversary`` (as :func:`decode_scenario` returns it) and the final
    census.  A flow that breaks a marginal or the budget ``b`` raises
    :class:`ValidationError`.
    """
    _, mid = adversary
    return _read_moves(
        inst, x_values, _xname, _wname, lambda t: mid.get(t, 0), inst.b
    )


def unique_winner(election: Election, census: Dict[Tuple[int, ...], int]) -> bool:
    """Does candidate 1 strictly beat every rival under this census?"""
    points = election.tally(census)
    top = points[1]
    return all(points[c] < top for c in range(2, election.m + 1))

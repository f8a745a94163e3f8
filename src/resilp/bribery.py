"""Two-round bribery in scoring-rule elections.

Voters are grouped by their full preference order.  An adversary first
moves voters between orders, paying one unit per adjacent swap (the
swap distance between the two orders) per voter moved, spending at most
``ba`` in total.  Our side then moves voters the same way with budget
``b``; the question is whether candidate 1 can always be made the unique
winner under the given scoring vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import ResiliencySystem
from .errors import ArgumentError, BudgetError, ValidationError
from .ilp import IntAssignment, LinearRow, Rel, make_vars
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


@dataclass(frozen=True)
class Election:
    """Candidate count, voter census by preference order, scoring vector.

    ``census`` maps an order to how many voters hold it; orders absent
    from the map hold zero voters.  It may also be given as a sequence of
    ``(order, count)`` pairs, as a document's votes are; repeated orders
    then add up.  The scoring vector awards ``scoring[r]`` points to the
    candidate at rank ``r`` and must be nonincreasing.
    """

    m: int
    census: Dict[Tuple[int, ...], int]
    scoring: Tuple[int, ...]

    def __post_init__(self):
        m = require_int(self.m, "candidate count", 1)
        scoring = require_ints(self.scoring, "scoring entries")
        if len(scoring) != m:
            raise ValidationError("scoring vector needs one entry per candidate")
        if any(scoring[r] < scoring[r + 1] for r in range(m - 1)):
            raise ValidationError("scoring vector must be nonincreasing")
        votes = (
            self.census.items()
            if isinstance(self.census, dict)
            else require_seq(self.census, "votes")
        )
        full = list(range(1, m + 1))
        clean = {}
        for order, count in votes:
            order = require_ints(order, "vote order")
            if sorted(order) != full:
                raise ValidationError(f"not a permutation of 1..{m}: {order}")
            clean[order] = clean.get(order, 0) + require_int(count, "voter counts", 0)
        object.__setattr__(self, "scoring", scoring)
        object.__setattr__(self, "census", clean)

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


@dataclass(frozen=True)
class BriberyInstance:
    election: Election
    ba: int
    b: int

    def __post_init__(self):
        require_int(self.ba, "ba", 0)
        require_int(self.b, "b", 0)

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

    z_vars = make_vars(
        [
            (_zname(src, dst), 0, inst.election.count(src))
            for src in types
            for dst in types
        ]
        + [(_yname(order), 0, V) for order in types]
    )
    zid = {vid.name: vid for vid, _ in z_vars}
    x_vars = make_vars(
        [(_xname(src, dst), 0, V) for src in types for dst in types]
        + [(_wname(order), 0, V) for order in types]
    )
    xid = {vid.name: vid for vid, _ in x_vars}

    rows_z: List[LinearRow] = []
    # every original voter is moved (possibly to their own order)
    for src in types:
        rows_z.append(
            LinearRow(
                {zid[_zname(src, dst)]: 1 for dst in types},
                Rel.EQ,
                inst.election.count(src),
            )
        )
    # intermediate census collects the arrivals
    for dst in types:
        coeffs = {zid[_zname(src, dst)]: 1 for src in types}
        coeffs[zid[_yname(dst)]] = -1
        rows_z.append(LinearRow(coeffs, Rel.EQ, 0))
    # adversary's swap budget; with one candidate there are no paid moves
    # and the row would be vacuous, so it is dropped
    cost = {
        zid[_zname(src, dst)]: kendall(src, dst)
        for src in types
        for dst in types
        if src != dst
    }
    if cost:
        rows_z.append(LinearRow(cost, Rel.LEQ, inst.ba))

    rows_xz: List[LinearRow] = []
    # response moves exactly the voters the adversary left at each order
    for src in types:
        coeffs = {xid[_xname(src, dst)]: 1 for dst in types}
        coeffs[zid[_yname(src)]] = -1
        rows_xz.append(LinearRow(coeffs, Rel.EQ, 0))

    rows_x: List[LinearRow] = []
    # final census collects the response arrivals
    for dst in types:
        coeffs = {xid[_xname(src, dst)]: 1 for src in types}
        coeffs[xid[_wname(dst)]] = -1
        rows_x.append(LinearRow(coeffs, Rel.EQ, 0))
    # response swap budget, dropped when vacuous like the adversary's
    cost = {
        xid[_xname(src, dst)]: kendall(src, dst)
        for src in types
        for dst in types
        if src != dst
    }
    if cost:
        rows_x.append(LinearRow(cost, Rel.LEQ, inst.b))
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


def decode_bribery(
    inst: BriberyInstance,
    side: str,
    flow: IntAssignment,
    *,
    pre_census: Optional[Dict[Tuple[int, ...], int]] = None,
) -> Tuple[List[Tuple[Tuple[int, ...], Tuple[int, ...], int]], Dict[Tuple[int, ...], int]]:
    """Flow variables -> explicit moves plus the census they produce.

    ``side`` selects which half to read: "adversary" decodes the z block
    against the original census and budget ``ba``; "response" decodes the
    x block against ``pre_census`` (required) and budget ``b``.  Flows
    that break a marginal or the budget raise :class:`ValidationError`.
    """
    m = inst.election.m
    types = voter_types(m)
    if side == "adversary":
        source = {t: inst.election.count(t) for t in types}
        name = _zname
        census_name = _yname
        budget = inst.ba
    elif side == "response":
        if pre_census is None:
            raise ArgumentError("response decoding needs the intermediate census")
        source = {t: pre_census.get(t, 0) for t in types}
        name = _xname
        census_name = _wname
        budget = inst.b
    else:
        raise ArgumentError(f"side must be adversary or response, got {side!r}")

    values = flow.by_name()
    moves = []
    after = {t: 0 for t in types}
    spent = 0
    for src in types:
        out = 0
        for dst in types:
            count = values.get(name(src, dst), 0)
            if count < 0:
                raise ValidationError("negative flow")
            out += count
            after[dst] += count
            spent += count * kendall(src, dst)
            if count > 0 and src != dst:
                moves.append((src, dst, count))
        if out != source[src]:
            raise ValidationError(
                f"flow out of {_key(src)} is {out}, census says {source[src]}"
            )
    if spent > budget:
        raise ValidationError(f"moves cost {spent} > budget {budget}")
    for dst in types:
        if after[dst] != values.get(census_name(dst), 0):
            raise ValidationError(
                f"census variable for {_key(dst)} disagrees with the flow"
            )
    return moves, after


def unique_winner(election: Election, census: Dict[Tuple[int, ...], int]) -> bool:
    """Does candidate 1 strictly beat every rival under this census?"""
    points = election.tally(census)
    top = points[1]
    return all(points[c] < top for c in range(2, election.m + 1))

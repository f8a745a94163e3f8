"""Slow reference deciders, kept deliberately separate from the encoders.

Every function here answers a question by brute force over the problem's
own objects (removals, strings, delay vectors, voter moves), never by
building or solving a constraint system.  They import instance types and
nothing else from the encoding modules, so an agreement between the two
routes actually means something.

All enumerations are guarded by budgets and raise BudgetError rather
than silently running forever.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import comb
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .bribery import BriberyInstance
from .closest_string import RcsInstance
from .engine import ResiliencySystem
from .errors import BudgetError, UnboundedVarError, ValidationError
from .ilp import LinearRow, Rel
from .scheduling import SchedulingInstance
from .setcover import RdscpInstance


def _row_holds(row: LinearRow, values) -> bool:
    total = sum(c * values[v] for v, c in row.coeffs.items())
    return total == row.rhs if row.rel is Rel.EQ else total <= row.rhs


def forall_exists_oracle(
    system: ResiliencySystem, *, max_points: int = 10_000_000
) -> bool:
    """Decide resiliency by enumerating both boxes outright.

    No propagation, no substitution, no early structure: every z point in
    the box product is tested against the z rows, and for the survivors
    every x point is tested against the x and mixed rows jointly.
    """
    span = 1
    for _, b in system.x_vars + system.z_vars:
        if not b.finite:
            raise UnboundedVarError("oracle needs finite boxes")
        span *= b.upper - b.lower + 1
        if span > max_points:
            raise BudgetError(f"box product exceeds {max_points} points")

    z_ids = [vid for vid, _ in system.z_vars]
    x_ids = [vid for vid, _ in system.x_vars]
    z_ranges = [range(b.lower, b.upper + 1) for _, b in system.z_vars]
    x_ranges = [range(b.lower, b.upper + 1) for _, b in system.x_vars]

    for z_point in product(*z_ranges):
        values = dict(zip(z_ids, z_point))
        if not all(_row_holds(r, values) for r in system.rows_z):
            continue
        found = False
        for x_point in product(*x_ranges):
            values.update(zip(x_ids, x_point))
            if all(
                _row_holds(r, values)
                for r in system.rows_x + system.rows_xz
            ):
                found = True
                break
        if not found:
            return False
    return True


# --- disjoint set cover packing -------------------------------------------


def _rdscp_groups(inst: RdscpInstance) -> List[Tuple[FrozenSet[int], int]]:
    counts: Dict[FrozenSet[int], int] = {}
    for members in inst.family:
        key = frozenset(members)
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items(), key=lambda kv: sorted(kv[0]))


def _packing_exists(
    universe: FrozenSet[int],
    groups: List[Tuple[FrozenSet[int], int]],
    remaining: List[int],
    d: int,
    t: int,
) -> bool:
    """Can d covers be packed, each a union-of-universe choice of at most
    t distinct contents, drawing copies from ``remaining``?"""
    contents = [g for g, _ in groups]
    covers = [
        combo
        for size in range(1, min(t, len(contents)) + 1)
        for combo in combinations(range(len(contents)), size)
        if frozenset().union(*(contents[i] for i in combo)) == universe
    ]

    def walk(need: int, start: int, stock: List[int]) -> bool:
        if need == 0:
            return True
        for pick in range(start, len(covers)):
            combo = covers[pick]
            if all(stock[i] > 0 for i in combo):
                for i in combo:
                    stock[i] -= 1
                # covers may repeat, so do not advance past this one
                if walk(need - 1, pick, stock):
                    return True
                for i in combo:
                    stock[i] += 1
        return False

    return walk(d, 0, list(remaining))


def rdscp_packing_exists(
    inst: RdscpInstance, removed_indices: Sequence[int] = ()
) -> bool:
    """Packing check after deleting specific family members by index."""
    seen = set()
    for idx in removed_indices:
        if not 0 <= idx < len(inst.family) or idx in seen:
            raise ValidationError(f"bad removal index {idx}")
        seen.add(idx)
    kept: Dict[FrozenSet[int], int] = {}
    for i, members in enumerate(inst.family):
        if i not in seen:
            key = frozenset(members)
            kept[key] = kept.get(key, 0) + 1
    groups = _rdscp_groups(inst)
    remaining = [kept.get(g, 0) for g, _ in groups]
    universe = frozenset(range(1, inst.n + 1))
    return _packing_exists(universe, groups, remaining, inst.d, inst.t)


_RDSCP_MAX_FAMILY = 12
_RDSCP_MAX_SDT = 4


def rdscp_oracle(inst: RdscpInstance) -> bool:
    """Try every removal of at most s copies; all must leave a packing."""
    if len(inst.family) > _RDSCP_MAX_FAMILY:
        raise BudgetError(f"family larger than {_RDSCP_MAX_FAMILY} sets")
    if max(inst.s, inst.d, inst.t) > _RDSCP_MAX_SDT:
        raise BudgetError("s, d or t beyond the enumeration budget")
    groups = _rdscp_groups(inst)
    universe = frozenset(range(1, inst.n + 1))

    def removals(i: int, left: int, taken: List[int]):
        if i == len(groups):
            yield list(taken)
            return
        _, mult = groups[i]
        for r in range(min(left, mult) + 1):
            taken.append(r)
            yield from removals(i + 1, left - r, taken)
            taken.pop()

    for removal in removals(0, inst.s, []):
        remaining = [mult - r for (_, mult), r in zip(groups, removal)]
        if not _packing_exists(universe, groups, remaining, inst.d, inst.t):
            return False
    return True


def hitting_set_oracle(n: int, sets: Sequence[Sequence[int]], k: int) -> bool:
    """Is there a set of at most k elements meeting every given set?"""
    if any(not s for s in sets):
        return False
    elems = list(range(1, n + 1))
    families = [set(s) for s in sets]
    for size in range(min(k, n) + 1):
        for pick in combinations(elems, size):
            chosen = set(pick)
            if all(chosen & s for s in families):
                return True
    return False


def matching_3dm_oracle(
    n: int, triples: Sequence[Tuple[int, int, int]], k: int
) -> bool:
    """Does a matching of k pairwise coordinate-disjoint triples exist?"""

    def walk(start: int, need: int, used: Tuple[Set[int], Set[int], Set[int]]) -> bool:
        if need == 0:
            return True
        for i in range(start, len(triples)):
            a, b, c = triples[i]
            if a in used[0] or b in used[1] or c in used[2]:
                continue
            used[0].add(a)
            used[1].add(b)
            used[2].add(c)
            if walk(i + 1, need - 1, used):
                return True
            used[0].discard(a)
            used[1].discard(b)
            used[2].discard(c)
        return False

    if k < 0:
        raise ValidationError("matching size must be >= 0")
    return walk(0, k, (set(), set(), set()))


# --- closest string under column corruption --------------------------------


def _column_counts(column: Sequence[str], symbols: Sequence[str]) -> List[int]:
    return [sum(1 for cell in column if cell == s) for s in symbols]


def _is_sorted_census(column: Sequence[str], symbols: Sequence[str]) -> bool:
    # normalized just means the per-symbol counts never increase along
    # the alphabet; ties are then already in alphabet order
    counts = _column_counts(column, symbols)
    return all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))


def closest_string_oracle(
    strings: Sequence[str], d: int, alphabet: Sequence[str]
) -> bool:
    """Is some string within Hamming distance d of every input string?"""
    length = len(strings[0])
    for candidate in product(alphabet, repeat=length):
        if all(
            sum(1 for a, b in zip(candidate, s) if a != b) <= d
            for s in strings
        ):
            return True
    return False


_RCS_MAX_ALPHABET = 2


def rcs_oracle(
    inst: RcsInstance, *, per_row_distance: bool = True, max_cells: int = 9
) -> bool:
    """Enumerate every corrupted matrix, then every candidate center.

    Each column independently becomes any normalized column; a corruption
    is admissible when the total number of changed cells is at most m.
    """
    matrix = inst.matrix
    symbols = matrix.alphabet.symbols
    k, L = matrix.k, matrix.length
    if k * L > max_cells:
        raise BudgetError(f"more than {max_cells} cells")
    if len(symbols) > _RCS_MAX_ALPHABET:
        raise BudgetError(f"alphabet larger than {_RCS_MAX_ALPHABET}")

    normal = [
        cells
        for cells in product(symbols, repeat=k)
        if _is_sorted_census(cells, symbols)
    ]
    originals = [matrix.column(j) for j in range(L)]
    per_column = [
        [
            (cells, sum(1 for a, b in zip(col, cells) if a != b))
            for cells in normal
        ]
        for col in originals
    ]

    def center_exists(columns: List[Tuple[str, ...]]) -> bool:
        rows = ["".join(col[i] for col in columns) for i in range(k)]
        if per_row_distance:
            return closest_string_oracle(rows, inst.d, symbols)
        for candidate in product(symbols, repeat=L):
            total = sum(
                1
                for row in rows
                for a, b in zip(candidate, row)
                if a != b
            )
            if total <= inst.d:
                return True
        return False

    def corruptions(j: int, left: int, chosen: List[Tuple[str, ...]]):
        if j == L:
            yield list(chosen)
            return
        for cells, cost in per_column[j]:
            if cost <= left:
                chosen.append(cells)
                yield from corruptions(j + 1, left - cost, chosen)
                chosen.pop()

    return all(center_exists(c) for c in corruptions(0, inst.m, []))


# --- scheduling with adversarial delays -------------------------------------


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def sched_oracle(inst: SchedulingInstance, *, max_points: int = 10_000_000) -> bool:
    """All delay vectors against all full job assignments."""
    machines = inst.machines
    delay_vectors = [
        v
        for v in product(range(inst.K + 1), repeat=machines)
        if sum(v) <= inst.K
    ]
    span = len(delay_vectors)
    for n in inst.counts:
        span *= comb(n + machines - 1, machines - 1)
        if span > max_points:
            raise BudgetError(f"assignment count exceeds {max_points}")

    splits = [list(_compositions(n, machines)) for n in inst.counts]

    def feasible(delays: Tuple[int, ...]) -> bool:
        for table in product(*splits):
            # table[t][i]: type-t jobs on machine i
            if all(
                delays[i]
                + sum(inst.ptimes[t][i] * table[t][i] for t in range(inst.ntypes))
                <= inst.cmax
                for i in range(machines)
            ):
                return True
        return False

    return all(feasible(d) for d in delay_vectors)


# --- bribery -----------------------------------------------------------------


def _swap_cost(a: Tuple[int, ...], b: Tuple[int, ...]) -> int:
    """Adjacent swaps to reorder a into b, counted by actually sorting."""
    target = {c: i for i, c in enumerate(b)}
    seq = [target[c] for c in a]
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return swaps


def _reachable_censuses(
    census: Dict[Tuple[int, ...], int], budget: int
) -> Set[Tuple[Tuple[Tuple[int, ...], int], ...]]:
    """Censuses reachable by moving voters one at a time within budget."""
    orders = sorted(census)

    def freeze(c: Dict[Tuple[int, ...], int]):
        return tuple(sorted(c.items()))

    seen = set()
    out = set()
    stack = [(freeze(census), budget)]
    while stack:
        frozen, left = stack.pop()
        if (frozen, left) in seen:
            continue
        seen.add((frozen, left))
        out.add(frozen)
        current = dict(frozen)
        for src in orders:
            if current.get(src, 0) == 0:
                continue
            for dst in orders:
                if dst == src:
                    continue
                cost = _swap_cost(src, dst)
                if cost <= left:
                    nxt = dict(current)
                    nxt[src] -= 1
                    nxt[dst] = nxt.get(dst, 0) + 1
                    stack.append((freeze(nxt), left - cost))
    return out


def _first_wins(
    m: int, scoring: Tuple[int, ...], census: Dict[Tuple[int, ...], int]
) -> bool:
    points = [0] * (m + 1)
    for order, count in census.items():
        for rank, candidate in enumerate(order):
            points[candidate] += count * scoring[rank]
    return all(points[1] > points[c] for c in range(2, m + 1))


def bribery_response_exists(
    inst: BriberyInstance, census: Dict[Tuple[int, ...], int]
) -> bool:
    """From this intermediate census, can budget b make candidate 1 the
    unique winner?"""
    m = inst.election.m
    # every order key must be present so moves can target it
    full = {p: census.get(p, 0) for p in permutations(range(1, m + 1))}
    return any(
        _first_wins(m, inst.election.scoring, dict(c))
        for c in _reachable_censuses(full, inst.b)
    )


_BRIBERY_MAX_CANDIDATES = 3
_BRIBERY_MAX_BUDGET = 4


def bribery_oracle(inst: BriberyInstance) -> bool:
    """Every adversarial move set must leave a winning response."""
    m = inst.election.m
    if m > _BRIBERY_MAX_CANDIDATES:
        raise BudgetError(f"more than {_BRIBERY_MAX_CANDIDATES} candidates")
    if inst.ba > _BRIBERY_MAX_BUDGET or inst.b > _BRIBERY_MAX_BUDGET:
        raise BudgetError(f"budget beyond {_BRIBERY_MAX_BUDGET}")
    start = {p: inst.election.count(p) for p in permutations(range(1, m + 1))}
    return all(
        bribery_response_exists(inst, dict(c))
        for c in _reachable_censuses(start, inst.ba)
    )

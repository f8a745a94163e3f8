"""Resilient disjoint set covering.

An instance asks: after an adversary removes up to ``s`` sets from a
family over universe ``{1..n}``, do ``d`` pairwise-disjoint covers, each
using at most ``t`` sets, always survive?  The encoder turns that into a
partitioned system: the adversary's variables count removals per *group*
of identical sets, the plain variables count how many disjoint covers
realize each *cover pattern* (a set of at most ``t`` distinct group
contents whose union is the universe).

Identical copies are interchangeable, which is what keeps the encoding
small: variable counts depend only on the distinct contents, never on
multiplicities.  Decoders map group-level numbers back to concrete copies
deterministically (lowest copy index first).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import ResiliencySystem
from .errors import ArgumentError, BudgetError, ScenarioError, ValidationError
from .ilp import IntAssignment, LinearRow, Rel, make_vars
from .jsonio import read_object, require_int, require_ints, require_seq


def _unordered(value):
    """A set as a tuple, for the fields whose order carries no meaning
    (family members, ``vr``); anything else as it is."""
    return tuple(value) if isinstance(value, (set, frozenset)) else value


@dataclass(frozen=True)
class RdscpInstance:
    """Universe size, set family (a multiset), and the three budgets.

    ``s``: sets the adversary may remove; ``d``: disjoint covers that must
    survive; ``t``: cover size cap, clamped to ``n`` at construction since
    a cover never needs more sets than universe elements.
    """

    n: int
    family: Tuple[frozenset, ...]
    s: int
    d: int
    t: int

    def __post_init__(self):
        n = require_int(self.n, "universe size n", 1)
        family = tuple(
            frozenset(require_ints(_unordered(member), "set members", 1, n))
            for member in require_seq(self.family, "family")
        )
        require_int(self.s, "removal budget s", 0)
        require_int(self.d, "cover count d", 1)
        require_int(self.t, "cover size cap t", 1)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "t", min(self.t, n))

    @classmethod
    def from_dict(cls, doc) -> "RdscpInstance":
        return cls(*read_object(doc, ("n", "family", "s", "d", "t"), "instance"))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "family": [sorted(member) for member in self.family],
            "s": self.s,
            "d": self.d,
            "t": self.t,
        }


@dataclass(frozen=True)
class FamilyGroup:
    """All copies of one set content; ``copies`` are family indices."""

    content: frozenset
    copies: Tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.copies)


def groups_of(inst: RdscpInstance) -> Tuple[FamilyGroup, ...]:
    """Partition the family by content, ordered by sorted element tuple."""
    buckets: Dict[frozenset, List[int]] = {}
    for i, member in enumerate(inst.family):
        buckets.setdefault(member, []).append(i)
    return tuple(
        FamilyGroup(content, tuple(indices))
        for content, indices in sorted(
            buckets.items(), key=lambda kv: tuple(sorted(kv[0]))
        )
    )


def cover_patterns(
    inst: RdscpInstance,
    groups: Sequence[FamilyGroup],
    *,
    max_patterns: Optional[int] = None,
) -> Tuple[Tuple[frozenset, ...], ...]:
    """Every set of at most ``t`` distinct group contents covering the
    universe, in (size, group order) order."""
    universe = frozenset(range(1, inst.n + 1))
    contents = [g.content for g in groups]
    patterns = []
    for size in range(1, inst.t + 1):
        for combo in combinations(contents, size):
            if frozenset().union(*combo) == universe:
                patterns.append(tuple(combo))
                if max_patterns is not None and len(patterns) > max_patterns:
                    raise BudgetError(
                        f"more than {max_patterns} cover patterns; raise the cap"
                    )
    return tuple(patterns)


def _zname(content: frozenset) -> str:
    return "z[" + ",".join(map(str, sorted(content))) + "]"


def _xname(pattern: Tuple[frozenset, ...]) -> str:
    return "x[" + "|".join(",".join(map(str, sorted(c))) for c in pattern) + "]"


_MAX_N = 6


def encode(
    inst: RdscpInstance, *, max_patterns: Optional[int] = None
) -> ResiliencySystem:
    """Partitioned system whose resiliency equals the instance's answer.

    Pattern enumeration is exponential in the universe, so universes above
    ``_MAX_N`` elements raise :class:`BudgetError` up front.  Variable and
    row counts depend on the distinct contents only.
    """
    if inst.n > _MAX_N:
        raise BudgetError(
            f"universe size {inst.n} exceeds the pattern budget (n <= {_MAX_N})"
        )
    groups = groups_of(inst)
    patterns = cover_patterns(inst, groups, max_patterns=max_patterns)

    x_vars = make_vars([(_xname(p), 0, inst.d) for p in patterns])
    z_vars = make_vars(
        [(_zname(g.content), 0, min(inst.s, g.multiplicity)) for g in groups]
    )
    xid = {p: vid for p, (vid, _) in zip(patterns, x_vars)}
    zid = {g.content: vid for g, (vid, _) in zip(groups, z_vars)}

    # at least d covers in total
    rows_x = (
        LinearRow({xid[p]: -1 for p in patterns}, Rel.LEQ, -inst.d),
    )
    # at most s removals in total; with no sets at all the budget row
    # would be vacuous (0 <= s), so it is dropped rather than emitted empty
    rows_z = (
        (LinearRow({vid: 1 for vid, _ in z_vars}, Rel.LEQ, inst.s),)
        if z_vars
        else ()
    )
    # per group: covers consuming it plus removals fit its multiplicity;
    # groups no pattern touches are already capped by the z box alone
    rows_xz = []
    for g in groups:
        touching = [p for p in patterns if g.content in p]
        if not touching:
            continue
        coeffs = {xid[p]: 1 for p in touching}
        coeffs[zid[g.content]] = 1
        rows_xz.append(LinearRow(coeffs, Rel.LEQ, g.multiplicity))
    return ResiliencySystem(x_vars, z_vars, rows_x, tuple(rows_xz), tuple(rows_z))


def decode_scenario(inst: RdscpInstance, scenario: IntAssignment) -> Tuple[int, ...]:
    """Removal counts -> concrete removed copies (lowest index first).

    Returns sorted family indices.  The scenario must cover exactly the
    group variables and respect the removal budget and multiplicities.
    """
    groups = groups_of(inst)
    expected = {_zname(g.content) for g in groups}
    values = scenario.by_name()
    if set(values) != expected:
        raise ScenarioError(
            "scenario names do not match the instance's group variables"
        )
    total = 0
    removed: List[int] = []
    for g in groups:
        count = values[_zname(g.content)]
        if count < 0 or count > g.multiplicity:
            raise ScenarioError(
                f"cannot remove {count} copies of {sorted(g.content)}: "
                f"only {g.multiplicity} exist"
            )
        total += count
        removed.extend(g.copies[:count])
    if total > inst.s:
        raise ScenarioError(f"{total} removals exceed the budget {inst.s}")
    return tuple(sorted(removed))


def decode_solution(
    inst: RdscpInstance,
    x_values: IntAssignment,
    removed: Sequence[int],
) -> Tuple[Tuple[int, ...], ...]:
    """Pattern counts -> ``d`` concrete disjoint covers (copy index tuples).

    Copies are consumed in index order, skipping ``removed``.  The counts
    must satisfy the substituted system; counts that do not raise
    :class:`ValidationError`.
    """
    groups = groups_of(inst)
    patterns = cover_patterns(inst, groups)
    values = x_values.by_name()
    gone = set(removed)
    cursors = {
        g.content: [i for i in g.copies if i not in gone] for g in groups
    }
    families: List[Tuple[int, ...]] = []
    for p in patterns:
        count = values.get(_xname(p), 0)
        if not 0 <= count <= inst.d:
            raise ValidationError("pattern count outside its box")
        for _ in range(count):
            if len(families) == inst.d:
                break
            member_ids = []
            for content in p:
                pool = cursors[content]
                if not pool:
                    raise ValidationError(
                        "ran out of copies while realizing a pattern"
                    )
                member_ids.append(pool.pop(0))
            families.append(tuple(member_ids))
    if len(families) != inst.d:
        raise ValidationError("fewer covers than required")
    return tuple(families)


def validate_packing(
    inst: RdscpInstance,
    families: Sequence[Sequence[int]],
    removed: Sequence[int] = (),
) -> None:
    """Check a decoded packing from scratch; raise ValidationError if bad."""
    universe = set(range(1, inst.n + 1))
    gone = set(removed)
    used: set = set()
    if len(families) != inst.d:
        raise ValidationError(f"expected {inst.d} covers, got {len(families)}")
    for fam in families:
        ids = list(fam)
        if len(ids) > inst.t:
            raise ValidationError(f"cover uses {len(ids)} sets, cap is {inst.t}")
        if len(set(ids)) != len(ids):
            raise ValidationError("cover repeats a copy")
        covered: set = set()
        for i in ids:
            if i < 0 or i >= len(inst.family):
                raise ValidationError(f"no copy with index {i}")
            if i in gone:
                raise ValidationError(f"copy {i} was removed")
            if i in used:
                raise ValidationError(f"copy {i} used by two covers")
            used.add(i)
            covered |= inst.family[i]
        if covered != universe:
            raise ValidationError(
                f"cover misses elements {sorted(universe - covered)}"
            )


# ---------------------------------------------------------------------------
# policy translation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuthorizationPolicy:
    """Users, resources, an authorization relation, and a protected slice.

    ``p`` is the subset of resources that must stay coverable by ``d``
    disjoint user teams of size at most ``t`` after any ``s`` users leave.
    """

    users: Tuple[str, ...]
    resources: Tuple[str, ...]
    vr: frozenset
    p: Tuple[str, ...]
    s: int
    d: int
    t: int

    def __post_init__(self):
        users = require_seq(self.users, "users", str)
        resources = require_seq(self.resources, "resources", str)
        p = require_seq(self.p, "p", str)
        vr = frozenset(
            require_seq(pair, "vr pairs", str)
            for pair in require_seq(_unordered(self.vr), "vr")
        )
        if any(len(pair) != 2 for pair in vr):
            raise ValidationError("vr must be a list of [user, resource] pairs")
        require_int(self.s, "s", 0)
        require_int(self.d, "d", 1)
        require_int(self.t, "t", 1)
        usr, res = set(users), set(resources)
        if len(usr) != len(users):
            raise ValidationError("duplicate users")
        if len(res) != len(resources):
            raise ValidationError("duplicate resources")
        if len(set(p)) != len(p):
            raise ValidationError("duplicate protected resources")
        for u, r in vr:
            if u not in usr or r not in res:
                raise ValidationError(f"authorization ({u!r}, {r!r}) is dangling")
        if not set(p) <= res:
            raise ValidationError("protected resources must be resources")
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "resources", resources)
        object.__setattr__(self, "vr", vr)
        object.__setattr__(self, "p", p)

    @classmethod
    def from_dict(cls, doc) -> "AuthorizationPolicy":
        return cls(
            *read_object(
                doc, ("users", "resources", "vr", "p", "s", "d", "t"), "policy"
            )
        )

    def to_dict(self) -> dict:
        return {
            "users": list(self.users),
            "resources": list(self.resources),
            "vr": sorted([u, r] for u, r in self.vr),
            "p": list(self.p),
            "s": self.s,
            "d": self.d,
            "t": self.t,
        }


def from_policy(policy: AuthorizationPolicy) -> RdscpInstance:
    """Protected resources become the universe (numbered in listed order);
    each user becomes the set of protected resources they may access."""
    number = {r: i + 1 for i, r in enumerate(policy.p)}
    family = tuple(
        frozenset(number[r] for r in policy.p if (user, r) in policy.vr)
        for user in policy.users
    )
    return RdscpInstance(
        n=len(policy.p), family=family, s=policy.s, d=policy.d, t=policy.t
    )


# ---------------------------------------------------------------------------
# hardness-style instance generators
# ---------------------------------------------------------------------------


def gen_from_hitting_set(
    n: int, sets: Sequence[Sequence[int]], k: int
) -> RdscpInstance:
    """Build an instance whose answer is the OPPOSITE of "some <=k vertices
    hit every set".

    ``sets`` must be delta-uniform subsets of ``1..n`` with delta >= 2
    (delta is their common size, or 2 when ``sets`` is empty).
    The universe splits into: one element per (delta-1)-subset Q of the
    vertex indices (covered exactly by the vertex sets outside Q), a
    delta-element pad per input set (shared between its vertices' sets and
    every other pad-collector), and a hub element owned only by the
    pad-collectors.  Removing a vertex-set is then exactly as damaging as
    picking that vertex into a hitting set.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ArgumentError("vertex count must be a non-negative integer")
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ArgumentError("k must be a non-negative integer")
    cleaned = []
    for s in sets:
        if not isinstance(s, (list, tuple)) or not all(
            isinstance(v, int) and not isinstance(v, bool) and 1 <= v <= n
            for v in s
        ):
            raise ArgumentError(f"set {s!r} is not a list of vertices 1..{n}")
        members = sorted(set(s))
        if len(members) != len(s):
            raise ArgumentError(f"set {list(s)} repeats a vertex")
        cleaned.append(tuple(members))
    sizes = {len(s) for s in cleaned}
    if len(sizes) > 1:
        raise ArgumentError("sets must all have the same size")
    delta = sizes.pop() if sizes else 2
    if delta < 2:
        raise ArgumentError("set size must be at least 2")

    m = len(cleaned)
    qs = list(combinations(range(1, n + 1), delta - 1))
    q_elem = {q: idx + 1 for idx, q in enumerate(qs)}
    base_pad = len(qs)
    # pad element for set j, slot x (both zero-based): one per set member
    pad_elem = lambda j, x: base_pad + j * delta + x + 1  # noqa: E731
    hub = base_pad + m * delta + 1

    vertex_sets = []
    for i in range(1, n + 1):
        members = {
            pad_elem(j, x)
            for j, s in enumerate(cleaned)
            for x, v in enumerate(s)
            if v == i
        }
        members |= {q_elem[q] for q in qs if i not in q}
        vertex_sets.append(frozenset(members))
    all_pads = {pad_elem(j, x) for j in range(m) for x in range(delta)}
    collectors = [
        frozenset({hub} | (all_pads - {pad_elem(j, x) for x in range(delta)}))
        for j in range(m)
    ]
    return RdscpInstance(
        n=hub,
        family=tuple(vertex_sets + collectors),
        s=k,
        d=1,
        t=delta + 1,
    )


def gen_from_3dm(
    n: int, triples: Sequence[Sequence[int]], k: int
) -> RdscpInstance:
    """Build an instance whose answer is "some k pairwise-disjoint triples
    exist" (three-dimensional matching with parts of size ``n``).

    No removals are allowed (s = 0); each requested matching triple turns
    into a 4-set cover: the three coordinate sets of one hyperedge plus
    that hyperedge's complement-style collector.  Covers are disjoint
    exactly when the chosen hyperedges are.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ArgumentError("part size must be a non-negative integer")
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ArgumentError("k must be a positive integer")
    cleaned = []
    for tr in triples:
        if not isinstance(tr, (list, tuple)) or len(tr) != 3 or not all(
            isinstance(v, int) and not isinstance(v, bool) and 1 <= v <= n
            for v in tr
        ):
            raise ArgumentError(f"malformed triple: {tr!r}")
        cleaned.append(tuple(tr))
    if len(set(cleaned)) != len(cleaned):
        raise ArgumentError("duplicate triples")

    m = len(cleaned)
    # universe: per-edge tags for each coordinate, three part anchors, a hub
    tag = lambda axis, j: axis * m + j + 1  # noqa: E731  axis in {0,1,2}
    anchor = {0: 3 * m + 1, 1: 3 * m + 2, 2: 3 * m + 3}
    hub = 3 * m + 4
    universe = set(range(1, hub + 1))

    blocks = []
    for axis in range(3):
        for i in range(1, n + 1):
            members = {tag(axis, j) for j, tr in enumerate(cleaned) if tr[axis] == i}
            members.add(anchor[axis])
            blocks.append(frozenset(members))
    collectors = [
        frozenset(
            universe
            - {tag(0, j), tag(1, j), tag(2, j)}
            - set(anchor.values())
        )
        for j in range(m)
    ]
    return RdscpInstance(
        n=hub, family=tuple(blocks + collectors), s=0, d=k, t=4
    )

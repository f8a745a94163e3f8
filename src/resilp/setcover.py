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

from itertools import combinations
from math import comb
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .engine import ResiliencySystem
from .errors import BudgetError, ScenarioError, ValidationError
from .ilp import IntAssignment, LinearRow, Rel, Value, make_vars
from .jsonio import read_object, require_int, require_ints, require_seq


def _unordered(value):
    """A set as a tuple, for the fields whose order carries no meaning
    (family members, ``vr``); anything else as it is."""
    return tuple(value) if isinstance(value, (set, frozenset)) else value


class RdscpInstance(Value):
    """Universe size, set family (a multiset), and the three budgets.

    ``s``: sets the adversary may remove; ``d``: disjoint covers that must
    survive; ``t``: cover size cap, clamped to ``n`` at construction since
    a cover never needs more sets than universe elements.
    """

    _fields = ("n", "family", "s", "d", "t")

    def __init__(self, n: int, family: Tuple[frozenset, ...], s: int, d: int, t: int):
        require_int(n, "universe size n", 1)
        family = tuple(
            frozenset(require_ints(_unordered(member), "set members", 1, n))
            for member in require_seq(family, "family")
        )
        require_int(s, "removal budget s", 0)
        require_int(d, "cover count d", 1)
        require_int(t, "cover size cap t", 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "t", min(t, n))

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


class FamilyGroup(NamedTuple):
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


_MAX_COMBINATIONS = 10**6


def cover_patterns(
    inst: RdscpInstance, groups: Sequence[FamilyGroup]
) -> Tuple[Tuple[frozenset, ...], ...]:
    """Every set of at most ``t`` distinct group contents covering the
    universe, in (size, group order) order.

    The search tries every combination of at most ``t`` groups, so more
    than ``_MAX_COMBINATIONS`` of them raise :class:`BudgetError` before
    it starts.
    """
    contents = [g.content for g in groups]
    sizes = range(1, min(inst.t, len(contents)) + 1)
    tries = sum(comb(len(contents), size) for size in sizes)
    if tries > _MAX_COMBINATIONS:
        raise BudgetError(
            f"{tries} group combinations exceed the pattern search budget "
            f"({_MAX_COMBINATIONS})"
        )
    patterns = []
    for size in sizes:
        for combo in combinations(contents, size):
            # members lie in 1..n, so a union of n members is the universe
            if len(frozenset().union(*combo)) == inst.n:
                patterns.append(tuple(combo))
    return tuple(patterns)


def _zname(content: frozenset) -> str:
    return "z[" + ",".join(map(str, sorted(content))) + "]"


def _xname(pattern: Tuple[frozenset, ...]) -> str:
    return "x[" + "|".join(",".join(map(str, sorted(c))) for c in pattern) + "]"


def encode(inst: RdscpInstance) -> ResiliencySystem:
    """Partitioned system whose resiliency equals the instance's answer.

    Pattern enumeration is exponential in the distinct contents, so
    :func:`cover_patterns` checks its budget before it starts.  Variable
    and row counts depend on the distinct contents only.
    """
    groups = groups_of(inst)
    patterns = cover_patterns(inst, groups)

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
    removed: Sequence[int],
    x_values: IntAssignment,
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


class AuthorizationPolicy(Value):
    """Users, resources, an authorization relation, and a protected slice.

    ``p`` is the subset of resources that must stay coverable by ``d``
    disjoint user teams of size at most ``t`` after any ``s`` users leave.
    """

    _fields = ("users", "resources", "vr", "p", "s", "d", "t")

    def __init__(
        self,
        users: Tuple[str, ...],
        resources: Tuple[str, ...],
        vr: frozenset,
        p: Tuple[str, ...],
        s: int,
        d: int,
        t: int,
    ):
        users = require_seq(users, "users", str)
        resources = require_seq(resources, "resources", str)
        p = require_seq(p, "p", str)
        vr = frozenset(
            require_seq(pair, "vr pairs", str)
            for pair in require_seq(_unordered(vr), "vr")
        )
        if any(len(pair) != 2 for pair in vr):
            raise ValidationError("vr must be a list of [user, resource] pairs")
        require_int(s, "s", 0)
        require_int(d, "d", 1)
        require_int(t, "t", 1)
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
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "t", t)

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

# Both generators count the set members of the instance they would build
# (the sum of the member counts of its sets) from the source, and refuse
# more than this before they build anything.
_MAX_MEMBERS = 10**6


def _check_members(total: int) -> None:
    if total > _MAX_MEMBERS:
        raise BudgetError(
            f"the instance would hold {total} set members, more than the "
            f"generator budget ({_MAX_MEMBERS})"
        )


def _hitting_set_source(n, sets, k) -> Tuple[List[Tuple[int, ...]], int]:
    """The sorted sets of a hitting-set source and their common size
    delta, once n, k and every set are checked."""
    require_int(n, "vertex count", 0)
    require_int(k, "k", 0)
    cleaned = []
    for s in require_seq(sets, "sets"):
        members = sorted(set(require_ints(s, "set members", 1, n)))
        if len(members) != len(s):
            raise ValidationError(f"set {list(s)} repeats a vertex")
        cleaned.append(tuple(members))
    sizes = {len(s) for s in cleaned}
    if len(sizes) > 1:
        raise ValidationError("sets must all have the same size")
    delta = sizes.pop() if sizes else 2
    if delta < 2:
        raise ValidationError("set size must be at least 2")
    return cleaned, delta


def family_size_from_hitting_set(n: int, sets: Sequence[Sequence[int]], k: int) -> int:
    """How many sets :func:`gen_from_hitting_set` builds from a valid
    source, without building them: one per vertex and one collector per
    input set."""
    return n + len(_hitting_set_source(n, sets, k)[0])


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
    cleaned, delta = _hitting_set_source(n, sets, k)
    m = len(cleaned)
    # Each (delta-1)-subset lies in the n-delta+1 vertex sets outside it
    # (n * C(n-1, delta-1) in all), each pad slot in one vertex set, and
    # each collector holds the hub and the pads of the other m-1 sets.
    _check_members(
        comb(n, delta - 1) * (n - delta + 1) + m * delta + m * (1 + (m - 1) * delta)
    )
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


def _matching_source(n, triples, k) -> List[Tuple[int, ...]]:
    """The triples of a 3DM source, once n, k and every triple are
    checked."""
    require_int(n, "part size", 0)
    require_int(k, "k", 1)
    cleaned = [
        require_ints(tr, "triple coordinates", 1, n)
        for tr in require_seq(triples, "triples")
    ]
    if any(len(tr) != 3 for tr in cleaned):
        raise ValidationError("every triple needs three coordinates")
    if len(set(cleaned)) != len(cleaned):
        raise ValidationError("duplicate triples")
    return cleaned


def family_size_from_3dm(n: int, triples: Sequence[Sequence[int]], k: int) -> int:
    """How many sets :func:`gen_from_3dm` builds from a valid source,
    without building them: one per part element on each of the three axes
    and one collector per triple."""
    return 3 * n + len(_matching_source(n, triples, k))


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
    cleaned = _matching_source(n, triples, k)
    m = len(cleaned)
    # Each coordinate block holds its anchor and one tag per triple using
    # that coordinate; each collector holds all but 3 tags and 3 anchors.
    _check_members(3 * n + 3 * m + m * (3 * m - 2))
    # universe: per-edge tags for each coordinate, three part anchors, a hub
    tag = lambda axis, j: axis * m + j + 1  # noqa: E731  axis in {0,1,2}
    anchor = {0: 3 * m + 1, 1: 3 * m + 2, 2: 3 * m + 3}
    hub = 3 * m + 4
    universe = set(range(1, hub + 1))

    # coordinate block (axis, i): the tags of the triples with coordinate i
    # on that axis, plus the axis anchor
    members = [[{anchor[axis]} for _ in range(n + 1)] for axis in range(3)]
    for j, tr in enumerate(cleaned):
        for axis in range(3):
            members[axis][tr[axis]].add(tag(axis, j))
    blocks = [
        frozenset(members[axis][i]) for axis in range(3) for i in range(1, n + 1)
    ]
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

"""Acceptance suite.

One test per criterion; each prints a single ``[criterion NN] name: PASS``
or ``FAIL`` line (run with ``-s`` to see them live).  Suites of instances
and verdicts are built once and shared, so the witness-soundness and
monotonicity criteria re-check exactly the instances the agreement
criteria decided.
"""

import itertools
import math
import random
import time
from functools import lru_cache

from resilp import bribery, closest_string, scheduling, setcover
from resilp.closest_string import Alphabet, StringMatrix, normalize
from resilp.engine import check_resiliency, substitute
from resilp.ilp import Rel, evaluate, solve_feasibility
from resilp.oracles import (
    bribery_oracle,
    bribery_response_exists,
    closest_string_oracle,
    forall_exists_oracle,
    hitting_set_oracle,
    matching_3dm_oracle,
    rcs_oracle,
    rdscp_oracle,
    rdscp_packing_exists,
    sched_oracle,
)
from resilp.sampling import (
    random_bribery,
    random_rcs,
    random_rdscp,
    random_sched,
    random_system,
)

BOX_ENUM_LIMIT = 10_000_000


def _report(num: int, name: str, ok: bool, detail: str):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------- shared suites


@lru_cache(maxsize=None)
def raw_suite():
    out = []
    for seed in range(200):
        system = random_system(random.Random(seed))
        out.append((system, check_resiliency(system)))
    return tuple(out)


@lru_cache(maxsize=None)
def rdscp_suite():
    out = []
    for seed in range(100):
        inst = random_rdscp(random.Random(seed))
        out.append((inst, setcover.encode(inst)))
    return tuple((inst, system, check_resiliency(system)) for inst, system in out)


@lru_cache(maxsize=None)
def rcs_suite():
    out = []
    for seed in range(100):
        inst = random_rcs(random.Random(seed))
        system = closest_string.encode(inst)
        out.append((inst, system, check_resiliency(system)))
    return tuple(out)


@lru_cache(maxsize=None)
def sched_suite():
    out = []
    for seed in range(100):
        inst = random_sched(random.Random(seed))
        system = scheduling.encode(inst)
        out.append((inst, system, check_resiliency(system)))
    return tuple(out)


@lru_cache(maxsize=None)
def bribery_suite():
    out = []
    for seed in range(60):
        inst = random_bribery(random.Random(seed))
        system = bribery.encode(inst)
        out.append((inst, system, check_resiliency(system)))
    return tuple(out)


# -------------------------------------------------------------- criteria


def test_criterion_01_raw_engine_agreement():
    start = time.perf_counter()
    mismatches = [
        i
        for i, (system, verdict) in enumerate(raw_suite())
        if forall_exists_oracle(system) is not verdict.resilient
    ]
    elapsed = time.perf_counter() - start
    _report(
        1,
        "engine bit equals forall/exists oracle on 200 random systems",
        not mismatches and elapsed < 120.0,
        f"200 systems in {elapsed:.1f}s, mismatches={mismatches}",
    )


def test_criterion_02_rdscp_agreement_and_killing_witnesses():
    bad = []
    witnesses = 0
    for i, (inst, _system, verdict) in enumerate(rdscp_suite()):
        if rdscp_oracle(inst) is not verdict.resilient:
            bad.append((i, "answer"))
            continue
        if not verdict.resilient:
            witnesses += 1
            removed = setcover.decode_scenario(inst, verdict.witness_z)
            if len(removed) > inst.s:
                bad.append((i, "oversized removal"))
            elif rdscp_packing_exists(inst, removed):
                bad.append((i, "packing survives the witness"))
    _report(
        2,
        "set-cover engine equals oracle; witnesses kill every packing",
        not bad,
        f"100 instances, {witnesses} witnesses re-checked, bad={bad}",
    )


def test_criterion_03_hitting_set_reduction_flips_the_answer():
    bad = []
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        sets = [
            tuple(sorted(rng.sample(range(1, n + 1), 2)))
            for _ in range(rng.randint(0, 4))
        ]
        k = rng.randint(0, 2)
        built = setcover.gen_from_hitting_set(n, sets, k)
        if rdscp_oracle(built) is not (not hitting_set_oracle(n, sets, k)):
            bad.append(seed)
    _report(
        3,
        "pair-set reduction answers NOT hitting-set on 50 instances",
        not bad,
        f"50 sources, bad={bad}",
    )


def test_criterion_04_matching_reduction_preserves_the_answer():
    bad = []
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(1, 2)
        triples = sorted(
            {
                (rng.randint(1, n), rng.randint(1, n), rng.randint(1, n))
                for _ in range(rng.randint(0, 4))
            }
        )
        k = rng.randint(1, 2)
        built = setcover.gen_from_3dm(n, triples, k)
        if rdscp_oracle(built) is not matching_3dm_oracle(n, triples, k):
            bad.append(seed)
    _report(
        4,
        "3-dimensional matching reduction agrees on 50 instances",
        not bad,
        f"50 sources, bad={bad}",
    )


def test_criterion_05_center_string_agreement_and_plain_slice():
    bad = []
    plain_slice = 0
    for i, (inst, _system, verdict) in enumerate(rcs_suite()):
        if rcs_oracle(inst) is not verdict.resilient:
            bad.append((i, "oracle"))
            continue
        if inst.m == 0:
            plain_slice += 1
            plain = closest_string_oracle(
                inst.matrix.rows, inst.d, inst.matrix.alphabet.symbols
            )
            if plain is not verdict.resilient:
                bad.append((i, "plain brute force"))
    _report(
        5,
        "corrupted-string engine equals oracle; m=0 equals plain search",
        not bad,
        f"100 instances, {plain_slice} in the m=0 slice, bad={bad}",
    )


def test_criterion_06_scheduling_agreement():
    bad = [
        i
        for i, (inst, _system, verdict) in enumerate(sched_suite())
        if sched_oracle(inst) is not verdict.resilient
    ]
    _report(
        6,
        "delay-tolerant scheduling engine equals oracle",
        not bad,
        f"100 instances, bad={bad}",
    )


def test_criterion_07_bribery_agreement():
    bad = [
        i
        for i, (inst, _system, verdict) in enumerate(bribery_suite())
        if bribery_oracle(inst) is not verdict.resilient
    ]
    _report(
        7,
        "two-sided bribery engine equals oracle",
        not bad,
        f"60 instances, bad={bad}",
    )


def test_criterion_08_budget_monotonicity():
    violations = []
    checked = 0
    for i, (inst, _system, verdict) in enumerate(rdscp_suite()):
        if verdict.resilient and inst.s >= 1:
            checked += 1
            weaker = setcover.RdscpInstance(
                inst.n, inst.family, inst.s - 1, inst.d, inst.t
            )
            if not check_resiliency(setcover.encode(weaker)).resilient:
                violations.append(("setcover", i))
    for i, (inst, _system, verdict) in enumerate(rcs_suite()):
        if verdict.resilient and inst.m >= 1:
            checked += 1
            weaker = closest_string.RcsInstance(inst.matrix, inst.d, inst.m - 1)
            if not check_resiliency(closest_string.encode(weaker)).resilient:
                violations.append(("strings", i))
    for i, (inst, _system, verdict) in enumerate(sched_suite()):
        if verdict.resilient and inst.K >= 1:
            checked += 1
            weaker = scheduling.SchedulingInstance(
                inst.machines, inst.ptimes, inst.counts, inst.K - 1, inst.cmax
            )
            if not check_resiliency(scheduling.encode(weaker)).resilient:
                violations.append(("scheduling", i))
    for i, (inst, _system, verdict) in enumerate(bribery_suite()):
        if not verdict.resilient:
            continue
        if inst.ba >= 1:
            checked += 1
            weaker = bribery.BriberyInstance(inst.election, inst.ba - 1, inst.b)
            if not check_resiliency(bribery.encode(weaker)).resilient:
                violations.append(("bribery -ba", i))
        checked += 1
        stronger = bribery.BriberyInstance(inst.election, inst.ba, inst.b + 1)
        if not check_resiliency(bribery.encode(stronger)).resilient:
            violations.append(("bribery +b", i))
    _report(
        8,
        "weakening the adversary or strengthening the response keeps yes",
        not violations,
        f"{checked} perturbed re-checks, violations={violations}",
    )


def _plain_box_feasible(system) -> bool:
    """Row-by-row check over the full box product.  No propagation, no
    ordering tricks: deliberately nothing in common with the solver."""
    axes = [range(b.lower, b.upper + 1) for _, b in system.variables]
    index = {vid: i for i, (vid, _) in enumerate(system.variables)}
    rows = [
        (
            [(index[vid], coeff) for vid, coeff in row.coeffs.items()],
            row.rel is Rel.LEQ,
            row.rhs,
        )
        for row in system.rows
    ]
    for point in itertools.product(*axes):
        for terms, is_leq, rhs in rows:
            total = sum(point[i] * c for i, c in terms)
            if (total > rhs) if is_leq else (total != rhs):
                break
        else:
            return True
    return False


def test_criterion_09_witness_soundness():
    bad = []
    literal = problem_level = 0

    def verify(tag, system, verdict, recheck):
        nonlocal literal, problem_level
        witness = verdict.witness_z
        if evaluate(system.z_system(), witness) is not None:
            bad.append((tag, "witness violates the adversary rows"))
            return
        sub = substitute(system, witness)
        if solve_feasibility(sub) is not None:
            bad.append((tag, "solver finds a response"))
            return
        points = math.prod(b.upper - b.lower + 1 for _, b in sub.variables)
        if points <= BOX_ENUM_LIMIT:
            literal += 1
            if _plain_box_feasible(sub):
                bad.append((tag, "plain enumeration finds a response"))
        else:
            # box product out of enumeration reach: exhaustive problem-level
            # recheck restricted to this witness (see the decisions ledger)
            problem_level += 1
            if recheck():
                bad.append((tag, "problem-level recheck finds a response"))

    for i, (system, verdict) in enumerate(raw_suite()):
        if not verdict.resilient:
            verify(("raw", i), system, verdict, lambda: False)
    for i, (inst, system, verdict) in enumerate(rdscp_suite()):
        if not verdict.resilient:
            verify(
                ("setcover", i),
                system,
                verdict,
                lambda inst=inst, w=verdict.witness_z: rdscp_packing_exists(
                    inst, setcover.decode_scenario(inst, w)
                ),
            )
    for i, (inst, system, verdict) in enumerate(rcs_suite()):
        if not verdict.resilient:
            verify(
                ("strings", i),
                system,
                verdict,
                lambda inst=inst, w=verdict.witness_z: closest_string_oracle(
                    closest_string.decode_scenario(inst, w).rows,
                    inst.d,
                    inst.matrix.alphabet.symbols,
                ),
            )
    for i, (inst, system, verdict) in enumerate(sched_suite()):
        if not verdict.resilient:
            verify(("scheduling", i), system, verdict, lambda: False)
    for i, (inst, system, verdict) in enumerate(bribery_suite()):
        if not verdict.resilient:
            verify(
                ("bribery", i),
                system,
                verdict,
                lambda inst=inst, w=verdict.witness_z: bribery_response_exists(
                    inst, bribery.decode_scenario(inst, w)[1]
                ),
            )
    _report(
        9,
        "every witness satisfies its rows and admits no response",
        not bad,
        f"{literal} checked by box enumeration, {problem_level} by "
        f"problem-level search, bad={bad}",
    )


def test_criterion_10_metric_and_normalization_properties():
    bad = []
    for m in range(1, 5):
        perms = bribery.voter_types(m)
        for a in perms:
            if bribery.kendall(a, a) != 0:
                bad.append(("identity", a))
            for b in perms:
                dab = bribery.kendall(a, b)
                if a != b and dab == 0:
                    bad.append(("discernibles", a, b))
                if dab != bribery.kendall(b, a):
                    bad.append(("symmetry", a, b))
        for a, b, c in itertools.product(perms, repeat=3):
            if bribery.kendall(a, c) > bribery.kendall(a, b) + bribery.kendall(b, c):
                bad.append(("triangle", a, b, c))

    rng = random.Random(424242)
    alphabets = (Alphabet(("a", "b")), Alphabet(("a", "b", "c")))
    for trial in range(200):
        alphabet = alphabets[trial % 2]
        k = rng.randint(1, 3)
        length = rng.randint(1, 4)
        raw = StringMatrix(
            alphabet,
            tuple(
                "".join(rng.choice(alphabet.symbols) for _ in range(length))
                for _ in range(k)
            ),
        )
        normed, _ = normalize(raw)
        again, _ = normalize(normed)
        if again != normed:
            bad.append(("idempotence", trial))
        for j in range(length):
            before, after = raw.column(j), normed.column(j)
            for r1 in range(k):
                for r2 in range(k):
                    if (before[r1] == before[r2]) is not (after[r1] == after[r2]):
                        bad.append(("equality pattern", trial, j))
    _report(
        10,
        "swap distance is a metric; normalization is idempotent and faithful",
        not bad,
        f"all orders to width 4, 200 matrices, bad={bad}",
    )

"""Benchmark workloads: which instances each one decides, in what order.

An instance is ``(id, problem, doc)``: ``problem`` is a ``--problem``
value of ``resilp check`` or ``"raw"`` for ``check --raw``, and ``doc`` is
the JSON document the CLI reads.  Instance content is pinned, so the
committed expected-outcomes file covers every seed; the seed sets the
order in which a pass visits the instances.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

Instance = Tuple[str, str, dict]

WORKLOADS = ("sched-scaled", "search-heavy", "acceptance-mix", "cli-cold")

# Same generator seeds as the acceptance suite in tests/test_acceptance.py.
SUITE_SIZES = (("raw", 200), ("rdscp", 100), ("rcs", 100), ("sched", 100), ("bribery", 60))

CLI_COLD_SPAWNS = 100
# cli-cold draws only instances whose in-process decision is a small share
# of a spawn, so interpreter start and import dominate as they do for a
# user at the shell.
CLI_COLD_MAX_SCENARIOS = 8


def _sched(machines, ptimes, counts, K, cmax) -> dict:
    return {
        "machines": machines,
        "ptimes": [list(r) for r in ptimes],
        "counts": list(counts),
        "K": K,
        "cmax": cmax,
    }


def _rcs(strings, d, m) -> dict:
    return {"alphabet": ["a", "b"], "strings": list(strings), "d": d, "m": m}


def _bribery(census: Dict[str, int], scoring, ba, b) -> dict:
    votes = [
        {"order": [int(c) for c in order], "count": count}
        for order, count in sorted(census.items())
    ]
    return {
        "candidates": len(next(iter(census))),
        "votes": votes,
        "scoring": list(scoring),
        "ba": ba,
        "b": b,
    }


# Hundreds of cheap searches per instance; the last one fails late, at
# scenario 118 of 120.
SCHED_SCALED: Tuple[Instance, ...] = (
    ("sched-4x2-K8", "sched", _sched(4, ((1, 2, 2, 3), (2, 1, 3, 1)), (5, 5), 8, 10)),
    ("sched-3x3-K6", "sched", _sched(3, ((1, 2, 3), (2, 1, 2), (3, 3, 1)), (4, 4, 4), 6, 12)),
    ("sched-3x3-K7-late", "sched", _sched(3, ((2, 2, 1), (1, 3, 3), (1, 3, 2)), (3, 3, 4), 7, 8)),
)

# Few scenarios, each a search over ~100 variables.
SEARCH_HEAVY: Tuple[Instance, ...] = (
    ("bribery-borda-ba2-b2", "bribery",
     _bribery({"123": 3, "213": 2, "312": 2, "231": 1}, (2, 1, 0), 2, 2)),
    ("rcs-6x4-d3-m2", "rcs", _rcs(("aaaaba", "aaaaab", "aaaaab", "babaaa"), 3, 2)),
    ("rcs-8x4-d3-m2-late", "rcs",
     _rcs(("aaabbaaa", "aaabbaba", "bbaaaaaa", "aabaaaab"), 3, 2)),
)


def acceptance_suite() -> List[Instance]:
    """The 560 seeded acceptance-suite instances as CLI documents."""
    from resilp import sampling
    from resilp.jsonio import resiliency_to_dict

    makers = {
        "raw": lambda rng: resiliency_to_dict(sampling.random_system(rng)),
        "rdscp": lambda rng: sampling.random_rdscp(rng).to_dict(),
        "rcs": lambda rng: sampling.random_rcs(rng).to_dict(),
        "sched": lambda rng: sampling.random_sched(rng).to_dict(),
        "bribery": lambda rng: sampling.random_bribery(rng).to_dict(),
    }
    return [
        (f"{family}-{i:03d}", family, makers[family](random.Random(i)))
        for family, count in SUITE_SIZES
        for i in range(count)
    ]


def all_instances() -> List[Instance]:
    """Every instance any workload can run; the expected file covers these."""
    return [*SCHED_SCALED, *SEARCH_HEAVY, *acceptance_suite()]


def build(name: str, seed: int, expected: Dict[str, dict]) -> List[Instance]:
    """The instances of workload ``name`` in the order a pass visits them."""
    rng = random.Random(seed)
    if name == "sched-scaled":
        chosen = list(SCHED_SCALED)
    elif name == "search-heavy":
        chosen = list(SEARCH_HEAVY)
    elif name == "acceptance-mix":
        chosen = acceptance_suite()
    elif name == "cli-cold":
        small = [
            inst
            for inst in acceptance_suite()
            if inst[1] != "raw"
            and expected[inst[0]]["scenarios_checked"] <= CLI_COLD_MAX_SCENARIOS
        ]
        # A fixed draw, so every seed spawns the same children.
        chosen = random.Random(0).sample(small, CLI_COLD_SPAWNS)
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(chosen)
    return chosen


# One tiny document per problem, decided during set-up so that lazy
# imports, bytecode caches and the file cache are warm before timing.
WARMUP: Dict[str, dict] = {
    "raw": {
        "variables": [
            {"name": "x0", "lower": 0, "upper": 1},
            {"name": "z0", "lower": 0, "upper": 1},
        ],
        "zvars": ["z0"],
        "rows": [{"coeffs": {"x0": 1, "z0": 1}, "rel": "<=", "rhs": 2}],
    },
    "rdscp": {"n": 2, "family": [[1], [2], [1, 2]], "s": 1, "d": 1, "t": 2},
    "rcs": _rcs(("aa", "ab"), 1, 1),
    "sched": _sched(2, ((1, 2),), (2,), 2, 3),
    "bribery": _bribery({"12": 2, "21": 1}, (1, 0), 1, 1),
}

"""Write or check ``expected.json``: verdict, lex-first witness and
``scenarios_checked`` for every instance any workload can run.

Each verdict bit is cross-checked against the matching brute-force oracle
and each witness is re-checked against ``system.z_system()`` with
``evaluate``; any disagreement aborts without writing.

    python3 perfbench/make_expected.py           # regenerate the file
    python3 perfbench/make_expected.py --check   # compare, exit 1 on drift
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from resilp import bribery, closest_string, oracles, scheduling, setcover  # noqa: E402
from resilp.engine import check_resiliency  # noqa: E402
from resilp.ilp import evaluate  # noqa: E402
from resilp.jsonio import resiliency_from_dict  # noqa: E402

import workloads  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"

_PROBLEMS = {
    "rdscp": (setcover.RdscpInstance.from_dict, setcover.encode, oracles.rdscp_oracle),
    "rcs": (
        lambda doc: closest_string.instance_from_dict(doc)[0],
        closest_string.encode,
        # The pinned rcs instances have 24 and 32 cells; the default
        # 9-cell budget only guards interactive use.
        lambda inst: oracles.rcs_oracle(inst, max_cells=32),
    ),
    "sched": (scheduling.SchedulingInstance.from_dict, scheduling.encode, oracles.sched_oracle),
    "bribery": (bribery.BriberyInstance.from_dict, bribery.encode, oracles.bribery_oracle),
}


def decide(problem: str, doc: dict) -> dict:
    """Engine outcome for one instance, validated against its oracle."""
    if problem == "raw":
        system = resiliency_from_dict(doc)
        oracle_bit = oracles.forall_exists_oracle(system)
    else:
        parse, encode, oracle = _PROBLEMS[problem]
        inst = parse(doc)
        system = encode(inst)
        oracle_bit = oracle(inst)
    verdict = check_resiliency(system)
    if verdict.resilient is not oracle_bit:
        raise RuntimeError(f"engine says {verdict.resilient}, oracle says {oracle_bit}")
    if verdict.witness_z is not None:
        violation = evaluate(system.z_system(), verdict.witness_z)
        if violation is not None:
            raise RuntimeError(f"witness is not an admissible scenario: {violation}")
    return {
        "resilient": verdict.resilient,
        "witness": None if verdict.witness_z is None else verdict.witness_z.by_name(),
        "scenarios_checked": verdict.scenarios_checked,
    }


def compute() -> dict:
    out = {}
    for iid, problem, doc in workloads.all_instances():
        try:
            out[iid] = decide(problem, doc)
        except Exception as exc:
            raise SystemExit(f"{iid}: {exc}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed file instead of writing it")
    args = parser.parse_args(argv)
    fresh = compute()
    if args.check:
        committed = json.loads(EXPECTED_PATH.read_text())
        drift = sorted(k for k in fresh.keys() | committed.keys()
                       if fresh.get(k) != committed.get(k))
        for iid in drift:
            print(f"drift: {iid}: committed {committed.get(iid)} now {fresh.get(iid)}")
        print(f"{len(fresh)} instances, {len(drift)} drifted")
        return 1 if drift else 0
    EXPECTED_PATH.write_text(json.dumps(fresh, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(fresh)} instances to {EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

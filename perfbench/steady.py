"""Run one workload on several seeds and print each end-to-end metric's
median and quartile spread (Q3 - Q1 as a share of the median).

    python3 perfbench/steady.py --workload search-heavy --seeds 1-10 --seconds 25

Runs are sequential, one child at a time.  Exit code 1 when any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_arg(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", default="25")
    args = parser.parse_args(argv)
    values = {}
    ok = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    for k, vs in values.items():
        spread = quartile_spread(vs) if len(vs) >= 2 else float("nan")
        print(f"{k}: median {statistics.median(vs):.6g} spread {spread:.4f} n={len(vs)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Check that a workload's simulated metrics are a function of the seed.

Runs ``run.py`` twice with one seed and once with another, then fails
unless every simulated metric is identical across the two runs of the
first seed and at least one differs on the other seed::

    python3 perfbench/check_seeds.py --workload engine-criteo --seed 1 --other 2
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: End-to-end metrics computed from the simulated clock only.
SIMULATED = ("sim_qps", "sim_p50_us", "sim_p99_us", "pages_per_query",
             "effective_bw", "dram_hit_rate", "coverage", "ok_frac")


def metrics(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {name: result["metrics"][name]["value"] for name in SIMULATED}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("engine-criteo", "cluster-criteo_tb-ha"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--other", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    first = metrics(args.workload, args.seed, args.seconds)
    again = metrics(args.workload, args.seed, args.seconds)
    other = metrics(args.workload, args.other, args.seconds)
    for name in SIMULATED:
        print(f"{name:<16} seed {args.seed}: {first[name]!r:<22} "
              f"again: {again[name]!r:<22} seed {args.other}: "
              f"{other[name]!r}")
    if first != again:
        print("FAIL: one seed gave two different simulated results")
        return 1
    if first == other:
        print("FAIL: the held-out seed gave the same simulated results")
        return 1
    print("ok: identical for one seed, different for the held-out seed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

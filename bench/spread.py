"""Run-to-run spread of the benchmark's metrics over several seeds.

Usage, from the root of a checkout:

    python3 bench/spread.py --workload analytic --seeds 1-10 --seconds 30 --trace 0

Runs bench/run.py once per seed, one run at a time, and prints for each
metric its median and the distance between its first and third quartile
as a share of the median (statistics.quantiles, n=4), the figure the
benchmark's bounds are set against. Each run's result line and stderr
are appended to bench/results/spread-<workload>-trace<0|1>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="first-last, inclusive")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    (HERE / "results").mkdir(exist_ok=True)
    log = HERE / "results" / f"spread-{args.workload}-trace{args.trace}.jsonl"
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, cwd=HERE.parent, timeout=600,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        line = proc.stdout.strip().splitlines()[-1]
        with log.open("a") as fh:
            fh.write(json.dumps({"seed": seed, "result": json.loads(line), "stderr": proc.stderr.splitlines()}) + "\n")
        results.append(json.loads(line))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()), flush=True)

    shares = {(r["failed"], r["attempted"]) for r in results}
    print(f"correct: {all(r['correct'] for r in results)}; (failed, attempted): {sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:40s} median {median:.6g}  IQR/median {spread:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

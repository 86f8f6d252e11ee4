"""Reference costs of the numpy calls a simulated replicate makes.

Usage, from the root of a checkout:

    python3 bench/kernel_probe.py

For each paper count N that the simulated workloads use, times the calls
montecarlo makes per replicate, one at a time: ``default_rng`` set-up
(us), ``standard_normal`` (ns per draw), exp and floor to int64 (ns per
paper) and the descending in-place sort (ns per paper). Each figure is
the median of several blocks. The ``standard_normal`` figure is the
single-core floor a faster simulator works against. Numbers go to stdout
as a table; the last line is JSON.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

#: The study's paper counts (study-sim) and series 22/13/25 (small-n-sim).
PAPER_COUNTS = (100, 200, 300, 500, 1000, 2000, 3000, 4000, 5000, 10_000)
MU, SIGMA = 2.1, 1.1
BLOCKS = 7
PAPERS_PER_BLOCK = 2_000_000


def _median_ns(fn, calls: int) -> float:
    """Median over BLOCKS of the time per call of `fn`, in ns."""
    per_call = []
    for _ in range(BLOCKS):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter_ns() - start) / calls)
    return statistics.median(per_call)


def probe(n: int) -> dict[str, float]:
    calls = max(PAPERS_PER_BLOCK // n, 50)
    rng = np.random.default_rng(1)
    z = rng.standard_normal(n)
    counts = np.floor(np.exp(MU + SIGMA * z)).astype(np.int64)
    seeds = iter(range(10**9))

    def sort() -> None:
        c = counts.copy()
        c[::-1].sort()

    copy_ns = _median_ns(counts.copy, calls)
    return {
        "n": n,
        "default_rng_us": _median_ns(lambda: np.random.default_rng(next(seeds)), min(calls, 20_000)) * 1e-3,
        "standard_normal_ns_per_draw": _median_ns(lambda: rng.standard_normal(n), calls) / n,
        "exp_floor_ns_per_paper": _median_ns(
            lambda: np.floor(np.exp(MU + SIGMA * z)).astype(np.int64), calls) / n,
        "sort_ns_per_paper": (_median_ns(sort, calls) - copy_ns) / n,
    }


def main() -> None:
    rows = [probe(n) for n in PAPER_COUNTS]
    keys = list(rows[0])
    print("  ".join(f"{k:>28s}" for k in keys))
    for row in rows:
        print("  ".join(f"{row[k]:28.4g}" for k in keys))
    print(json.dumps({"numpy": np.__version__, "rows": rows}))


if __name__ == "__main__":
    main()

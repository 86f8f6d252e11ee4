"""Self-test of the benchmark's checks.

Usage, from the root of a checkout:

    python3 bench/selftest.py

Runs one pass of each workload and checks it with oracle.py three ways:
untampered, every workload must pass; with a simulator that rounds draws
to the nearest count instead of truncating, study-sim and small-n-sim
must fail; with solve_h's result scaled by 1 + 1e-4, analytic must fail.
Exits 0 when every expectation holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys

import numpy as np

import run

cli = run.load_citesim()
import oracle  # noqa: E402  (needs citesim on the path)
from citesim import hindex, indicators, montecarlo  # noqa: E402


def failures(workload: str) -> list[str]:
    argvs = run.WORKLOADS[workload](1)
    outputs, failed, _ = run.run_pass(cli, argvs)
    checker = oracle.Checker()
    for argv, stdout in zip(argvs, outputs):
        oracle.check_output(argv, stdout, checker)
    return [f"{failed} commands failed"] * bool(failed) + checker.failures


@contextlib.contextmanager
def patched(*replacements):
    """Set (module, attribute, value) for the block, then restore."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


def rounding_draws(spec, seed):
    """The simulator's draw with round-to-nearest in place of truncation."""
    rng = np.random.default_rng(seed & ((1 << 64) - 1))
    z = rng.standard_normal(spec.n_papers)
    counts = np.rint(np.exp(spec.params.mu + spec.params.sigma * z)).astype(np.int64)
    counts[::-1].sort()
    return counts


_solve_h = hindex.solve_h


def perturbed_solve_h(spec, tolerance=1e-9):
    solution = _solve_h(spec, tolerance)
    return dataclasses.replace(solution, h_continuous=solution.h_continuous * (1.0 + 1e-4))


def main() -> int:
    ok = True

    def expect(workload: str, should_fail: bool, label: str) -> None:
        nonlocal ok
        found = failures(workload)
        good = bool(found) == should_fail
        ok &= good
        verdict = "as expected" if good else "UNEXPECTED"
        print(f"{label:28s} {workload:12s} {len(found):5d} check failures  {verdict}")
        if found and not should_fail:
            print("  first: " + found[0])

    for workload in run.WORKLOADS:
        expect(workload, False, "untampered")
    with patched((montecarlo, "_draw_sorted_counts", rounding_draws)):
        expect("study-sim", True, "round-to-nearest simulator")
        expect("small-n-sim", True, "round-to-nearest simulator")
    with patched((hindex, "solve_h", perturbed_solve_h), (indicators, "solve_h", perturbed_solve_h)):
        expect("analytic", True, "solve_h x (1 + 1e-4)")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

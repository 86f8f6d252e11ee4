"""citesim benchmark: one workload, timed through the CLI's entry point.

Usage, from the root of a checkout:

    python3 bench/run.py --workload study-sim --seed 1 --seconds 30 --trace 0

The workload's command list is run in this process through
``citesim.cli.main(argv)`` with stdout captured; one run over the list is
a pass. With ``--trace 0`` the run reports the end-to-end metrics:
set-up time, the median ratio of a pass's wall time to that of a fixed
reference computation run in slices between the pass's commands, and
the process's peak resident set. With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones (see layers.py) with the tracing overhead. Every pass's
stdout must equal the first pass's, and the first pass is checked
against oracle.py. The last line of stdout is one JSON object: correct,
attempted, failed and metrics. The traced run also writes its span
table under bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

#: Replicates per series for study-sim: 30 series, 25.1M papers a pass.
STUDY_REPLICATES = 300
#: Study series 22, 13 and 25, the smallest N, where per-replicate
#: overhead rather than the draw kernel sets the cost.
SMALL_N_SERIES = (("1.7", "1.0", "100"), ("2.1", "1.1", "200"), ("1.5", "0.9", "200"))
SMALL_N_REPLICATES = 5000
#: Fresh interpreter starts timed for setup_s; the median is reported.
#: One start varies from 0.19 to 0.45 s on a shared 2-core machine.
SETUP_STARTS = 15
#: Each workload's reference computation, as (papers per array, arrays,
#: bisection solves, whether each array is drawn from a fresh
#: default_rng): numpy calls and Python arithmetic of the kinds its
#: passes make, about 0.2 s a pass on the machine in README.md. Pass time
#: over reference time cancels the drift in the shared machine's speed,
#: which moves both alike. analytic never imports numpy.random, so its
#: reference does not either.
REFERENCES = {
    "study-sim": (3000, 2000, 0, True),
    "small-n-sim": (150, 7000, 0, True),
    "analytic": (1000, 2000, 5500, False),
}
THRESHOLDS = ("5", "10", "20", "30", "50", "100", "500")
INDICATORS = ("h", "h_over_n", "sum_c", "sum_c_over_n")
SETUP_SNIPPET = "import citesim.cli; citesim.cli.build_parser()"


def study_sim(seed: int) -> list[list[str]]:
    return [["table1", "--mode", "simulate", "--replicates", str(STUDY_REPLICATES), "--seed", str(seed)]]


def small_n_sim(seed: int) -> list[list[str]]:
    return [
        ["simulate", "--mu", mu, "--sigma", sigma, "--n", n,
         "--replicates", str(SMALL_N_REPLICATES), "--seed", str(seed)]
        for mu, sigma, n in SMALL_N_SERIES
    ]


def analytic(seed: int) -> list[list[str]]:
    """table1, an hcurve per reference (mu, sigma), and every scatter and
    fit the CLI accepts, in an order drawn from the seed."""
    from citesim.reference import REFERENCE_ROWS

    pairs = sorted({(row.mu, row.sigma) for row in REFERENCE_ROWS})
    hcurves = [
        ["hcurve", "--mu", f"{mu:g}", "--sigma", f"{sigma:g}",
         "--n-min", "10", "--n-max", str(10**10), "--with-asymptotic"]
        for mu, sigma in pairs
    ]
    scatters = [
        ["scatter", "--y", y, "--x", x, "--threshold", t, *normalized]
        for y in INDICATORS
        for x in ("counts", "probabilities")
        for t in THRESHOLDS
        for normalized in ([], ["--normalized"])
    ]
    fits = [
        ["fit", "--kind", kind, "--y", y, *x]
        for kind in ("power", "linear")
        for y in INDICATORS
        for x in [["--x", axis, "--threshold", t] for axis in ("counts", "probabilities") for t in THRESHOLDS]
        + [["--x", "h"], ["--x", "sum_c"]]
    ]
    rest = hcurves + scatters + fits
    random.Random(seed).shuffle(rest)
    return [["table1"], *rest]


WORKLOADS = {"study-sim": study_sim, "small-n-sim": small_n_sim, "analytic": analytic}


def load_citesim():
    """Import citesim from this checkout's src/, or exit nonzero."""
    sys.path.insert(0, str(SRC))
    try:
        import citesim.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import citesim from {SRC}: {exc}")
    if Path(citesim.cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: citesim was imported from {citesim.cli.__file__}, not from {SRC}")
    return citesim.cli


def fresh_start() -> float:
    """Wall time, from start to exit, of a fresh interpreter that imports
    citesim.cli and builds its parser: the set-up every CLI call pays."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=dict(os.environ, PYTHONPATH=str(SRC)),
                   cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - start


def reference(workload: str, part: int, parts: int) -> float:
    """Wall time of part `part` of `parts` of `workload`'s reference
    computation. It uses numpy and plain Python alone, on inputs that
    never change, so no change to citesim moves it, and it imports
    nothing citesim does not."""
    import numpy as np

    n, arrays, solves, drawn = REFERENCES[workload]
    fixed = np.sin(np.arange(n) * 0.7)
    start = time.perf_counter()
    for i in range(arrays * part // parts, arrays * (part + 1) // parts):
        z = np.random.default_rng(i).standard_normal(n) if drawn else fixed * (1.0 + 1e-6 * i)
        counts = np.floor(np.exp(2.0 + 1.1 * z)).astype(np.int64)
        counts[::-1].sort()
    for i in range(solves * part // parts, solves * (part + 1) // parts):
        mu, papers = 1.0 + 0.3 * (i % 7), 100 + i
        lo, hi = 0.5, papers + 1.0  # bisect papers * S(h) = h
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if papers * 0.5 * math.erfc((math.log(mid) - mu) / (1.1 * math.sqrt(2.0))) > mid:
                lo = mid
            else:
                hi = mid
        f"{mu:g},{papers},{lo:.6f}"
    return time.perf_counter() - start


def run_pass(cli, argvs: list[list[str]], between=None) -> tuple[list[str], int, float]:
    """Run every command once, and `between(k)` after command k if given;
    returns the stdouts, how many commands failed and the summed wall
    time that the `between` calls return."""
    from citesim import indicators

    indicators.default_study.cache_clear()  # as in a fresh CLI process
    outputs, failed, aside = [], 0, 0.0
    for k, argv in enumerate(argvs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # a failed operation, counted below
                code = exc
        if code != 0:
            failed += 1
            print(f"bench: {' '.join(argv)} failed: {code!r}", file=sys.stderr)
        outputs.append(out.getvalue())
        if between is not None:
            aside += between(k)
    return outputs, failed, aside


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_citesim()
    argvs = WORKLOADS[args.workload](args.seed)
    first, failed, _ = run_pass(cli, argvs)  # warm-up; its output is the one checked
    attempted = len(argvs)
    identical = True

    def timed_pass(between=None) -> tuple[float, float, float]:
        """The pass's wall and CPU time, without the `between` calls, and
        the wall time those calls return."""
        nonlocal attempted, failed, identical
        cpu0, start = _cpu_s(), time.perf_counter()
        outputs, n_failed, aside = run_pass(cli, argvs, between)
        wall, cpu = time.perf_counter() - start - aside, _cpu_s() - cpu0
        attempted += len(argvs)
        failed += n_failed
        identical &= outputs == first
        return wall, cpu, aside

    if args.trace == 0:
        fresh_start()  # untimed: writes the bytecode cache

        # a slice of the reference after each command, so that both see
        # the same stretch of machine time
        def between(k: int) -> float:
            return reference(args.workload, k, len(argvs))

        for k in range(len(argvs)):
            between(k)  # untimed warm-up
        walls, refs, setups = [], [], []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            wall, _, ref = timed_pass(between)
            walls.append(wall)
            refs.append(ref)
            # fresh starts spread over the run sample the same stretch of
            # machine time as the passes
            if len(setups) < SETUP_STARTS * (time.perf_counter() - start) / args.seconds:
                setups.append(fresh_start())
        while len(setups) < SETUP_STARTS:
            setups.append(fresh_start())
        rels = [wall / ref for wall, ref in zip(walls, refs)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_rel": (statistics.median(rels), "x"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"bench: {len(walls)} passes; quartiles of wall_s {_quartiles(walls)}, "
              f"of reference s {_quartiles(refs)}, of wall_rel {_quartiles(rels)}", file=sys.stderr)
    else:
        from layers import Spans

        untraced, cpus, traced, tables = [], [], [], []
        while sum(untraced) + sum(w for w, _ in traced) < args.seconds:
            wall, cpu, _ = timed_pass()
            untraced.append(wall)
            cpus.append(cpu)
            spans = Spans()
            with spans.installed():
                wall, _, _ = timed_pass()
            traced.append((wall, spans.layer_metrics(wall)))
            tables.append(spans.table())
        walls = [w for w, _ in traced]
        units = {name: unit for name, (_, unit) in traced[0][1].items()}
        metrics = {
            name: (statistics.median(m[name][0] for _, m in traced), unit) for name, unit in units.items()
        }
        counts = [name for name, unit in units.items() if unit == "count"]
        identical &= all(m[name] == traced[0][1][name] for _, m in traced for name in counts)
        metrics["output.bytes"] = (sum(len(o.encode()) for o in first), "count")
        metrics["cli.cpu_s"] = (statistics.median(cpus), "s")
        metrics["cli.wall_s"] = (statistics.median(untraced), "s")
        metrics["trace.wall_s"] = (statistics.median(walls), "s")
        metrics["trace.overhead_pct"] = (100.0 * (metrics["trace.wall_s"][0] / metrics["cli.wall_s"][0] - 1.0), "%")
        _write_spans(args, tables, metrics)
        print(f"bench: {len(traced)} traced and untraced pass pairs", file=sys.stderr)

    import oracle

    checker = oracle.Checker()
    for command, stdout in zip(argvs, first):
        oracle.check_output(command, stdout, checker)
    if not identical:
        print("bench: a pass's stdout or work counts differ from the first pass's", file=sys.stderr)
    for failure in checker.failures[:20]:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    print(f"bench: {checker.cells} cells checked, {len(checker.failures)} failed", file=sys.stderr)
    correct = identical and not checker.failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def _cpu_s() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    return ", ".join(f"{q:.4f}" for q in statistics.quantiles(values, n=4))


def _write_spans(args, tables: list[dict], metrics: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "passes": tables,
    }, indent=1) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())

"""CLI stdout diffed byte for byte against committed golden files.

The simulate files under tests/golden/ were written with numpy 2.4.6,
the version tests/golden/NUMPY_VERSION names. table1_simulate_r50.csv
and the first three simulate files were written by sampling scheme 7,
and scheme 8 draws the same bytes for them: scheme 8 changes only runs
that pool papers below a lowest count J above 256, and the largest k*
among them is 172 (simulate_mu2_s1.2_n40000_r5.csv). The three written
by scheme 8 reach the sampler's paths those do not:
simulate_mu6.5_s0.5_n1000_r100.csv (k* = 592) moves the window below L,
simulate_mu9.2_s0.3_n5000_r100.csv (k* = 4947) draws a low tail below L
and a tail above a K' past 256, and simulate_mu30_s2_n3000_r20.csv (k* =
N, a huge median) sums its tail papers past 2^53 as int64 halves. Every
replicate finds its h by a scan of binomial counts from k*, the h of the
expected exceedance counts: up from k* one count a step while it has at
least k papers at k or more, else down until it has; |h - k*| + 2
binomials up, |h - k*| + 1 down. Scan step t of every replicate draws
from the rows stream jumped t times, in replicate order, so the first R
replicates' h are the same for any larger R.
simulate_mu2_s1_n30_r70000.csv spans two blocks of rows, 65,536 + 4,464,
so it pins the substreams carried from one block to the next. A rest
stream then places the papers the scans left unresolved, pooled over the
whole run by a cascade of binomials on each side of k*, then a
multinomial over a window of bins (below k*, one or more) and one
conditioned tail per side, which is exact in law
because the papers known to lie on one side of a count are independent
draws conditioned on that side. The h columns come from exact sums of
every replicate's h and h^2, the other columns from sums over all
replicates' papers, each divided by the replicate count. Scheme 6's
simulated bytes, drawn as one multinomial row per replicate over a 4-sd
window, no longer reproduce. Simulated cells depend on numpy's PCG64
stream and jump, its binomial and multinomial and its exp, so another
numpy release may legitimately print other digits; a simulated golden
that differs then names both numpy versions. verify_r100.csv is the
stdout of ``verify --format csv --replicates 100``, whose exit code
VERIFY_CODE pins too. At 100 replicates simulation-agreement's fixed
0.005 gate on a tail fraction does not scale with the replicate count,
so whether it passes depends on the draws: under schemes 5 and 6 it
passed and verify exited 0 (worst P dev 0.00454, then 0.00424); under
schemes 4, 7 and 8 it fails and verify exits 1 (worst P dev 0.00969,
series 22's P(10), about 2.2 of its standard errors).

tests/golden/analytic.md5 holds one line per closed-form command: the md5
of its stdout, two spaces and its argv. All of them run in one process,
so they also check that repeated ``main`` calls print what a fresh
process prints. Every command here runs in-process through
``cliruns.run_cli``; test_process_prints_the_goldens runs the simulate
and verify commands again as ``python -m citesim``, the entry point the
in-process runner does not pass through. After a change that is meant
to alter output, rewrite the manifest, the simulate files,
verify_r100.csv and NUMPY_VERSION with ``PYTHONPATH=src python
tests/test_golden.py``.
"""

import hashlib
from pathlib import Path

import pytest

from citesim.reference import REFERENCE_ROWS
from cliruns import run_cli, run_process

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "analytic.md5"

COMMANDS = {
    "table1_simulate_r50.csv": ("table1", "--mode", "simulate", "--replicates", "50"),
    "simulate_mu1.7_s1.0_n100_r500.csv": (
        "simulate", "--mu", "1.7", "--sigma", "1.0", "--n", "100", "--replicates", "500"),
    "simulate_mu2_s1.2_n40000_r5.csv": (
        "simulate", "--mu", "2", "--sigma", "1.2", "--n", "40000", "--replicates", "5"),
    "simulate_mu2_s1_n30_r70000.csv": (
        "simulate", "--mu", "2", "--sigma", "1", "--n", "30", "--replicates", "70000"),
    "simulate_mu6.5_s0.5_n1000_r100.csv": (
        "simulate", "--mu", "6.5", "--sigma", "0.5", "--n", "1000", "--replicates", "100"),
    "simulate_mu9.2_s0.3_n5000_r100.csv": (
        "simulate", "--mu", "9.2", "--sigma", "0.3", "--n", "5000", "--replicates", "100"),
    "simulate_mu30_s2_n3000_r20.csv": (
        "simulate", "--mu", "30", "--sigma", "2", "--n", "3000", "--replicates", "20"),
}

THRESHOLDS = ("5", "10", "20", "30", "50", "100", "500")
INDICATORS = ("h", "h_over_n", "sum_c", "sum_c_over_n")


def analytic_commands() -> list[list[str]]:
    """table1 in each format, an hcurve to N = 10^10 per reference
    (mu, sigma), and every scatter (112) and fit (128) the CLI accepts."""
    tables = [["table1", "--format", fmt] for fmt in ("csv", "tsv", "json")]
    hcurves = [
        ["hcurve", "--mu", f"{mu:g}", "--sigma", f"{sigma:g}",
         "--n-min", "10", "--n-max", str(10**10), "--with-asymptotic"]
        for mu, sigma in sorted({(row.mu, row.sigma) for row in REFERENCE_ROWS})
    ]
    scatters = [
        ["scatter", "--y", y, "--x", x, "--threshold", t, *normalized]
        for y in INDICATORS
        for x in ("counts", "probabilities")
        for t in THRESHOLDS
        for normalized in ([], ["--normalized"])
    ]
    x_flags = [["--x", x, "--threshold", t] for x in ("counts", "probabilities") for t in THRESHOLDS]
    fits = [
        ["fit", "--kind", kind, "--y", y, *x]
        for kind in ("power", "linear")
        for y in INDICATORS
        for x in x_flags + [["--x", "h"], ["--x", "sum_c"]]
    ]
    return tables + hcurves + scatters + fits


VERIFY = ("verify", "--format", "csv", "--replicates", "100")
VERIFY_CODE = 1

#: Each golden file's command line and exit code.
RUNS = {
    **{name: (argv, 0) for name, argv in COMMANDS.items()},
    "verify_r100.csv": (VERIFY, VERIFY_CODE),
}


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def numpy_note() -> str:
    """Both numpy versions, when the one running is not the one that wrote
    the simulated goldens (NUMPY_VERSION): another release may print other
    digits."""
    import numpy

    written = golden("NUMPY_VERSION").strip()
    if numpy.__version__ == written:
        return ""
    return f"goldens written with numpy {written}, run with numpy {numpy.__version__}"


def stdout_md5(argv: list[str]) -> str:
    return hashlib.md5(run_cli(*argv).stdout.encode("utf-8")).hexdigest()


def read_manifest() -> list[tuple[str, str]]:
    return [tuple(line.split("  ", 1))
            for line in MANIFEST.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name):
    assert run_cli(*COMMANDS[name]).stdout == golden(name), numpy_note()


def test_verify_stdout_and_exit_code_match_golden():
    result = run_cli(*VERIFY, check=False)
    assert result.returncode == VERIFY_CODE
    assert result.stdout == golden("verify_r100.csv"), numpy_note()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_process_prints_the_goldens(name):
    argv, code = RUNS[name]
    result = run_process("-m", "citesim", *argv, check=False)
    assert result.returncode == code, result.stderr
    assert result.stdout == golden(name), numpy_note()


def test_analytic_stdout_matches_manifest():
    commands = analytic_commands()
    assert len(commands) == 3 + 15 + 112 + 128
    manifest = read_manifest()
    assert [argv for _, argv in manifest] == [" ".join(argv) for argv in commands]
    mismatched = [
        " ".join(argv) for argv, (digest, _) in zip(commands, manifest)
        if stdout_md5(argv) != digest
    ]
    assert mismatched == []


if __name__ == "__main__":
    MANIFEST.write_text(
        "".join(f"{stdout_md5(argv)}  {' '.join(argv)}\n" for argv in analytic_commands()),
        encoding="utf-8",
    )
    for name, (argv, code) in RUNS.items():
        result = run_cli(*argv, check=False)
        assert result.returncode == code, (argv, result.stderr)
        (GOLDEN / name).write_text(result.stdout, encoding="utf-8")
    import numpy

    (GOLDEN / "NUMPY_VERSION").write_text(numpy.__version__ + "\n", encoding="utf-8")

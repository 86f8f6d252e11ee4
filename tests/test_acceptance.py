"""Acceptance suite: every exit criterion at its stated tolerance.

One test per criterion, each printing a [PASS]/[FAIL] line (visible with
pytest -s). The same checks back the CLI's `verify` subcommand. The
simulation-agreement criterion runs 10,000 replicates for each of the 30
series and dominates the suite's runtime.
"""

from citesim import verification
from cliruns import run_process


def _report(result):
    line = f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.detail}"
    print(f"\n{line}")
    assert result.passed, line


def test_criterion_01_table1_probabilities():
    # all 180 probability cells: 5e-5 absolute on decimal cells, 1%
    # relative on scientific-notation cells
    _report(verification.check_table1_probabilities())


def test_criterion_02_table1_h_column():
    # every rounded h within 1 of the reference, at least 27 of 30 exact
    _report(verification.check_table1_h())


def test_criterion_03_table1_sum_citations():
    # closed-form totals within 1% of every reference value
    _report(verification.check_table1_sum_citations())


def test_criterion_04_h_growth_spot_values():
    # h at N=100 -> N=200: 29 -> 41, 20 -> 28, 10 -> 13, each within 1
    _report(verification.check_h_growth_spots())


def test_criterion_05_asymptotic_accuracy():
    # sigma sqrt(2 ln N), the log of the closed form, within 15% of ln h
    # for all series with N >= 1000, at N, 10^3 N and 10^6 N; the closed
    # form is the leading term of ln h, not of h
    _report(verification.check_asymptotic_accuracy())


def test_criterion_06_power_law_fits():
    # h vs F(50): a = 14.6 +/- 1.5, b = 0.325 +/- 0.03, R2 >= 0.96
    # h vs F(100): a = 27.4 +/- 2.7, b = 0.282 +/- 0.03, R2 >= 0.95
    _report(verification.check_power_law_fits())


def test_criterion_07_mean_citations_linear_fit():
    # mean citations vs P(30): intercept 4.9 +/- 0.5, slope 88.7 +/- 9
    _report(verification.check_mean_citations_linear_fit())


def test_criterion_08_correlations():
    # r(P(20)) = 0.988 +/- 0.010 with p within two decades of 1e-24;
    # r(P(30)) = 0.998 +/- 0.005
    _report(verification.check_correlations())


def test_criterion_09_total_citations_exponent():
    # h vs total citations power law: exponent 0.42 +/- 0.05
    _report(verification.check_total_citations_exponent())


def test_criterion_10_simulation_agreement():
    # 10,000 replicates per series: h_mean within 2 of the exact h and
    # tail fractions within 0.005 of the survival probabilities
    _report(verification.check_simulation_agreement(replicates=10_000))


def test_criterion_11_decorrelation():
    # linear R2 of h/N vs P(100) <= 0.5 while power R2 of h vs F(100)
    # stays >= 0.95
    _report(verification.check_decorrelation())


def test_criterion_12_determinism():
    _report(verification.check_determinism())
    # and across processes: identical bytes for identical flags
    args = ("-m", "citesim", "table1", "--mode", "simulate", "--replicates", "5",
            "--seed", "20200212")
    first, second = run_process(*args), run_process(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

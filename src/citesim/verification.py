"""End-to-end checks that the build reproduces the reference study.

Each check pins one published result (table cells, fit coefficients,
correlations, growth spot values) or one structural guarantee
(simulation/model agreement, determinism) with its tolerance fixed here.
The CLI `verify` subcommand and the acceptance test suite both run these.

The checks judge what the CLI prints: the fit checks regress the
datasets `citesim fit` regresses (report.fit_dataset), and
simulation-agreement simulates each series as `table1 --mode simulate`
does. A failing check's detail lists its first five failing entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hindex import h_asymptotic, round_half_up, solve_h
from .indicators import default_study, metrics_simulated
from .lognormal import DEFAULT_THRESHOLDS, SeriesSpec
from .montecarlo import DEFAULT_REPLICATES, DEFAULT_SEED, _check_run, derive_seed
from .output import render_rows
from .reference import REFERENCE_ROWS
from .report import fit_dataset, table1_rows
from .stats import fit_linear, fit_power_law, pearson


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, detail: str, bad: list[str], label: str, passed: bool = True) -> CheckResult:
    """Check `name`, failed if `bad` has entries or `passed` is false; the
    first five entries of `bad` follow `label` at the end of `detail`."""
    if bad:
        detail += "; " + label + "; ".join(bad[:5])
    return CheckResult(name, passed and not bad, detail)


def check_table1_probabilities() -> CheckResult:
    """Tail probabilities match every reference cell: 5e-5 absolute for
    decimal cells, 1% relative for scientific-notation cells."""
    study = default_study()
    worst_abs = worst_rel = 0.0
    bad = []
    for ref, row in zip(REFERENCE_ROWS, study):
        for x, cell in zip(DEFAULT_THRESHOLDS, ref.probabilities, strict=True):
            expected = float(cell)
            actual = row.p_at[x]
            if "E" in cell.upper():
                err = abs(actual - expected) / expected
                worst_rel = max(worst_rel, err)
                if err > 0.01:
                    bad.append(f"series {ref.series} P({x}): rel {err:.2%}")
            else:
                err = abs(actual - expected)
                worst_abs = max(worst_abs, err)
                if err > 5e-5:
                    bad.append(f"series {ref.series} P({x}): abs {err:.2e}")
    detail = f"180 cells; worst abs dev {worst_abs:.2e}, worst rel dev {worst_rel:.3%}"
    return _result("table1-probabilities", detail, bad, "out of tolerance: ")


def check_table1_h() -> CheckResult:
    """Rounded h matches all 30 reference values within 1, at least 27 exactly."""
    study = default_study()
    exact = 0
    worst = 0
    bad = []
    for ref, row in zip(REFERENCE_ROWS, study):
        reported = round_half_up(row.h)
        diff = abs(reported - ref.h)
        worst = max(worst, diff)
        if diff == 0:
            exact += 1
        if diff > 1:
            bad.append(f"series {ref.series}: {reported} vs {ref.h}")
    detail = f"{exact}/30 exact, worst |diff| {worst}"
    return _result("table1-h", detail, bad, "beyond 1: ", exact >= 27)


def check_table1_sum_citations() -> CheckResult:
    """Model total citations within 1% of every reference value."""
    worst, worst_series = max(
        ((abs(row.sum_citations - ref.sum_citations) / ref.sum_citations, ref.series)
         for ref, row in zip(REFERENCE_ROWS, default_study())),
        key=lambda pair: pair[0],
    )
    return CheckResult(
        "table1-sum-citations",
        worst <= 0.01,
        f"worst rel dev {worst:.3%} (series {worst_series})",
    )


#: (mu, sigma, expected rounded h at N=100, at N=200)
_SPOT_TARGETS = ((2.7, 1.2, 29, 41), (2.1, 1.1, 20, 28), (1.3, 0.8, 10, 13))


def check_h_growth_spots() -> CheckResult:
    """Doubling papers from 100 to 200 reproduces the reference h pairs within 1."""
    results = []
    ok = True
    for mu, sigma, h100, h200 in _SPOT_TARGETS:
        for n, target in ((100, h100), (200, h200)):
            got = solve_h(SeriesSpec.from_values(mu, sigma, n)).h_reported
            ok &= abs(got - target) <= 1
            results.append(f"(mu={mu},N={n}): {got} vs {target}")
    return CheckResult("h-growth-spot-values", ok, "; ".join(results))


#: Paper-count multiples at which each large reference series is solved,
#: so the asymptotic check follows its (mu, sigma) out to N = 10^10.
_ASYMPTOTIC_SCALES = (1, 1_000, 1_000_000)


def check_asymptotic_accuracy() -> CheckResult:
    """sigma sqrt(2 ln N), the log of the closed form, within 15% of ln h
    for every reference series with N >= 1000, at its own N and at 10^3
    and 10^6 times that N.

    The closed form exp(sigma sqrt(2 ln N)) is the leading term of
    ln h = sigma sqrt(2 ln N) + (mu - sigma^2) + o(1), not of h: its ratio
    to h tends to e^(sigma^2 - mu). The deviation in h at each series' own
    N is therefore reported, but not gated.
    """
    devs, own_devs, bad = [], [], []
    for ref in REFERENCE_ROWS:
        if ref.n_papers < 1000:
            continue
        for scale in _ASYMPTOTIC_SCALES:
            spec = SeriesSpec.from_values(ref.mu, ref.sigma, ref.n_papers * scale)
            h = solve_h(spec).h_continuous
            approx = h_asymptotic(spec)
            ln_h, ln_approx = math.log(h), math.log(approx)
            err = abs(ln_approx - ln_h) / ln_h
            devs.append((err, f"series {ref.series} at N={spec.n_papers}"))
            if scale == 1:
                own_devs.append(((approx - h) / h, ref.series))
            if err > 0.15:
                bad.append(
                    f"series {ref.series} (mu={ref.mu}, sigma={ref.sigma}, N={spec.n_papers}): "
                    f"ln approx {ln_approx:.3f} vs ln h {ln_h:.3f}, dev {err:.2%}"
                )
    worst, worst_at = max(devs, key=lambda dev: dev[0])
    worst_h, worst_h_series = max(own_devs, key=lambda dev: abs(dev[0]))
    detail = (
        f"worst ln h dev {worst:.2%} ({worst_at}); "
        f"h dev at own N up to {worst_h:+.2%} (series {worst_h_series}), not gated"
    )
    return _result("asymptotic-accuracy", detail, bad, "over 15%: ")


def check_power_law_fits() -> CheckResult:
    """h versus exceedance counts at 50 and 100 citations refit to the
    published power laws: 14.6 x^0.325 (R^2 >= 0.96) and 27.4 x^0.282
    (R^2 >= 0.95), coefficients within 10%."""
    parts = []
    ok = True
    for threshold, a0, b0, r2_min in ((50.0, 14.6, 0.325, 0.96), (100.0, 27.4, 0.282, 0.95)):
        fit = fit_power_law(fit_dataset("h", "counts", threshold))
        good = (
            abs(fit.amplitude - a0) <= 0.1 * a0
            and abs(fit.exponent - b0) <= 0.03
            and fit.r_squared >= r2_min
        )
        ok &= good
        parts.append(
            f"F({threshold:g}): a={fit.amplitude:.3f} (target {a0}), "
            f"b={fit.exponent:.4f} (target {b0}), R2={fit.r_squared:.4f} (min {r2_min})"
        )
    return CheckResult("power-law-fits", ok, "; ".join(parts))


def check_mean_citations_linear_fit() -> CheckResult:
    """Mean citations versus P(30) refit to the published line 4.9 + 88.7 x."""
    fit = fit_linear(fit_dataset("sum_c_over_n", "probabilities", 30.0))
    ok = abs(fit.intercept - 4.9) <= 0.5 and abs(fit.slope - 88.7) <= 9.0
    return CheckResult(
        "mean-citations-linear-fit",
        ok,
        f"intercept={fit.intercept:.3f} (target 4.9±0.5), slope={fit.slope:.2f} (target 88.7±9)",
    )


def check_correlations() -> CheckResult:
    """Pearson r of mean citations with P(20) and P(30) matches the
    published 0.988 (p ~ 1e-24) and 0.998."""
    r20, p20 = pearson(fit_dataset("sum_c_over_n", "probabilities", 20.0))
    r30, _ = pearson(fit_dataset("sum_c_over_n", "probabilities", 30.0))
    ok = abs(r20 - 0.988) <= 0.010 and 1e-26 <= p20 <= 1e-22 and abs(r30 - 0.998) <= 0.005
    return CheckResult(
        "correlations",
        ok,
        f"r(P20)={r20:.4f} (target 0.988±0.01), p={p20:.2e} (target ~1e-24), "
        f"r(P30)={r30:.4f} (target 0.998±0.005)",
    )


def check_total_citations_exponent() -> CheckResult:
    """Power-law exponent of h versus total citations equals 0.42 within 0.05."""
    fit = fit_power_law(fit_dataset("h", "sum_c", None))
    ok = abs(fit.exponent - 0.42) <= 0.05
    return CheckResult(
        "total-citations-exponent",
        ok,
        f"exponent={fit.exponent:.4f} (target 0.42±0.05, R2={fit.r_squared:.3f})",
    )


def check_simulation_agreement(
    replicates: int = DEFAULT_REPLICATES,
    seed: int = DEFAULT_SEED,
) -> CheckResult:
    """Replicate-averaged h within 2 of the exact fixed point and empirical
    exceedance fractions within 0.005 of the survival probabilities at
    thresholds 5, 10, 20, 50, for every reference series.

    Each series is simulated as `table1 --mode simulate` simulates it, so
    the check judges the numbers that command prints at the same seed and
    replicate count."""
    study = default_study()
    worst_h = worst_p = 0.0
    bad = []
    for index, (ref, row) in enumerate(zip(REFERENCE_ROWS, study)):
        simulated = metrics_simulated(row.spec, replicates, derive_seed(seed, index))
        h_dev = abs(simulated.h - row.h)
        worst_h = max(worst_h, h_dev)
        if h_dev > 2.0:
            bad.append(f"series {ref.series} h_mean dev {h_dev:.2f}")
        for x in (5, 10, 20, 50):
            p_dev = abs(simulated.p_at[x] - row.p_at[x])
            worst_p = max(worst_p, p_dev)
            if p_dev > 0.005:
                bad.append(f"series {ref.series} P({x:g}) dev {p_dev:.4f}")
    detail = (
        f"{replicates} replicates/series; worst h dev {worst_h:.3f} (max 2), "
        f"worst P dev {worst_p:.5f} (max 0.005)"
    )
    return _result("simulation-agreement", detail, bad, "")


def check_decorrelation() -> CheckResult:
    """Dividing by paper count destroys the correlation: linear R^2 of h/N
    versus P(100) at most 0.5 while the h versus F(100) power fit keeps
    R^2 at least 0.95."""
    r_norm, _ = pearson(fit_dataset("h_over_n", "probabilities", 100.0))
    fit = fit_power_law(fit_dataset("h", "counts", 100.0))
    ok = r_norm * r_norm <= 0.5 and fit.r_squared >= 0.95
    return CheckResult(
        "decorrelation",
        ok,
        f"linear R2(h/N, P(100))={r_norm * r_norm:.4f} (max 0.5); "
        f"power R2(h, F(100))={fit.r_squared:.4f} (min 0.95)",
    )


def check_determinism(seed: int = DEFAULT_SEED) -> CheckResult:
    """Simulated study table, at 100 replicates, renders byte-identically
    across repeated runs."""
    first = render_rows(table1_rows("simulate", 100, seed), "csv")
    second = render_rows(table1_rows("simulate", 100, seed), "csv")
    return CheckResult(
        "determinism",
        first == second,
        f"two simulate renders, {len(first)} bytes each, identical={first == second}",
    )


def run_checks(
    filter_text: str | None = None,
    replicates: int = DEFAULT_REPLICATES,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Run all (or name-filtered) checks; cheap ones first.

    A seed or replicate count that `simulate` would reject raises
    ValueError before any check runs, whatever the filter.
    """
    _check_run(seed, replicates)
    checks = {
        "table1-probabilities": check_table1_probabilities,
        "table1-h": check_table1_h,
        "table1-sum-citations": check_table1_sum_citations,
        "h-growth-spot-values": check_h_growth_spots,
        "asymptotic-accuracy": check_asymptotic_accuracy,
        "power-law-fits": check_power_law_fits,
        "mean-citations-linear-fit": check_mean_citations_linear_fit,
        "correlations": check_correlations,
        "total-citations-exponent": check_total_citations_exponent,
        "decorrelation": check_decorrelation,
        "determinism": lambda: check_determinism(seed),
        "simulation-agreement": lambda: check_simulation_agreement(replicates, seed),
    }
    return [check() for name, check in checks.items() if not filter_text or filter_text in name]

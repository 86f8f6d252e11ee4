"""Row builders behind the CLI commands.

Each builder returns a list of dicts with a fixed key order and cells
already formatted, ready for :func:`citesim.output.render_rows`. They
are kept separate from the argument parsing so the verification suite
can exercise the exact byte streams the CLI emits.
"""

from __future__ import annotations

from .hindex import h_curve, round_half_up
from .indicators import (
    X_AXES,
    SeriesMetrics,
    default_study,
    indicator_value,
    metrics_analytic,
    metrics_simulated,
    scatter_dataset,
    study_specs,
)
from .lognormal import DEFAULT_THRESHOLDS, LognormalParams, SeriesSpec
from .montecarlo import _check_run, derive_seed, run_replicates
from .output import format_number, format_probability
from .stats import fit_linear, fit_power_law

FIT_X_AXES = (*X_AXES, "h", "sum_c")


def table1_rows(mode: str, replicates: int, seed: int) -> list[dict]:
    """The 30-series study table, analytic or replicate-averaged. A seed
    or replicate count that simulate mode would reject raises ValueError
    in either mode."""
    if mode not in ("analytic", "simulate"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_run(seed, replicates)
    rows = []
    for index, spec in enumerate(study_specs()):
        if mode == "analytic":
            metrics = metrics_analytic(spec)
        else:
            metrics = metrics_simulated(spec, replicates, derive_seed(seed, index))
        rows.append(_table1_row(index + 1, metrics))
    return rows


def _table1_row(series: int, metrics: SeriesMetrics) -> dict:
    row = {
        "series": series,
        "mu": f"{metrics.spec.params.mu:g}",
        "sigma": f"{metrics.spec.params.sigma:g}",
        "n": metrics.spec.n_papers,
        "sum_c": round_half_up(metrics.sum_citations),
        "h": round_half_up(metrics.h),
    }
    for x in DEFAULT_THRESHOLDS:
        row[f"p_{x:g}"] = format_probability(metrics.p_at[x])
    return row


def hcurve_rows(
    mu: float,
    sigma: float,
    n_min: int,
    n_max: int,
    points: int,
    with_asymptotic: bool,
) -> list[dict]:
    """h versus paper count over a geometric grid."""
    curve = h_curve(LognormalParams(mu, sigma), n_min, n_max, points, with_asymptotic)
    rows = []
    for i, n in enumerate(curve.n_papers):
        row = {"n": n, "h_exact": format_number(curve.h_exact[i])}
        if curve.h_asymptotic is not None:
            row["h_asymptotic"] = format_number(curve.h_asymptotic[i])
        rows.append(row)
    return rows


def scatter_rows(y_indicator: str, x_axis: str, threshold: float, normalized: bool) -> list[dict]:
    """One (x, y) point per study series.

    `normalized` divides by the paper count the axes that are not
    already per paper: the indicator becomes its per-paper ratio and
    exceedance counts become probabilities.
    """
    if x_axis not in X_AXES:
        raise ValueError(f"unknown x axis {x_axis!r}; expected one of {X_AXES}")
    if normalized:
        if not y_indicator.endswith("_over_n"):
            y_indicator = y_indicator + "_over_n"
        x_axis = "probabilities"
    points = scatter_dataset(default_study(), y_indicator, x_axis, threshold)
    return [
        {"series": i + 1, "x": format_number(x), "y": format_number(y)}
        for i, (x, y) in enumerate(points)
    ]


def fit_dataset(y_indicator: str, x_axis: str, threshold: float | None) -> list[tuple[float, float]]:
    """Study-wide (x, y) pairs for a regression.

    The x axis is an exceedance count or probability at `threshold`, or
    one of the indicators h / sum_c directly, which take no threshold.
    """
    if x_axis not in FIT_X_AXES:
        raise ValueError(f"unknown x axis {x_axis!r}; expected one of {FIT_X_AXES}")
    table = default_study()
    if x_axis in X_AXES:
        if threshold is None:
            raise ValueError(f"x axis {x_axis!r} needs a threshold")
        return scatter_dataset(table, y_indicator, x_axis, threshold)
    if threshold is not None:
        raise ValueError(f"x axis {x_axis!r} takes no threshold")
    ys = [indicator_value(row, y_indicator) for row in table]
    xs = [indicator_value(row, x_axis) for row in table]
    return list(zip(xs, ys))


def fit_rows(kind: str, y_indicator: str, x_axis: str, threshold: float | None) -> list[dict]:
    """The power-law or linear fit of the study-wide dataset, one row."""
    fitters = {"power": fit_power_law, "linear": fit_linear}
    if kind not in fitters:
        raise ValueError(f"unknown fit kind {kind!r}")
    fit = fitters[kind](fit_dataset(y_indicator, x_axis, threshold))
    row = {
        "kind": kind,
        "y": y_indicator,
        "x": x_axis,
        "threshold": "" if threshold is None else f"{threshold:g}",
    }
    # the fit's own fields, in declared order
    for name, value in vars(fit).items():
        if name == "p_value":
            value = f"{value:.3E}"
        elif name != "n_points":
            value = format_number(value)
        row[name] = value
    return [row]


def simulate_rows(mu: float, sigma: float, n_papers: int, replicates: int, seed: int) -> list[dict]:
    """Replicate summary for a single spec, one row."""
    spec = SeriesSpec.from_values(mu, sigma, n_papers)
    summary = run_replicates(spec, replicates, DEFAULT_THRESHOLDS, seed)
    row = {
        "mu": f"{mu:g}",
        "sigma": f"{sigma:g}",
        "n": n_papers,
        "replicates": replicates,
        "seed": seed,
        "h_mean": format_number(summary.h_mean),
        "h_stddev": format_number(summary.h_stddev),
        "sum_c_mean": format_number(summary.sum_citations_mean),
    }
    for x in DEFAULT_THRESHOLDS:
        row[f"f_{x:g}"] = format_number(summary.counts_above[x])
    return [row]

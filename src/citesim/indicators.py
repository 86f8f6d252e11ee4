"""Per-series indicator suites and the default 30-series study.

A series' indicator suite collects total citations, the h-index, their
size-independent ratios, and tail probabilities / expected exceedance
counts at a set of citation thresholds, either from the closed-form
model or from replicate-averaged simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .hindex import solve_h
from .lognormal import (
    DEFAULT_THRESHOLDS,
    SeriesSpec,
    expected_exceeding,
    survival_probability,
    total_citations,
)
from .montecarlo import DEFAULT_REPLICATES, DEFAULT_SEED, run_replicates
from .reference import REFERENCE_ROWS

#: Indicator name -> the SeriesMetrics field that holds it.
INDICATOR_FIELDS = {
    "h": "h",
    "h_over_n": "h_over_n",
    "sum_c": "sum_citations",
    "sum_c_over_n": "mean_citations",
}
Y_INDICATORS = tuple(INDICATOR_FIELDS)
#: Threshold axes: expected exceedance counts and tail probabilities.
X_AXES = ("counts", "probabilities")


@dataclass(frozen=True)
class SeriesMetrics:
    """Indicator suite for one series.

    `h` is the continuous fixed point in analytic mode and the replicate
    mean in simulated mode; presentation rounding is left to callers.
    """

    spec: SeriesSpec
    sum_citations: float
    h: float
    h_over_n: float
    mean_citations: float
    p_at: dict[float, float]
    f_at: dict[float, float]


def metrics_analytic(spec: SeriesSpec) -> SeriesMetrics:
    """Closed-form indicator suite for `spec` at DEFAULT_THRESHOLDS."""
    n = spec.n_papers
    sum_c = total_citations(spec)
    h = solve_h(spec).h_continuous
    p_at = {x: survival_probability(x, spec.params) for x in DEFAULT_THRESHOLDS}
    return SeriesMetrics(
        spec=spec,
        sum_citations=sum_c,
        h=h,
        h_over_n=h / n,
        mean_citations=sum_c / n,
        p_at=p_at,
        f_at={x: n * p for x, p in p_at.items()},
    )


def metrics_simulated(
    spec: SeriesSpec,
    replicates: int = DEFAULT_REPLICATES,
    seed: int = DEFAULT_SEED,
) -> SeriesMetrics:
    """Replicate-averaged indicator suite for `spec` at DEFAULT_THRESHOLDS."""
    summary = run_replicates(spec, replicates, DEFAULT_THRESHOLDS, seed)
    n = spec.n_papers
    return SeriesMetrics(
        spec=spec,
        sum_citations=summary.sum_citations_mean,
        h=summary.h_mean,
        h_over_n=summary.h_mean / n,
        mean_citations=summary.sum_citations_mean / n,
        p_at={x: f / n for x, f in summary.counts_above.items()},
        f_at=dict(summary.counts_above),
    )


def study_specs() -> tuple[SeriesSpec, ...]:
    """The 30 series specs of the canonical study, in series order."""
    return tuple(SeriesSpec.from_values(r.mu, r.sigma, r.n_papers) for r in REFERENCE_ROWS)


@lru_cache(maxsize=1)
def default_study() -> tuple[SeriesMetrics, ...]:
    """Analytic metrics for the canonical 30-series study, in series order."""
    return tuple(metrics_analytic(spec) for spec in study_specs())


def scatter_dataset(
    table: tuple[SeriesMetrics, ...],
    y_indicator: str,
    x_axis: str,
    threshold: float,
) -> list[tuple[float, float]]:
    """(x, y) pairs for every row of `table`, in row order.

    `y_indicator` picks one of Y_INDICATORS; `x_axis` picks expected
    exceedance counts or probabilities at `threshold`, one of X_AXES.
    Thresholds missing from a row's stored maps (such as 30) are
    computed on demand from the row's spec.
    """
    if y_indicator not in Y_INDICATORS:
        raise ValueError(f"unknown indicator {y_indicator!r}; expected one of {Y_INDICATORS}")
    if x_axis not in X_AXES:
        raise ValueError(f"unknown axis {x_axis!r}; expected one of {X_AXES}")
    field = INDICATOR_FIELDS[y_indicator]
    return [(_axis_value(row, x_axis, threshold), getattr(row, field)) for row in table]


def indicator_value(row: SeriesMetrics, name: str) -> float:
    """One named indicator from a metrics row."""
    if name not in INDICATOR_FIELDS:
        raise ValueError(f"unknown indicator {name!r}; expected one of {Y_INDICATORS}")
    return getattr(row, INDICATOR_FIELDS[name])


def _axis_value(row: SeriesMetrics, axis: str, threshold: float) -> float:
    stored = row.f_at if axis == "counts" else row.p_at
    if threshold in stored:
        return stored[threshold]
    if axis == "counts":
        return expected_exceeding(threshold, row.spec)
    return survival_probability(threshold, row.spec.params)

"""Lognormal citation modelling toolkit.

Models a research system's citations as a lognormal distribution,
computes the h-index it implies (the fixed point of the exceedance
count), simulates synthetic citation series, and compares bibliometric
indicators through fits and correlations.
"""

from .hindex import HCurve, HSolution, h_asymptotic, h_curve, solve_h
from .indicators import (
    SeriesMetrics,
    default_study,
    indicator_value,
    metrics_analytic,
    metrics_simulated,
    scatter_dataset,
    study_specs,
)
from .lognormal import (
    DEFAULT_THRESHOLDS,
    LognormalParams,
    SeriesSpec,
    ThresholdSet,
    expected_exceeding,
    mean_citations,
    survival_probability,
    total_citations,
)
from .montecarlo import DEFAULT_SEED, ReplicateSummary, derive_seed, run_replicates
from .special import ConvergenceError
from .stats import LinearFit, PowerLawFit, fit_linear, fit_power_law, pearson

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DEFAULT_SEED",
    "DEFAULT_THRESHOLDS",
    "HCurve",
    "HSolution",
    "LinearFit",
    "LognormalParams",
    "PowerLawFit",
    "ReplicateSummary",
    "SeriesMetrics",
    "SeriesSpec",
    "ThresholdSet",
    "default_study",
    "derive_seed",
    "expected_exceeding",
    "fit_linear",
    "fit_power_law",
    "h_asymptotic",
    "h_curve",
    "indicator_value",
    "mean_citations",
    "metrics_analytic",
    "metrics_simulated",
    "pearson",
    "run_replicates",
    "scatter_dataset",
    "solve_h",
    "study_specs",
    "survival_probability",
    "total_citations",
]

"""Closed-form lognormal citation model.

A research system is described by the location and scale of the log of
its citation counts plus the number of papers it produced. Everything
here works in the continuous approximation and returns fractional
expected counts; rounding to whole citations happens only in the
sampling module, presentation rounding only in the CLI.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .special import _LOG_LARGEST

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class LognormalParams:
    """Location (mu) and scale (sigma) of log citation counts."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be a positive finite number, got {self.sigma!r}")


@dataclass(frozen=True)
class SeriesSpec:
    """A citation series: lognormal parameters plus paper count."""

    params: LognormalParams
    n_papers: int

    def __post_init__(self) -> None:
        if isinstance(self.n_papers, bool) or not isinstance(self.n_papers, int):
            raise ValueError(f"n_papers must be an integer, got {self.n_papers!r}")
        if self.n_papers < 1:
            raise ValueError(f"n_papers must be at least 1, got {self.n_papers}")
        if self.n_papers > sys.float_info.max:
            raise ValueError(f"n_papers must not exceed the largest double, got N = {self.n_papers}")

    @classmethod
    def from_values(cls, mu: float, sigma: float, n_papers: int) -> "SeriesSpec":
        return cls(LognormalParams(mu, sigma), n_papers)


@dataclass(frozen=True)
class ThresholdSet:
    """Strictly ascending positive citation thresholds."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("at least one threshold is required")
        if any(not (math.isfinite(v) and v > 0) for v in values):
            raise ValueError(f"thresholds must be positive finite numbers, got {values}")
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ValueError(f"thresholds must be strictly increasing, got {values}")

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


#: The six citation levels used throughout the 30-series study.
DEFAULT_THRESHOLDS = ThresholdSet((5, 10, 20, 50, 100, 500))


def survival_probability(c: float, params: LognormalParams) -> float:
    """Probability that a random paper collects at least c citations.

    Evaluates 0.5 erfc((ln c - mu) / (sigma sqrt 2)), which keeps full
    relative accuracy deep in the upper tail.
    """
    if not c > 0.0:
        raise ValueError(f"citation count must be positive, got {c!r}")
    z = (math.log(c) - params.mu) / (params.sigma * _SQRT2)
    return 0.5 * math.erfc(z)


def expected_exceeding(c: float, spec: SeriesSpec) -> float:
    """Expected number of papers with at least c citations; may be fractional."""
    return spec.n_papers * survival_probability(c, spec.params)


def mean_citations(params: LognormalParams) -> float:
    """Mean citation count, exp(mu + sigma^2 / 2).

    Raises ValueError when the mean is beyond the largest double.
    """
    mean = _mean(params)
    if mean == math.inf:
        raise ValueError(
            f"the mean citation count exp(mu + sigma^2/2) overflows for "
            f"mu={params.mu!r}, sigma={params.sigma!r}"
        )
    return mean


def total_citations(spec: SeriesSpec) -> float:
    """Expected total citations of the series: paper count times the mean.

    Raises ValueError when the total is beyond the largest double.
    """
    total = spec.n_papers * _mean(spec.params)
    if total == math.inf:
        raise ValueError(
            f"the expected citation total N exp(mu + sigma^2/2) overflows for "
            f"mu={spec.params.mu!r}, sigma={spec.params.sigma!r}, N={spec.n_papers}"
        )
    return total


def _mean(params: LognormalParams) -> float:
    """exp(mu + sigma^2 / 2), or inf where that is beyond the largest double."""
    exponent = params.mu + 0.5 * params.sigma * params.sigma
    return math.exp(exponent) if exponent <= _LOG_LARGEST else math.inf

"""h-index of a lognormal citation system.

In the continuous approximation the h-index is the fixed point of the
exceedance count: the value h at which exactly h papers are expected to
have at least h citations. The exceedance count is strictly decreasing
while the identity grows, so the fixed point is unique in (0, N); it is
found here by a bracketing solver. The closed form exp(sigma sqrt(2 ln N)),
whose log is the leading large-N term of ln h, is provided alongside for
curve comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lognormal import LognormalParams, SeriesSpec, expected_exceeding
from .roots import brentq
from .special import ConvergenceError

#: ln of the smallest positive double: exp(u) is 0 below it.
_LOG_SMALLEST = math.log(5e-324)


@dataclass(frozen=True)
class HSolution:
    """Fixed point of the exceedance count for one series."""

    h_continuous: float
    h_reported: int
    residual: float
    iterations: int


@dataclass(frozen=True)
class HCurve:
    """h versus paper count over a geometric grid, optionally with the
    closed-form approximation evaluated in parallel."""

    n_papers: tuple[int, ...]
    h_exact: tuple[float, ...]
    h_asymptotic: tuple[float, ...] | None = None


def solve_h(spec: SeriesSpec, tolerance: float | None = None) -> HSolution:
    """Solve for the h fixed point of `spec`.

    The root is bracketed and refined in u = ln h, so the bracket and the
    stopping width scale with h rather than with N. The bracket
    [min(mu, ln N) - 1, ln N + 1] always straddles the root: at
    h = min(e^mu, N) / e, at or below the median, at least N/2 > h
    papers are expected to exceed h, and at h = eN fewer than N < h can.
    The root is given to within brentq's final bracket, a few ulps of u
    wide; when every paper is expected to reach N citations, h = N.
    The bracket starts no lower than the smallest positive double h0,
    and when F(h0) < h0 the fixed point is below it: h is reported as 0,
    with the residual at h0.

    `tolerance`, when given, also bounds the residual |F(h) - h|, in
    papers, and a larger one raises ConvergenceError. By default there
    is no such bound: one ulp of a large h, or of h at a near-step F,
    can exceed any fixed one.
    """
    if tolerance is not None and not (tolerance > 0.0):
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    ln_n = math.log(spec.n_papers)

    def gap(h: float) -> float:
        return expected_exceeding(h, spec) - h

    def gap_in_log(u: float) -> float:
        return gap(math.exp(u))

    lo = min(spec.params.mu, ln_n) - 1.0
    if lo < _LOG_SMALLEST:
        lo = _LOG_SMALLEST
        gap_at_lo = gap_in_log(lo)
        if gap_at_lo < 0.0:
            return HSolution(h_continuous=0.0, h_reported=0, residual=-gap_at_lo, iterations=1)
    u, iterations = brentq(gap_in_log, lo, ln_n + 1.0)
    root = min(math.exp(u), float(spec.n_papers))
    residual = abs(gap(root))
    if tolerance is not None and residual > tolerance:
        raise ConvergenceError(
            f"solver residual {residual:.3e} exceeds tolerance {tolerance:.3e} for {spec}"
        )
    return HSolution(
        h_continuous=root,
        h_reported=int(math.floor(root + 0.5)),
        residual=residual,
        iterations=iterations,
    )


def h_asymptotic(spec: SeriesSpec) -> float:
    """Closed form exp(sigma sqrt(2 ln N)) for the growth of h with N.

    Its log is the leading term of ln h: expanding erfc in F(h) = h gives
    ln h = sigma sqrt(2 ln N) + (mu - sigma^2) + o(1). Dropping the
    constant makes it independent of mu but not asymptotic to h itself:
    its ratio to the exact fixed point tends to e^(sigma^2 - mu).
    """
    if spec.n_papers < 2:
        raise ValueError("the asymptotic form needs at least 2 papers")
    return math.exp(spec.params.sigma * math.sqrt(2.0 * math.log(spec.n_papers)))


def h_curve(
    params: LognormalParams,
    n_min: int,
    n_max: int,
    points: int = 50,
    with_asymptotic: bool = False,
) -> HCurve:
    """h versus N over a geometric grid of `points` paper counts.

    Grid values are rounded to integers and deduplicated, so fewer than
    `points` entries can come back for narrow ranges; the endpoints are
    always present.
    """
    if n_min < 1:
        raise ValueError(f"n_min must be at least 1, got {n_min}")
    if n_min >= n_max:
        raise ValueError(f"need n_min < n_max, got [{n_min}, {n_max}]")
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    if with_asymptotic and n_min < 2:
        raise ValueError("the asymptotic curve needs n_min >= 2")

    grid = _geometric_grid(n_min, n_max, points)
    h_exact = tuple(solve_h(SeriesSpec(params, n)).h_continuous for n in grid)
    asym = None
    if with_asymptotic:
        asym = tuple(h_asymptotic(SeriesSpec(params, n)) for n in grid)
    return HCurve(n_papers=tuple(grid), h_exact=h_exact, h_asymptotic=asym)


def _geometric_grid(n_min: int, n_max: int, points: int) -> list[int]:
    log_lo = math.log(n_min)
    step = (math.log(n_max) - log_lo) / (points - 1)
    grid: list[int] = []
    for k in range(points):
        n = int(math.floor(math.exp(log_lo + k * step) + 0.5))
        n = min(max(n, n_min), n_max)
        if not grid or n > grid[-1]:
            grid.append(n)
    return grid

"""h-index of a lognormal citation system.

In the continuous approximation the h-index is the fixed point of the
exceedance count: the value h at which exactly h papers are expected to
have at least h citations. The exceedance count is strictly decreasing
while the identity grows, so the fixed point is unique in (0, N); it is
found here by a bracketing solver. The closed form exp(sigma sqrt(2 ln N)),
whose log is the leading large-N term of ln h, is provided alongside for
curve comparisons.

solve_h answers one series with an HSolution. An h-versus-N curve
brackets each point after its first from the root before it and keeps
only that root: such a warm point is a bare root of the same gap, from
the same bracket, with no SeriesSpec, HSolution or residual built for it.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass

from .lognormal import _SQRT2, LognormalParams, SeriesSpec, expected_exceeding
from .roots import brentq
from .special import _LOG_LARGEST, _LOG_SMALLEST, ConvergenceError

#: Slack in ln h on the upper end of h_curve's warm bracket, far above
#: the few ulps by which a computed root can sit below the true one.
_WARM_SLACK = 1e-9


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
    Past N = DBL_MAX / e the top is lowered to h1 = e^u1, u1 = ln DBL_MAX,
    the last u whose exp is finite; where F(h1) > h1 still, the root lies
    in [h1, N], within one ulp of u1, and h is reported as N.
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
    lo = min(spec.params.mu, ln_n) - 1.0
    if lo < _LOG_SMALLEST:
        lo = _LOG_SMALLEST
        h0 = math.exp(lo)
        gap_at_lo = expected_exceeding(h0, spec) - h0
        if gap_at_lo < 0.0:
            return HSolution(h_continuous=0.0, h_reported=0, residual=-gap_at_lo, iterations=1)
    hi = ln_n + 1.0
    if hi > _LOG_LARGEST:
        hi = _LOG_LARGEST
        h1 = math.exp(hi)
        if expected_exceeding(h1, spec) > h1:
            n = float(spec.n_papers)
            return HSolution(h_continuous=n, h_reported=round_half_up(n),
                             residual=abs(expected_exceeding(n, spec) - n), iterations=1)
    root, iterations = _root(spec.n_papers, spec.params, lo, hi)
    solution = HSolution(
        h_continuous=root,
        h_reported=round_half_up(root),
        residual=abs(expected_exceeding(root, spec) - root),
        iterations=iterations,
    )
    if tolerance is not None and solution.residual > tolerance:
        raise ConvergenceError(
            f"solver residual {solution.residual:.3e} exceeds tolerance {tolerance:.3e} for {spec}"
        )
    return solution


def _root(n: int, params: LognormalParams, lo: float, hi: float) -> tuple[float, int]:
    """The bare root h of F(h) - h for N = n with ln h in [lo, hi], and
    brentq's evaluation count.

    The gap F(h) - h is expected_exceeding's arithmetic written out, so
    it gives the same bits without its calls. Raises ValueError when the
    gap does not change sign over the bracket.
    """
    mu = params.mu
    scale = params.sigma * _SQRT2

    def gap_in_log(u: float) -> float:
        h = math.exp(u)
        return n * (0.5 * math.erfc((math.log(h) - mu) / scale)) - h

    u, iterations = brentq(gap_in_log, lo, hi)
    return min(math.exp(u), float(n)), iterations


def round_half_up(x: float) -> int:
    """The integer nearest x, halves rounded up: how h, citation totals
    and grid points are reported, and how the checks read them.

    x - floor(x) is exact for a double, where x + 0.5 can round up: to 1
    at the double below 0.5, and to the next even integer at an odd one
    in [2**52, 2**53)."""
    whole = math.floor(x)
    return whole + (x - whole >= 0.5)


def h_asymptotic(spec: SeriesSpec) -> float:
    """Closed form exp(sigma sqrt(2 ln N)) for the growth of h with N.

    Its log is the leading term of ln h: expanding erfc in F(h) = h gives
    ln h = sigma sqrt(2 ln N) + (mu - sigma^2) + o(1). Dropping the
    constant makes it independent of mu but not asymptotic to h itself:
    its ratio to the exact fixed point tends to e^(sigma^2 - mu).
    Raises ValueError when it is beyond the largest double.
    """
    return _asymptotic(spec.params.sigma, spec.n_papers)


def _asymptotic(sigma: float, n: int) -> float:
    """exp(sigma sqrt(2 ln n)), with h_asymptotic's checks and messages."""
    if n < 2:
        raise ValueError("the asymptotic form needs at least 2 papers")
    exponent = sigma * math.sqrt(2.0 * math.log(n))
    # exp is finite up to ln of the largest double; an exponent that is
    # itself inf fails here too
    if not exponent <= _LOG_LARGEST:
        raise ValueError(
            f"the asymptotic form exp(sigma sqrt(2 ln N)) overflows for "
            f"sigma={sigma!r}, N={n}"
        )
    return math.exp(exponent)


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

    The first point is solved by solve_h; each later one is bracketed
    from the root before it. F scales with N, so for N' < N the fixed
    points obey h' <= h <= (N / N') h', and ln h lies in [ln h', ln h' +
    ln(N / N')]; the top is raised by 1e-9 against rounding. A point
    falls back to solve_h's bracket where that one cannot hold it or
    cannot be trusted to:
    - the bracket does not straddle the root;
    - its top reaches ln N, so that h may be N;
    - h' is 0 or below the smallest normal double, where F(h) has lost
      its relative precision and is not monotone in floating point.
    Each h is then given to within brentq's final bracket, a few ulps of
    ln h wide, as solve_h gives it; h = 0 and h = N come from solve_h.
    Only the first point and the fallbacks build a SeriesSpec and an
    HSolution; every other point is a bare root, two floats and one
    brentq call.
    """
    if n_min < 1:
        raise ValueError(f"n_min must be at least 1, got {n_min}")
    if n_min >= n_max:
        raise ValueError(f"need n_min < n_max, got [{n_min}, {n_max}]")
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    if with_asymptotic and n_min < 2:
        raise ValueError("the asymptotic curve needs n_min >= 2")
    if n_max > sys.float_info.max:
        raise ValueError(f"n_max must not exceed the largest double, got {n_max}")

    grid = _geometric_grid(n_min, n_max, points)
    h_exact = [solve_h(SeriesSpec(params, grid[0])).h_continuous]
    for previous_n, n in zip(grid, grid[1:]):
        h_exact.append(_warm_solve(params, n, previous_n, h_exact[-1]))
    asym = None
    if with_asymptotic:
        asym = tuple(_asymptotic(params.sigma, n) for n in grid)
    return HCurve(n_papers=tuple(grid), h_exact=tuple(h_exact), h_asymptotic=asym)


def _warm_solve(params: LognormalParams, n: int, previous_n: int, previous_h: float) -> float:
    """h at `n` papers, bracketed from the root `previous_h` at a smaller
    paper count: a bare root from _root, or solve_h's where that bracket
    falls back."""
    if previous_h >= sys.float_info.min:
        lo = math.log(previous_h)
        hi = lo + math.log(n / previous_n) + _WARM_SLACK
        if hi < math.log(n):
            try:
                return _root(n, params, lo, hi)[0]
            except ValueError:  # the bracket does not straddle the root
                pass
    return solve_h(SeriesSpec(params, n)).h_continuous


def _geometric_grid(n_min: int, n_max: int, points: int) -> list[int]:
    """n_min, the rounded interior points of the geometric grid that lie
    strictly between the last one kept and n_max, and n_max: the rounded
    exp of ln n_min or ln n_max can miss either endpoint past 2**53.

    The rounded points never decrease with their index, so a run of
    points that repeat the last one kept is skipped by bisection, and the
    cost follows the counts returned, not `points`.
    """
    log_lo = math.log(n_min)
    step = (math.log(n_max) - log_lo) / (points - 1)

    def rounded(k: int) -> int:
        return round_half_up(math.exp(log_lo + k * step))

    grid = [n_min]
    k = 1
    while k < points - 1:
        n = rounded(k)
        if n >= n_max:
            break
        if n > grid[-1]:
            grid.append(n)
            k += 1
        else:
            k += bisect.bisect_right(range(k, points - 1), grid[-1], key=rounded)
    grid.append(n_max)
    return grid

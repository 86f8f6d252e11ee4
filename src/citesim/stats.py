"""Regression and correlation over scatter datasets.

Power laws are fitted by least squares on the untransformed values, which
reproduces the study's published coefficients: the amplitude at exponent b
is sum(y x^b) / sum(x^2b), and brentq finds the b where the residuals'
slope is 0. Linear fits are ordinary least squares with the Pearson
coefficient and its two-sided Student-t p-value attached.

The study's datasets are 30 points, too few for numpy to repay its
import, so the arithmetic is on plain Python floats: every sum, mean and
dot product is math.fsum's correctly rounded sum.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass

from .roots import brentq
from .special import ConvergenceError, regularized_incomplete_beta

_SMALLEST = 5e-324
_LOG_SMALLEST, _LOG_LARGEST = math.log(_SMALLEST), math.log(sys.float_info.max)
#: Half-widths of the exponent's bracket around the log-log slope; past the
#: last, x**b over x'**b is out of range for any two distinct doubles x, x'.
_HALF_WIDTHS = tuple(2.0**k for k in range(-3, 65))


@dataclass(frozen=True)
class PowerLawFit:
    """y = amplitude * x ** exponent."""

    amplitude: float
    exponent: float
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class LinearFit:
    """y = intercept + slope * x."""

    intercept: float
    slope: float
    pearson_r: float
    p_value: float
    n_points: int


def _as_xy(points) -> tuple[list[float], list[float]]:
    pts = list(points)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    try:
        x, y = zip(*((float(a), float(b)) for a, b in pts))
    except (TypeError, ValueError):
        raise ValueError("points must be (x, y) pairs") from None
    if not all(map(math.isfinite, x + y)):
        # name the first non-finite coordinate, in point order
        for k, v in enumerate(c for pair in zip(x, y) for c in pair):
            if not math.isfinite(v):
                raise ValueError(f"points must be finite, got {'xy'[k % 2]} = {v} at point {k // 2}")
    return list(x), list(y)


def fit_power_law(points) -> PowerLawFit:
    """Fit y = a * x**b over strictly positive points.

    Minimizes squared residuals of y itself and reports R-squared in
    natural space, or raises ConvergenceError when no finite a, b minimize them.
    """
    x, y = _as_xy(points)
    if min(x) <= 0.0 or min(y) <= 0.0:
        raise ValueError("power-law fitting needs strictly positive x and y")
    lx, ly = [math.log(v) for v in x], [math.log(v) for v in y]
    lo, hi = min(lx), max(lx)
    if lo == hi:
        raise ValueError("x values are all equal; exponent is undefined")
    slope, _ = _ols(lx, ly)
    y_max = max(y)
    y_unit = [v / y_max for v in y]
    below_max, above_min = [v - hi for v in lx], [v - lo for v in lx]

    @functools.cache  # brentq re-evaluates the bracket's ends, and b is read back
    def profile(b: float) -> tuple[float, list[float], float]:
        # -dSSE/db / 2a at b's best amplitude a, x**b over its peak, and a.
        # The residuals sum to 0 against x**b, so measuring ln x from the
        # peak drops the peak's term, which is pure rounding.
        d = below_max if b >= 0.0 else above_min
        w = [math.exp(b * v) for v in d]
        a = _dot(y_unit, w) / _dot(w, w)
        return _dot([(u - a * v) * v for u, v in zip(y_unit, w)], d), w, a

    for half in _HALF_WIDTHS:
        if profile(slope - half)[0] > 0.0 > profile(slope + half)[0]:
            break
    else:
        raise ConvergenceError(f"no finite exponent minimizes the residuals near {slope:.6g}")
    b, _ = brentq(lambda b: profile(b)[0], slope - half, slope + half)
    _, w, a = profile(b)
    log_a = math.log(y_max) + math.log(a) - max(b * lo, b * hi)
    if not _LOG_SMALLEST <= log_a <= _LOG_LARGEST:
        raise ConvergenceError(f"amplitude e^{log_a:.6g} is out of the floating-point range")
    return PowerLawFit(math.exp(log_a), b, _r_squared(y_unit, [a * v for v in w]), len(x))


def fit_linear(points) -> LinearFit:
    """Ordinary least squares line with Pearson r and two-sided p-value."""
    x, y = _as_xy(points)
    if max(x) == min(x):
        raise ValueError("x values are all equal; slope is undefined")
    slope, intercept = _ols(x, y)
    r, p = pearson(zip(x, y))
    return LinearFit(intercept, slope, r, p, len(x))


def pearson(points) -> tuple[float, float]:
    """Sample Pearson correlation and its two-sided p-value.

    The p-value is the exact Student-t tail with n - 2 degrees of
    freedom, I_x((n - 2)/2, 1/2) at x = df/(df + t^2) = 1 - r^2. x is
    formed as (1 - r)(1 + r), exact in 1 - r for r >= 1/2; where r^2 is
    small, p is 1 - I_{r^2}(1/2, (n - 2)/2), as a double near 1 cannot
    carry 1 - x. Either way p is as accurate as I itself. A p below
    the smallest positive double, as at r = +-1, is reported as that
    double, so the result stays in (0, 1].
    """
    x, y = _as_xy(points)
    dx, sx, _, _ = _scaled_deviations(x)
    dy, sy, _, _ = _scaled_deviations(y)
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation is undefined for zero-variance data")
    r = max(-1.0, min(1.0, _dot(dx, dy) / math.sqrt(_dot(dx, dx) * _dot(dy, dy))))
    a = 0.5 * (len(x) - 2)
    if r * r < 1.5 / (a + 2.5):
        # special's switch-over: below it I_{r^2}(1/2, a) is evaluated directly
        p = 1.0 - regularized_incomplete_beta(0.5, a, r * r)
    else:
        p = regularized_incomplete_beta(a, 0.5, (1.0 - r) * (1.0 + r))
    return r, min(max(p, _SMALLEST), 1.0)


def _dot(u: list[float], v: list[float]) -> float:
    return math.fsum(map(operator.mul, u, v))


def _scaled_deviations(v: list[float]) -> tuple[list[float], float, float, int]:
    """Deviations from the mean divided by their largest magnitude, that
    magnitude and the mean, both of v times 2**-e, and e.

    e is the binary exponent of v's largest magnitude, so the scaled
    values lie in (-1, 1) and neither their sum, their mean nor a
    deviation can overflow; in the normal range the scaling is exact.
    Sums of squares of the scaled deviations lie in [1, n], so they
    neither underflow nor overflow whatever the data's scale (Chan,
    Golub & LeVeque 1983). Zero-spread data comes back as zeros with
    scale 0.
    """
    e = math.frexp(max(map(abs, v)))[1]
    w = [math.ldexp(x, -e) for x in v]
    mean = math.fsum(w) / len(w)
    d = [x - mean for x in w]
    scale = max(map(abs, d))
    return ([x / scale for x in d] if scale > 0.0 else d), scale, mean, e


def _times_two_to(m: float, e: int) -> float:
    """m * 2**e, an infinity of m's sign past the largest double."""
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _ols(x: list[float], y: list[float]) -> tuple[float, float]:
    """Slope and intercept, formed on each axis scaled by 2**-e and
    scaled back last, so only a coefficient itself can pass the largest
    double, and then it is an infinity."""
    dx, sx, mean_x, ex = _scaled_deviations(x)
    dy, sy, mean_y, ey = _scaled_deviations(y)
    slope = (sy / sx) * (_dot(dx, dy) / _dot(dx, dx))
    return _times_two_to(slope, ey - ex), _times_two_to(mean_y - slope * mean_x, ey)


def _r_squared(y: list[float], predicted: list[float]) -> float:
    dy, scale, _, e = _scaled_deviations(y)
    if scale == 0.0:
        return 1.0
    scale = math.ldexp(scale, e)
    residuals = [(u - v) / scale for u, v in zip(y, predicted)]
    return min(max(1.0 - _dot(residuals, residuals) / _dot(dy, dy), 0.0), 1.0)

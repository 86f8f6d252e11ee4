"""Regression and correlation over scatter datasets.

Power laws are fitted by least squares on the untransformed values, which
reproduces the study's published coefficients: the amplitude at exponent b
is sum(y x^b) / sum(x^2b), and brentq finds the b where the residuals'
slope is 0. Linear fits are ordinary least squares with the Pearson
coefficient and its two-sided Student-t p-value attached.

numpy is imported by the functions that use it, on their first call, not
with the module: the CLI's closed-form commands import this module
through report but never fit, and start about 0.1 s sooner without it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .roots import brentq
from .special import ConvergenceError, log_incomplete_beta_bound, regularized_incomplete_beta

if TYPE_CHECKING:
    import numpy as np

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


def _as_xy(points) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    pts = list(points)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    arr = np.asarray(pts, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("points must be (x, y) pairs")
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"points must be finite, got {'xy'[j]} = {arr[i, j]} at point {i}")
    return arr[:, 0], arr[:, 1]


def fit_power_law(points) -> PowerLawFit:
    """Fit y = a * x**b over strictly positive points.

    Minimizes squared residuals of y itself and reports R-squared in
    natural space, or raises ConvergenceError when no finite a, b minimize them.
    """
    import numpy as np

    x, y = _as_xy(points)
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("power-law fitting needs strictly positive x and y")
    lx, ly = np.log(x), np.log(y)
    if np.ptp(lx) == 0.0:
        raise ValueError("x values are all equal; exponent is undefined")
    slope, _ = _ols(lx, ly)
    y_unit = y / y.max()
    below_max, above_min = lx - lx.max(), lx - lx.min()

    @functools.cache  # brentq re-evaluates the bracket's ends, and b is read back
    def profile(b: float) -> tuple[float, np.ndarray, float]:
        # -dSSE/db / 2a at b's best amplitude a, x**b over its peak, and a.
        # The residuals sum to 0 against x**b, so measuring ln x from the
        # peak drops the peak's term, which is pure rounding.
        d = below_max if b >= 0.0 else above_min
        w = np.exp(b * d)
        a = float(y_unit @ w) / float(w @ w)
        return float(((y_unit - a * w) * w) @ d), w, a

    for half in _HALF_WIDTHS:
        if profile(slope - half)[0] > 0.0 > profile(slope + half)[0]:
            break
    else:
        raise ConvergenceError(f"no finite exponent minimizes the residuals near {slope:.6g}")
    b, _ = brentq(lambda b: profile(b)[0], slope - half, slope + half)
    _, w, a = profile(b)
    log_a = math.log(y.max()) + math.log(a) - float(np.max(b * lx))
    if not _LOG_SMALLEST <= log_a <= _LOG_LARGEST:
        raise ConvergenceError(f"amplitude e^{log_a:.6g} is out of the floating-point range")
    return PowerLawFit(math.exp(log_a), b, _r_squared(y_unit, a * w), x.size)


def fit_linear(points) -> LinearFit:
    """Ordinary least squares line with Pearson r and two-sided p-value."""
    points = list(points)
    x, y = _as_xy(points)
    if x.max() == x.min():
        raise ValueError("x values are all equal; slope is undefined")
    slope, intercept = _ols(x, y)
    r, p = pearson(points)
    return LinearFit(intercept, slope, r, p, x.size)


def pearson(points) -> tuple[float, float]:
    """Sample Pearson correlation and its two-sided p-value.

    The p-value comes from the exact Student-t null distribution with
    n - 2 degrees of freedom, evaluated through the regularized
    incomplete beta; when that underflows, a log-scale tail estimate is
    reported instead, floored at the smallest positive double so the
    result stays in (0, 1].
    """
    x, y = _as_xy(points)
    dx, sx = _scaled_deviations(x)
    dy, sy = _scaled_deviations(y)
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation is undefined for zero-variance data")
    r = float(dx @ dy) / math.sqrt(float(dx @ dx) * float(dy @ dy))
    r = max(-1.0, min(1.0, r))
    df = x.size - 2
    if 1.0 - r * r <= 0.0:
        return r, _SMALLEST
    t_squared = r * r * df / (1.0 - r * r)
    beta_x = df / (df + t_squared)
    p = regularized_incomplete_beta(0.5 * df, 0.5, beta_x)
    if p == 0.0:
        p = math.exp(max(log_incomplete_beta_bound(0.5 * df, 0.5, beta_x), math.log(_SMALLEST)))
    return r, min(max(p, _SMALLEST), 1.0)


def _scaled_deviations(v: np.ndarray) -> tuple[np.ndarray, float]:
    """Deviations from the mean divided by their largest magnitude, and
    that magnitude.

    Sums of squares of the scaled deviations lie in [1, n], so they
    neither underflow nor overflow whatever the data's scale (Chan,
    Golub & LeVeque 1983). Zero-spread data comes back as zeros with
    scale 0.
    """
    d = v - v.mean()
    scale = float(abs(d).max())
    return (d / scale if scale > 0.0 else d), scale


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    dx, sx = _scaled_deviations(x)
    dy, sy = _scaled_deviations(y)
    slope = (sy / sx) * (float(dx @ dy) / float(dx @ dx))
    return slope, float(y.mean() - slope * x.mean())


def _r_squared(y: np.ndarray, predicted: np.ndarray) -> float:
    dy, scale = _scaled_deviations(y)
    if scale == 0.0:
        return 1.0
    residuals = (y - predicted) / scale
    ss_res = float(residuals @ residuals)
    ss_tot = float(dy @ dy)
    return min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)

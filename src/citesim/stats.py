"""Regression and correlation over scatter datasets.

Power laws are fitted by least squares on the untransformed values
(Levenberg-Marquardt seeded from the log-log estimate), which is what
reproduces the study's published coefficients. Linear fits are ordinary
least squares with the Pearson coefficient and its two-sided Student-t
p-value attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import log_incomplete_beta_bound, regularized_incomplete_beta

_SMALLEST = 5e-324


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
    pts = list(points)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    arr = np.asarray(pts, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("points must be (x, y) pairs")
    return arr[:, 0], arr[:, 1]


def fit_power_law(points) -> PowerLawFit:
    """Fit y = a * x**b over strictly positive points.

    Minimizes squared residuals of y itself and reports R-squared in
    natural space.
    """
    x, y = _as_xy(points)
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("power-law fitting needs strictly positive x and y")
    lx, ly = np.log(x), np.log(y)
    if np.ptp(lx) == 0.0:
        raise ValueError("x values are all equal; exponent is undefined")
    slope, intercept = _ols(lx, ly)
    a, b = _power_law_levmar(x, y, math.exp(intercept), slope)
    r2 = _r_squared(y, a * np.power(x, b))
    return PowerLawFit(a, b, r2, x.size)


def fit_linear(points) -> LinearFit:
    """Ordinary least squares line with Pearson r and two-sided p-value."""
    x, y = _as_xy(points)
    if np.ptp(x) == 0.0:
        raise ValueError("x values are all equal; slope is undefined")
    slope, intercept = _ols(x, y)
    r, p = pearson(zip(x, y))
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
    scale = float(np.max(np.abs(d)))
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


def _power_law_levmar(x: np.ndarray, y: np.ndarray, a: float, b: float) -> tuple[float, float]:
    # Two-parameter Levenberg-Marquardt; the log-log seed is already the
    # exact answer on noiseless data, so this mostly polishes curvature.
    lx = np.log(x)

    def sse(aa: float, bb: float) -> float:
        r = y - aa * np.power(x, bb)
        return float(r @ r)

    best = sse(a, b)
    lam = 1e-3
    for _ in range(200):
        xb = np.power(x, b)
        model = a * xb
        r = y - model
        j_a = xb
        j_b = model * lx
        g_a = float(j_a @ r)
        g_b = float(j_b @ r)
        h_aa = float(j_a @ j_a)
        h_ab = float(j_a @ j_b)
        h_bb = float(j_b @ j_b)
        step_rel = math.inf
        stepped = False
        for _ in range(60):
            m_aa = h_aa * (1.0 + lam)
            m_bb = h_bb * (1.0 + lam)
            det = m_aa * m_bb - h_ab * h_ab
            if not (math.isfinite(det) and det > 0.0):
                lam *= 10.0
                continue
            da = (g_a * m_bb - g_b * h_ab) / det
            db = (g_b * m_aa - g_a * h_ab) / det
            na, nb = a + da, b + db
            if not (math.isfinite(na) and math.isfinite(nb)) or na <= 0.0:
                lam *= 10.0
                continue
            trial = sse(na, nb)
            if trial <= best:
                step_rel = max(abs(da) / max(abs(na), 1e-30), abs(db) / max(abs(nb), 1e-30))
                a, b, best = na, nb, trial
                lam = max(lam * 0.3, 1e-12)
                stepped = True
                break
            lam *= 10.0
        if not stepped or step_rel < 1e-13:
            break
    return a, b

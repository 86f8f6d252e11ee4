"""Scalar special functions computed to near machine accuracy.

The Student-t tail behind correlation p-values needs more accuracy than
the usual polynomial approximations provide, down to p-values far below
1e-300. The regularized incomplete beta, which the standard library
lacks, is evaluated from its continued fraction directly, on a log scale
until the last exp. The package's lognormal tails call math.erfc.
"""

from __future__ import annotations

import math

_TINY = 1e-300


class ConvergenceError(RuntimeError):
    """A numerical iteration or solve ended without meeting its accuracy target."""


def log_beta(a: float, b: float) -> float:
    """Natural log of the Euler beta function B(a, b).

    Below 10, ln G(a) + ln G(b) - ln G(a + b) from math.lgamma. Where the
    larger shape b is 10 or more, that difference would cancel terms of
    size b ln b, so ln G(b) - ln G(a + b) comes from Stirling's series
    instead, written with log1p so that the cancelling terms are never
    formed, and so does ln G(a) where a is 10 or more too (DiDonato &
    Morris 1992, ACM TOMS 18:360).
    """
    a, b = min(a, b), max(a, b)
    if b < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    corrections = _stirling_correction(b) - _stirling_correction(a + b)
    if a < 10.0:
        return (math.lgamma(a) + corrections + a - a * math.log(a + b)
                - (b - 0.5) * math.log1p(a / b))
    return (0.5 * math.log(2.0 * math.pi / b) - (a - 0.5) * math.log1p(b / a)
            - b * math.log1p(a / b) + _stirling_correction(a) + corrections)


def _stirling_correction(x: float) -> float:
    """ln G(x) - (x - 1/2) ln x + x - ln(2 pi) / 2 for x >= 10: Stirling's
    series, sum of B_2k / (2k (2k - 1) x^(2k - 1)) over k = 1..8, whose
    next term is below 2e-18 there."""
    t = 1.0 / (x * x)
    series = -3617 / 122400
    for c in (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12):
        series = series * t + c
    return series / x


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), relative error ~1e-13.

    Evaluates the continued fraction on whichever side of the symmetry
    I_x(a, b) = 1 - I_{1-x}(b, a) converges fastest. The prefactor
    x^a (1-x)^b / B(a, b) is kept as a log and joined to the fraction's
    log before the one exp, so the result underflows to 0.0 only where
    the true value is below the smallest positive double.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_front + math.log(_beta_fraction(a, b, x) / a))
    return 1.0 - math.exp(ln_front + math.log(_beta_fraction(b, a, 1.0 - x) / b))


def _beta_fraction(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta (Lentz method).
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        # the even step's coefficient, then the odd step's
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ConvergenceError("incomplete beta continued fraction did not converge")

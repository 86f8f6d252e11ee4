"""Bracketing scalar root finder (Brent's method).

Inverse-quadratic/secant steps guarded by bisection; requires a sign
change over the initial interval and converges superlinearly for the
smooth monotone gap functions solved in this package.
"""

from __future__ import annotations

import math

from .special import ConvergenceError

_EPS = math.ulp(1.0)
#: Iterations after which brentq gives up. solve_h's brackets took at
#: most 72 evaluations over 20,000 random valid (mu, sigma, N).
_MAX_ITER = 200


def brentq(f, a: float, b: float) -> tuple[float, int]:
    """Root of f on [a, b]; returns (root, function evaluations).

    Raises ValueError when f(a) and f(b) do not bracket a sign change,
    and ConvergenceError when the bracket is not resolved within
    _MAX_ITER iterations. The stopping width is fixed: the search ends
    once the bracket's half-width is at most 2 eps |b| + eps/2, with
    eps = ulp(1.0). That is one ulp of b near |b| = 1; elsewhere the
    2 eps |b| term dominates, so the width is relative in b.
    """
    fa = f(a)
    fb = f(b)
    evaluations = 2
    if fa == 0.0:
        return a, evaluations
    if fb == 0.0:
        return b, evaluations
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError(f"no sign change on [{a}, {b}]: f(a)={fa}, f(b)={fb}")

    c, fc = a, fa
    e = d = b - a
    for _ in range(_MAX_ITER):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * _EPS
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b, evaluations
        if abs(e) < tol or abs(fa) <= abs(fb):
            e = d = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s = e
            e = d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                e = d = m
        a, fa = b, fb
        if abs(d) > tol:
            b += d
        elif m > 0.0:
            b += tol
        else:
            b -= tol
        fb = f(b)
        evaluations += 1
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            e = d = b - a
    raise ConvergenceError(f"no root within {_MAX_ITER} iterations; last bracket [{b}, {c}]")

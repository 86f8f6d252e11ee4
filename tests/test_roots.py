"""Bracketing root finder."""

import math

import pytest

from citesim import roots
from citesim.roots import brentq
from citesim.special import ConvergenceError


def test_linear_root_is_exact():
    root, _ = brentq(lambda x: 2.0 * x - 3.0, 0.0, 5.0)
    assert root == pytest.approx(1.5, abs=1e-12)


def test_transcendental_root():
    root, evaluations = brentq(math.cos, 1.0, 2.0)
    assert root == pytest.approx(math.pi / 2, abs=1e-12)
    assert evaluations < 30


def test_endpoint_root_short_circuits():
    root, evaluations = brentq(lambda x: x, 0.0, 1.0)
    assert root == 0.0
    assert evaluations == 2


def test_steep_function():
    root, _ = brentq(lambda x: math.expm1(50.0 * (x - 0.123)), 0.0, 1.0)
    assert root == pytest.approx(0.123, abs=1e-10)


def test_requires_sign_change():
    with pytest.raises(ValueError):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_exhausted_iterations_raise(monkeypatch):
    # a root brentq has not resolved is never returned as if it had
    monkeypatch.setattr(roots, "_MAX_ITER", 3)
    with pytest.raises(ConvergenceError):
        brentq(math.cos, 1.0, 2.0)

"""Special-function accuracy against independent oracles (mpmath and
scipy). math.erfc, which the lognormal tails call, is checked too, and
against the C library's erf."""

import math
from math import erfc

import mpmath
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from citesim.special import log_beta, regularized_incomplete_beta


@pytest.mark.parametrize("x", [3.5, 4.344, 6.0, 10.0, 15.0])
def test_erfc_tail_relative_accuracy(x):
    with mpmath.workdps(40):
        expected = float(mpmath.erfc(x))
    assert erfc(x) == pytest.approx(expected, rel=1e-12)


def test_erfc_relative_accuracy_against_mpmath_wide():
    # covers the whole normal-double range of erfc, with a dense patch
    # around x = 3, where 1 - erf(x) from a series would cancel
    grid = [i * 0.01 for i in range(-600, 2650)] + [2.99 + i * 1e-4 for i in range(200)]
    with mpmath.workdps(40):
        for x in grid:
            expected = float(mpmath.erfc(x))
            assert abs(erfc(x) - expected) <= 1e-15 * expected, x


def test_erfc_complements_erf():
    for x in (-4.0, -1.0, 0.0, 0.5, 2.0):
        assert math.erf(x) + erfc(x) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize(
    "a,b",
    [(0.5, 0.5), (1.0, 3.0), (2.5, 0.5), (14.0, 0.5), (30.0, 30.0)],
)
def test_incomplete_beta_matches_scipy(a, b):
    for i in range(1, 20):
        x = i / 20.0
        expected = float(scipy.special.betainc(a, b, x))
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(expected, rel=1e-10)


def test_incomplete_beta_extreme_tail_matches_scipy():
    # the regime behind ~1e-24 p-values: a = df/2 = 14, tiny x
    for x in (0.05, 0.02, 0.01):
        expected = float(scipy.special.betainc(14.0, 0.5, x))
        assert regularized_incomplete_beta(14.0, 0.5, x) == pytest.approx(expected, rel=1e-10)


def test_incomplete_beta_edges_and_symmetry():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    for x in (0.1, 0.4, 0.7):
        left = regularized_incomplete_beta(2.0, 5.0, x)
        right = 1.0 - regularized_incomplete_beta(5.0, 2.0, 1.0 - x)
        assert left == pytest.approx(right, rel=1e-12)


def test_incomplete_beta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        regularized_incomplete_beta(-1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 2.0, 1.5)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(df=st.integers(1, 200), log_x=st.floats(math.log(1e-300), -1e-17))
def test_incomplete_beta_at_half_matches_mpmath(df, log_x):
    # the shapes pearson's p-value takes, over the whole range of x;
    # gated where the value is a normal double
    x = math.exp(log_x)
    with mpmath.workdps(40):
        expected = mpmath.betainc(0.5 * df, 0.5, 0, x, regularized=True)
    if expected >= 1e-300:
        assert regularized_incomplete_beta(0.5 * df, 0.5, x) == pytest.approx(float(expected), rel=1e-12)


def log_beta_40_digits(a, b):
    with mpmath.workdps(40):
        return float(mpmath.log(mpmath.beta(a, b)))


@pytest.mark.parametrize(
    "a,b",
    [(0.5, 50), (0.5, 500), (0.5, 5000), (0.5, 5e4), (0.5, 5e5), (0.5, 1e15), (2.5, 14),
     (10, 1e6), (100, 1e7), (50, 50), (5000, 5000), (1e12, 1e12)],
)
def test_log_beta_of_large_shapes_matches_mpmath(a, b):
    # a difference of lgamma values of size b ln b was off by 7.2e-10 at
    # (1/2, 5e5) and by 0.7 at (1/2, 1e15)
    expected = log_beta_40_digits(a, b)
    for x, y in ((a, b), (b, a)):
        assert abs(log_beta(x, y) - expected) <= 4e-16 * max(1.0, abs(expected)), (x, y)


@pytest.mark.parametrize("a,b", [(10, 10), (12, 0.5), (0.5, 10), (10, 0.5)])
def test_log_beta_no_worse_than_lgamma_at_the_switch_over(a, b):
    expected = log_beta_40_digits(a, b)
    lgammas = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    assert abs(log_beta(a, b) - expected) <= abs(lgammas - expected)

"""Regression and correlation machinery against exact and scipy oracles."""

import math
import warnings

import numpy as np
import pytest
import scipy.optimize
import scipy.stats
from hypothesis import assume, example, given, strategies as st

from citesim import (
    ConvergenceError,
    default_study,
    fit_linear,
    fit_power_law,
    pearson,
    scatter_dataset,
)
from citesim.cli import THRESHOLD_CHOICES
from citesim.indicators import X_AXES, Y_INDICATORS
from citesim.report import FIT_X_AXES, fit_dataset

#: Every study-wide dataset the CLI's fits accept: (y, x axis, threshold).
STUDY_FITS = [
    (y, x, t)
    for y in Y_INDICATORS
    for x in FIT_X_AXES
    for t in (THRESHOLD_CHOICES if x in X_AXES else (None,))
]


class TestFitPowerLaw:
    def test_exact_power_law_recovered(self):
        points = [(x, 2.0 * x**0.5) for x in range(1, 11)]
        fit = fit_power_law(points)
        assert fit.amplitude == pytest.approx(2.0, abs=1e-9)
        assert fit.exponent == pytest.approx(0.5, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert fit.n_points == 10

    def test_study_fit_at_50_citations(self):
        fit = fit_power_law(scatter_dataset(default_study(), "h", "counts", 50.0))
        assert fit.amplitude == pytest.approx(14.6, rel=0.10)
        assert fit.exponent == pytest.approx(0.325, rel=0.10)
        assert fit.r_squared == pytest.approx(0.98, abs=0.02)

    def test_study_exponent_h_versus_total_citations(self):
        points = [(row.sum_citations, row.h) for row in default_study().rows]
        fit = fit_power_law(points)
        assert fit.exponent == pytest.approx(0.42, abs=0.05)

    def test_matches_scipy_on_noisy_data(self):
        rng = np.random.default_rng(8)
        x = np.linspace(1.0, 50.0, 40)
        y = 3.0 * x**0.7 * (1 + 0.05 * rng.standard_normal(40))
        fit = fit_power_law(zip(x, y))
        (a_ref, b_ref), _ = scipy.optimize.curve_fit(
            lambda t, a, b: a * np.power(t, b), x, y, p0=(1.0, 1.0)
        )
        assert fit.amplitude == pytest.approx(a_ref, rel=1e-6)
        assert fit.exponent == pytest.approx(b_ref, rel=1e-6)

    @pytest.mark.parametrize("y_indicator,x_axis,threshold", STUDY_FITS)
    def test_study_fits_match_scipy_optimum(self, y_indicator, x_axis, threshold):
        points = fit_dataset(y_indicator, x_axis, threshold)
        fit = fit_power_law(points)
        x, y = np.array(points).T
        # started at the fit, scipy's Levenberg-Marquardt moves off any
        # point that is not a least-squares optimum; started at the
        # log-log estimate, it stops 1.07e-7 short of the optimal exponent
        # for h_over_n on counts at 500
        ref = scipy.optimize.least_squares(
            lambda p: y - p[0] * x ** p[1], (fit.amplitude, fit.exponent),
            method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15,
        )
        residuals = y - fit.amplitude * x**fit.exponent
        ss_tot = float(((y - y.mean()) ** 2).sum())
        assert float(residuals @ residuals) - 2.0 * ref.cost <= 1e-12 * ss_tot
        assert fit.exponent == pytest.approx(ref.x[1], rel=1e-7)

    def test_steep_data_reaches_the_optimum_without_warnings(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1e-9, 1e-9, 1e-9, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_power_law(zip(x, y))
        residuals = y - fit.amplitude * x**fit.exponent
        assert float(residuals @ residuals) <= 1e-16
        # the root of dSSE/db at 50 digits, by mpmath
        assert fit.exponent == pytest.approx(72.03530501685811, rel=1e-12)

    @pytest.mark.parametrize(
        "points",
        [
            # every term of dSSE/db underflows before it changes sign,
            # near b = 2400 where (3/4)**b is 1e-300
            [(1, 1e-300), (2, 1e-300), (3, 1e-300), (4, 1)],
            # the amplitudes, (4e10)**-72 and (4e-10)**-72, are out of range
            [(1e10, 1e-9), (2e10, 1e-9), (3e10, 1e-9), (4e10, 1)],
            [(1e-10, 1e-9), (2e-10, 1e-9), (3e-10, 1e-9), (4e-10, 1)],
        ],
    )
    def test_unresolvable_fit_raises_convergence_error(self, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError):
                fit_power_law(points)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_power_law([(1, 1), (2, 2)])
        with pytest.raises(ValueError):
            fit_power_law([(1, 1), (2, -2), (3, 3)])
        with pytest.raises(ValueError):
            fit_power_law([(0, 1), (2, 2), (3, 3)])
        with pytest.raises(ValueError):
            fit_power_law([(2, 1), (2, 2), (2, 3)])


class TestFitLinear:
    def test_exact_line(self):
        points = [(x, 3.0 * x + 1.0) for x in range(-4, 8)]
        fit = fit_linear(points)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.slope == pytest.approx(3.0, abs=1e-12)
        assert fit.pearson_r == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < fit.p_value <= 1e-12

    def test_study_line_mean_citations_versus_p30(self):
        fit = fit_linear(scatter_dataset(default_study(), "sum_c_over_n", "probabilities", 30.0))
        assert fit.intercept == pytest.approx(4.9, rel=0.10)
        assert fit.slope == pytest.approx(88.7, rel=0.10)

    def test_residuals_orthogonal_to_x(self):
        points = scatter_dataset(default_study(), "sum_c_over_n", "probabilities", 20.0)
        fit = fit_linear(points)
        x = np.array([p[0] for p in points])
        y = np.array([p[1] for p in points])
        residuals = y - (fit.intercept + fit.slope * x)
        assert abs(float(residuals @ x)) <= 1e-9 * float(np.abs(y) @ np.abs(x))

    def test_rejects_degenerate_x(self):
        with pytest.raises(ValueError):
            fit_linear([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])


class TestPearson:
    def test_study_correlations(self):
        study = default_study()
        r30, _ = pearson(scatter_dataset(study, "sum_c_over_n", "probabilities", 30.0))
        assert r30 == pytest.approx(0.998, abs=0.005)
        r20, p20 = pearson(scatter_dataset(study, "sum_c_over_n", "probabilities", 20.0))
        assert r20 == pytest.approx(0.988, abs=0.01)
        assert 1e-26 <= p20 <= 1e-22

    def test_matches_scipy(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(25)
        y = 0.6 * x + 0.8 * rng.standard_normal(25)
        r, p = pearson(zip(x, y))
        ref = scipy.stats.pearsonr(x, y)
        assert r == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, rel=1e-9)

    def test_extreme_p_value_matches_scipy(self):
        x = np.arange(30.0)
        y = x + 0.1 * np.sin(x)
        r, p = pearson(zip(x, y))
        ref = scipy.stats.pearsonr(x, y)
        assert p == pytest.approx(ref.pvalue, rel=1e-6)
        assert p < 1e-30

    @staticmethod
    def _points_with_exact_r(r, n=30):
        # y is built from orthonormal pieces, so its correlation with x
        # equals r up to floating point
        x = np.arange(float(n))
        xc = x - x.mean()
        xc /= np.linalg.norm(xc)
        z = np.cos(x)
        zc = z - z.mean()
        zc -= (zc @ xc) * xc
        zc /= np.linalg.norm(zc)
        y = r * xc + math.sqrt(1.0 - r * r) * zc
        return list(zip(x, y))

    def test_p_decreases_as_r_grows(self):
        values = [pearson(self._points_with_exact_r(r))[1] for r in (0.3, 0.7, 0.9, 0.988, 0.999)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_p_for_r_0988_at_n_30(self):
        # far below anything reachable through a plain CDF complement
        r, p = pearson(self._points_with_exact_r(0.988))
        assert r == pytest.approx(0.988, abs=1e-12)
        assert p < 1e-20
        assert p == pytest.approx(1.8e-24, rel=0.1)

    def test_perfect_line_returns_smallest_positive(self):
        r, p = pearson([(0, 0), (1, 2), (2, 4), (3, 6)])
        assert r == 1.0
        assert 0.0 < p <= 1e-300

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=50),
                st.floats(min_value=-50, max_value=50),
            ),
            min_size=4,
            max_size=25,
        ),
        st.floats(min_value=0.1, max_value=9.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    # varied data whose sum of squared deviations underflows to zero
    @example([(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 1.18e-201)], 1.0, 0.0)
    # offsets that round the ys away: identical ys, and r -0.289 for -0.333
    @example([(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 1.3e-101)], 1.0, 1.0)
    @example([(0.0, 0.0), (0.0, 0.0), (0.0, 1.1e-44), (1.0, 0.0)], 2.0, 1.47e-28)
    def test_affine_invariance(self, points, scale, offset):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assume(len(set(xs)) >= 2 and len(set(ys)) >= 2)
        # the float map y -> +-scale*y + offset rounds each value to half
        # an ulp of the result; that rounding must be negligible against
        # the spread of the ys, or the map changes the data, not just its
        # scale and origin
        magnitude = scale * max(abs(y) for y in ys) + abs(offset)
        assume(math.ulp(magnitude) <= 1e-12 * scale * (max(ys) - min(ys)))
        r, _ = pearson(points)
        r_up, _ = pearson([(x, scale * y + offset) for x, y in points])
        r_down, _ = pearson([(x, -scale * y + offset) for x, y in points])
        assert r_up == pytest.approx(r, abs=1e-9)
        assert r_down == pytest.approx(-r, abs=1e-9)

    def test_rejects_zero_variance(self):
        with pytest.raises(ValueError):
            pearson([(1, 5), (2, 5), (3, 5)])


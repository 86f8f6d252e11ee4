"""Closed-form model against quadrature and finite-difference oracles."""

import math
import sys

import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from citesim import (
    LognormalParams,
    SeriesSpec,
    ThresholdSet,
    expected_exceeding,
    mean_citations,
    metrics_analytic,
    survival_probability,
    total_citations,
)
from citesim.reference import REFERENCE_ROWS

SERIES_1 = SeriesSpec.from_values(2.7, 1.2, 500)
SERIES_13 = SeriesSpec.from_values(2.1, 1.1, 200)


def density(c, params):
    """The lognormal density at c > 0, the quadrature oracles' integrand."""
    z = (math.log(c) - params.mu) / params.sigma
    return math.exp(-0.5 * z * z) / (params.sigma * c * math.sqrt(2 * math.pi))


class TestValidation:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            LognormalParams(2.0, 0.0)
        with pytest.raises(ValueError):
            LognormalParams(2.0, -1.0)

    def test_mu_must_be_finite(self):
        with pytest.raises(ValueError):
            LognormalParams(math.inf, 1.0)

    def test_n_papers_must_be_positive_integer(self):
        with pytest.raises(ValueError):
            SeriesSpec(LognormalParams(2.0, 1.0), 0)
        with pytest.raises(ValueError):
            SeriesSpec(LognormalParams(2.0, 1.0), 2.5)

    def test_n_papers_past_the_largest_double_is_a_value_error(self):
        # solve_h, expected_exceeding, total_citations and metrics_analytic
        # raised a bare OverflowError on such a count
        with pytest.raises(ValueError, match=r"must not exceed the largest double, got N = 10{400}$"):
            SeriesSpec.from_values(2, 1, 10**400)
        with pytest.raises(ValueError, match="largest double"):
            SeriesSpec.from_values(2, 1, int(sys.float_info.max) + 1)
        assert SeriesSpec.from_values(2, 1, int(sys.float_info.max)).n_papers == sys.float_info.max

    def test_thresholds_must_ascend_and_be_positive(self):
        with pytest.raises(ValueError):
            ThresholdSet(())
        with pytest.raises(ValueError):
            ThresholdSet((5, 5))
        with pytest.raises(ValueError):
            ThresholdSet((10, 5))
        with pytest.raises(ValueError):
            ThresholdSet((0, 5))

    def test_domain_errors_for_nonpositive_citations(self):
        params = LognormalParams(2.0, 1.0)
        with pytest.raises(ValueError):
            survival_probability(0.0, params)
        with pytest.raises(ValueError):
            survival_probability(-3.0, params)


class TestPdf:
    """The density the quadrature oracles below integrate is the one
    survival_probability is the upper tail of."""

    def test_matches_survival_derivative(self):
        # central difference of the survival function at c = 10
        params = LognormalParams(2.7, 1.2)
        eps = 1e-4
        oracle = (survival_probability(10 - eps, params) - survival_probability(10 + eps, params)) / (2 * eps)
        assert density(10.0, params) == pytest.approx(oracle, abs=1e-8)


class TestSurvival:
    def test_reference_cells(self):
        assert survival_probability(5, LognormalParams(2.7, 1.2)) == pytest.approx(0.8183, abs=5e-5)
        assert survival_probability(10, LognormalParams(1.3, 0.8)) == pytest.approx(0.1051, abs=5e-5)

    def test_median(self):
        for mu, sigma in ((2.7, 1.2), (0.0, 0.3)):
            assert survival_probability(math.exp(mu), LognormalParams(mu, sigma)) == 0.5

    def test_limits(self):
        params = LognormalParams(2.0, 1.0)
        assert survival_probability(1e-12, params) == pytest.approx(1.0, abs=1e-12)
        assert survival_probability(1e12, params) == pytest.approx(0.0, abs=1e-12)

    @given(
        st.floats(min_value=-1.0, max_value=3.0),
        st.floats(min_value=0.3, max_value=1.5),
        st.floats(min_value=0.01, max_value=1000.0),
        st.floats(min_value=1.001, max_value=10.0),
    )
    def test_monotone_decreasing(self, mu, sigma, c, factor):
        # strictly decreasing wherever both values are representable away
        # from the saturated tails
        params = LognormalParams(mu, sigma)
        lower = survival_probability(c * factor, params)
        upper = survival_probability(c, params)
        assert lower <= upper
        if upper < 1.0 - 1e-9 and lower > 1e-300:
            assert lower < upper

    def test_sigma_direction_flips_at_log_median(self):
        # widening the distribution fattens the upper tail and thins the
        # lower one around the median
        for mu in (1.3, 2.1, 2.7):
            narrow = LognormalParams(mu, 0.8)
            wide = LognormalParams(mu, 1.2)
            above = math.exp(mu + 1)
            below = math.exp(mu - 1)
            assert survival_probability(above, wide) > survival_probability(above, narrow)
            assert survival_probability(below, wide) < survival_probability(below, narrow)


class TestExpectedExceeding:
    def test_series_1_at_5(self):
        assert expected_exceeding(5, SERIES_1) == pytest.approx(500 * 0.8183, abs=0.05)

    def test_small_c_approaches_n(self):
        assert expected_exceeding(1e-9, SERIES_13) == pytest.approx(200.0, abs=1e-6)

    def test_series_13_at_100(self):
        assert expected_exceeding(100, SERIES_13) == pytest.approx(200 * 0.0114, abs=0.05)

    def test_exactly_n_times_survival(self):
        for c in (1.0, 5.0, 20.0, 100.0):
            assert expected_exceeding(c, SERIES_1) == 500 * survival_probability(c, SERIES_1.params)

    def test_quadrature_consistency_across_study(self):
        # N times the integral of the density above c must reproduce the
        # closed-form exceedance count for every study spec
        for row in REFERENCE_ROWS:
            spec = SeriesSpec.from_values(row.mu, row.sigma, row.n_papers)
            for c in (1.0, 5.0, 20.0, 100.0):
                oracle, _ = integrate.quad(
                    lambda t: spec.n_papers * density(t, spec.params), c, math.inf, limit=200, epsrel=1e-9
                )
                assert expected_exceeding(c, spec) == pytest.approx(oracle, rel=1e-6)


class TestMeanAndTotal:
    @pytest.mark.parametrize("mu,sigma", [(2.7, 1.2), (1.3, 0.8)])
    def test_matches_quadrature(self, mu, sigma):
        params = LognormalParams(mu, sigma)
        oracle, _ = integrate.quad(lambda c: c * density(c, params), 0, math.inf, limit=300)
        assert mean_citations(params) == pytest.approx(oracle, rel=1e-6)

    def test_frozen_values(self):
        assert mean_citations(LognormalParams(2.7, 1.2)) == pytest.approx(math.exp(3.42), rel=1e-15)
        assert mean_citations(LognormalParams(1.3, 0.8)) == pytest.approx(math.exp(1.62), rel=1e-15)

    def test_degenerate_sigma_limit(self):
        assert mean_citations(LognormalParams(2.0, 1e-8)) == pytest.approx(math.exp(2.0), rel=1e-12)

    def test_total_is_n_times_mean(self):
        assert total_citations(SERIES_1) == pytest.approx(500 * mean_citations(SERIES_1.params), rel=1e-15)
        single = SeriesSpec(SERIES_1.params, 1)
        assert total_citations(single) == mean_citations(SERIES_1.params)

    def test_reference_totals_within_half_percent(self):
        series1 = total_citations(SERIES_1)
        assert abs(series1 - 15280) / 15280 < 0.005
        series13 = total_citations(SeriesSpec.from_values(2.1, 1.1, 200))
        assert abs(series13 - 2987) / 2987 < 0.005

    @pytest.mark.parametrize("mu,sigma", [(2, 40), (700, 10)])
    def test_overflowing_mean_is_a_value_error(self, mu, sigma):
        # exp(mu + sigma^2/2) is beyond the largest double
        spec = SeriesSpec.from_values(mu, sigma, 100)
        with pytest.raises(ValueError, match=f"mu={mu}, sigma={sigma}$"):
            mean_citations(spec.params)
        for quantity in (total_citations, metrics_analytic):
            with pytest.raises(ValueError, match=f"mu={mu}, sigma={sigma}, N=100$"):
                quantity(spec)

    def test_overflowing_total_is_a_value_error(self):
        # the mean, 1.7e304, is finite, and N times it is not
        spec = SeriesSpec.from_values(700, 1, 10**5)
        assert math.isfinite(mean_citations(spec.params))
        for quantity in (total_citations, metrics_analytic):
            with pytest.raises(ValueError, match="mu=700, sigma=1, N=100000$"):
                quantity(spec)
        assert math.isfinite(total_citations(SeriesSpec.from_values(700, 1, 10**4)))

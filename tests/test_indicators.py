"""Indicator suites and the default 30-series study."""

import math

import pytest

from citesim import (
    SeriesSpec,
    default_study,
    indicator_value,
    metrics_analytic,
    metrics_simulated,
    scatter_dataset,
    study_specs,
    survival_probability,
)


class TestMetricsAnalytic:
    def test_series_1(self):
        metrics = metrics_analytic(SeriesSpec.from_values(2.7, 1.2, 500))
        assert metrics.sum_citations == pytest.approx(15280, rel=0.005)
        assert int(math.floor(metrics.h + 0.5)) == 61
        assert metrics.p_at[5] == pytest.approx(0.8183, abs=5e-5)
        assert metrics.p_at[500] == pytest.approx(1.70e-3, rel=0.01)

    def test_series_29(self):
        metrics = metrics_analytic(SeriesSpec.from_values(1.3, 0.8, 1000))
        assert metrics.p_at[20] == pytest.approx(0.0170, abs=5e-5)
        assert metrics.p_at[500] == pytest.approx(4.04e-10, rel=0.01)
        assert int(math.floor(metrics.h + 0.5)) == 19

    def test_ratios_are_consistent(self):
        spec = SeriesSpec.from_values(2.1, 1.1, 500)
        metrics = metrics_analytic(spec)
        assert metrics.h_over_n == metrics.h / 500
        assert metrics.mean_citations == metrics.sum_citations / 500
        for x, p in metrics.p_at.items():
            assert metrics.f_at[x] == 500 * p

    def test_probabilities_do_not_depend_on_n(self):
        # series 12 and 14 share parameters; counts scale by 10
        twelve = metrics_analytic(SeriesSpec.from_values(2.1, 1.1, 500))
        fourteen = metrics_analytic(SeriesSpec.from_values(2.1, 1.1, 5000))
        assert twelve.p_at == fourteen.p_at
        for x in twelve.f_at:
            assert fourteen.f_at[x] == pytest.approx(10 * twelve.f_at[x], rel=1e-12)


class TestMetricsSimulated:
    def test_series_20_h_mean(self):
        metrics = metrics_simulated(SeriesSpec.from_values(1.7, 1.0, 500), replicates=10_000)
        assert metrics.h == pytest.approx(27, abs=1)

    def test_single_replicate_is_reproducible(self):
        spec = SeriesSpec.from_values(2.1, 1.1, 200)
        a = metrics_simulated(spec, replicates=1, seed=9)
        b = metrics_simulated(spec, replicates=1, seed=9)
        assert a == b

    def test_ratio_consistency(self):
        spec = SeriesSpec.from_values(2.1, 1.1, 200)
        metrics = metrics_simulated(spec, replicates=20, seed=4)
        assert metrics.h_over_n == metrics.h / 200
        for x, f in metrics.f_at.items():
            assert metrics.p_at[x] == f / 200


class TestDefaultStudy:
    def test_thirty_rows(self):
        assert len(default_study()) == 30

    def test_row_9_spec(self):
        row = default_study()[8]
        assert row.spec.params.mu == 2.3
        assert row.spec.params.sigma == 1.1
        assert row.spec.n_papers == 10000

    def test_row_22_spec_and_h(self):
        row = default_study()[21]
        assert row.spec == SeriesSpec.from_values(1.7, 1.0, 100)
        assert int(math.floor(row.h + 0.5)) == 15

    def test_specs_helper_matches_rows(self):
        specs = study_specs()
        assert len(specs) == 30
        assert [r.spec for r in default_study()] == list(specs)


class TestScatterDataset:
    def test_h_versus_counts_at_100(self):
        points = scatter_dataset(default_study(), "h", "counts", 100.0)
        assert len(points) == 30
        near_identical = [int(math.floor(points[i][1] + 0.5)) for i in (12, 19, 29)]
        assert near_identical == [27, 27, 28]

    def test_threshold_30_computed_on_demand(self):
        study = default_study()
        points = scatter_dataset(study, "sum_c_over_n", "probabilities", 30.0)
        assert len(points) == 30
        for (x, _), row in zip(points, study):
            assert x == survival_probability(30.0, row.spec.params)
            assert 30.0 not in row.p_at

    def test_single_row_table(self):
        row = metrics_analytic(SeriesSpec.from_values(2.0, 1.0, 300))
        points = scatter_dataset((row,), "sum_c", "probabilities", 20.0)
        assert points == [(row.p_at[20], row.sum_citations)]

    def test_unknown_indicator_or_axis(self):
        with pytest.raises(ValueError):
            scatter_dataset(default_study(), "g_index", "counts", 50.0)
        with pytest.raises(ValueError):
            scatter_dataset(default_study(), "h", "survival", 50.0)
        with pytest.raises(ValueError, match="unknown indicator"):
            indicator_value(default_study()[0], "g_index")

    def test_shared_parameters_decorrelate_after_normalization(self):
        # equal-parameter series: probabilities equal, h strictly grows
        # with N while h/N strictly falls
        study = default_study()
        same = [study[i] for i in (12, 11, 13, 14)]  # N = 200, 500, 5000, 10000
        assert all(r.p_at == same[0].p_at for r in same)
        hs = [r.h for r in same]
        ratios = [r.h_over_n for r in same]
        assert all(a < b for a, b in zip(hs, hs[1:]))
        assert all(a > b for a, b in zip(ratios, ratios[1:]))


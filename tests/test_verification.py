"""Verification machinery: naming, filtering, and tamper sensitivity."""

import math

import pytest

import citesim.indicators as indicators
from citesim import report, verification


def test_run_checks_filter_names():
    results = verification.run_checks(filter_text="table1")
    assert [r.name for r in results] == [
        "table1-probabilities",
        "table1-h",
        "table1-sum-citations",
    ]
    assert all(r.passed for r in results)


def test_run_checks_unknown_filter_is_empty():
    assert verification.run_checks(filter_text="no-such-check") == []


def test_results_carry_detail_text():
    result = verification.check_table1_sum_citations()
    assert result.name == "table1-sum-citations"
    assert "worst rel dev" in result.detail


def test_probability_check_detects_biased_tail(monkeypatch):
    # a 1e-3 bias in the survival tail must trip the probability cells,
    # whose decimal tolerance is 5e-5
    original = indicators.survival_probability

    def biased(c, params):
        return min(original(c, params) + 1e-3, 1.0)

    indicators.default_study.cache_clear()
    monkeypatch.setattr(indicators, "survival_probability", biased)
    try:
        result = verification.check_table1_probabilities()
    finally:
        indicators.default_study.cache_clear()
    assert not result.passed
    assert "out of tolerance" in result.detail


def test_probability_check_judges_scientific_cells_relatively(monkeypatch):
    # a 2% bias below 1e-3 moves no cell by 5e-5, so only the 1% relative
    # gate of the scientific-notation cells can catch it
    original = indicators.survival_probability

    def biased(c, params):
        p = original(c, params)
        return p * 1.02 if p < 1e-3 else p

    indicators.default_study.cache_clear()
    monkeypatch.setattr(indicators, "survival_probability", biased)
    try:
        result = verification.check_table1_probabilities()
    finally:
        indicators.default_study.cache_clear()
    assert not result.passed
    entries = result.detail.split("out of tolerance: ")[1].split("; ")
    assert all(": rel " in entry for entry in entries)


def test_simulation_check_simulates_as_table1_does(monkeypatch):
    # verify --replicates R --seed s judges the numbers that
    # table1 --mode simulate --replicates R --seed s prints
    calls = {verification: [], report: []}
    for module, seen in calls.items():
        def recorded(spec, replicates, seed, seen=seen, original=module.metrics_simulated):
            seen.append((spec, replicates, seed))
            return original(spec, replicates, seed)

        monkeypatch.setattr(module, "metrics_simulated", recorded)
    verification.check_simulation_agreement(5, 11)
    report.table1_rows("simulate", 5, 11)
    assert len(calls[verification]) == 30
    assert calls[verification] == calls[report]


@pytest.mark.parametrize(
    "wrong_form",
    [
        lambda mu, sigma, n: math.exp(sigma * math.sqrt(math.log(n))),
        lambda mu, sigma, n: math.exp(math.sqrt(2.0 * math.log(n))),
        lambda mu, sigma, n: math.exp(mu + sigma * math.sqrt(2.0 * math.log(n))),
        lambda mu, sigma, n: math.exp(sigma * math.sqrt(2.0 * math.log10(n))),
        lambda mu, sigma, n: math.exp(sigma * sigma * math.sqrt(2.0 * math.log(n))),
    ],
    ids=["two-dropped", "sigma-dropped", "mu-added", "log10", "sigma-squared"],
)
def test_asymptotic_check_detects_wrong_closed_form(monkeypatch, wrong_form):
    # each plausible misreading of exp(sigma sqrt(2 ln N)) lands beyond
    # the 15% gate on ln h somewhere along the scaled reference series
    def tampered(spec):
        return wrong_form(spec.params.mu, spec.params.sigma, spec.n_papers)

    monkeypatch.setattr(verification, "h_asymptotic", tampered)
    result = verification.check_asymptotic_accuracy()
    assert not result.passed
    assert "over 15%" in result.detail

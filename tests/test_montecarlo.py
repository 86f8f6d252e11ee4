"""Replicate-averaged empirical indicators of synthetic series."""

import functools
import math
import sys
import threading
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from citesim import (
    SeriesSpec,
    ThresholdSet,
    derive_seed,
    mean_citations,
    run_replicates,
    study_specs,
    survival_probability,
)
from citesim import montecarlo as mc
from citesim.lognormal import DEFAULT_THRESHOLDS
from citesim.montecarlo import DEFAULT_SEED

SERIES_1 = SeriesSpec.from_values(2.7, 1.2, 500)
SERIES_2 = SeriesSpec.from_values(2.7, 1.2, 5000)
SERIES_9 = SeriesSpec.from_values(2.3, 1.1, 10_000)
SERIES_13 = SeriesSpec.from_values(2.1, 1.1, 200)
SERIES_22 = SeriesSpec.from_values(1.7, 1.0, 100)


class TestDeriveSeed:
    def test_frozen_values(self):
        assert derive_seed(20200212, 0) == 18212920196718665166
        assert derive_seed(20200212, 1) == 18008564624152961122
        assert derive_seed(0, 0) == 16294208416658607535

    def test_distinct_across_indices(self):
        seeds = {derive_seed(11, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            derive_seed(1, -1)

    @pytest.mark.parametrize("master", [-1, 2**64, -(2**64) - 1])
    def test_rejects_master_outside_64_bits(self, master):
        with pytest.raises(ValueError, match="seed must be in"):
            derive_seed(master, 0)
        with pytest.raises(ValueError, match="seed must be in"):
            run_replicates(SERIES_22, 2, seed=master)

    def test_accepts_the_64_bit_range_ends(self):
        assert derive_seed(2**64 - 1, 0) != derive_seed(0, 0)


class TestRunReplicates:
    def test_single_replicate_equals_sample_metrics(self):
        assert_equals_scan_reference(SERIES_13, 1, ThresholdSet((5, 10, 20)), seed=77)

    @pytest.mark.parametrize(
        "n, replicates, thresholds",
        [
            # N = 1: h is 0 or 1, and cuts fall between whole counts
            (1, 300, (0.5, 1, 2.5, 7)),
            (100, 700, (0.5, 5, 10.5, 20, 100)),
            # rows of 2^15 and 2^15 + 1 papers
            (2**15, 3, (5, 10, 20, 50, 100, 500)),
            (2**15 + 1, 2, (5, 10, 20, 50, 100, 500)),
            # cuts beyond K', counted among the tail papers
            (100, 400, (5, 10, 1e15)),
            (1, 50, (1, 2**40)),
        ],
    )
    def test_blocks_equal_sample_metrics(self, n, replicates, thresholds):
        spec = SeriesSpec.from_values(2.1, 1.1, n)
        assert_equals_scan_reference(spec, replicates, ThresholdSet(thresholds), seed=77)

    # runs cut where sampling scheme 5 began a generator (every 64 rows)
    # and where scheme 6 began a block of window rows (every 1024)
    @pytest.mark.parametrize("replicates", [63, 64, 65, 128, 129, 1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("n", [100, 3000])
    def test_chunk_boundaries_equal_sample_metrics(self, n, replicates):
        spec = SeriesSpec.from_values(2.1, 1.1, n)
        assert_equals_scan_reference(spec, replicates, ThresholdSet((5, 10, 20, 50)), seed=77)

    def test_exact_totals_equal_sample_metrics(self):
        # a huge median: every paper is a tail paper, and the pooled tail's
        # sum passes 2^53, so it is summed as int64 in two halves
        spec = SeriesSpec.from_values(30, 2, 3000)
        assert_equals_scan_reference(spec, 20, ThresholdSet((5, 1e9, 1e13)), seed=5)

    def test_deterministic(self):
        a = run_replicates(SERIES_13, 50, seed=3)
        b = run_replicates(SERIES_13, 50, seed=3)
        assert a == b

    def test_rejects_zero_replicates(self):
        with pytest.raises(ValueError):
            run_replicates(SERIES_13, 0)

    def test_rejects_counts_beyond_int64(self):
        spec = SeriesSpec.from_values(800, 1, 10)
        with pytest.raises(ValueError, match="2\\^63"):
            run_replicates(spec, 3)

    def test_rejects_runs_of_2_to_the_63_papers(self):
        # the run's paper counts are int64; 9224 x 10^15 is just past 2^63
        spec = SeriesSpec.from_values(1, 0.1, 10**15)
        with pytest.raises(ValueError, match="2\\^63, got N = 1000000000000000, replicates = 9224"):
            run_replicates(spec, 9224)

    def test_citation_total_past_2_to_the_63(self):
        # 9 x 10^18 papers: the run's total is summed as a Python int
        spec = SeriesSpec.from_values(1, 0.1, 10**15)
        expected = spec.n_papers * math.fsum(
            survival_probability(k, spec.params) for k in range(1, 64))
        summary = run_replicates(spec, 9000)
        assert summary.sum_citations_mean == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("mu, sigma, h_mean, sum_c_mean", [
        # k* = 0: N - low is 2^63 at step 1, past int64, with no down-row left
        (-10, 1, 0.0, 0.0),
        (-3, 0.5, 4.0, 9100292283.0),
    ])
    def test_largest_n_scans_past_int64_limits(self, mu, sigma, h_mean, sum_c_mean):
        summary = run_replicates(SeriesSpec.from_values(mu, sigma, 2**63 - 1), 1, seed=3)
        assert (summary.h_mean, summary.h_stddev, summary.sum_citations_mean) == (h_mean, 0.0, sum_c_mean)
        assert set(summary.counts_above.values()) == {0.0}

    def test_series_13_h_mean_matches_reference(self):
        summary = run_replicates(SERIES_13, 10_000, seed=DEFAULT_SEED)
        assert summary.h_mean == pytest.approx(27, abs=1)

    def test_tail_fractions_track_survival(self):
        summary = run_replicates(SERIES_13, 10_000, ThresholdSet((5, 10, 20, 50)), seed=DEFAULT_SEED)
        for x in (5, 10, 20, 50):
            fraction = summary.counts_above[x] / 200
            assert fraction == pytest.approx(survival_probability(x, SERIES_13.params), abs=0.005)

    def test_truncation_shifts_mean_by_fraction_part(self):
        # the sampled mean sits below the model mean by the mean
        # fractional part of the draws, close to half a citation
        pairs = [(2.7, 1.2), (2.1, 1.1), (1.7, 1.0), (1.5, 0.9), (1.3, 0.8)]
        for mu, sigma in pairs:
            spec = SeriesSpec.from_values(mu, sigma, 2000)
            summary = run_replicates(spec, 500, seed=99)
            shift = summary.sum_citations_mean / 2000 - mean_citations(spec.params)
            assert -0.65 < shift < -0.3, (mu, sigma, shift)


class TestEmpiricalCounts:
    """Mean number of a simulated series' papers above a threshold."""

    def test_series_1_mean_count_at_100(self):
        summary = run_replicates(SERIES_1, 10_000, ThresholdSet((100,)), seed=DEFAULT_SEED)
        assert summary.counts_above[100] == pytest.approx(28.1, abs=0.5)


def concurrent_runs(workers, run):
    """`run()` on `workers` threads started together: what each returned,
    or the exception it raised, in thread order."""
    start = threading.Barrier(workers)
    results = [None] * workers

    def worker(i):
        start.wait(timeout=60)
        try:
            results[i] = run()
        except Exception as exc:
            results[i] = exc

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        assert not thread.is_alive()
    return results


def summaries_by_workers(spec, replicates, thresholds=ThresholdSet((5, 10, 20, 50)),
                         seed=77, workers=(1, 2, 3)):
    """run_replicates on `count` threads at once for each count of
    `workers`: every summary, the lone run's first."""
    summaries = []
    for count in workers:
        summaries += concurrent_runs(count, lambda: run_replicates(spec, replicates, thresholds, seed))
    return summaries


def recorded_streams(monkeypatch):
    """Record the seed of every generator montecarlo builds, with the
    thread that builds it: the rows stream's PCG64 and the rest stream's
    default_rng. A derive_seed call that builds no generator, such as a
    seed's range check, is not a seeding."""
    streams = []

    def recording(build):
        def building(seed):
            streams.append((threading.get_ident(), seed))
            return build(seed)
        return building

    monkeypatch.setattr(np.random, "PCG64", recording(np.random.PCG64))
    monkeypatch.setattr(np.random, "default_rng", recording(np.random.default_rng))
    return streams


def recorded_blocks(monkeypatch, planted=None):
    """Record the thread and the row count of every block of rows that
    montecarlo scans; before scanning one, call `planted(thread, index)`
    with the block's index among that thread's blocks."""
    blocks = []
    lock = threading.Lock()
    scan = mc._scan

    def recording(streams, size, *args):
        me = threading.get_ident()
        with lock:
            index = sum(thread == me for thread, _ in blocks)
            blocks.append((me, size))
        if planted:
            planted(me, index)
        return scan(streams, size, *args)

    monkeypatch.setattr(mc, "_scan", recording)
    return blocks


def recorded_tail_pieces(monkeypatch):
    """Record the count of tail papers every call to _conditioned_normals
    asks for, and the largest of the normals it returns."""
    pieces = []
    conditioned_normals = mc._conditioned_normals

    def recording(rng, a, count):
        z = conditioned_normals(rng, a, count)
        pieces.append((count, float(z.max())))
        return z

    monkeypatch.setattr(mc, "_conditioned_normals", recording)
    return pieces


class TestWorkers:
    """run_replicates keeps no state between calls, so worker threads may
    run it at once: each gets the summary it gets alone, and a failure
    stops only its own run. Within a run, two generators (streams 0 and 1)
    are seeded on the calling thread, and the blocks of rows and the
    pieces of the pooled tail are drawn in order, each once."""

    @pytest.mark.parametrize("replicates", [63, 64, 65, 129, 300])
    @pytest.mark.parametrize("n", [100, 3000])
    def test_summary_independent_of_worker_count(self, n, replicates):
        spec = SeriesSpec.from_values(2.1, 1.1, n)
        serial, *threaded = summaries_by_workers(spec, replicates)
        assert all(summary == serial for summary in threaded)

    @pytest.mark.parametrize("mu", [33.96, 36])
    def test_exact_totals_independent_of_worker_count(self, mu):
        # each replicate's total lies near 2^63 (mu 33.96) or beyond it
        # (mu 36); every paper is a tail paper, summed as int64 halves
        spec = SeriesSpec.from_values(mu, 1, 10_000)
        thresholds = ThresholdSet((5, 1e15))
        serial, *threaded = summaries_by_workers(spec, 130, thresholds)
        assert all(summary == serial for summary in threaded)
        assert serial.sum_citations_mean == pytest.approx(10_000 * math.exp(mu + 0.5), rel=0.02)
        total = assert_equals_scan_reference(spec, 130, thresholds, seed=77)
        assert total > 130 * 2**62

    @pytest.mark.parametrize(
        "mu, sigma, n, replicates, thresholds",
        [
            # the cases of TestRunReplicates' sample-metrics tests
            (2.1, 1.1, 200, 1, (5, 10, 20)),
            (2.1, 1.1, 1, 300, (0.5, 1, 2.5, 7)),
            (2.1, 1.1, 100, 700, (0.5, 5, 10.5, 20, 100)),
            (2.1, 1.1, 2**15, 3, (5, 10, 20, 50, 100, 500)),
            (2.1, 1.1, 2**15 + 1, 2, (5, 10, 20, 50, 100, 500)),
            (2.1, 1.1, 100, 400, (5, 10, 1e15)),
            (2.1, 1.1, 1, 50, (1, 2**40)),
            (2.1, 1.1, 100, 129, (5, 10, 20, 50)),
            (2.1, 1.1, 3000, 129, (5, 10, 20, 50)),
            (30, 2, 3000, 20, (5, 1e9, 1e13)),
        ],
    )
    def test_two_workers_equal_sample_metrics(self, mu, sigma, n, replicates, thresholds):
        seed = 5 if mu == 30 else 77
        spec = SeriesSpec.from_values(mu, sigma, n)
        assert_equals_scan_reference(spec, replicates, ThresholdSet(thresholds), seed, workers=2)

    def test_more_workers_than_cores_with_frequent_switches(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            serial, *threaded = summaries_by_workers(SERIES_22, 5000, workers=(1, 8))
        finally:
            sys.setswitchinterval(interval)
        assert len(threaded) == 8
        assert all(summary == serial for summary in threaded)

    def test_failed_helper_stops_the_run(self, monkeypatch):
        # a fault planted in block 2 of the first worker to reach it: that
        # worker's run raises and draws no later block, and the others run
        # on to the summary they get alone
        monkeypatch.setattr(mc, "_BLOCK_ROWS", 1024)
        spec = SeriesSpec.from_values(2.1, 1.1, 100)
        expected = run_replicates(spec, 5000, seed=3)
        failing = []
        lock = threading.Lock()

        def planted(thread, index):
            with lock:
                if index == 2 and not failing:
                    failing.append(thread)
            if failing == [thread]:
                raise ValueError("planted in a helper")

        blocks = recorded_blocks(monkeypatch, planted)
        before = threading.active_count()
        results = concurrent_runs(3, lambda: run_replicates(spec, 5000, seed=3))
        assert threading.active_count() == before
        failed = [r for r in results if isinstance(r, Exception)]
        assert len(failed) == 1 and str(failed[0]) == "planted in a helper"
        assert [rows for thread, rows in blocks if thread == failing[0]] == [1024] * 3
        # 5000 replicates make blocks of 1024, 1024, 1024, 1024 and 904
        others = [rows for thread, rows in blocks if thread != failing[0]]
        assert sorted(others) == [904] * 2 + [1024] * 8
        assert [r for r in results if r is not failed[0]] == [expected, expected]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_earliest_failed_piece_is_reported(self, monkeypatch, workers):
        # every paper is a pooled tail paper, drawn in pieces of 2^16 after
        # all rows' scans; a draw reaches 2^63 in some piece after the
        # first (about one paper in 10^5 reaches it), the run stops there,
        # and later pieces are never drawn
        mu = 39.4
        spec = SeriesSpec.from_values(mu, 1, 10)
        with monkeypatch.context() as patch:
            pieces = recorded_tail_pieces(patch)
            with pytest.raises(ValueError, match="2\\^63") as failure:
                run_replicates(spec, 100_000, seed=DEFAULT_SEED)
        first = len(pieces) - 1
        # 10^6 papers would take 16 pieces
        assert 0 < first < 15
        assert [count for count, _ in pieces] == [2**16] * (first + 1)
        # the pieces before it draw no such paper; a run whose pool fills
        # it fails the same way
        assert all(np.exp(z + mu) < 2**63 for _, z in pieces[:-1])
        assert np.exp(pieces[-1][1] + mu) >= 2**63
        with pytest.raises(ValueError) as alone:
            run_replicates(spec, -(-(2**16) * (first + 1) // 10), seed=DEFAULT_SEED)
        assert str(alone.value) == str(failure.value)
        results = concurrent_runs(workers, lambda: run_replicates(spec, 100_000, seed=DEFAULT_SEED))
        assert [str(result) for result in results] == [str(failure.value)] * workers

    def test_every_run_seeds_streams_0_and_1_on_the_calling_thread(self, monkeypatch):
        spec = SeriesSpec.from_values(2.1, 1.1, 100)
        me = threading.get_ident()
        for replicates in (1, 1025, 3000):
            with monkeypatch.context() as patch:
                streams = recorded_streams(patch)
                runs = recorded_h(patch)
                summary = run_replicates(spec, replicates, seed=77)
            # the rows stream and the rest stream, whatever the replicate count
            assert streams == [(me, derive_seed(77, 0)), (me, derive_seed(77, 1))]
            assert len(runs[0]) == replicates
            assert summary == run_replicates(spec, replicates, seed=77)

    def test_no_block_before_the_failed_one_is_skipped(self, monkeypatch):
        # in blocks of 1024 rows, every block from the sixth on fails
        monkeypatch.setattr(mc, "_BLOCK_ROWS", 1024)
        spec = SeriesSpec.from_values(2.1, 1.1, 100)
        streams = recorded_streams(monkeypatch)

        def planted(thread, index):
            if index >= 5:
                raise ValueError(f"block at replicate {index * 1024}")

        blocks = recorded_blocks(monkeypatch, planted)
        before = threading.active_count()
        with pytest.raises(ValueError, match="block at replicate 5120$"):
            run_replicates(spec, 10_000, seed=77)
        assert threading.active_count() == before
        assert [seed for _, seed in streams] == [derive_seed(77, 0), derive_seed(77, 1)]
        # each block before it scanned its 1024 rows
        assert [rows for _, rows in blocks] == [1024] * 6


class TestBlockReductions:
    """The run's block reductions: each threshold's count over the
    run's papers, from the histogram below K' and the tail papers
    beyond it, and the tail papers' exact sum (_exact_sum)."""

    @settings(deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e19, allow_nan=False), min_size=1, max_size=5,
            unique=True,
        ),
    )
    # cuts at, just below and just above K' = 256, which splits the
    # histogram's counts from the tail's, and a cut beyond every paper
    @example(xs=[255.5, 256.0, math.nextafter(256.0, math.inf), 256.5])
    @example(xs=[2.0**54])
    def test_count_at_least_matches_naive(self, xs):
        assert_counts_match_naive(WIDE_SPAN, xs)

    @settings(deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e12, allow_nan=False), min_size=1, max_size=5,
            unique=True,
        ),
    )
    # cuts at series 1's lowest and highest stop in the 64 replicates,
    # 53 and 68, where the pooled multinomial cells meet the counts the
    # scans place, and half a count either side of them
    @example(xs=[52.5, 53.0, 53.5])
    @example(xs=[67.5, 68.0, 68.5])
    @example(xs=[5.5, 2.0**30, 2.0**31 - 1])
    def test_count_at_least_on_a_study_series_matches_naive(self, xs):
        assert_counts_match_naive(SERIES_1, xs)

    @settings(deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e5, allow_nan=False), min_size=1, max_size=5,
            unique=True,
        ),
    )
    # cuts about L = 4676, below which the low tail's papers lie, and K' =
    # 4962, in the 64 replicates
    @example(xs=[4675.0, 4675.5, 4676.0, 4676.5])
    @example(xs=[4961.5, 4962.0, 4962.5])
    def test_count_at_least_past_the_low_tail_matches_naive(self, xs):
        assert_counts_match_naive(LOW_EDGE, xs)

    # N * top below 2^53: float64 partial sums are exact
    @pytest.mark.parametrize("top", [3, 2**27, 2**28, 2**31 - 1])
    def test_row_sums_of_int32_blocks_are_exact(self, top):
        assert_rows_sum_exactly(top)

    # past 2^53, and for the largest counts past 2^63 over the rows:
    # summed as int64 halves
    @pytest.mark.parametrize("top", [3, 2**40, 2**62 - 1, 2**63 - 1])
    def test_row_sums_are_exact(self, top):
        assert_rows_sum_exactly(top)

    @pytest.mark.parametrize(
        "papers",
        [
            [0, 1, 5],
            # float64 partial sums stay exact below 2^53
            [2**51, 2**51 - 1],
            # past it, and past 2^63, summed as int64 in two halves
            [2**53, 1, 1],
            [2**62, 2**62 + 2**40, 2**62, 7],
        ],
    )
    def test_exact_sum(self, papers):
        array = np.array(papers, dtype=np.float64)
        assert mc._exact_sum(array, float(max(papers))) == sum(papers)


# k* lies near h = 2576, so each replicate has about 2500 tail papers at
# K' = its highest stop or more, and about 7400 below L = its lowest stop
# - 256, more than L, binned 256 counts at a time down to 0; a run's pooled
# tail sum passes 2^62
HEAVY_TAIL = SeriesSpec.from_values(2, 9, 10_000)
# seeds whose 64 replicates draw no paper past 2^63, as a run does about
# one time in three: the first's papers total 2^63 or more, the second's
# less (the first such seeds from 0 under sampling scheme v8)
HEAVY_TAIL_SEEDS = (0, 12)
# k* = 592 > 256: about 400 papers a replicate lie below the lowest stop
# J, and about 65 of them below L = J - 256, more than L from 5
# replicates on: those are binned 256 counts at a time
LOW_TAIL = SeriesSpec.from_values(6.5, 0.5, 1000)
# k* = 4947, 2.3 standard deviations below the median e^9.2: about 32
# papers a replicate lie below L, so at 100 replicates some 3,200, fewer
# than L, are drawn as the low tail
LOW_EDGE = SeriesSpec.from_values(9.2, 0.3, 5000)


def conditioned_normals(rng, a, count):
    """`count` standard normals conditioned on z >= a, as sampling scheme 8
    draws them: rounds of ceil((1.1 r + 8) / rate) candidates, r the
    number still needed, or r when plain rejection accepts every candidate
    in double precision, by Marsaglia's method (x = sqrt(a^2 - 2 ln(1 -
    U1)), kept when U2 x < a) where it accepts more than plain rejection."""
    plain = 0.5 * math.erfc(a / math.sqrt(2.0))
    marsaglia = a * math.sqrt(2.0 * math.pi) * math.exp(0.5 * a * a) * plain if a > 0 else 0.0
    rate = max(plain, marsaglia)
    kept = []
    while count > sum(map(len, kept)):
        need = count - sum(map(len, kept))
        m = need if plain == 1.0 else math.ceil((1.1 * need + 8) / rate)
        if marsaglia > plain:
            u1, u2 = rng.random((2, m))
            x = np.sqrt(a * a - 2.0 * np.log1p(-u1))
            kept.append(x[u2 * x < a])
        else:
            z = rng.standard_normal(m)
            kept.append(z[z >= a])
    return np.concatenate(kept)[:count] if kept else np.empty(0)


def reference_scan_run(spec, replicates, seed, start=None):
    """Sampling scheme v8, drawn row by row with scalar draws, independently
    of montecarlo: each replicate's h, and every paper of the run.

    Each row scans from k* = central_h(spec), or `start`. Step t of every
    row draws from the generator PCG64(derive_seed(seed, 0)).jumped(t),
    in row order. Step 0 draws G(k*) ~ Bin(N, S(k*)). An up-row, G(k*) >=
    k*, then draws G(k + 1) ~ Bin(G(k), S(k + 1) / S(k)) until G(k) < k,
    and h = k - 1; a down-row draws the papers below k - 1 among the B
    below k, Bin(B, (1 - S(k - 1)) / (1 - S(k))), until G(k) >= k, and h
    = k. Stream derive_seed(seed, 1) then draws the papers the rows left
    unresolved. Below k*, from the highest count down: Bin(M, p_{j-1} /
    (1 - S(j))) at each count j for the M papers known to lie below j,
    then one multinomial over p_L .. p_{J-1}, 1 - S(L) below the lowest
    stop J, L = J - 256, or over p_0 .. p_{J-1} where J <= 256; while more
    papers lie below L than counts do, one over the 256 counts below L
    and the cell below them, and so on; then the papers left below L, in
    pieces of 2^16. At k* and above, from the lowest count up: Bin(M, p_j
    / S(j)), then one multinomial over p_J .. p_{K'-1}, S(K') from the
    highest stop J, K' the largest of J, 256 and one past every count a
    paper was placed at (the scans' counts: the cascades place theirs
    below J). Last the tail above K', in pieces of 2^16 papers.
    """
    mu, sigma, n = spec.params.mu, spec.params.sigma, spec.n_papers
    k0 = central_h(spec) if start is None else start

    def S(k):
        return 1.0 if k == 0 else 0.5 * math.erfc((math.log(k) - mu) / (sigma * math.sqrt(2.0)))

    rows_bits = np.random.PCG64(derive_seed(seed, 0))
    steps = []

    def step_rng(t):
        while len(steps) <= t:
            steps.append(np.random.Generator(rows_bits.jumped(len(steps))))
        return steps[t]

    # papers at exactly k, at j or more, and below j
    exact, above, below = Counter(), Counter(), Counter()
    h_values = []
    for _ in range(replicates):
        g = int(step_rng(0).binomial(n, S(k0)))
        k = t = k0
        if g >= k0:
            below[k0] += n - g
            while g >= k:
                k += 1
                kept = int(step_rng(k - k0).binomial(g, min(S(k) / S(k - 1), 1.0)))
                exact[k - 1] += g - kept
                g = kept
            h_values.append(k - 1)
            above[k] += g
        else:
            above[k0] += g
            b = n - g
            while n - b < k:
                k -= 1
                kept = int(step_rng(k0 - k).binomial(b, min((1 - S(k)) / (1 - S(k + 1)), 1.0)))
                exact[k] += b - kept
                b = kept
            h_values.append(k)
            below[k] += b

    rng = np.random.default_rng(derive_seed(seed, 1))
    cells = Counter(exact)
    tails = []
    held = [j for j in below if below[j]]
    if held:
        m = 0
        for j in range(max(held), min(held), -1):
            m += below[j]
            if m:
                x = int(rng.binomial(m, (S(j - 1) - S(j)) / (1 - S(j))))
                cells[j - 1] += x
                m -= x
        m += below[min(held)]
        # bins [L, J) below the lowest stop J, L = max(J - 256, 0), and a
        # last cell for the papers below L if L > 0; while more papers lie
        # below L than counts do, the 256 counts below L likewise
        low = min(held)
        while m:
            hi, low = low, max(low - 256, 0)
            p = [S(k) - S(k + 1) for k in range(low, hi)] + [1 - S(low)] * (low > 0)
            counts = rng.multinomial(m, np.array(p) / np.sum(p)).tolist()
            m = counts.pop() if low else 0
            cells.update(dict(zip(range(low, hi), counts)))
            if m <= low:
                break
        # the papers left below L: normals conditioned on -z >= (mu - ln
        # L) / sigma, whose draws lie below L unless exp rounds them up to it
        for done in range(0, m, 2**16):
            z = conditioned_normals(rng, (mu - math.log(low)) / sigma, min(2**16, m - done))
            x = np.exp(mu + sigma * -z)
            tails.append(np.minimum(np.floor(x).astype(np.int64), low - 1))
    held = [j for j in above if above[j]]
    top = max([*held, 256, *(k + 1 for k in exact if exact[k])])
    tail_count = 0
    if held:
        m = 0
        for j in range(min(held), max(held)):
            m += above[j]
            if m:
                x = int(rng.binomial(m, (S(j) - S(j + 1)) / S(j)))
                cells[j] += x
                m -= x
        m += above[max(held)]
        tail_count = m
        if max(held) < top:
            p = np.array([S(k) - S(k + 1) for k in range(max(held), top)] + [S(top)])
            counts = rng.multinomial(m, p / p.sum()).tolist()
            cells.update(dict(zip(range(max(held), top), counts)))
            tail_count = counts[-1]
    a = (math.log(top) - mu) / sigma
    for done in range(0, tail_count, 2**16):
        x = np.exp(mu + sigma * conditioned_normals(rng, a, min(2**16, tail_count - done)))
        assert x.max() < 2**63
        tails.append(np.maximum(np.floor(x).astype(np.int64), top))
    bins = sorted(cells)
    papers = np.concatenate([np.repeat(np.array(bins, dtype=np.int64), [cells[k] for k in bins]),
                             *tails])
    return np.array(h_values), papers


def assert_equals_scan_reference(spec, replicates, thresholds, seed, workers=1, start=None):
    """run_replicates equals reference_scan_run exactly: h averaged
    over the replicates, and the citation total and threshold counts of
    all the run's papers, summed exactly, over the replicate count. With
    `workers` > 1, so does each of that many runs on threads at once."""
    h, papers = reference_scan_run(spec, replicates, seed, start)
    total = sum(papers.tolist())
    run = lambda: run_replicates(spec, replicates, thresholds, seed)
    for summary in concurrent_runs(workers, run) if workers > 1 else [run()]:
        assert (summary.h_mean, summary.h_stddev) == exact_moments(h)
        assert summary.sum_citations_mean == total / replicates
        assert summary.counts_above == {
            x: np.count_nonzero(papers >= x) / replicates for x in thresholds}
    return total


# papers from 0 to beyond 10^16 citations, a third of them at K' = 256
# or more
WIDE_SPAN = SeriesSpec.from_values(2, 9, 300)


@functools.lru_cache
def reference_papers(spec):
    """Every paper of reference_scan_run's 64 replicates at seed 26."""
    return reference_scan_run(spec, 64, seed=26)[1]


def assert_counts_match_naive(spec, xs):
    """run_replicates' count at each of `xs`, over 64 replicates at seed
    26, equals the reference run's papers at x or more, counted x by x.
    The papers are whole float64 values, so numpy compares them with x
    exactly."""
    xs = sorted(xs)
    papers = reference_papers(spec)
    summary = run_replicates(spec, 64, ThresholdSet(xs), seed=26)
    assert summary.counts_above == {x: np.count_nonzero(papers >= x) / 64 for x in xs}


def assert_rows_sum_exactly(top):
    """_exact_sum adds each of two rows of papers up to `top`, and both
    rows together, exactly. Papers are whole float64 values below 2^63,
    so `top` is taken down to the largest such value not above it."""
    largest = float(top)
    if largest > top:
        largest = math.nextafter(largest, 0)
    rows = np.array([[largest, largest, 1, 0], [float(int(largest) // 3), 5, 0, 0]])
    for papers in (*rows, rows.ravel()):
        assert mc._exact_sum(papers, float(papers.max())) == sum(map(int, papers.tolist()))


def central_h(spec):
    """k*: the largest k <= N with N S(k) >= k."""
    k = 0
    while k < spec.n_papers and spec.n_papers * survival_probability(k + 1, spec.params) >= k + 1:
        k += 1
    return k


def window(spec):
    """[L, U), the counts within 4 standard deviations of h on either side
    of k*, within [0, N + 1). sd = sqrt(N S (1 - S)) / (1 + N p), with S
    = S(k*) and p = S(k*) - S(k* + 1), is h's standard deviation to
    first order: G(k*) has variance N S (1 - S), and the expected G falls
    by N p, the identity rises by 1, from one count to the next."""
    n, start = spec.n_papers, central_h(spec)
    s, s_next = (survival_probability(k, spec.params) if k else 1.0 for k in (start, start + 1))
    reach = math.ceil(4 * math.sqrt(n * s * (1.0 - s)) / (1.0 + n * (s - s_next)))
    return max(0, start - reach), min(n + 1, start + reach + 1)


def forced_start(monkeypatch, spec, offset):
    """Start every scan `offset` counts from k*, so that most rows scan
    that far or farther: up from below k*, or down from above it."""
    start = central_h(spec) + offset
    monkeypatch.setattr(mc, "_scan_start", lambda spec: start)
    return start


def recorded_h(monkeypatch):
    """Record each run's per-replicate h: the h of every block of rows
    that _scan returns, joined per run."""
    runs, blocks = [], []
    scan, scan_replicates = mc._scan, mc._scan_replicates

    def scanning(*args):
        h = scan(*args)
        blocks.append(h.copy())
        return h

    def running(*args):
        blocks.clear()
        result = scan_replicates(*args)
        runs.append(np.concatenate(blocks))
        return result

    monkeypatch.setattr(mc, "_scan", scanning)
    monkeypatch.setattr(mc, "_scan_replicates", running)
    return runs


def exact_moments(h):
    """The mean and the sample standard deviation (0 for one value) of
    the integers `h`, from exact Python-int sums: each division is int /
    int, so correctly rounded."""
    r, sum_h, sum_h2 = len(h), sum(h.tolist()), sum(v * v for v in h.tolist())
    return sum_h / r, math.sqrt((r * sum_h2 - sum_h**2) / (r * (r - 1)) if r > 1 else 0)


def recorded_survival(monkeypatch):
    """Record the [first, last) range of counts of every call to
    _survival."""
    ranges = []
    survival = mc._survival

    def recording(params, first, last):
        ranges.append((first, last))
        return survival(params, first, last)

    monkeypatch.setattr(mc, "_survival", recording)
    return ranges


def recorded_draws(monkeypatch):
    """Record the scan step and the number of binomials of every call
    that draws a scan step; a row with no trials draws none."""
    draws = []
    binomial = mc._Substreams.binomial

    def recording(self, step, trials, p, size=None):
        draws.append((step, np.count_nonzero(trials) if np.ndim(trials) else size))
        return binomial(self, step, trials, p, size)

    monkeypatch.setattr(mc._Substreams, "binomial", recording)
    return draws


def recorded_trials(monkeypatch):
    """Record the scan step and the number of rows passed to every call
    that draws a scan step: step 0 draws `size` rows, a later step one
    row per entry of `trials`, whether or not it has trials."""
    calls = []
    binomial = mc._Substreams.binomial

    def recording(self, step, trials, p, size=None):
        calls.append((step, len(trials) if step else size))
        return binomial(self, step, trials, p, size)

    monkeypatch.setattr(mc._Substreams, "binomial", recording)
    return calls


class TestHistograms:
    """Every spec scans each replicate's G(k) from k* until its h is
    known, then pools the papers the scans left unresolved over the run
    (sampling scheme v8)."""

    def test_bin_counts(self, monkeypatch):
        # S is evaluated once per count: at the counts the scan visits,
        # and over the bins of the pools that hold papers, from L = max(0,
        # lowest stop - 256), or a window further down, to the lowest stop
        # and from the highest stop
        # (k* at least) to K' = max(256, highest stop). So at most K' + 1
        # counts, and for a huge median, whose every paper is a tail paper,
        # only the 2 or 3 its scan visits (sampling scheme 6 evaluated N +
        # 1)
        ranges = recorded_survival(monkeypatch)
        draws = recorded_draws(monkeypatch)
        runs = recorded_h(monkeypatch)
        # the huge median of `simulate --mu 30 --sigma 2 --n 1000000
        # --replicates 1` at one replicate: 10^6 tail papers
        runs_of = [(spec, (1, 2000)) for spec in (
            SERIES_1, SERIES_9, SERIES_22, SERIES_13, SeriesSpec.from_values(1.5, 0.9, 200),
            SeriesSpec.from_values(6, 1.5, 1000), SeriesSpec.from_values(30, 2, 3000))]
        runs_of.append((SeriesSpec.from_values(30, 2, 10**6), (1,)))
        evaluated = []
        for spec, replicate_counts in runs_of:
            for replicates in replicate_counts:
                ranges.clear()
                draws.clear()
                run_replicates(spec, replicates, seed=1)
                counts = [k for first, last in ranges for k in range(first, last)]
                assert len(counts) == len(set(counts)), spec
                highest = max(int(runs[-1].max()) + 1, mc._scan_start(spec))
                assert len(counts) <= max(mc._MAX_BINS, highest) + 1, spec
                evaluated.append((sorted(counts), len({step for step, _ in draws})))
        # k* = N, or N - 1 where N S(N) falls a hair short of N
        assert evaluated[12:] == [([3000, 3001], 2)] * 2 + [([10**6 - 1, 10**6, 10**6 + 1], 3)]
        for counts, steps in evaluated[12:]:
            assert len(counts) <= mc._MAX_BINS + steps + 2

    def test_scan_starts(self):
        # k*, the h of the expected exceedance counts
        assert mc._scan_start(SERIES_1) == 60
        assert mc._scan_start(SERIES_9) == 119
        assert mc._scan_start(SERIES_2) == 144
        assert mc._scan_start(SERIES_22) == 15
        assert mc._scan_start(HEAVY_TAIL) == 2576
        # sigma -> 0 gives every paper 7 citations, N = 1 gives k* = 0, and
        # a huge median k* = N
        assert mc._scan_start(SeriesSpec.from_values(2, 1e-9, 10_000)) == 7
        assert mc._scan_start(SeriesSpec.from_values(2, 1, 1)) == 0
        assert mc._scan_start(SeriesSpec.from_values(30, 2, 3000)) == 3000
        assert mc._scan_start(SeriesSpec.from_values(30, 2, 10**6)) == 10**6 - 1
        # the largest N a run admits, and 2^62
        assert mc._scan_start(SeriesSpec.from_values(2, 1, 2**63 - 1)) == 18983
        assert mc._scan_start(SeriesSpec.from_values(2, 1, 2**62)) == 17566
        for spec in study_specs():
            assert mc._scan_start(spec) == central_h(spec), spec

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mu=st.floats(-50.0, 60.0), log_sigma=st.floats(math.log(1e-9), math.log(50.0)),
           n=st.one_of(st.integers(1, 1000), st.integers(1, 2**63 - 1)))
    def test_scan_start_is_the_largest_k_with_n_s_k_at_least_k(self, mu, log_sigma, n):
        # the definition, whatever the search: N S(k*) >= k*, and k* + 1
        # fails it or is past N
        spec = SeriesSpec.from_values(mu, math.exp(log_sigma), n)
        k = mc._scan_start(spec)
        assert 0 <= k <= n
        assert k == 0 or n * survival_probability(k, spec.params) >= k
        assert k == n or n * survival_probability(k + 1, spec.params) < k + 1

    def test_study_rows_draw_few_binomials(self, monkeypatch):
        # an up-row draws G(k*) and one binomial per count up to h + 1, a
        # down-row G(k*) and one per count down to h: |h - k*| + 2 or
        # |h - k*| + 1 binomials, against 12 to 36 for sampling scheme 6's
        # window row
        runs = recorded_h(monkeypatch)
        draws = recorded_draws(monkeypatch)
        per_row = []
        for spec in study_specs():
            draws.clear()
            run_replicates(spec, 2000, seed=DEFAULT_SEED)
            h, start = runs[-1], mc._scan_start(spec)
            cost = np.abs(h - start) + 1 + (h >= start)
            assert sum(count for _, count in draws) == cost.sum(), spec
            per_row.append(cost.mean())
        assert max(per_row) < 6, per_row

    @pytest.mark.parametrize("block_rows", [None, 1024])
    def test_each_step_draws_only_for_rows_still_scanning(self, monkeypatch, block_rows):
        # an up-row (h >= k*) stops at step h - k* + 1 and a down-row at
        # step k* - h; within a block, step s passes exactly the rows
        # whose scan reaches s, not the rows that have stopped
        block_rows = block_rows or mc._BLOCK_ROWS
        monkeypatch.setattr(mc, "_BLOCK_ROWS", block_rows)
        runs = recorded_h(monkeypatch)
        draws = recorded_draws(monkeypatch)
        calls = recorded_trials(monkeypatch)
        # N = 1 (k* = 0), a huge median (k* = N) and every paper at 7
        # citations (sigma -> 0) as well
        for spec, replicates in [(SERIES_22, 5000), (SeriesSpec.from_values(2, 1, 1), 5000),
                                 (SeriesSpec.from_values(30, 2, 3000), 1500),
                                 (SeriesSpec.from_values(2, 1e-9, 10_000), 5000)]:
            draws.clear()
            calls.clear()
            run_replicates(spec, replicates, seed=DEFAULT_SEED)
            h, start = runs[-1], mc._scan_start(spec)
            stops = np.where(h >= start, h - start + 1, start - h)
            expected = []
            for first in range(0, replicates, block_rows):
                block = stops[first : first + block_rows]
                expected.append((0, len(block)))
                expected += [(s, np.count_nonzero(block >= s)) for s in range(1, block.max() + 1)]
            assert calls == expected, spec
            # every row a step passes has trials, a paper on its far side,
            # so a side holds papers exactly when it has rows
            assert draws == calls, spec
            # most rows stop within a few steps, so the later steps are short
            assert sum(rows for step, rows in calls if step) < 3 * replicates, spec

    def test_study_rows_rarely_leave_the_window(self, monkeypatch):
        # 3 to 4 rows in 10^5 have an h more than 4 standard deviations
        # from k*, so nearly every row draws at most 4 sd + 2 binomials
        runs = recorded_h(monkeypatch)
        windows = []
        for spec in study_specs():
            windows.append(window(spec))
            run_replicates(spec, 2000, seed=DEFAULT_SEED)
        outside = sum(np.count_nonzero((h < low) | (h >= high))
                      for h, (low, high) in zip(runs, windows))
        assert outside < 0.001 * 30 * 2000

    def test_survival_equals_survival_probability(self):
        specs = [*study_specs(), HEAVY_TAIL, SeriesSpec.from_values(30, 2, 3000),
                 SeriesSpec.from_values(2, 1e-9, 10_000), SeriesSpec.from_values(2, 1, 1)]
        for spec in specs:
            expected = [1.0] + [survival_probability(k, spec.params) for k in range(1, 300)]
            assert mc._survival(spec.params, 0, 300) == expected, spec
            assert mc._survival(spec.params, 57, 300) == expected[57:], spec

    @pytest.mark.parametrize(
        "spec, replicates, seed",
        [
            (SERIES_1, 200, 77),
            (SERIES_9, 70, 77),
            (SeriesSpec.from_values(2.1, 1.1, 2**15 + 1), 3, 77),
            (SERIES_22, 300, 77),
            (SERIES_13, 300, 77),
            (LOW_TAIL, 200, 77),
            (LOW_EDGE, 100, 77),
            # k* = 807: one row stops at h = 808 with 811 papers placed at
            # 808 and none kept at 809 or more, so the highest pool above
            # is J = 808 and K' = 809, one past the placed count, where
            # max(J, 256) would be 808
            (SeriesSpec.from_values(6.6946038733499345, 0.000354362672493724, 1432), 10,
             3021330510),
        ],
        ids=["series-1", "series-9", "n-2^15+1", "series-22", "series-13", "low-windows",
             "low-tail", "k-prime-past-a-placed-count"],
    )
    def test_equals_reference(self, spec, replicates, seed):
        assert_equals_scan_reference(spec, replicates, DEFAULT_THRESHOLDS, seed=seed)

    # scheme 5's chunk and scheme 6's block boundaries, as in
    # TestRunReplicates
    @pytest.mark.parametrize("replicates", [63, 64, 65, 129, 1023, 1024, 1025, 2049])
    def test_chunk_boundaries_equal_reference(self, replicates):
        spec = SeriesSpec.from_values(2.1, 1.1, 3000)
        thresholds = ThresholdSet((0.5, 5, 10.5, 50, 1e15))
        assert_equals_scan_reference(spec, replicates, thresholds, seed=77)

    @pytest.mark.parametrize(
        "spec, offset",
        [
            (SERIES_1, -6),
            (SERIES_1, 6),
            (SERIES_9, -6),
            (SERIES_9, 6),
            (SeriesSpec.from_values(2.1, 1.1, 40), 6),
            # h ~ 463, so K' is the highest stop: tail papers start there
            (SeriesSpec.from_values(6, 1.5, 1000), -6),
        ],
        ids=["series-1-below", "series-1-above", "series-9-below", "series-9-above",
             "n-40-above", "k-prime-highest-stop-below"],
    )
    def test_forced_start_equals_reference(self, monkeypatch, spec, offset):
        start = forced_start(monkeypatch, spec, offset)
        runs = recorded_h(monkeypatch)
        thresholds = ThresholdSet((2, 5, 10, 50, 61, 100, 500))
        assert_equals_scan_reference(spec, 130, thresholds, seed=3, start=start)
        # most rows scanned the 6 counts to k* and on, in one direction
        h = runs[0]
        assert np.count_nonzero(h >= start if offset < 0 else h < start) > 100

    def test_first_replicates_independent_of_replicate_count(self, monkeypatch):
        # from k*, then from k* + 6, where most rows step down, then in
        # blocks of 1024 rows, where 1025 and 2100 replicates end in
        # different blocks
        for offset, block_rows in ((None, mc._BLOCK_ROWS), (6, mc._BLOCK_ROWS), (None, 1024)):
            with monkeypatch.context() as patch:
                patch.setattr(mc, "_BLOCK_ROWS", block_rows)
                if offset:
                    forced_start(patch, SERIES_1, offset)
                runs = recorded_h(patch)
                for replicates in (1, 1025, 2100):
                    run_replicates(SERIES_1, replicates, seed=5)
            assert runs[0][0] == runs[1][0]
            assert (runs[1] == runs[2][:1025]).all()

    @pytest.mark.parametrize("replicates", [63, 65, 300])
    def test_independent_of_worker_count(self, replicates):
        serial, *threaded = summaries_by_workers(SERIES_1, replicates)
        assert all(summary == serial for summary in threaded)

    def test_runs_on_the_calling_thread(self, monkeypatch):
        before = threading.active_count()
        threads = set()
        scan = mc._scan

        def recording(*args):
            threads.add(threading.get_ident())
            assert threading.active_count() == before
            return scan(*args)

        monkeypatch.setattr(mc, "_scan", recording)
        for spec in (SERIES_9, SERIES_22):
            run_replicates(spec, 300, seed=1)
        assert threads == {threading.get_ident()}

    def test_exact_totals_equal_reference(self):
        # the run's pooled tail sums past 2^62, in Python ints, and the
        # run's total passes 2^63 with no draw reaching it
        total = assert_equals_scan_reference(
            HEAVY_TAIL, 64, ThresholdSet((5, 1e9, 1e18)), seed=HEAVY_TAIL_SEEDS[0])
        assert total >= 2**63

    def test_exact_totals_in_int64_equal_reference(self):
        total = assert_equals_scan_reference(
            HEAVY_TAIL, 64, ThresholdSet((5, 1e9, 1e18)), seed=HEAVY_TAIL_SEEDS[1])
        assert total < 2**63

    def test_tail_papers_rounded_below_k_prime_count_k_prime(self, monkeypatch):
        # a normal just below a = (ln K' - mu) / sigma gives a draw just
        # below K', which exp's rounding can also do; such a tail paper
        # counts K' citations, as one drawn at K' + 1/2 does. Series 1's
        # scans stop far below K' = 256.
        mu, sigma = SERIES_1.params.mu, SERIES_1.params.sigma
        top = mc._MAX_BINS
        edge = (math.log(top) - mu) / sigma
        while np.exp(np.float64(edge) * sigma + mu) >= top:
            edge = math.nextafter(edge, -math.inf)
        summaries = []
        for z in (edge, (math.log(top + 0.5) - mu) / sigma):
            monkeypatch.setattr(mc, "_conditioned_normals", lambda rng, a, count: np.full(count, z))
            summaries.append(run_replicates(SERIES_1, 130, seed=3))
        assert summaries[0] == summaries[1]

    def test_low_tail_papers_rounded_up_to_l_count_l_minus_one(self, monkeypatch):
        # the mirror image below L: a normal just below the low tail's a =
        # (mu - ln L) / sigma, negated, gives a draw of L, which exp's
        # rounding can also do; such a paper counts L - 1 citations, as one
        # drawn at L - 1/2 does. LOW_TAIL's 3 replicates at seed 3 have L =
        # 336, and only the low tail's a is positive, K' lying below e^mu
        mu, sigma = LOW_TAIL.params.mu, LOW_TAIL.params.sigma
        low = 336
        edge = (mu - math.log(low)) / sigma
        while np.exp(-np.float64(edge) * sigma + mu) < low:
            edge = math.nextafter(edge, -math.inf)
        conditioned_normals = mc._conditioned_normals
        asked, summaries = set(), []
        for z in (edge, (mu - math.log(low - 0.5)) / sigma):

            def planted(rng, a, count):
                if a > 0:
                    asked.add(a)
                    return np.full(count, z)
                return conditioned_normals(rng, a, count)

            monkeypatch.setattr(mc, "_conditioned_normals", planted)
            summaries.append(run_replicates(LOW_TAIL, 3, seed=3))
        assert asked == {(mu - math.log(low)) / sigma}
        assert summaries[0] == summaries[1]

    def test_rejects_tail_counts_beyond_int64(self):
        # about one replicate in 55 draws a paper past 2^63
        with pytest.raises(ValueError, match="2\\^63"):
            run_replicates(HEAVY_TAIL, 640, seed=1)


class CountingGenerator:
    """A generator's standard_normal and random, counting the values each
    returns."""

    def __init__(self, rng, counts):
        self.rng, self.counts = rng, counts

    def standard_normal(self, size):
        self.counts["standard_normal"] += np.prod(size)
        return self.rng.standard_normal(size)

    def random(self, size):
        self.counts["random"] += np.prod(size)
        return self.rng.random(size)


HUGE_MEDIAN = SeriesSpec.from_values(30, 2, 3000)


@pytest.fixture(scope="module")
def huge_median_run():
    """One run of the huge median, 20,000 replicates at DEFAULT_SEED: its
    summary, the tail pieces it asked for (recorded_tail_pieces) and how
    many values its rest stream's standard_normal and random returned
    (CountingGenerator)."""
    counts = Counter()
    with pytest.MonkeyPatch.context() as patch:
        conditioned_normals = mc._conditioned_normals
        patch.setattr(mc, "_conditioned_normals", lambda rng, a, count: conditioned_normals(
            CountingGenerator(rng, counts), a, count))
        pieces = recorded_tail_pieces(patch)
        summary = run_replicates(HUGE_MEDIAN, 20_000, seed=DEFAULT_SEED)
    return types.SimpleNamespace(summary=summary, pieces=pieces, counts=counts)


class TestBlocks:
    """The rows stream scans the rows in blocks of _BLOCK_ROWS, each scan
    step drawing from its own substream, row after row, so no output
    depends on the block size; the rest stream draws the pooled tail in
    pieces of at most _TAIL_PIECE papers. A run holds one block of rows
    and one tail piece at a time."""

    @pytest.mark.parametrize("offset", [None, 2])
    def test_independent_of_block_rows(self, monkeypatch, offset):
        # from k* + 2 most rows step down
        if offset:
            forced_start(monkeypatch, SERIES_1, offset)
        runs = recorded_h(monkeypatch)
        summaries = []
        for size in (1, 7, 1024, mc._BLOCK_ROWS):
            with monkeypatch.context() as patch:
                patch.setattr(mc, "_BLOCK_ROWS", size)
                blocks = recorded_blocks(patch)
                summaries.append(run_replicates(SERIES_1, 2100, seed=5))
            assert max(rows for _, rows in blocks) == min(size, 2100)
            assert sum(rows for _, rows in blocks) == 2100
        assert summaries[0] == summaries[1] == summaries[2] == summaries[3]
        assert all((runs[0] == h).all() for h in runs[1:])

    def test_pooled_tail_drawn_in_bounded_pieces(self, huge_median_run):
        # a huge median: each of the 20,000 replicates' 3000 papers is a
        # pooled tail paper
        asked = [count for count, _ in huge_median_run.pieces]
        assert sum(asked) == 3000 * 20_000
        assert max(asked) <= mc._TAIL_PIECE
        assert asked[:-1] == [mc._TAIL_PIECE] * (len(asked) - 1)

    def test_low_pool_outnumbering_its_counts_is_binned(self, monkeypatch):
        # LOW_TAIL's 2000 replicates hold about 130,000 papers below L =
        # 312, more than L: the 256 counts below L are binned as well, and
        # only the 2 papers below 56, fewer than 56, are drawn one by one.
        # The low tail alone asks for normals past a positive a, K' lying
        # below e^mu
        mu, sigma = LOW_TAIL.params.mu, LOW_TAIL.params.sigma
        asked = []
        conditioned_normals = mc._conditioned_normals

        def recording(rng, a, count):
            asked.append((a, count))
            return conditioned_normals(rng, a, count)

        monkeypatch.setattr(mc, "_conditioned_normals", recording)
        run_replicates(LOW_TAIL, 2000, seed=DEFAULT_SEED)
        # each low tail piece's edge, L = e^(mu - sigma a), and its count
        low_pieces = [(round(math.exp(mu - sigma * a)), count) for a, count in asked if a > 0]
        assert low_pieces == [(56, 2)]

    def test_certain_acceptance_draws_no_spare_normals(self, huge_median_run):
        # a = (ln 3001 - 30) / 2 = -11: plain rejection accepts every
        # normal in double precision, so a round asks for exactly the
        # papers still needed (sampling scheme 6 drew 66,007,694)
        assert huge_median_run.counts == {"standard_normal": 60_000_000}

    def test_rejection_rounds_keep_their_margin(self):
        # below certainty a round still asks for 10% more plus 8
        for a, method in ((1.5, "random"), (-1.0, "standard_normal")):
            counts = Counter()
            rng = CountingGenerator(np.random.default_rng(1), counts)
            assert len(mc._conditioned_normals(rng, a, 1000)) == 1000
            assert counts[method] >= 1108, (a, counts)

    @pytest.mark.parametrize("a", [30.0, 40.0])
    def test_far_tail_draws_are_finite_and_at_least_a(self, a):
        # past a = 26 the acceptance rate is taken as 1, as e^(a^2 / 2)
        # in its closed form overflows past a = 37.7
        z = mc._conditioned_normals(np.random.default_rng(1), a, 1000)
        assert len(z) == 1000
        assert np.isfinite(z).all() and (z >= a).all()


@functools.lru_cache
def traced_peak(replicates):
    """The tracemalloc peak, in bytes, of a run of `replicates` at N = 10,
    after a run of one."""
    spec = SeriesSpec.from_values(2, 1, 10)
    run_replicates(spec, 1)
    tracemalloc.start()
    try:
        run_replicates(spec, replicates)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReductions:
    """Every simulated number is an exact Python-int sum over the run,
    divided by the replicate count once at the end: the h, h^2 and
    citation total of every replicate and its counts at each threshold.
    A run holds no per-replicate array, so its memory does not grow with
    its replicate count."""

    def test_h_sums_past_int64_are_exact(self, monkeypatch):
        # h moved up by 3e9: a row's h^2 is 9e18 or more, so two rows' sum
        # passes 2^63, and an int64 sum of squares would wrap
        plain = run_replicates(SERIES_22, 3000, seed=5)
        scan = mc._scan
        monkeypatch.setattr(mc, "_scan", lambda *args: scan(*args) + 3 * 10**9)
        runs = recorded_h(monkeypatch)
        summary = run_replicates(SERIES_22, 3000, seed=5)
        assert runs[0].min() >= 3 * 10**9
        assert (summary.h_mean, summary.h_stddev) == exact_moments(runs[0])
        # the spread is that of the h moved, exactly
        assert summary.h_stddev == plain.h_stddev
        assert summary.h_mean == pytest.approx(plain.h_mean + 3 * 10**9, abs=1e-6)

    def test_memory_below_one_int64_a_replicate(self):
        # one int64 a replicate would take 8 MB; a run that kept every h
        # peaked at 15.3 MiB
        assert traced_peak(10**6) < 8 * 10**6

    def test_memory_independent_of_replicate_count(self):
        assert abs(traced_peak(4 * 10**6) - traced_peak(10**6)) < 10**6

    def test_memory_bounded_below_a_huge_h(self):
        # h = 1,216,719 and about 8.8M papers below k*, binned 256 counts
        # at a time until fewer papers than counts are left, those drawn
        # as the low tail in pieces; sampling scheme 7 binned every count
        # below k* at once and peaked at 121 MiB
        spec = SeriesSpec.from_values(14, 0.01, 10**7)
        run_replicates(SeriesSpec.from_values(2, 1, 10), 1)
        tracemalloc.start()
        try:
            run_replicates(spec, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 10**6


class TestWindowDomain:
    """The scan holds for every valid spec, N = 1, sigma -> 0, h = N and
    huge medians included, and k* lies within [0, N]."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        mu=st.floats(-50.0, 50.0),
        log_sigma=st.floats(math.log(1e-9), math.log(10.0)),
        n=st.integers(1, 10**6),
        replicates=st.integers(1, 70),
        seed=st.integers(0, 2**64 - 1),
    )
    # sigma -> 0: every paper has floor(e^2) = 7 citations
    @example(mu=2.0, log_sigma=math.log(1e-9), n=10**4, replicates=3, seed=1)
    # N = 1
    @example(mu=0.5, log_sigma=0.0, n=1, replicates=70, seed=1)
    # h = N: every paper has e^5 or more citations
    @example(mu=10.0, log_sigma=math.log(0.5), n=100, replicates=5, seed=1)
    # every paper has 0 citations
    @example(mu=-50.0, log_sigma=math.log(1e-9), n=10**4, replicates=2, seed=1)
    # every paper has 300 citations: the up-rows keep none past k* = 300,
    # and K' = 256 would lie at or below the count they are placed at
    @example(mu=math.log(300.5), log_sigma=math.log(1e-9), n=10**4, replicates=1, seed=1)
    # papers at 1000 and 1001 citations only
    @example(mu=math.log(1001.0), log_sigma=math.log(1e-4), n=10**4, replicates=3, seed=1)
    # k* = 592 and 1,216,719: papers below L = the lowest stop - 256,
    # binned further down, then drawn as the low tail
    @example(mu=6.5, log_sigma=math.log(0.5), n=1000, replicates=70, seed=1)
    @example(mu=14.0, log_sigma=math.log(0.01), n=10**7, replicates=1, seed=1)
    def test_summary_is_bounded_or_overflows(self, mu, log_sigma, n, replicates, seed):
        # at most 10^5 papers a run, or one replicate: a huge median draws
        # every paper as a tail paper
        replicates = max(1, min(replicates, 10**5 // n))
        spec = SeriesSpec.from_values(mu, math.exp(log_sigma), n)
        assert 0 <= mc._scan_start(spec) <= n
        try:
            summary = run_replicates(spec, replicates, DEFAULT_THRESHOLDS, seed)
        except ValueError as exc:
            assert "2^63" in str(exc)
            return
        assert 0 <= summary.h_mean <= n
        assert summary.h_stddev >= 0
        # a replicate's h papers hold h^2 citations or more, and its papers
        # at x or more x times their number
        total = summary.sum_citations_mean * (1 + 1e-9)
        assert summary.h_mean**2 <= total
        assert all(x * count <= total for x, count in summary.counts_above.items())
        counts = list(summary.counts_above.values())
        assert all(0 <= count <= n for count in counts)
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("low", [7, 255, 256, 300, 1000])
    def test_concentrated_papers_are_all_counted(self, low):
        # e^(mu + sigma z) = (low + 1)(1 + sigma z) + O(sigma^2) = low + 1 +
        # z / 10 puts every paper at `low` or `low` + 1 citations, below,
        # at and above K' = 256; 2 replicates keep the means exact
        n, replicates = 10**4, 2
        spec = SeriesSpec.from_values(math.log(low + 1), 0.1 / (low + 1), n)
        thresholds = ThresholdSet((low, low + 1, low + 2))
        summary = run_replicates(spec, replicates, thresholds, seed=1)
        at_low, above, beyond = summary.counts_above.values()
        assert (at_low, beyond) == (n, 0)
        assert 0 < above < n
        assert summary.sum_citations_mean == low * n + above
        assert summary.h_mean == (low + 1 if above >= low + 1 else low)


@functools.lru_cache
def exact_law(spec, thresholds):
    """Per-replicate mean and standard deviation of h, the citation total
    and each threshold count under the discrete law of N papers with
    P(c >= k) = S(k): P(h >= k) = P(Bin(N, S(k)) >= k), E[c] = sum S(k),
    E[c^2] = sum (2k - 1) S(k), and the count at x is Bin(N, S(ceil x)).

    The sums run to K = 10^6 term by term. Beyond K they are the
    integrals of S(x) and (2x - 1) S(x) from K, less half of each one's
    value at K (the Euler-Maclaurin correction), taken from the
    lognormal's partial moments E[(X^p - K^p)^+] =
    e^(p mu + p^2 sigma^2 / 2) Phi((mu + p sigma^2 - ln K) / sigma) - K^p S(K).
    For the study's series they add below 1e-6; for a huge median they
    are nearly the whole sum. Cached by spec and thresholds: callers only
    read the result."""
    from scipy import stats

    mu, sigma, n = spec.params.mu, spec.params.sigma, spec.n_papers
    cut = 10**6
    k = np.arange(1, cut + 1, dtype=np.float64)
    survival = stats.norm.sf((np.log(k) - mu) / sigma)
    at_least_h = stats.binom.sf(k[:n] - 1, n, survival[:n])
    h_mean = at_least_h.sum()

    def beyond(p):
        moment = math.exp(p * mu + 0.5 * (p * sigma) ** 2)
        return moment * stats.norm.sf((math.log(cut) - mu - p * sigma**2) / sigma) - cut**p * survival[-1]

    mean_c = survival.sum() + beyond(1) - survival[-1] / 2
    square_c = ((2 * k - 1) * survival).sum() + beyond(2) - beyond(1) - (2 * cut - 1) * survival[-1] / 2
    law = {
        "h": (h_mean, math.sqrt(((2 * k[:n] - 1) * at_least_h).sum() - h_mean**2)),
        "sum_c": (n * mean_c, math.sqrt(n * (square_c - mean_c**2))),
    }
    for x in thresholds:
        p = survival[math.ceil(x) - 1]
        law[x] = (n * p, math.sqrt(n * p * (1 - p)))
    return law


def z_scores(summary, law):
    """Each quantity's distance from its exact mean in standard errors; one
    with no spread (a huge median's h and counts) scores 0 when it equals
    its mean and inf otherwise."""
    root = math.sqrt(summary.replicates)
    observed = {"h": summary.h_mean, "sum_c": summary.sum_citations_mean, **summary.counts_above}
    scores = {}
    for key, (mean, sd) in law.items():
        error = observed[key] - mean
        scores[key] = error / (sd / root) if sd else (0.0 if error == 0 else math.inf)
    return scores


class TestExactLaw:
    """h_mean, the mean citation total and every threshold count lie
    within 5 standard errors of their exact discrete expectations, with
    the scans started at k* and 6 counts to either side of it, and the
    replicates' h follow the exact law of h; tampered draws do not."""

    REPLICATES = 20_000

    @pytest.mark.parametrize(
        "spec",
        [SERIES_1, SERIES_9, SERIES_22, SERIES_2, SERIES_13, SeriesSpec.from_values(1.5, 0.9, 200),
         HUGE_MEDIAN, LOW_TAIL],
        ids=["series-1", "series-9", "series-22", "series-2", "series-13", "series-25",
             "huge-median", "low-windows"])
    def test_within_five_standard_errors(self, request, spec):
        if spec is HUGE_MEDIAN:
            # the same run as huge_median_run's
            summary = request.getfixturevalue("huge_median_run").summary
            assert summary.replicates == self.REPLICATES
        else:
            summary = run_replicates(spec, self.REPLICATES, seed=DEFAULT_SEED)
        scores = z_scores(summary, exact_law(spec, DEFAULT_THRESHOLDS))
        assert max(map(abs, scores.values())) <= 5, scores

    @pytest.mark.parametrize("offset", [-6, 6])
    def test_forced_start_within_five_standard_errors(self, monkeypatch, offset):
        # most rows scan 6 counts or more, up from below k* or down from
        # above it, so the law does not depend on where the scans start
        assert max(map(abs, self.forced_scores(monkeypatch, offset).values())) <= 5

    def forced_scores(self, monkeypatch, offset):
        forced_start(monkeypatch, SERIES_9, offset)
        return self.tampered_scores()

    def tampered_scores(self):
        summary = run_replicates(SERIES_9, self.REPLICATES, seed=DEFAULT_SEED)
        return z_scores(summary, exact_law(SERIES_9, DEFAULT_THRESHOLDS))

    def shifted_scores(self, monkeypatch, counts):
        """Scores with the papers of each of `counts` counted one lower:
        S(k) taken as S(k + 1) for k in `counts`."""
        survival = mc._survival

        def shifted(params, first, last):
            return [survival(params, k + (k in counts), k + (k in counts) + 1)[0]
                    for k in range(first, last)]

        monkeypatch.setattr(mc, "_survival", shifted)
        return self.tampered_scores()

    def test_bin_shifted_by_one_fails(self, monkeypatch):
        # the papers of count 10 counted as 9: far below series 9's k* =
        # 119, so in the pooled multinomial below the lowest stop
        assert max(map(abs, self.shifted_scores(monkeypatch, [10]).values())) > 5

    def test_window_shifted_by_one_fails(self, monkeypatch):
        # every count within 4 sd of k* counted one lower, in the scans'
        # steps and the cascades, which moves h
        low, high = window(SERIES_9)
        assert low < mc._scan_start(SERIES_9) < high
        assert max(map(abs, self.shifted_scores(monkeypatch, range(low, high)).values())) > 5

    def test_step_ratio_one_count_off_fails(self, monkeypatch):
        # an up-step keeps a paper with S(k + 2) / S(k), one count too far
        kept = mc._kept

        def off_by_one(survival, k, up):
            if up:
                s_k, _, s_far = survival(k, k + 3)
                return s_far / s_k
            return kept(survival, k, up)

        monkeypatch.setattr(mc, "_kept", off_by_one)
        assert max(map(abs, self.tampered_scores().values())) > 5

    def test_unconditioned_tail_fails(self, monkeypatch):
        monkeypatch.setattr(
            mc, "_conditioned_normals", lambda rng, a, count: rng.standard_normal(count))
        assert max(map(abs, self.tampered_scores().values())) > 5

    # cuts about L = 4675, below which LOW_EDGE's 100 replicates at
    # DEFAULT_SEED draw their low tail
    LOW_EDGE_CUTS = ThresholdSet((4500, 4600, 4674, 4675, 4800, 5000))

    def low_edge_scores(self):
        summary = run_replicates(LOW_EDGE, 100, self.LOW_EDGE_CUTS, seed=DEFAULT_SEED)
        return z_scores(summary, exact_law(LOW_EDGE, self.LOW_EDGE_CUTS))

    def test_low_tail_within_five_standard_errors(self):
        assert max(map(abs, self.low_edge_scores().values())) <= 5

    def test_unconditioned_low_tail_fails(self, monkeypatch):
        # the papers below L drawn from the whole law, clamped below L:
        # LOW_EDGE's low tail alone asks for normals past a positive a, K'
        # lying below e^mu
        conditioned_normals = mc._conditioned_normals
        monkeypatch.setattr(mc, "_conditioned_normals", lambda rng, a, count: (
            rng.standard_normal(count) if a > 0 else conditioned_normals(rng, a, count)))
        assert max(map(abs, self.low_edge_scores().values())) > 5

    def test_cascade_pool_left_out_fails(self, monkeypatch):
        scan = mc._scan

        def left_out(streams, size, n, start, survival, exact, above, below):
            # the down-rows' papers below their stops: their rows' h stand,
            # but the cascade below k* never counts them
            h = scan(streams, size, n, start, survival, exact, above, below)
            for j in [j for j in below if j < start]:
                del below[j]
            return h

        monkeypatch.setattr(mc, "_scan", left_out)
        assert max(map(abs, self.tampered_scores().values())) > 5

    def h_law_p_value(self, monkeypatch, spec, replicates):
        """The chi-square p-value of a run's h counts against the exact
        P(h = k) = P(h >= k) - P(h >= k + 1), P(h >= k) = P(Bin(N, S(k))
        >= k), over the k expected 5 times or more."""
        from scipy import stats

        runs = recorded_h(monkeypatch)
        run_replicates(spec, replicates, seed=DEFAULT_SEED)
        mu, sigma, n = spec.params.mu, spec.params.sigma, spec.n_papers
        k = np.arange(1, n + 2)
        at_least = stats.binom.sf(k - 1, n, stats.norm.sf((np.log(k) - mu) / sigma))
        expected = replicates * -np.diff(np.concatenate(([1.0], at_least)))
        observed = np.bincount(runs[0], minlength=n + 1)
        kept = expected >= 5
        chi2 = ((observed[kept] - expected[kept]) ** 2 / expected[kept]).sum()
        return stats.chi2.sf(chi2, np.count_nonzero(kept) - 1)

    def test_h_follows_exact_law(self, monkeypatch):
        # 10^6 replicates resolve a shift of 0.008 in series 22's mean h
        assert self.h_law_p_value(monkeypatch, SERIES_22, 10**6) > 1e-4

    def test_substreams_two_to_the_100_apart_fail(self, monkeypatch):
        # PCG64 states 2^100 draws apart share their low bits: step t's
        # draws then correlate with step t + 1's, row by row, and h drifts
        monkeypatch.setattr(mc, "_JUMP", 2**100)
        assert self.h_law_p_value(monkeypatch, SERIES_22, 10**6) < 1e-9


def assert_draws_as_numpy(n, p, size, seed):
    """Scan step 0 of a _Substreams seeded with `seed` draws Bin(n, p)
    `size` times as Generator.binomial does from the same PCG64 state:
    equal arrays, and an equal end state. Returns whether _inversion drew
    them (from a fresh copy of that state)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    expected = rng.binomial(n, p, size)
    streams = mc._Substreams(seed)
    drawn = streams.binomial(0, n, p, size)
    note = f"Bin({n}, {p!r}), {size} rows, seed {seed}, numpy {np.__version__}"
    assert drawn.dtype == expected.dtype and np.array_equal(drawn, expected), note
    assert streams._bits.state == rng.bit_generator.state, note
    return mc._inversion(np.random.Generator(np.random.PCG64(seed)), n, p, size) is not None


def in_inversion_regime(n, p):
    """numpy draws Bin(n, p) by inversion: p <= 1/2 and p n <= 30, or
    1 - p in their place (n = 0, p = 0 and p = 1 draw nothing or are left
    to numpy)."""
    return 0.0 < (p if p <= 0.5 else 1.0 - p) * n <= 30.0


#: Study series (1-based) whose step 0, Bin(N, S(k*)), numpy draws by
#: inversion; 22, 13 and 25 are the benchmark's small-n-sim series.
INVERSION_SERIES = (13, 20, 21, 22, 24, 25, 28, 29)
SMALL_N_SIM = (SERIES_22, SERIES_13, SeriesSpec.from_values(1.5, 0.9, 200))


def recorded_numpy_steps(monkeypatch):
    """Record the scan step of every Generator.binomial call a scan
    makes."""
    steps, current = [], []
    init, binomial = mc._Substreams.__init__, mc._Substreams.binomial

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def binomial(self, *args):
            steps.append(current[-1])
            return self.rng.binomial(*args)

    def recording_init(self, seed):
        init(self, seed)
        self._rng = Recording(self._rng)

    def stepping(self, step, *args):
        current.append(step)
        return binomial(self, step, *args)

    monkeypatch.setattr(mc._Substreams, "__init__", recording_init)
    monkeypatch.setattr(mc._Substreams, "binomial", stepping)
    return steps


class TestInversion:
    """Step 0 draws numpy's bytes: _inversion replays numpy's binomial
    inversion, and where it cannot tell a variate it leaves the call to
    numpy."""

    @pytest.mark.parametrize("n", [0, 1, 2, 29, 30, 31, 100, 200, 10**6, 2**62])
    def test_equals_numpy(self, n):
        # both sides of p N = 30 and (1 - p) N = 30, where numpy switches
        # between inversion and BTPE
        edge = 30 / n if n >= 30 else 0.5
        ps = [0.0, 1e-12, 0.5, 1 - 1e-12, 1.0, edge, 1 - edge]
        ps += [np.nextafter(p, side) for p in (edge, 1 - edge) for side in (0.0, 1.0)]
        for i, p in enumerate(ps):
            for size in (1, 2, 300, 5000, 2**16 + 1):
                used = assert_draws_as_numpy(n, p, size, seed=derive_seed(n % 2**64, i))
                assert used == in_inversion_regime(n, p), (n, p, size)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.one_of(st.integers(0, 300), st.integers(0, 2**62)), mean=st.floats(0, 40),
           upper=st.booleans(), size=st.integers(1, 600), seed=st.integers(0, 2**64 - 1))
    def test_equals_numpy_for_any_law(self, n, mean, upper, size, seed):
        # p N from 0 to 40, across numpy's switch to BTPE at 30
        p = min(mean / n, 1.0) if n else 0.5
        p = 1.0 - p if upper else p
        assert assert_draws_as_numpy(n, p, size, seed) == in_inversion_regime(n, p)

    def test_every_call_left_to_numpy_draws_numpy_bytes(self, monkeypatch):
        # with a margin of 1 every uniform is too close to tell: _inversion
        # rewinds every call, and numpy's draws follow from the same state
        monkeypatch.setattr(mc, "_MARGIN", 1.0)
        for n, p in [(1, 0.5), (100, 0.15), (200, 0.9), (10**6, 2e-5), (2**62, 1e-18)]:
            for size in (1, 300, 5000):
                assert not assert_draws_as_numpy(n, p, size, seed=size)

    @pytest.mark.parametrize("offset, drawn", [(-2.0**-45, None), (2.0**-45, None),
                                               (-2.0**-30, 0), (2.0**-30, 1)])
    def test_margin_about_the_first_partial_sum(self, offset, drawn):
        # a U within _MARGIN = 2^-40 of P_0 = (1 - p)^N, below it as above,
        # is too close to tell: the call rewinds. 2^-30 away, U gives X = 0
        # below P_0 and 1 above it
        n, p, size = 100, 0.15, 300
        bits = np.random.PCG64(5)
        start = bits.state

        class Stub:
            bit_generator = bits

            def random(self, count):
                bits.random_raw(count)
                return np.full(count, (1 - p) ** n + offset)

        found = mc._inversion(Stub(), n, p, size)
        if drawn is None:
            assert found is None
            assert bits.state == start
        else:
            assert found.tolist() == [drawn] * size

    def test_regime_covers_the_smallest_study_series(self):
        regime = [i for i, spec in enumerate(study_specs(), 1)
                  if in_inversion_regime(spec.n_papers, survival_probability(mc._scan_start(spec),
                                                                             spec.params))]
        assert regime == list(INVERSION_SERIES)

    def test_small_series_draw_step_zero_without_numpy(self, monkeypatch):
        # the gain holds only while step 0 makes no Generator.binomial call
        steps = recorded_numpy_steps(monkeypatch)
        specs = study_specs()
        runs = [(spec, 5000) for spec in SMALL_N_SIM]
        runs += [(specs[i - 1], 300) for i in INVERSION_SERIES]
        for spec, replicates in runs:
            steps.clear()
            run_replicates(spec, replicates, seed=DEFAULT_SEED)
            # the later steps still call numpy
            assert steps and 0 not in steps, spec
        # series 9: N S(k*) > 30, numpy's BTPE regime
        steps.clear()
        run_replicates(SERIES_9, 300, seed=DEFAULT_SEED)
        assert steps[0] == 0

    def test_blocks_carry_step_zero_state(self, monkeypatch):
        # 5 blocks of 1024 rows: each block's step 0 draws after the last
        runs = recorded_h(monkeypatch)
        steps = recorded_numpy_steps(monkeypatch)
        whole = run_replicates(SERIES_22, 5000, seed=DEFAULT_SEED)
        monkeypatch.setattr(mc, "_BLOCK_ROWS", 1024)
        split = run_replicates(SERIES_22, 5000, seed=DEFAULT_SEED)
        assert split == whole
        assert np.array_equal(runs[1], runs[0])
        assert 0 not in steps

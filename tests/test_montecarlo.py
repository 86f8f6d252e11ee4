"""Replicate-averaged empirical indicators of synthetic series."""

import functools
import math
import sys
import threading

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


class TestRunReplicates:
    def test_single_replicate_equals_sample_metrics(self):
        assert_equals_window_reference(SERIES_13, 1, ThresholdSet((5, 10, 20)), seed=77)

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
        assert_equals_window_reference(spec, replicates, ThresholdSet(thresholds), seed=77)

    # runs cut where sampling scheme 5 began a generator (every 64 rows)
    # and where scheme 6 begins a block of window rows (every 1024)
    @pytest.mark.parametrize("replicates", [63, 64, 65, 128, 129, 1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("n", [100, 3000])
    def test_chunk_boundaries_equal_sample_metrics(self, n, replicates):
        spec = SeriesSpec.from_values(2.1, 1.1, n)
        assert_equals_window_reference(spec, replicates, ThresholdSet((5, 10, 20, 50)), seed=77)

    def test_exact_totals_equal_sample_metrics(self):
        # a huge median: every paper is a tail paper, and the pooled tail's
        # sum passes 2^53, so it is summed as int64 in two halves
        spec = SeriesSpec.from_values(30, 2, 3000)
        assert_equals_window_reference(spec, 20, ThresholdSet((5, 1e9, 1e13)), seed=5)

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
    """Record the stream index of every generator montecarlo seeds, with
    the thread that seeds it."""
    streams = []

    def recording(master, index):
        streams.append((threading.get_ident(), index))
        return derive_seed(master, index)

    monkeypatch.setattr(mc, "derive_seed", recording)
    return streams


def recorded_blocks(monkeypatch, planted=None):
    """Record the thread and the row count of every block of window rows
    that montecarlo reduces to h; before reducing one, call
    `planted(thread, index)` with the block's index among that thread's
    blocks."""
    blocks = []
    lock = threading.Lock()
    h_of_cells = mc._h_of_cells

    def recording(cells, *args):
        if cells.ndim == 2:
            me = threading.get_ident()
            with lock:
                index = sum(thread == me for thread, _ in blocks)
                blocks.append((me, len(cells)))
            if planted:
                planted(me, index)
        return h_of_cells(cells, *args)

    monkeypatch.setattr(mc, "_h_of_cells", recording)
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
    are seeded on the calling thread, and the blocks of window rows and
    the pieces of the pooled tail are drawn in order, each once."""

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
        total = assert_equals_window_reference(spec, 130, thresholds, seed=77)
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
        assert_equals_window_reference(spec, replicates, ThresholdSet(thresholds), seed, workers=2)

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
        # all window rows; a draw reaches 2^63 in some piece after the
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
            assert streams == [(me, 0), (me, 1)]
            assert len(runs[0]) == replicates
            assert summary == run_replicates(spec, replicates, seed=77)

    def test_no_block_before_the_failed_one_is_skipped(self, monkeypatch):
        # every block from the sixth on fails
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
        assert [index for _, index in streams] == [0, 1]
        # each block before it drew its 1024 window rows
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
    # cuts at series 1's window edges L = 47 and U = 74 and half a count
    # either side of them
    @example(xs=[46.5, 47.0, 47.5])
    @example(xs=[73.5, 74.0, 74.5])
    @example(xs=[5.5, 2.0**30, 2.0**31 - 1])
    def test_count_at_least_on_int32_matches_naive(self, xs):
        # a study series: every count is far inside int32
        assert_counts_match_naive(SERIES_1, xs)

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


# the window [L, U) lies near h = 2580, so each replicate has about 2500
# tail papers; a run's pooled tail sum passes 2^62
HEAVY_TAIL = SeriesSpec.from_values(2, 9, 10_000)


def conditioned_normals(rng, a, count):
    """`count` standard normals conditioned on z >= a, as sampling schemes
    5 and 6 draw them: rounds of ceil((1.1 r + 8) / rate) candidates, r the
    number still needed, by Marsaglia's method (x = sqrt(a^2 - 2 ln(1 - U1)),
    kept when U2 x < a) where it accepts more than plain rejection."""
    plain = 0.5 * math.erfc(a / math.sqrt(2.0))
    marsaglia = a * math.sqrt(2.0 * math.pi) * math.exp(0.5 * a * a) * plain if a > 0 else 0.0
    rate = max(plain, marsaglia)
    kept = []
    while count > sum(map(len, kept)):
        m = math.ceil((1.1 * (count - sum(map(len, kept))) + 8) / rate)
        if marsaglia > plain:
            u1, u2 = rng.random((2, m))
            x = np.sqrt(a * a - 2.0 * np.log1p(-u1))
            kept.append(x[u2 * x < a])
        else:
            z = rng.standard_normal(m)
            kept.append(z[z >= a])
    return np.concatenate(kept)[:count] if kept else np.empty(0)


def reference_window_run(spec, replicates, seed):
    """Sampling scheme v6, drawn independently of montecarlo but for the
    window [L, U) (mc._window): each replicate's h, and every paper of the
    run.

    Stream derive_seed(seed, 0) draws the window rows over
    [1 - S(L), p_L .. p_{U-1}, S(U)], all in one call. Stream
    derive_seed(seed, 1) draws, in row order, each row whose h lies below
    L its papers below L over p_0 .. p_{L-1}, or each row whose h lies at
    U or above its papers at U or more over p_U .. p_{K'-1} and S(K'),
    K' = max(U, 256), and their tail; then the other rows' papers below
    L, pooled, and their papers at U or more, pooled; last the pool's
    tail, in pieces of 2^16 papers.
    """
    low, high = mc._window(spec)
    top = max(high, 256)
    mu, sigma, n = spec.params.mu, spec.params.sigma, spec.n_papers
    survival = [1.0] + [0.5 * math.erfc((math.log(k) - mu) / (sigma * math.sqrt(2.0)))
                        for k in range(1, top + 1)]
    p = np.array([s - t for s, t in zip(survival, survival[1:])] + [survival[-1]])
    window_p = np.concatenate(([p[:low].sum()], p[low:high], [p[high:].sum()]))
    below_p = p[:low] / p[:low].sum() if p[:low].sum() > 0 else p[:low]
    above_p = p[high:] / p[high:].sum() if p[high:].sum() > 0 else p[high:]
    a = (math.log(top) - mu) / sigma

    def tail(rng, count):
        x = np.exp(mu + sigma * conditioned_normals(rng, a, count))
        assert x.max() < 2**63
        return np.maximum(np.floor(x).astype(np.int64), top)

    window = np.random.default_rng(derive_seed(seed, 0)).multinomial(n, window_p, size=replicates)
    rng = np.random.default_rng(derive_seed(seed, 1))
    h_values, cells, tails = [], np.zeros(top, dtype=np.int64), []
    pooled_below = pooled_above = 0
    for row in window:
        cells[low:high] += row[1:-1]
        # G(k) = papers with k citations or more, for k = L .. U
        at_least = {k: int(row[k - low + 1 :].sum()) for k in range(low, high + 1)}
        if at_least[high] >= high:
            counts = rng.multinomial(row[-1], above_p)
            cells[high:] += counts[:-1]
            papers = np.concatenate([np.repeat(np.arange(high, top), counts[:-1]),
                                     tail(rng, counts[-1]) if counts[-1] else np.empty(0, np.int64)])
            tails.append(papers[len(papers) - counts[-1] :])
            ranked = np.sort(papers)[::-1]
            h_values.append(int(np.count_nonzero(ranked >= np.arange(1, len(ranked) + 1))))
            pooled_below += row[0]
        elif at_least[low] < low:
            counts = rng.multinomial(row[0], below_p)
            cells[:low] += counts
            at_least = {k: at_least[low] + int(counts[k:].sum()) for k in range(low)}
            h_values.append(max(k for k in range(low) if at_least[k] >= k))
            pooled_above += row[-1]
        else:
            h_values.append(max(k for k in range(low, high) if at_least[k] >= k))
            pooled_below += row[0]
            pooled_above += row[-1]
    if pooled_below:
        cells[:low] += rng.multinomial(pooled_below, below_p)
    if pooled_above:
        counts = rng.multinomial(pooled_above, above_p)
        cells[high:] += counts[:-1]
        for done in range(0, counts[-1], 2**16):
            tails.append(tail(rng, min(2**16, counts[-1] - done)))
    papers = np.concatenate([np.repeat(np.arange(top), cells), *tails])
    return np.array(h_values), papers


def assert_equals_window_reference(spec, replicates, thresholds, seed, workers=1):
    """run_replicates equals reference_window_run exactly: h averaged
    over the replicates, and the citation total and threshold counts of
    all the run's papers, summed exactly, over the replicate count. With
    `workers` > 1, so does each of that many runs on threads at once."""
    h, papers = reference_window_run(spec, replicates, seed)
    total = sum(papers.tolist())
    run = lambda: run_replicates(spec, replicates, thresholds, seed)
    for summary in concurrent_runs(workers, run) if workers > 1 else [run()]:
        assert summary.h_mean == float(h.mean())
        assert summary.h_stddev == (float(h.std(ddof=1)) if replicates > 1 else 0.0)
        assert summary.sum_citations_mean == total / replicates
        assert summary.counts_above == {
            x: np.count_nonzero(papers >= x) / replicates for x in thresholds}
    return total


# papers from 0 to beyond 10^16 citations, a third of them at K' = 256
# or more
WIDE_SPAN = SeriesSpec.from_values(2, 9, 300)


@functools.lru_cache
def reference_papers(spec):
    """Every paper of reference_window_run's 64 replicates at seed 26."""
    return reference_window_run(spec, 64, seed=26)[1]


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


def narrow_window(monkeypatch, spec, width):
    """Force the window to `width` counts around k*, so that most rows'
    h lie outside it and both refinements run."""
    low = central_h(spec) - (width - 1) // 2
    monkeypatch.setattr(mc, "_window", lambda spec: (low, low + width))


def recorded_h(monkeypatch):
    """Record each window run's per-replicate h."""
    runs = []
    window_replicates = mc._window_replicates

    def recording(*args):
        result = window_replicates(*args)
        runs.append(result[0].copy())
        return result

    monkeypatch.setattr(mc, "_window_replicates", recording)
    return runs


class TestHistograms:
    """Every spec draws each replicate's papers inside a window [L, U)
    around h one count at a time and pools the rest of the run
    (sampling scheme v6)."""

    def test_bin_counts(self, monkeypatch):
        # K' = max(U, 256) for every spec, series 22, 13 and 25 and huge
        # medians included; U sets it where h lies near 256 or above
        tops = []
        bin_probabilities = mc._bin_probabilities

        def recording(params, bins):
            tops.append(bins)
            return bin_probabilities(params, bins)

        monkeypatch.setattr(mc, "_bin_probabilities", recording)
        specs = [SERIES_1, SERIES_9, SERIES_22, SERIES_13, SeriesSpec.from_values(1.5, 0.9, 200),
                 SeriesSpec.from_values(6, 1.5, 1000), SeriesSpec.from_values(30, 2, 3000)]
        for spec in specs:
            run_replicates(spec, 1, seed=1)
        assert tops == [256] * 5 + [mc._window(specs[5])[1], 3001]

    def test_windows(self):
        # 4 standard deviations of h on either side of k*
        assert mc._window(SERIES_1) == (47, 74)
        assert mc._window(SERIES_9) == (106, 133)
        assert mc._window(SERIES_2) == (127, 162)
        assert mc._window(SERIES_22) == (9, 22)
        # each side capped at 128 counts
        assert mc._window(HEAVY_TAIL) == (2448, 2705)
        # within [0, N + 1): sigma -> 0 gives one count, N = 1 gives h = 0
        # or 1, and a huge median gives h = N
        assert mc._window(SeriesSpec.from_values(2, 1e-9, 10_000)) == (7, 8)
        assert mc._window(SeriesSpec.from_values(2, 1, 1)) == (0, 1)
        assert mc._window(SeriesSpec.from_values(30, 2, 3000)) == (3000, 3001)
        for spec in study_specs():
            low, high = mc._window(spec)
            assert 0 <= low <= central_h(spec) < high <= spec.n_papers + 1
            assert high - low <= 35, spec

    def test_study_rows_rarely_leave_the_window(self, monkeypatch):
        # 3 to 4 rows in 10^5 fall outside a 4-sd window
        runs = recorded_h(monkeypatch)
        windows = []
        for spec in study_specs():
            windows.append(mc._window(spec))
            run_replicates(spec, 2000, seed=DEFAULT_SEED)
        outside = sum(np.count_nonzero((h < low) | (h >= high))
                      for h, (low, high) in zip(runs, windows))
        assert outside < 0.001 * 30 * 2000

    def test_bin_probabilities_equal_survival_differences(self):
        specs = [*study_specs(), HEAVY_TAIL, SeriesSpec.from_values(30, 2, 3000),
                 SeriesSpec.from_values(2, 1e-9, 10_000), SeriesSpec.from_values(2, 1, 1)]
        for spec in specs:
            top = max(mc._window(spec)[1], mc._MAX_BINS)
            survival = [1.0] + [survival_probability(k, spec.params) for k in range(1, top + 1)]
            expected = np.array([s - t for s, t in zip(survival, survival[1:])] + [survival[-1]])
            assert mc._bin_probabilities(spec.params, top).tobytes() == expected.tobytes(), spec

    @pytest.mark.parametrize(
        "spec, replicates",
        [
            (SERIES_1, 200),
            (SERIES_9, 70),
            (SeriesSpec.from_values(2.1, 1.1, 2**15 + 1), 3),
            (SERIES_22, 300),
            (SERIES_13, 300),
        ],
        ids=["series-1", "series-9", "n-2^15+1", "series-22", "series-13"],
    )
    def test_equals_reference(self, spec, replicates):
        assert_equals_window_reference(spec, replicates, DEFAULT_THRESHOLDS, seed=77)

    # scheme 5's chunk and scheme 6's block boundaries, as in
    # TestRunReplicates
    @pytest.mark.parametrize("replicates", [63, 64, 65, 129, 1023, 1024, 1025, 2049])
    def test_chunk_boundaries_equal_reference(self, replicates):
        spec = SeriesSpec.from_values(2.1, 1.1, 3000)
        thresholds = ThresholdSet((0.5, 5, 10.5, 50, 1e15))
        assert_equals_window_reference(spec, replicates, thresholds, seed=77)

    @pytest.mark.parametrize(
        "spec, width",
        [
            # K' = 256 > U: high rows' h can come from their bins above U
            (SERIES_1, 1),
            (SERIES_1, 2),
            (SERIES_9, 3),
            (SERIES_9, 4),
            (SeriesSpec.from_values(2.1, 1.1, 40), 1),
            # h ~ 460, so K' = U: tail papers decide h whenever G(U) >= U
            (SeriesSpec.from_values(6, 1.5, 1000), 1),
        ],
        ids=["series-1-width-1", "series-1-width-2", "series-9-width-3", "series-9-width-4",
             "n-40-width-1", "k-prime-u-width-1"],
    )
    def test_narrow_window_equals_reference(self, monkeypatch, spec, width):
        narrow_window(monkeypatch, spec, width)
        runs = recorded_h(monkeypatch)
        thresholds = ThresholdSet((2, 5, 10, 50, 61, 100, 500))
        assert_equals_window_reference(spec, 130, thresholds, seed=3)
        low, high = mc._window(spec)
        # both refinements ran, on most rows
        assert np.count_nonzero(runs[0] < low) > 10
        assert np.count_nonzero(runs[0] >= high) > 10
        assert np.count_nonzero((runs[0] < low) | (runs[0] >= high)) > 65

    def test_first_replicates_independent_of_replicate_count(self, monkeypatch):
        # with the default window, then with one of 2 counts, where most
        # rows draw their own breakdown before the run's pooled draws;
        # 1025 and 2100 replicates end in different blocks
        for width in (None, 2):
            with monkeypatch.context() as patch:
                if width:
                    narrow_window(patch, SERIES_1, width)
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
        h_of_cells = mc._h_of_cells

        def recording(*args):
            threads.add(threading.get_ident())
            assert threading.active_count() == before
            return h_of_cells(*args)

        monkeypatch.setattr(mc, "_h_of_cells", recording)
        for spec in (SERIES_9, SERIES_22):
            run_replicates(spec, 300, seed=1)
        assert threads == {threading.get_ident()}

    def test_exact_totals_equal_reference(self):
        # the run's pooled tail sums past 2^62, in Python ints, and the
        # run's total passes 2^63 with no draw reaching it (seeds 1 and 2
        # draw one that does in their first 64 replicates)
        total = assert_equals_window_reference(
            HEAVY_TAIL, 64, ThresholdSet((5, 1e9, 1e18)), seed=3)
        assert total >= 2**63

    def test_exact_totals_in_int64_equal_reference(self):
        total = assert_equals_window_reference(
            HEAVY_TAIL, 64, ThresholdSet((5, 1e9, 1e18)), seed=26)
        assert total < 2**63

    def test_tail_papers_rounded_below_k_prime_count_k_prime(self, monkeypatch):
        # a normal just below a = (ln K' - mu) / sigma gives a draw just
        # below K', which exp's rounding can also do; such a tail paper
        # counts K' citations, as one drawn at K' + 1/2 does
        mu, sigma = SERIES_1.params.mu, SERIES_1.params.sigma
        top = max(mc._window(SERIES_1)[1], mc._MAX_BINS)
        edge = (math.log(top) - mu) / sigma
        while np.exp(np.float64(edge) * sigma + mu) >= top:
            edge = math.nextafter(edge, -math.inf)
        summaries = []
        for z in (edge, (math.log(top + 0.5) - mu) / sigma):
            monkeypatch.setattr(mc, "_conditioned_normals", lambda rng, a, count: np.full(count, z))
            summaries.append(run_replicates(SERIES_1, 130, seed=3))
        assert summaries[0] == summaries[1]

    def test_rejects_tail_counts_beyond_int64(self):
        # about one replicate in 55 draws a paper past 2^63
        with pytest.raises(ValueError, match="2\\^63"):
            run_replicates(HEAVY_TAIL, 640, seed=1)


class TestBlocks:
    """The rows stream draws the window rows in blocks of _BLOCK_ROWS,
    row after row, so no output depends on the block size; the rest
    stream draws the pooled tail in pieces of at most _TAIL_PIECE papers.
    A run holds one block of window rows and one tail piece at a time."""

    @pytest.mark.parametrize("width", [None, 2])
    def test_independent_of_block_rows(self, monkeypatch, width):
        # with a window of 2 counts most rows draw their own breakdown
        if width:
            narrow_window(monkeypatch, SERIES_1, width)
        runs = recorded_h(monkeypatch)
        summaries = []
        for size in (1, 7, 1024):
            with monkeypatch.context() as patch:
                patch.setattr(mc, "_BLOCK_ROWS", size)
                blocks = recorded_blocks(patch)
                summaries.append(run_replicates(SERIES_1, 2100, seed=5))
            assert max(rows for _, rows in blocks) == size
            assert sum(rows for _, rows in blocks) == 2100
        assert summaries[0] == summaries[1] == summaries[2]
        assert (runs[0] == runs[1]).all() and (runs[0] == runs[2]).all()

    def test_pooled_tail_drawn_in_bounded_pieces(self, monkeypatch):
        # a huge median: each of the 20,000 replicates' 3000 papers is a
        # pooled tail paper
        spec = SeriesSpec.from_values(30, 2, 3000)
        pieces = recorded_tail_pieces(monkeypatch)
        run_replicates(spec, 20_000, seed=DEFAULT_SEED)
        asked = [count for count, _ in pieces]
        assert sum(asked) == 3000 * 20_000
        assert max(asked) <= mc._TAIL_PIECE
        assert asked[:-1] == [mc._TAIL_PIECE] * (len(asked) - 1)


class TestWindowDomain:
    """The window path holds for every valid spec, N = 1, sigma -> 0,
    h = N and huge medians included."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        mu=st.floats(-50.0, 50.0),
        log_sigma=st.floats(math.log(1e-9), math.log(10.0)),
        n=st.integers(1, 10**4),
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
    def test_summary_is_bounded_or_overflows(self, mu, log_sigma, n, replicates, seed):
        spec = SeriesSpec.from_values(mu, math.exp(log_sigma), n)
        low, high = mc._window(spec)
        assert 0 <= low < high <= n + 1
        try:
            summary = run_replicates(spec, replicates, DEFAULT_THRESHOLDS, seed)
        except ValueError as exc:
            assert "2^63" in str(exc)
            return
        assert 0 <= summary.h_mean <= n
        assert summary.h_stddev >= 0
        assert summary.sum_citations_mean >= 0
        counts = list(summary.counts_above.values())
        assert all(0 <= count <= n for count in counts)
        assert counts == sorted(counts, reverse=True)


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
    are nearly the whole sum."""
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
    the default windows and with windows forced narrow; tampered draws do
    not."""

    REPLICATES = 20_000

    @pytest.mark.parametrize(
        "spec",
        [SERIES_1, SERIES_9, SERIES_22, SERIES_2, SERIES_13, SeriesSpec.from_values(1.5, 0.9, 200),
         SeriesSpec.from_values(30, 2, 3000)],
        ids=["series-1", "series-9", "series-22", "series-2", "series-13", "series-25",
             "huge-median"])
    def test_within_five_standard_errors(self, spec):
        summary = run_replicates(spec, self.REPLICATES, seed=DEFAULT_SEED)
        scores = z_scores(summary, exact_law(spec, DEFAULT_THRESHOLDS))
        assert max(map(abs, scores.values())) <= 5, scores

    @pytest.mark.parametrize("width", [1, 4])
    def test_narrow_window_within_five_standard_errors(self, monkeypatch, width):
        # most rows draw their own breakdown below L or above U
        assert max(map(abs, self.narrow_scores(monkeypatch, width).values())) <= 5

    def narrow_scores(self, monkeypatch, width):
        narrow_window(monkeypatch, SERIES_9, width)
        summary = run_replicates(SERIES_9, self.REPLICATES, seed=DEFAULT_SEED)
        return z_scores(summary, exact_law(SERIES_9, DEFAULT_THRESHOLDS))

    def tampered_scores(self):
        summary = run_replicates(SERIES_9, self.REPLICATES, seed=DEFAULT_SEED)
        return z_scores(summary, exact_law(SERIES_9, DEFAULT_THRESHOLDS))

    def shifted_scores(self, monkeypatch, counts):
        """Scores with the papers of each of `counts` counted one lower."""
        bin_probabilities = mc._bin_probabilities

        def shifted(params, bins):
            p = bin_probabilities(params, bins).copy()
            for k in counts:
                p[k - 1], p[k] = p[k - 1] + p[k], 0.0
            return p

        monkeypatch.setattr(mc, "_bin_probabilities", shifted)
        return self.tampered_scores()

    def test_bin_shifted_by_one_fails(self, monkeypatch):
        # the papers of count 10 counted as 9: below series 9's window
        # [106, 133), so in every row's pooled breakdown below L
        assert 10 < mc._window(SERIES_9)[0]
        assert max(map(abs, self.shifted_scores(monkeypatch, [10]).values())) > 5

    def test_window_shifted_by_one_fails(self, monkeypatch):
        # every count of the window counted one lower in every window row,
        # which moves h
        low, high = mc._window(SERIES_9)
        assert max(map(abs, self.shifted_scores(monkeypatch, range(low, high)).values())) > 5

    def test_unconditioned_tail_fails(self, monkeypatch):
        monkeypatch.setattr(
            mc, "_conditioned_normals", lambda rng, a, count: rng.standard_normal(count))
        assert max(map(abs, self.tampered_scores().values())) > 5

    def test_refined_row_left_out_fails(self, monkeypatch):
        refined_row = mc._refined_row

        def left_out(rng, count, base, first, probabilities, hist):
            # drawn, and used for the row's h, but counted nowhere
            return refined_row(rng, count, base, first, probabilities, np.zeros_like(hist))

        monkeypatch.setattr(mc, "_refined_row", left_out)
        assert max(map(abs, self.narrow_scores(monkeypatch, 1).values())) > 5

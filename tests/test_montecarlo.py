"""Replicate-averaged empirical indicators of synthetic series."""

import math
import sys
import threading
import types

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


@pytest.fixture
def per_paper(monkeypatch):
    """Every spec takes K = 0 bins: the per-paper kernel, whose stream is
    seeding scheme 2's."""
    monkeypatch.setattr(mc, "_bin_count", lambda spec: 0)


def reference_counts(spec, replicates, seed):
    """Each replicate's counts, sorted descending, on the per-paper path
    (K = 0) drawn independently of montecarlo: chunk j's rows in one call
    from default_rng(derive_seed(seed, j)), then floor(exp(mu + sigma * z))."""
    n, chunk = spec.n_papers, 64
    rows = [
        np.random.default_rng(derive_seed(seed, j)).standard_normal(
            (min(chunk, replicates - j * chunk), n))
        for j in range(-(-replicates // chunk))
    ]
    z = np.concatenate(rows)
    counts = np.floor(np.exp(spec.params.mu + spec.params.sigma * z)).astype(np.int64)
    return -np.sort(-counts, axis=1)


def assert_equals_sample_metrics(spec, replicates, thresholds, seed, reference=reference_counts):
    """run_replicates equals its per-replicate reference exactly: the
    counts of `reference`, measured row by row with plain numpy and
    averaged the same way."""
    summary = run_replicates(spec, replicates, thresholds, seed)
    counts = reference(spec, replicates, seed)
    h = np.array([np.count_nonzero(row >= np.arange(1, row.size + 1)) for row in counts])
    # exact Python-int sums, in float64 only when one passes int64
    exact = [sum(row.tolist()) for row in counts]
    totals = np.array(exact, dtype=np.int64 if max(exact) < 2**63 else np.float64)
    above = np.array([[np.count_nonzero(row >= x) for x in thresholds] for row in counts])
    assert summary.h_mean == float(h.mean())
    assert summary.h_stddev == (float(h.std(ddof=1)) if replicates > 1 else 0.0)
    assert summary.sum_citations_mean == float(totals.mean())
    assert summary.counts_above == {x: float(v) for x, v in zip(thresholds, above.mean(axis=0))}


class TestRunReplicates:
    @pytest.mark.usefixtures("per_paper")
    def test_single_replicate_equals_sample_metrics(self):
        assert_equals_sample_metrics(SERIES_13, 1, ThresholdSet((5, 10, 20)), seed=77)

    @pytest.mark.parametrize(
        "n, replicates, thresholds",
        [
            # a single partial block of 32768 rows
            (1, 300, (0.5, 1, 2.5, 7)),
            # blocks of 327 rows, the last one holding 46
            (100, 700, (0.5, 5, 10.5, 20, 100)),
            # one row per block at N = B, then rows longer than B
            (mc._BLOCK_ELEMENTS, 3, (5, 10, 20, 50, 100, 500)),
            (mc._BLOCK_ELEMENTS + 1, 2, (5, 10, 20, 50, 100, 500)),
            # cuts too large for lifted keys: counted threshold by threshold
            (100, 400, (5, 10, 1e15)),
            # a lifted stride of 2^40 + 1
            (1, 50, (1, 2**40)),
        ],
    )
    @pytest.mark.usefixtures("per_paper")
    def test_blocks_equal_sample_metrics(self, n, replicates, thresholds):
        spec = SeriesSpec.from_values(2.1, 1.1, n)
        assert_equals_sample_metrics(spec, replicates, ThresholdSet(thresholds), seed=77)

    @pytest.mark.parametrize("replicates", [63, 64, 65, 128, 129])
    @pytest.mark.parametrize(
        "n",
        [
            # chunk boundaries inside one block of 327 rows
            100,
            # blocks of 10 rows: a chunk spans several blocks
            3000,
        ],
    )
    @pytest.mark.usefixtures("per_paper")
    def test_chunk_boundaries_equal_sample_metrics(self, n, replicates):
        spec = SeriesSpec.from_values(2.1, 1.1, n)
        assert_equals_sample_metrics(spec, replicates, ThresholdSet((5, 10, 20, 50)), seed=77)

    @pytest.mark.parametrize("block_elements", [1, 150, 2**15])
    @pytest.mark.usefixtures("per_paper")
    def test_independent_of_block_size(self, monkeypatch, block_elements):
        spec = SeriesSpec.from_values(2.1, 1.1, 50)
        expected = run_replicates(spec, 150, seed=9)
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", block_elements)
        assert run_replicates(spec, 150, seed=9) == expected

    @pytest.mark.usefixtures("per_paper")
    def test_exact_totals_equal_sample_metrics(self):
        # N times the largest draw exceeds 2^62, so the totals are summed
        # in Python ints; each still fits in int64
        spec = SeriesSpec.from_values(30, 2, 3000)
        assert_equals_sample_metrics(spec, 20, ThresholdSet((5, 1e9, 1e13)), seed=5)

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


def summaries_by_workers(monkeypatch, spec, replicates, thresholds=ThresholdSet((5, 10, 20, 50)),
                         seed=77, workers=(1, 2, 3)):
    """run_replicates with the CPU count forced to each of `workers`."""
    summaries = []
    for count in workers:
        monkeypatch.setattr(mc, "_cpu_count", lambda: count)
        summaries.append(run_replicates(spec, replicates, thresholds, seed))
    return summaries


@pytest.mark.usefixtures("per_paper")
class TestWorkers:
    """Units of whole chunks run on one thread per CPU (mc._cpu_count);
    the summary must not depend on how many there are. Run on the
    per-paper path; the window path runs on the calling thread
    (TestHistograms)."""

    @pytest.mark.parametrize("replicates", [63, 64, 65, 129, 300])
    @pytest.mark.parametrize(
        "n",
        [
            # one block holds many chunks
            100,
            # blocks of 10 rows: a chunk spans several blocks
            3000,
        ],
    )
    def test_summary_independent_of_worker_count(self, monkeypatch, n, replicates):
        spec = SeriesSpec.from_values(2.1, 1.1, n)
        serial, *threaded = summaries_by_workers(monkeypatch, spec, replicates)
        assert all(summary == serial for summary in threaded)

    @pytest.mark.parametrize("mu", [33.96, 36])
    def test_exact_totals_independent_of_worker_count(self, monkeypatch, mu):
        # each total is near or beyond 2^63: blocks of 3 rows return their
        # totals as int64 or, when one passes 2^63, as float64
        dtypes = set()
        row_sums = mc._row_sums

        def recording(counts, top):
            sums = row_sums(counts, top)
            dtypes.add(sums.dtype.type)
            return sums

        monkeypatch.setattr(mc, "_row_sums", recording)
        spec = SeriesSpec.from_values(mu, 1, 10_000)
        serial, *threaded = summaries_by_workers(monkeypatch, spec, 130, ThresholdSet((5, 1e15)))
        assert all(summary == serial for summary in threaded)
        assert np.float64 in dtypes
        assert (np.int64 in dtypes) == (mu < 35)
        assert serial.sum_citations_mean == pytest.approx(10_000 * math.exp(mu + 0.5), rel=0.02)

    @pytest.mark.parametrize(
        "mu, sigma, n, replicates, thresholds",
        [
            # the cases of the sample-metrics tests above
            (2.1, 1.1, 200, 1, (5, 10, 20)),
            (2.1, 1.1, 1, 300, (0.5, 1, 2.5, 7)),
            (2.1, 1.1, 100, 700, (0.5, 5, 10.5, 20, 100)),
            (2.1, 1.1, mc._BLOCK_ELEMENTS, 3, (5, 10, 20, 50, 100, 500)),
            (2.1, 1.1, mc._BLOCK_ELEMENTS + 1, 2, (5, 10, 20, 50, 100, 500)),
            (2.1, 1.1, 100, 400, (5, 10, 1e15)),
            (2.1, 1.1, 1, 50, (1, 2**40)),
            (2.1, 1.1, 100, 129, (5, 10, 20, 50)),
            (2.1, 1.1, 3000, 129, (5, 10, 20, 50)),
            (30, 2, 3000, 20, (5, 1e9, 1e13)),
        ],
    )
    def test_two_workers_equal_sample_metrics(self, monkeypatch, mu, sigma, n, replicates, thresholds):
        monkeypatch.setattr(mc, "_cpu_count", lambda: 2)
        seed = 5 if mu == 30 else 77
        spec = SeriesSpec.from_values(mu, sigma, n)
        assert_equals_sample_metrics(spec, replicates, ThresholdSet(thresholds), seed)

    def test_more_workers_than_cores_with_frequent_switches(self, monkeypatch):
        spec = SeriesSpec.from_values(1.7, 1.0, 100)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            serial, threaded = summaries_by_workers(monkeypatch, spec, 5000, workers=(1, 8))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_failed_helper_stops_the_run(self, monkeypatch):
        # a fault planted in the helpers only; the caller's first block
        # waits until a helper has failed and exited, which it does only
        # after setting the run's stop flag, so a helper fails every time
        # and the caller sees the flag before it could take another unit
        caller = threading.current_thread()
        helper_failed = threading.Event()
        failed_helpers = []
        caller_blocks = []
        floor_exp = mc._floor_exp

        def planted(z, spec):
            if threading.current_thread() is not caller:
                failed_helpers.append(threading.current_thread())
                helper_failed.set()
                raise ValueError("planted in a helper")
            assert helper_failed.wait(timeout=60)
            failed_helpers[0].join(timeout=60)
            assert not failed_helpers[0].is_alive()
            caller_blocks.append(len(z))
            return floor_exp(z, spec)

        monkeypatch.setattr(mc, "_floor_exp", planted)
        monkeypatch.setattr(mc, "_cpu_count", lambda: 3)
        spec = SeriesSpec.from_values(2.1, 1.1, 10)
        before = threading.active_count()
        with pytest.raises(ValueError, match="planted in a helper"):
            # 10,000 replicates of N = 10 make 4 units of one block each
            run_replicates(spec, 10_000, seed=3)
        assert threading.active_count() == before
        # the caller finished the unit it held, then took no other
        assert len(caller_blocks) == 1

    @pytest.mark.parametrize("workers", [2, 3])
    def test_earliest_failed_unit_is_reported(self, monkeypatch, workers):
        # the first draw to reach 2^63 lies in the fourth unit, and later
        # units fail with other values
        spec = SeriesSpec.from_values(39.4, 1, 10)
        messages = []
        for count in (1, workers):
            monkeypatch.setattr(mc, "_cpu_count", lambda: count)
            with pytest.raises(ValueError, match="2\\^63") as failure:
                run_replicates(spec, 100_000, seed=DEFAULT_SEED)
            messages.append(str(failure.value))
        assert messages[1] == messages[0]

    @staticmethod
    def late_flag_reads(monkeypatch, fail=False):
        """Make helpers read the stop flag only once the caller has set it,
        and hold the caller's first unit until a helper is reading it.

        A unit a helper took before that read would be left unrun. Returns
        the (first, last) replicate range of every unit run; with `fail`,
        each unit raises ValueError naming its first replicate instead.
        """
        caller = threading.get_ident()
        helper_reading = threading.Event()
        ranges = []
        normal_blocks = mc._normal_blocks

        class LateEvent(threading.Event):
            def is_set(self):
                if threading.get_ident() != caller:
                    helper_reading.set()
                    self.wait(timeout=60)
                return super().is_set()

        def recording(draws, first, last, seed):
            if threading.get_ident() == caller:
                assert helper_reading.wait(timeout=60)
            ranges.append((first, last))
            if fail:
                raise ValueError(f"unit at replicate {first}")
            return normal_blocks(draws, first, last, seed)

        late = types.SimpleNamespace(Event=LateEvent, Thread=threading.Thread)
        monkeypatch.setattr(mc, "threading", late)
        monkeypatch.setattr(mc, "_normal_blocks", recording)
        monkeypatch.setattr(mc, "_cpu_count", lambda: 2)
        return ranges

    def test_every_unit_taken_is_run(self, monkeypatch):
        spec = SeriesSpec.from_values(2.1, 1.1, 100)
        ranges = self.late_flag_reads(monkeypatch)
        threaded = run_replicates(spec, 1000, seed=77)
        monkeypatch.undo()
        # 1000 replicates of N = 100 make 4 units of 320 replicates or fewer
        assert sorted(ranges) == [(0, 320), (320, 640), (640, 960), (960, 1000)]
        assert threaded == run_replicates(spec, 1000, seed=77)

    def test_no_unit_before_the_failed_one_is_skipped(self, monkeypatch):
        spec = SeriesSpec.from_values(2.1, 1.1, 100)
        self.late_flag_reads(monkeypatch, fail=True)
        before = threading.active_count()
        with pytest.raises(ValueError, match="unit at replicate 0$"):
            run_replicates(spec, 1000, seed=77)
        assert threading.active_count() == before


def recorded_dtypes(monkeypatch, name):
    """Patch montecarlo's `name` to record the dtype of each block it gets."""
    dtypes = []
    original = getattr(mc, name)

    def recording(counts, *args):
        dtypes.append(counts.dtype.type)
        return original(counts, *args)

    monkeypatch.setattr(mc, name, recording)
    return dtypes


@pytest.mark.usefixtures("per_paper")
class TestCountDtypes:
    """A per-paper block is counted in int32 while its lifted keys, rows x
    (largest count or cut + 1), stay below 2^31, and in int64 from there
    on; the summary must not depend on which."""

    # e^15 is 3.3e6: about one block of 10 rows of 3000 papers in three
    # holds a draw of 2^31 / 10 or more
    STRADDLING = SeriesSpec.from_values(15, 1, 3000)
    # cuts well below that bound
    STRADDLING_THRESHOLDS = ThresholdSet((1e5, 1e6, 1e7))

    def test_blocks_straddling_int32_equal_sample_metrics(self, monkeypatch):
        dtypes = recorded_dtypes(monkeypatch, "_row_sums")
        assert_equals_sample_metrics(self.STRADDLING, 200, self.STRADDLING_THRESHOLDS, seed=77)
        assert set(dtypes) == {np.int32, np.int64}

    def test_blocks_straddling_int32_independent_of_worker_count(self, monkeypatch):
        dtypes = recorded_dtypes(monkeypatch, "_row_sums")
        serial, *threaded = summaries_by_workers(
            monkeypatch, self.STRADDLING, 200, self.STRADDLING_THRESHOLDS)
        assert all(summary == serial for summary in threaded)
        assert set(dtypes) == {np.int32, np.int64}

    def test_lifted_keys_beyond_int32_equal_sample_metrics(self, monkeypatch):
        # 327 rows lifted by 10^7 + 1 reach 3.3e9: past 2^31, far below 2^53
        dtypes = recorded_dtypes(monkeypatch, "_count_at_least")
        spec = SeriesSpec.from_values(2.1, 1.1, 100)
        assert_equals_sample_metrics(spec, 400, ThresholdSet((5, 10, 1e7)), seed=77)
        assert np.int64 in dtypes

    def test_study_blocks_are_int32(self, monkeypatch):
        for spec in study_specs():
            with monkeypatch.context() as patch:
                dtypes = recorded_dtypes(patch, "_count_at_least")
                run_replicates(spec, 130, seed=DEFAULT_SEED)
            assert dtypes and set(dtypes) == {np.int32}, spec


class TestBlockReductions:
    @given(
        st.lists(
            st.lists(st.integers(0, 600) | st.integers(0, 2**62), min_size=4, max_size=4),
            min_size=1, max_size=6,
        ),
        st.lists(
            st.floats(min_value=1e-3, max_value=1e19, allow_nan=False), min_size=1, max_size=5,
            unique=True,
        ),
    )
    # numpy compares int64 with a float in float64, where 2^54 - 1 rounds up
    # to 2^54; the lifted integer keys must not be used there
    @example(rows=[[2**54 - 1, 0, 0, 0]], xs=[2.0**54])
    def test_count_at_least_matches_naive(self, rows, xs):
        xs = sorted(xs)
        block = np.sort(np.array(rows, dtype=np.int64), axis=1)
        expected = [[np.count_nonzero(row >= x) for x in xs] for row in block]
        out = np.empty((len(rows), len(xs)), dtype=np.int64)
        mc._count_at_least(block, xs, out)
        assert out.tolist() == expected

    @given(
        st.lists(
            st.lists(st.integers(0, 600) | st.integers(0, 2**31 - 1), min_size=4, max_size=4),
            min_size=1, max_size=6,
        ),
        st.lists(
            st.floats(min_value=1e-3, max_value=1e12, allow_nan=False), min_size=1, max_size=5,
            unique=True,
        ),
    )
    # two rows lifted by 2^30: the largest key is 2^31 - 1, the last one int32 holds
    @example(rows=[[2**30 - 1] * 4, [0, 1, 2**30 - 2, 2**30 - 1]], xs=[2**30 - 2.5, 2.0**30 - 1])
    @example(rows=[[0, 5, 9, 2**30 - 1], [0, 0, 3, 7]], xs=[1, 5.5, 10])
    # one more and the keys would reach 2^31: counted threshold by threshold
    @example(rows=[[0, 5, 9, 2**30], [0, 0, 3, 7]], xs=[1, 5.5, 10])
    @example(rows=[[2**31 - 1] * 4, [0, 1, 2**30, 2**31 - 2]], xs=[5.5, 2.0**30])
    def test_count_at_least_on_int32_matches_naive(self, rows, xs):
        xs = sorted(xs)
        block = np.sort(np.array(rows, dtype=np.int32), axis=1)
        expected = [[np.count_nonzero(row >= x) for x in xs] for row in block]
        out = np.empty((len(rows), len(xs)), dtype=np.int64)
        mc._count_at_least(block, xs, out)
        assert out.tolist() == expected

    # N * top below 2^30 accumulates in int32, from 2^30 on in int64
    @pytest.mark.parametrize("top", [3, 2**27, 2**28, 2**31 - 1])
    def test_row_sums_of_int32_blocks_are_exact(self, top):
        rows = [[top, top, 1, 0], [top // 3, 5, 0, 0]]
        sums = mc._row_sums(np.array(rows, dtype=np.int32), float(top))
        assert sums.dtype == np.int64
        assert sums.tolist() == [sum(row) for row in rows]

    @pytest.mark.parametrize("top", [3, 2**40, 2**62 - 1, 2**63 - 1])
    def test_row_sums_are_exact(self, top):
        rows = [[top, top, 1, 0], [top // 3, 5, 0, 0]]
        sums = mc._row_sums(np.array(rows, dtype=np.int64), float(top))
        exact = [sum(row) for row in rows]
        if max(exact) < 2**63:
            assert sums.dtype == np.int64
            assert sums.tolist() == exact
        else:
            assert sums.tolist() == [float(t) for t in exact]


    @pytest.mark.parametrize(
        "papers",
        [
            [0, 1, 5],
            # float64 partial sums stay exact below 2^53
            [2**51, 2**51 - 1],
            # past it, and past 2^63, summed in Python ints
            [2**53, 1, 1],
            [2**62, 2**62 + 2**40, 2**62, 7],
        ],
    )
    def test_exact_sum(self, papers):
        array = np.array(papers, dtype=np.float64)
        assert mc._exact_sum(array, float(max(papers))) == sum(papers)

# the window [L, U) lies near h = 2580, so each replicate has about 2500
# tail papers; a chunk's pooled tail sum passes 2^62
HEAVY_TAIL = SeriesSpec.from_values(2, 9, 10_000)


def conditioned_normals(rng, a, count):
    """`count` standard normals conditioned on z >= a, as sampling scheme
    v4 draws them: rounds of ceil((1.1 r + 8) / rate) candidates, r the
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
    """Sampling scheme v4's window path, drawn independently of
    montecarlo but for the window [L, U) (mc._window) and the bin count K
    (mc._bin_count): each replicate's h, and every paper of the run.

    Per chunk of 64: the window rows over [1 - S(L), p_L .. p_{U-1}, S(U)];
    then, in row order over the rows used, each row whose h lies below L
    its papers below L over p_0 .. p_{L-1}, or each row whose h lies at U
    or above its papers at U or more over p_U .. p_{K'-1} and S(K'),
    K' = max(U, K), and their tail; then the other rows' papers below L,
    pooled, and their papers at U or more, pooled, with the pool's tail.
    """
    low, high = mc._window(spec)
    top = max(high, mc._bin_count(spec))
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

    h_values, cells, tails = [], np.zeros(top, dtype=np.int64), []
    for j in range(-(-replicates // 64)):
        rng = np.random.default_rng(derive_seed(seed, j))
        window = rng.multinomial(n, window_p, size=64)[: min(64, replicates - 64 * j)]
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
            if counts[-1]:
                tails.append(tail(rng, counts[-1]))
    papers = np.concatenate([np.repeat(np.arange(top), cells), *tails])
    return np.array(h_values), papers


def assert_equals_window_reference(spec, replicates, thresholds, seed):
    """run_replicates equals reference_window_run exactly: h averaged
    over the replicates, and the citation total and threshold counts of
    all the run's papers, summed exactly, over the replicate count."""
    summary = run_replicates(spec, replicates, thresholds, seed)
    h, papers = reference_window_run(spec, replicates, seed)
    assert summary.h_mean == float(h.mean())
    assert summary.h_stddev == (float(h.std(ddof=1)) if replicates > 1 else 0.0)
    total = sum(papers.tolist())
    assert summary.sum_citations_mean == total / replicates
    assert summary.counts_above == {
        x: np.count_nonzero(papers >= x) / replicates for x in thresholds}
    return total


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
    """Specs with K > 0 bins draw each replicate's papers inside a window
    [L, U) around h one count at a time and pool the rest of their chunk
    (sampling scheme v4)."""

    def test_bin_counts(self):
        assert mc._bin_count(SERIES_1) > 0
        assert mc._bin_count(SERIES_9) > 0
        assert mc._bin_count(HEAVY_TAIL) > 0
        # series 22, 13 and 25 draw per paper, as do huge medians
        for spec in (SERIES_22, SERIES_13, SeriesSpec.from_values(1.5, 0.9, 200),
                     SeriesSpec.from_values(800, 1, 10), SeriesSpec.from_values(36, 1, 10_000)):
            assert mc._bin_count(spec) == 0, spec
        assert all(0 <= mc._bin_count(spec) <= mc._MAX_BINS for spec in study_specs())

    def test_windows(self):
        # 7 standard deviations of h on either side of k*
        assert mc._window(SERIES_1) == (38, 83)
        assert mc._window(SERIES_9) == (96, 143)
        # h ~ 145 lies above series 2's K = 142, so U sets K'
        assert mc._window(SERIES_2) == (115, 174)
        assert mc._bin_count(SERIES_2) < 145
        # each side capped at 128 counts
        assert mc._window(HEAVY_TAIL) == (2448, 2705)
        # within [0, N + 1): sigma -> 0 gives one count, N = 1 gives h = 0 or 1
        assert mc._window(SeriesSpec.from_values(2, 1e-9, 10_000)) == (7, 8)
        assert mc._window(SeriesSpec.from_values(2, 1, 1)) == (0, 1)
        for spec in study_specs():
            low, high = mc._window(spec)
            assert 0 <= low <= central_h(spec) < high <= spec.n_papers + 1
            assert high - low <= 61, spec

    @pytest.mark.parametrize(
        "spec, replicates",
        [
            (SERIES_1, 200),
            (SERIES_9, 70),
            # one row beyond the per-paper block size
            (SeriesSpec.from_values(2.1, 1.1, mc._BLOCK_ELEMENTS + 1), 3),
        ],
        ids=["series-1", "series-9", "n-2^15+1"],
    )
    def test_equals_reference(self, spec, replicates):
        assert_equals_window_reference(spec, replicates, DEFAULT_THRESHOLDS, seed=77)

    @pytest.mark.parametrize("replicates", [63, 64, 65, 129])
    def test_chunk_boundaries_equal_reference(self, replicates):
        spec = SeriesSpec.from_values(2.1, 1.1, 3000)
        thresholds = ThresholdSet((0.5, 5, 10.5, 50, 1e15))
        assert_equals_window_reference(spec, replicates, thresholds, seed=77)

    @pytest.mark.parametrize(
        "spec, width",
        [
            # K' = U: tail papers decide h whenever G(U) >= U
            (SERIES_1, 1),
            (SERIES_1, 2),
            # K' = K > U: high rows' h can come from their bins above U
            (SERIES_9, 3),
            (SERIES_9, 4),
            # N = 40, which draws per paper unless K is forced above 0: a
            # third of the papers lie in the tail
            (SeriesSpec.from_values(2.1, 1.1, 40), 1),
        ],
        ids=["series-1-width-1", "series-1-width-2", "series-9-width-3", "series-9-width-4",
             "n-40-width-1"],
    )
    def test_narrow_window_equals_reference(self, monkeypatch, spec, width):
        if not mc._bin_count(spec):
            monkeypatch.setattr(mc, "_bin_count", lambda spec: 3)
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
        # rows draw their own breakdown before the chunk's pooled draws
        for width in (None, 2):
            with monkeypatch.context() as patch:
                if width:
                    narrow_window(patch, SERIES_1, width)
                runs = recorded_h(patch)
                for replicates in (1, 65, 130):
                    run_replicates(SERIES_1, replicates, seed=5)
            assert runs[0][0] == runs[1][0]
            assert (runs[1] == runs[2][:65]).all()

    @pytest.mark.parametrize("block_elements", [1, 150, 2**15])
    def test_independent_of_block_size(self, monkeypatch, block_elements):
        expected = run_replicates(SERIES_1, 300, seed=9)
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", block_elements)
        assert run_replicates(SERIES_1, 300, seed=9) == expected

    @pytest.mark.parametrize("replicates", [63, 65, 300])
    def test_independent_of_worker_count(self, monkeypatch, replicates):
        serial, *threaded = summaries_by_workers(monkeypatch, SERIES_1, replicates)
        assert all(summary == serial for summary in threaded)

    def test_runs_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(mc, "_cpu_count", lambda: 4)
        before = threading.active_count()
        threads = set()
        conditioned = mc._conditioned_normals

        def recording(*args):
            threads.add(threading.get_ident())
            assert threading.active_count() == before
            return conditioned(*args)

        monkeypatch.setattr(mc, "_conditioned_normals", recording)
        run_replicates(SERIES_9, 300, seed=1)
        assert threads == {threading.get_ident()}

    def test_exact_totals_equal_reference(self):
        # a chunk's pooled tail sums past 2^62, in Python ints, and the
        # run's total passes 2^63 with no draw reaching it (seeds 1 and
        # 150 draw one that does in their first 64 replicates)
        total = assert_equals_window_reference(
            HEAVY_TAIL, 64, ThresholdSet((5, 1e9, 1e18)), seed=7)
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
        top = mc._window(SERIES_1)[1]
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


class TestWindowDomain:
    """The window path holds for every valid spec. The cost model gives
    K = 0 wherever N < 143 or nearly every paper would be a tail paper,
    so K is forced to at least 1 here: the window path then also meets
    N = 1, sigma -> 0 and h = N."""

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
        bins = max(1, mc._bin_count(spec))
        low, high = mc._window(spec)
        assert 0 <= low < high <= n + 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "_bin_count", lambda spec: bins)
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
    E[c^2] = sum (2k - 1) S(k), and the count at x is Bin(N, S(ceil x))."""
    from scipy import stats

    mu, sigma, n = spec.params.mu, spec.params.sigma, spec.n_papers
    # S(10^6) is below 1e-12 for the specs tested, with sum k S(k) beyond it
    # below 1e-6
    k = np.arange(1, 10**6 + 1, dtype=np.float64)
    survival = stats.norm.sf((np.log(k) - mu) / sigma)
    at_least_h = stats.binom.sf(k[:n] - 1, n, survival[:n])
    h_mean = at_least_h.sum()
    mean_c = survival.sum()
    var_c = ((2 * k - 1) * survival).sum() - mean_c**2
    law = {
        "h": (h_mean, math.sqrt(((2 * k[:n] - 1) * at_least_h).sum() - h_mean**2)),
        "sum_c": (n * mean_c, math.sqrt(n * var_c)),
    }
    for x in thresholds:
        p = survival[math.ceil(x) - 1]
        law[x] = (n * p, math.sqrt(n * p * (1 - p)))
    return law


def z_scores(summary, law):
    root = math.sqrt(summary.replicates)
    observed = {"h": summary.h_mean, "sum_c": summary.sum_citations_mean, **summary.counts_above}
    return {key: (observed[key] - mean) / (sd / root) for key, (mean, sd) in law.items()}


class TestExactLaw:
    """h_mean, the mean citation total and every threshold count lie
    within 5 standard errors of their exact discrete expectations, on both
    paths and with windows forced narrow; tampered draws do not."""

    REPLICATES = 20_000

    @pytest.mark.parametrize(
        "spec", [SERIES_1, SERIES_9, SERIES_22, SERIES_2],
        ids=["series-1", "series-9", "series-22", "series-2"])
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
        # [96, 143), so in every row's pooled breakdown below L
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

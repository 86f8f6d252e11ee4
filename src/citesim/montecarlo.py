"""Replicate-averaged empirical indicators of synthetic citation series.

Draws are exp(mu + sigma * z) with z standard normal, truncated to whole
citation counts and ranked from most to least cited. Truncation (rather
than rounding to nearest) keeps threshold counting exact: a truncated
count reaches an integer threshold x exactly when the underlying draw
does, so empirical exceedance fractions are unbiased estimates of the
model's survival probabilities. The price is a mean shifted down by the
mean fractional part of the draws, about half a citation. Counts are
int64 at most, so a draw whose exp reaches 2**63 raises ValueError
instead of wrapping.

Sampling scheme v3 (SEEDING_VERSION): replicates are grouped in chunks of
64. Chunk j owns one generator, seeded from (master seed, j) through a
SplitMix64-style avalanche. Every simulated indicator (h, the citation
total, the threshold counts) is a function of a replicate's histogram of
whole counts, and each spec draws it one of two ways, both exact in law:

- Per paper (K = 0 bins). Replicate i takes row i % 64 of the 64 x N
  standard normals that chunk i // 64 draws in sequence. This is scheme
  2's stream, so a spec with K = 0 prints what it printed under scheme 2.
- Histogram (K > 0 bins). The chunk's generator first draws 64 rows of
  Multinomial(N; p_0, ..., p_{K-1}, S(K)), where S(k) = P(c >= k) =
  erfc((ln k - mu) / (sigma sqrt 2)) / 2 and p_k = S(k) - S(k + 1): the
  numbers of papers with each count below K, and M, the number at K or
  more. Then, in row order, it draws every row's M tail papers as
  floor(exp(mu + sigma z)) with z conditioned on z >= a = (ln K - mu) /
  sigma (see _conditioned_normals). All 64 rows are drawn even in a
  short last chunk. A replicate then costs about K binomials and N S(K) tail draws,
  where the per-paper kernel costs N normal draws, exp/floor and a sort.

K is a pure function of (mu, sigma, N) that minimises a fixed cost model
(_bin_count), capped at 256 bins. It is 0 where drawing every paper is
cheaper: small N, and medians so large that nearly every paper would be
a tail paper. Drawing a chunk in pieces gives the same values as drawing
it whole, so results depend only on the master seed, N and the replicate
count: never on block size, worker count or evaluation order, and the
first R replicates are the same for any larger replicate count.
Aggregation runs over stored per-replicate values. Schemes 1 (one
generator per replicate) and 2 (every spec per paper) gave other
simulated values for the specs they drew otherwise; output simulated
before scheme 3 does not reproduce for specs with K > 0.

:func:`run_replicates` cuts the work into units of whole chunks. On the
per-paper path the chunk generators fill the rows of a preallocated
float64 block and one pass of numpy calls per block does the rest:
exp/floor, a cast to whole counts, a row-wise sort, h, the citation
totals and every threshold count. A block holds max(1, 2**15 // N) rows
of N papers, so its two buffers (float64 draws and int32 counts) take
about 384 KiB together whatever the replicate count, or one row of N
elements each when N exceeds 2**15. The counts are int32 while a block's
lifted threshold keys (see _count_at_least), rows x (largest draw or cut
+ 1), stay below 2**31. Otherwise the same steps run on an int64 counts
buffer, which a worker allocates the first time it needs one. A block
may span several chunks, and a chunk several blocks. On the histogram
path a chunk is reduced on its own (_histogram_chunk): G(k), the number
of papers with k or more citations, is a reverse cumulative sum of the
bins for k <= K; h is the largest k <= K with G(k) >= k, or the h of the
row's tail where that is larger; the total is sum k n_k plus the tail's
exact sum; the count at x is G(ceil x), or the tail's count when ceil x
exceeds K. Its buffers, 64 x (K + 1) bins and the chunk's tail papers,
are bounded by the chunk whatever the replicate count.

The units run on every CPU the process may use, about one block of whole
chunks each (fewer for a short run), so a chunk's generator stays in one
thread; on one CPU the whole run is one unit. The calling thread and up
to one helper thread per further CPU take units from one shared
iterator, each with its own buffers, and write the rows of the
per-replicate arrays that their units own. numpy releases the
interpreter lock in the draws, the multinomial, exp/floor and the sort,
so the workers overlap there. The means are taken after every helper has
joined, so results never depend on the worker count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .lognormal import (
    DEFAULT_THRESHOLDS,
    LognormalParams,
    SeriesSpec,
    ThresholdSet,
    survival_probability,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Papers per block of replicates in run_replicates (rows of N papers).
_BLOCK_ELEMENTS = 1 << 15
#: Replicates drawn in sequence from one generator.
_CHUNK_REPLICATES = 64
#: Draws must stay below this for their floor to fit in int64.
_COUNT_LIMIT = 2.0**63
#: Blocks whose lifted threshold keys stay below this are counted in
#: int32, the others in int64.
_NARROW_LIMIT = 2**31

#: Most bins a histogram replicate draws.
_MAX_BINS = 256
#: The cost model that sets the bin count (_bin_count), in ns on one
#: thread: a histogram replicate's fixed cost, one multinomial bin, one
#: tail paper, and one paper of the per-paper kernel. Fitted to timings
#: of both kernels over K = 8 .. 256 and N = 100 .. 10^4 on a 2-vCPU
#: x86-64 machine with numpy 2.4.6 (BENCH_12.json, "cost_model"). The
#: fixed cost is set high enough that series 22, 13 and 25 (N = 100 and
#: 200), whose histograms were no faster on two workers, draw per paper.
_NS_PER_HISTOGRAM = 5000.0
_NS_PER_BIN = 100.0
_NS_PER_TAIL = 50.0
_NS_PER_PAPER = 35.0

#: Master seed used when none is given; echoed in CLI output metadata.
DEFAULT_SEED = 20200212
#: How replicate streams derive from the master seed; echoed with it.
SEEDING_VERSION = 3


def derive_seed(master: int, index: int) -> int:
    """Deterministic 64-bit sub-seed for stream `index` under `master`.

    SplitMix64: jump the Weyl sequence to position index + 1, then
    avalanche. Nearby (master, index) pairs land on unrelated seeds.
    """
    if index < 0:
        raise ValueError(f"stream index must be nonnegative, got {index}")
    z = (master + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# Nothing calls this; bench/selftest.py patches it. It goes once the self-test patches _floor_exp.
def _draw_sorted_counts(spec: SeriesSpec, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed & _MASK64)
    z = rng.standard_normal(spec.n_papers)
    _floor_exp(z, spec)
    counts = z.astype(np.int64)
    counts[::-1].sort()
    return counts


def _floor_exp(z: np.ndarray, spec: SeriesSpec) -> float:
    """Turn standard normal draws into floor(exp(mu + sigma * z)), in place.

    Returns the largest exp. Raises ValueError when it reaches 2**63,
    where the int64 counts would overflow.
    """
    np.multiply(z, spec.params.sigma, out=z)
    np.add(z, spec.params.mu, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    top = z.max()
    if not top < _COUNT_LIMIT:
        raise ValueError(
            f"a citation draw reached {top:.6g} for mu={spec.params.mu:g}, "
            f"sigma={spec.params.sigma:g}; counts must stay below 2^63"
        )
    np.floor(z, out=z)
    return float(top)


@dataclass(frozen=True)
class ReplicateSummary:
    """Replicate-averaged empirical indicators for one series spec."""

    spec: SeriesSpec
    replicates: int
    h_mean: float
    h_stddev: float
    sum_citations_mean: float
    counts_above: dict[float, float]
    seed: int


def run_replicates(
    spec: SeriesSpec,
    replicates: int,
    thresholds: ThresholdSet = DEFAULT_THRESHOLDS,
    seed: int = DEFAULT_SEED,
) -> ReplicateSummary:
    """Generate `replicates` independent series and average their metrics.

    Chunk j of 64 replicates draws from a generator seeded with
    derive_seed(seed, j) (sampling scheme v3). A spec with K = 0 bins
    (see _bin_count) draws every paper: replicate i is row i % 64 of the
    64 x N normals of chunk i // 64. Otherwise the chunk draws 64
    multinomial histograms of the counts below K, then every row's
    papers at K or above from the lognormal conditioned on reaching K,
    so that a replicate's h, citation total and threshold counts have
    exactly the law of N drawn papers'. Per-replicate values are stored
    first and averaged afterwards, so the summary is identical however
    the replicates are blocked.

    Units of whole chunks run on the calling thread and on one helper
    thread per further CPU the process may use, as long as there are
    units for them. A per-paper worker has its own ~384 KiB pair of
    block buffers, float64 draws and int32 counts, and an int64 counts
    buffer as well once a block needs one: one whose lifted threshold
    keys reach 2**31. A histogram worker holds one chunk's 64 x (K + 1)
    bins, at most 129 KiB, and its tail papers. The summary is the same
    for any worker count and either counts dtype. When a unit fails, the
    workers take no further units, every helper is joined, and the error
    of the earliest failed unit is raised, the one a single thread would
    have met first.
    """
    if replicates < 1:
        raise ValueError(f"need at least 1 replicate, got {replicates}")
    n = spec.n_papers
    xs = list(thresholds)
    bins = _bin_count(spec)
    rows = max(1, _BLOCK_ELEMENTS // n)
    chunks = -(-replicates // _CHUNK_REPLICATES)
    workers = min(_cpu_count(), chunks)
    if workers == 1:
        # one unit, so blocks run across chunk edges as in a serial pass
        step = replicates
    else:
        # a unit is about one block of whole chunks, and at most an even
        # share of the chunks, so that a short run still splits over the
        # workers
        step = _CHUNK_REPLICATES * max(1, min(rows // _CHUNK_REPLICATES, -(-chunks // workers)))
    # range's iterator hands each unit out once, under the interpreter lock
    units = iter(range(0, replicates, step))
    h_values = np.empty(replicates, dtype=np.int64)
    totals = np.empty(replicates, dtype=np.int64)
    above = np.empty((replicates, len(xs)), dtype=np.int64)
    # (first replicate, float64 totals) of blocks whose totals reach 2**63
    wide: list[tuple[int, np.ndarray]] = []
    # (first replicate of the unit, the exception it raised)
    failures: list[tuple[int, BaseException]] = []
    stop = threading.Event()

    if bins:
        probabilities = _bin_probabilities(spec.params, bins)
        # a tail paper reaches K citations exactly when its normal reaches a
        a = (math.log(bins) - spec.params.mu) / spec.params.sigma
        cuts = [math.ceil(x) for x in xs]

    def store_totals(start: int, block_totals: np.ndarray) -> None:
        if block_totals.dtype == np.int64:
            totals[start : start + len(block_totals)] = block_totals
        else:
            wide.append((start, block_totals))

    def paper_blocks():
        """A per-paper unit runner with its own block buffers."""
        # the rank of each position in a row sorted ascending
        ranks = np.arange(n, 0, -1, dtype=np.int32)
        cut = math.ceil(xs[-1])
        draws = np.empty((rows, n))
        narrow_counts = np.empty((rows, n), dtype=np.int32)
        wide_counts = None

        def run(first: int, last: int) -> None:
            nonlocal wide_counts
            for start, z in _normal_blocks(draws, first, last, seed):
                end = start + len(z)
                top = _floor_exp(z, spec)
                # bounds _count_at_least's lifted keys, and every count with them
                if len(z) * (max(cut, top) + 1) <= _NARROW_LIMIT:
                    counts = narrow_counts[: len(z)]
                else:
                    if wide_counts is None:
                        wide_counts = np.empty((rows, n), dtype=np.int64)
                    counts = wide_counts[: len(z)]
                # exact: the draws are whole numbers below the dtype's limit
                np.copyto(counts, z, casting="unsafe")
                counts.sort(axis=1)
                # counts ascend along a row and ranks descend, so the
                # counts that reach their rank are the row's last h; a
                # row whose largest count is 0 has none
                reached = np.argmax(counts >= ranks, axis=1)
                h_values[start:end] = np.where(counts[:, -1] > 0, n - reached, 0)
                store_totals(start, _row_sums(counts, top))
                _count_at_least(counts, xs, above[start:end])

        return run

    def histograms(first: int, last: int) -> None:
        for start in range(first, last, _CHUNK_REPLICATES):
            end = min(start + _CHUNK_REPLICATES, last)
            rng = np.random.default_rng(derive_seed(seed, start // _CHUNK_REPLICATES))
            h_values[start:end], block_totals, above[start:end] = _histogram_chunk(
                rng, spec, probabilities, a, cuts, end - start)
            store_totals(start, block_totals)

    def work() -> None:
        run = histograms if bins else paper_blocks()
        # the flag is read before a unit is taken, never after, so every
        # unit taken is run: a successful run sets it only once the units
        # are all taken, and a failed one cannot leave an earlier unit unrun
        while not stop.is_set():
            first = next(units, None)
            if first is None:
                return
            try:
                run(first, min(first + step, replicates))
            except BaseException as exc:  # re-raised by the calling thread below
                failures.append((first, exc))
                stop.set()
                return

    helpers = []
    try:
        for _ in range(min(workers, -(-replicates // step)) - 1):
            helper = threading.Thread(target=work, name="citesim-replicates")
            helper.start()
            helpers.append(helper)
        work()
    finally:
        stop.set()
        for helper in helpers:
            helper.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    if wide:
        totals = totals.astype(np.float64)
        for start, block_totals in wide:
            totals[start : start + len(block_totals)] = block_totals
    means = above.mean(axis=0)
    return ReplicateSummary(
        spec=spec,
        replicates=replicates,
        h_mean=float(h_values.mean()),
        h_stddev=float(h_values.std(ddof=1)) if replicates > 1 else 0.0,
        sum_citations_mean=float(totals.mean()),
        counts_above={x: float(m) for x, m in zip(xs, means)},
        seed=seed,
    )


def _bin_count(spec: SeriesSpec) -> int:
    """The bin count K of `spec`'s histograms, or 0 to draw every paper.

    K minimises the modelled cost of a histogram replicate,
    _NS_PER_HISTOGRAM + K * _NS_PER_BIN + N * S(K) * _NS_PER_TAIL, over
    1 .. _MAX_BINS, and is 0 when N * _NS_PER_PAPER, the cost of drawing
    every paper, is lower still. The scan stops at the first k whose tail
    costs no more than one bin: any larger K adds at least a bin's cost
    and saves at most that tail's.
    """
    n, params = spec.n_papers, spec.params
    best, best_cost = 0, n * _NS_PER_PAPER
    for k in range(1, _MAX_BINS + 1):
        tail_cost = n * survival_probability(k, params) * _NS_PER_TAIL
        cost = _NS_PER_HISTOGRAM + k * _NS_PER_BIN + tail_cost
        if cost < best_cost:
            best, best_cost = k, cost
        if tail_cost <= _NS_PER_BIN:
            break
    return best


def _bin_probabilities(params: LognormalParams, bins: int) -> np.ndarray:
    """[p_0, ..., p_{K-1}, S(K)] for K = `bins`: p_k = S(k) - S(k + 1) is
    the probability that a paper's whole count is k, S(k) = P(c >= k)."""
    survival = [1.0] + [survival_probability(k, params) for k in range(1, bins + 1)]
    return np.array([s - t for s, t in zip(survival, survival[1:])] + [survival[-1]])


def _conditioned_normals(rng: np.random.Generator, a: float, count: int) -> np.ndarray:
    """`count` standard normals from `rng` conditioned on z >= a, drawn by
    rejection, in the order accepted.

    Marsaglia's method (1964, Technometrics 6:101) proposes
    x = sqrt(a^2 - 2 ln(1 - U1)) and accepts it when U2 x < a, at the
    rate a sqrt(2 pi) e^(a^2 / 2) P(Z >= a); plain rejection accepts
    standard normals at or above a, at the rate P(Z >= a). The one that
    accepts more is used: Marsaglia's method above a = 0.372. Each round
    draws ceil((1.1 r + 8) / rate) candidates, r the number still needed:
    two rows of uniforms, U1 then U2, for Marsaglia's method, standard
    normals otherwise. Accepted values beyond `count` are dropped.
    """
    plain = 0.5 * math.erfc(a / math.sqrt(2.0))
    if a <= 0:
        marsaglia = 0.0
    elif a > 26:
        # a times the Mills ratio, within 0.2% of 1; erfc nears underflow
        marsaglia = 1.0
    else:
        marsaglia = a * math.sqrt(2.0 * math.pi) * math.exp(0.5 * a * a) * plain
    rate = max(plain, marsaglia)
    accepted = []
    need = count
    while need > 0:
        m = math.ceil((1.1 * need + 8) / rate)
        if marsaglia > plain:
            x, u = rng.random((2, m))
            # x = sqrt(a^2 - 2 ln(1 - u)), in place
            np.negative(x, out=x)
            np.log1p(x, out=x)
            x *= -2.0
            x += a * a
            np.sqrt(x, out=x)
            u *= x
            z = x[u < a]
        else:
            z = rng.standard_normal(m)
            z = z[z >= a]
        accepted.append(z)
        need -= len(z)
    return np.concatenate(accepted)[:count] if accepted else np.empty(0)


def _histogram_chunk(rng: np.random.Generator, spec: SeriesSpec, probabilities: np.ndarray,
                     a: float, cuts: list[int], rows: int):
    """h, citation totals and counts at each cut of the first `rows`
    replicates of the 64 that the chunk generator `rng` draws.

    The generator draws all 64 histograms (n_0, ..., n_{K-1}, M), then
    every row's M tail papers in row order, their normals conditioned on
    z >= a, so that the first rows do not depend on `rows`. The totals
    are int64 unless one reaches 2**63, then float64; a tail draw of the
    first `rows` rows that reaches 2**63 raises ValueError.
    """
    bins = len(probabilities) - 1
    hist = rng.multinomial(spec.n_papers, probabilities, size=_CHUNK_REPLICATES)
    ends = np.cumsum(hist[:, -1])
    z = _conditioned_normals(rng, a, int(ends[-1]))[: ends[rows - 1]]
    hist, ends = hist[:rows], ends[:rows]
    sizes = hist[:, -1]
    starts = ends - sizes
    top = _floor_exp(z, spec) if len(z) else 0.0
    papers = z.astype(np.int64)
    # the chunk's float tail is not needed past here; freeing it, and the
    # lift below, keeps the chunk's peak memory near the per-paper path's
    del z
    # exp can round a draw just past ln K down below K
    np.maximum(papers, bins, out=papers)
    row_of = np.repeat(np.arange(rows), sizes)
    # each row's tail ascending, the rows in order: one sort of the rows
    # lifted apart, while the lifted keys fit in int64
    lift = int(top) + 1
    if lift * rows <= 1 << 63:
        lifted = row_of * lift
        papers += lifted
        papers.sort()
        papers -= lifted
        del lifted
    else:
        papers = papers[np.lexsort((papers, row_of))]
    # at_least[:, k] = number of papers with k citations or more, k <= K
    at_least = np.cumsum(hist[:, ::-1], axis=1)[:, ::-1]
    # at_least descends along a row and k ascends, so the k that it
    # reaches run from 1 to the largest k <= K with h >= k
    h = np.count_nonzero(at_least[:, 1:] >= np.arange(1, bins + 1), axis=1)
    # h passes K only when the row's h papers all lie in its tail: then
    # it is the tail's own h, counted over the papers that reach their
    # rank from the row's end
    ranks = ends[row_of]
    ranks -= np.arange(len(papers))
    np.maximum(h, np.bincount(row_of[papers >= ranks], minlength=rows), out=h)
    bin_totals = hist[:, :-1] @ np.arange(bins)
    if top * len(papers) < 2.0**62:
        sums = np.concatenate(([0], np.cumsum(papers)))
        totals = bin_totals + sums[ends] - sums[starts]
    else:
        exact = [int(b) + sum(papers[s:e].tolist()) for b, s, e in zip(bin_totals, starts, ends)]
        totals = np.array(exact, dtype=np.int64 if max(exact) < 1 << 63 else np.float64)
    above = np.empty((rows, len(cuts)), dtype=np.int64)
    for j, cut in enumerate(cuts):
        if cut <= bins:
            above[:, j] = at_least[:, cut]
        else:
            above[:, j] = np.bincount(row_of[papers >= cut], minlength=rows)
    return h, totals, above


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _normal_blocks(draws: np.ndarray, first: int, last: int, seed: int):
    """Yield (first replicate, rows) for successive blocks of `draws`.

    The rows hold the standard normals of replicates first .. last - 1
    on the per-paper path (K = 0), one row each; the last block may be
    shorter. `first` starts a chunk. Each block is filled with one
    standard_normal call per chunk it touches, and a chunk's generator
    carries over into the next block.
    """
    default_rng = np.random.default_rng
    rows = len(draws)
    for start in range(first, last, rows):
        z = draws[: min(rows, last - start)]
        i = start
        while i < start + len(z):
            chunk, offset = divmod(i, _CHUNK_REPLICATES)
            if offset == 0:
                rng = default_rng(derive_seed(seed, chunk))
            stop = min(start + len(z), i - offset + _CHUNK_REPLICATES)
            rng.standard_normal(out=z[i - start : stop - start])
            i = stop
        yield start, z


def _row_sums(counts: np.ndarray, top: float) -> np.ndarray:
    """Row sums of the nonnegative integer block `counts`, no entry above `top`.

    int64 unless a sum could reach 2**63. They accumulate in the block's
    own dtype, the fastest, while N * top stays below half its range, and
    in int64 otherwise. When a sum could reach 2**63 they are formed
    exactly in Python ints, and returned as float64 when any of them does
    not fit in int64.
    """
    bound = top * counts.shape[1]
    if bound < 2.0**62:
        dtype = counts.dtype if bound < np.iinfo(counts.dtype).max // 2 else np.int64
        return counts.sum(axis=1, dtype=dtype).astype(np.int64, copy=False)
    exact = [sum(row) for row in counts.tolist()]
    return np.array(exact, dtype=np.int64 if max(exact) < 1 << 63 else np.float64)


def _count_at_least(counts: np.ndarray, xs: list[float], out: np.ndarray) -> None:
    """out[k, j] = number of entries of row k of `counts` at least xs[j].

    The rows are sorted ascending; they are overwritten. An integer count
    reaches x exactly when it reaches ceil(x). Lifting row k by k * s,
    where s exceeds every count of the block and every cut, makes the
    block one ascending array, so a single searchsorted finds each row's
    cut points. The lifted keys, below m * s for m rows, are formed in
    the block's own dtype, so they must stay within it. numpy compares
    int64 counts with a float x in float64, which agrees with the integer
    cut only below 2**53. Keys that would reach either limit are counted
    threshold by threshold instead.
    """
    m, n = counts.shape
    cuts = [math.ceil(x) for x in xs]
    # the last column holds each row's largest count
    stride = max(cuts[-1], int(counts[:, -1].max())) + 1
    if m * stride > min(1 << 53, np.iinfo(counts.dtype).max + 1):
        for j, x in enumerate(xs):
            out[:, j] = np.count_nonzero(counts >= x, axis=1)
        return
    # lift and keys in the block's dtype, or searchsorted would widen a
    # copy of the whole block
    lift = np.arange(0, m * stride, stride, dtype=counts.dtype)[:, None]
    counts += lift
    below = np.searchsorted(counts.ravel(), (lift + np.array(cuts, dtype=counts.dtype)).ravel())
    np.subtract(np.arange(n, (m + 1) * n, n)[:, None], below.reshape(m, len(xs)), out=out)


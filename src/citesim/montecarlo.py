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

Sampling scheme v4 (SEEDING_VERSION): replicates are grouped in chunks of
64. Chunk j owns one generator, seeded from (master seed, j) through a
SplitMix64-style avalanche. Every simulated number is either a
replicate's h or a replicate average of an additive count (the citation
total and the threshold counts), and each spec draws them one of two
ways, both exact in law:

- Per paper (K = 0 bins, see _bin_count). Replicate i takes row i % 64
  of the 64 x N standard normals that chunk i // 64 draws in sequence.
  This is scheme 2's stream, so a spec with K = 0 prints what it printed
  under schemes 2 and 3.
- Window (K > 0). With S(k) = P(c >= k) = erfc((ln k - mu) / (sigma
  sqrt 2)) / 2 and p_k = S(k) - S(k + 1), the chunk's generator first
  draws 64 rows of Multinomial(N; 1 - S(L), p_L, ..., p_{U-1}, S(U)):
  each replicate's papers below L, at each count of the window [L, U),
  and at U or more. G(k), the number of papers with k or more
  citations, is then known for k in [L, U], and a row's h is the
  largest k in [L, U) with G(k) >= k. Then, in row order over the rows
  the run uses, a row whose h lies outside the window draws its own
  breakdown of that side: below L, one multinomial of its papers over
  p_0, ..., p_{L-1}; at U or above, one over p_U, ..., p_{K'-1} and
  S(K'), K' = max(U, K), then its papers at K' or more as
  floor(exp(mu + sigma z)) with z conditioned on z >= (ln K' - mu) /
  sigma (_conditioned_normals). Last, every other row's papers below L
  and at U or above are drawn pooled: one multinomial for each side,
  then one tail of conditioned normals. All 64 window rows are drawn
  even in a short last chunk.

The pooling is exact: given the window rows, the rows' breakdowns are
independent multinomials with the same cell probabilities, and a sum of
such multinomials is the multinomial of the summed count. So the
per-replicate h, the summed citation total and the summed threshold
counts have exactly the joint law of R fully drawn series, while a
replicate costs W + 2 binomials, W = U - L, where the per-paper kernel
costs N normal draws, exp/floor and a sort. Per-replicate totals and
counts are never formed on this path; ReplicateSummary holds only their
means.

The window is a pure function of (mu, sigma, N) (_window): it is
k* +- ceil(7 sd), where k* is the largest k <= N with N S(k) >= k and
sd = sqrt(N S (1 - S)) / (1 + N p), S = S(k*) and p = p_{k*}, is the
first-order standard deviation of h; each side is capped at 128 counts
and the window at [0, N + 1). None of 810,000 replicates of the study's
series fell outside it, so the refinements cost nothing on average. K is
also a pure function of (mu, sigma, N): it minimises a fixed cost model
(_bin_count), capped at 256 bins, and is 0 where drawing every paper is
cheaper: small N, and medians so large that nearly every paper would be
a tail paper.

Drawing a per-paper chunk in pieces gives the same values as drawing it
whole, and a window row's refinement comes before the pooled draws of
its chunk, so results depend only on the master seed, N and the
replicate count: never on block size, worker count or evaluation order,
and the first R replicates' h are the same for any larger replicate
count. Schemes 1 (one generator per replicate), 2 (every spec per
paper) and 3 (each replicate's whole histogram) gave other simulated
values for specs with K > 0; such output does not reproduce under
scheme 4.

:func:`run_replicates` draws window chunks one after another on the
calling thread, which holds one chunk's 64 x (W + 2) window counts and
its tail papers, and a run-wide histogram of K' + 1 counts. On the
per-paper path it cuts the work into units of whole chunks. The chunk
generators fill the rows of a preallocated float64 block and one pass
of numpy calls per block does the rest: exp/floor, a cast to whole
counts, a row-wise sort, h, the citation totals and every threshold
count. A block holds max(1, 2**15 // N) rows of N papers, so its two
buffers (float64 draws and int32 counts) take about 384 KiB together
whatever the replicate count, or one row of N elements each when N
exceeds 2**15. The counts are int32 while a block's lifted threshold
keys (see _count_at_least), rows x (largest draw or cut + 1), stay below
2**31. Otherwise the same steps run on an int64 counts buffer, which a
worker allocates the first time it needs one. A block may span several
chunks, and a chunk several blocks.

The per-paper units run on every CPU the process may use, about one
block of whole chunks each (fewer for a short run), so a chunk's
generator stays in one thread; on one CPU the whole run is one unit. The
calling thread and up to one helper thread per further CPU take units
from one shared iterator, each with its own buffers, and write the rows
of the per-replicate arrays that their units own. numpy releases the
interpreter lock in the draws, exp/floor and the sort, so the workers
overlap there. The means are taken after every helper has joined, so
results never depend on the worker count.
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

#: Most bins K of the cost model, and at most twice the counts on either
#: side of k* in a window.
_MAX_BINS = 256
#: Standard deviations of h on either side of k* in a window (_window).
_WINDOW_SDS = 7
#: The cost model that sets the bin count (_bin_count), in ns on one
#: thread: a histogram replicate's fixed cost, one multinomial bin, one
#: tail paper, and one paper of the per-paper kernel. Fitted to timings
#: of sampling scheme 3's kernels over K = 8 .. 256 and N = 100 .. 10^4 on
#: a 2-vCPU x86-64 machine with numpy 2.4.6 (BENCH_12.json, "cost_model").
#: The fixed cost is set high enough that series 22, 13 and 25 (N = 100
#: and 200) draw per paper. K = 0 selects the per-paper path; K > 0 is
#: the least K' of a window spec.
_NS_PER_HISTOGRAM = 5000.0
_NS_PER_BIN = 100.0
_NS_PER_TAIL = 50.0
_NS_PER_PAPER = 35.0

#: Master seed used when none is given; echoed in CLI output metadata.
DEFAULT_SEED = 20200212
#: How replicate streams derive from the master seed; echoed with it.
SEEDING_VERSION = 4


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
    derive_seed(seed, j) (sampling scheme v4). A spec with K = 0 bins
    (see _bin_count) draws every paper: replicate i is row i % 64 of the
    64 x N normals of chunk i // 64, and its h, citation total and
    threshold counts are stored and then averaged. Otherwise each chunk
    draws 64 multinomial rows of the papers below, inside and above the
    window [L, U) around the expected h (see _window), from which each
    row's h follows; the few rows whose h lies outside the window draw
    that side's breakdown on their own, and the papers below L and at U
    or above of all other rows are drawn pooled, which is exact because a
    sum of multinomials with the same cell probabilities is multinomial.
    The citation total and the threshold counts are then summed over the
    run's papers, exactly, and divided by the replicate count. The
    first R replicates' h are the same for any larger replicate count.

    Window chunks run on the calling thread. Per-paper units of whole
    chunks run on the calling thread and on one helper thread per further
    CPU the process may use, as long as there are units for them. A
    per-paper worker has its own ~384 KiB pair of block buffers, float64
    draws and int32 counts, and an int64 counts buffer as well once a
    block needs one: one whose lifted threshold keys reach 2**31. The
    summary is the same for any worker count and either counts dtype.
    When a unit fails, the workers take no further units, every helper is
    joined, and the error of the earliest failed unit is raised, the one
    a single thread would have met first.
    """
    if replicates < 1:
        raise ValueError(f"need at least 1 replicate, got {replicates}")
    xs = list(thresholds)
    bins = _bin_count(spec)
    if bins:
        h_values, total, counts = _window_replicates(spec, replicates, xs, seed, bins)
        sum_citations_mean = total / replicates
        means = [count / replicates for count in counts]
    else:
        h_values, totals, above = _paper_replicates(spec, replicates, xs, seed)
        sum_citations_mean = float(totals.mean())
        means = above.mean(axis=0)
    return ReplicateSummary(
        spec=spec,
        replicates=replicates,
        h_mean=float(h_values.mean()),
        h_stddev=float(h_values.std(ddof=1)) if replicates > 1 else 0.0,
        sum_citations_mean=sum_citations_mean,
        counts_above={x: float(m) for x, m in zip(xs, means)},
        seed=seed,
    )


def _paper_replicates(spec: SeriesSpec, replicates: int, xs: list[float], seed: int):
    """Per-replicate h, citation totals (int64, or float64 when one
    reaches 2**63) and counts at each of `xs`, drawing every paper."""
    n = spec.n_papers
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
                block_totals = _row_sums(counts, top)
                if block_totals.dtype == np.int64:
                    totals[start:end] = block_totals
                else:
                    wide.append((start, block_totals))
                _count_at_least(counts, xs, above[start:end])

        return run

    def work() -> None:
        run = paper_blocks()
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
    return h_values, totals, above


def _window_replicates(spec: SeriesSpec, replicates: int, xs: list[float], seed: int, bins: int):
    """Per-replicate h, and the citation total and the count at each of
    `xs` summed over all replicates, as Python ints, for a spec with
    `bins` = K > 0 (sampling scheme v4's window path).

    hist[k] counts the run's papers with k citations for k < K' and
    hist[K'] its tail papers, those at K' or more, whose own citation sum
    and counts at each x beyond K' are kept apart.
    """
    n, params = spec.n_papers, spec.params
    low, high = _window(spec)
    top = max(high, bins)
    probabilities = _bin_probabilities(params, top)
    window_p = np.concatenate(
        ([probabilities[:low].sum()], probabilities[low:high], [probabilities[high:].sum()]))
    below_p = _conditional(probabilities[:low])
    above_p = _conditional(probabilities[high:])
    # a tail paper reaches K' citations exactly when its normal reaches a
    a = (math.log(top) - params.mu) / params.sigma
    hist = np.zeros(top + 1, dtype=np.int64)
    tail_sum = 0
    tail_counts = [0] * len(xs)
    h_values = np.empty(replicates, dtype=np.int64)

    def tail(rng: np.random.Generator, count: int) -> np.ndarray:
        """`count` tail papers, counted into the tail's sum and counts."""
        nonlocal tail_sum
        papers = _conditioned_normals(rng, a, count)
        largest = _floor_exp(papers, spec)
        # exp can round a draw just past ln K' down below K'
        np.maximum(papers, top, out=papers)
        tail_sum += _exact_sum(papers, max(largest, top))
        for j, x in enumerate(xs):
            if x > top:
                tail_counts[j] += int(np.count_nonzero(papers >= x))
        return papers

    for start in range(0, replicates, _CHUNK_REPLICATES):
        rows = min(_CHUNK_REPLICATES, replicates - start)
        rng = np.random.default_rng(derive_seed(seed, start // _CHUNK_REPLICATES))
        window = rng.multinomial(n, window_p, size=_CHUNK_REPLICATES)[:rows]
        h = h_values[start : start + rows]
        # the largest k in [L, U] with G(k) >= k, or L - 1 when G(L) < L;
        # U means h >= U
        h[:] = _h_of_cells(window[:, 1:], 0, low)
        hist[low:high] += window[:, 1:-1].sum(axis=0)
        below = h < low
        above = h == high
        for i in np.flatnonzero(below | above):
            if below[i]:
                # G(L) is the row's papers at L or more
                h[i], _ = _refined_row(rng, window[i, 0], n - window[i, 0], 0, below_p, hist)
            else:
                h[i], count = _refined_row(rng, window[i, -1], 0, high, above_p, hist)
                if count:
                    h[i] = max(h[i], _h_of_papers(tail(rng, count)))
        count = window[~below, 0].sum()
        if count:
            hist[:low] += rng.multinomial(count, below_p)
        count = window[~above, -1].sum()
        if count:
            cells = rng.multinomial(count, above_p)
            hist[high:] += cells
            if cells[-1]:
                tail(rng, cells[-1])

    total = sum(k * c for k, c in enumerate(hist[:-1].tolist())) + tail_sum
    # at_least[k] = the run's papers with k citations or more, k <= K'
    at_least = np.cumsum(hist[::-1])[::-1].tolist()
    counts = [at_least[math.ceil(x)] if x <= top else tail_counts[j] for j, x in enumerate(xs)]
    return h_values, total, counts


def _window(spec: SeriesSpec) -> tuple[int, int]:
    """The window [L, U) of counts whose papers every window replicate
    draws one count at a time: k* +- ceil(7 sd) within [0, N + 1), each
    side at most _MAX_BINS / 2 counts.

    k* is the largest k <= N with N S(k) >= k, the h of the expected
    exceedance counts, and sd = sqrt(N S (1 - S)) / (1 + N p), with
    S = S(k*) and p = S(k*) - S(k* + 1), is h's standard deviation to
    first order: G(k*) has variance N S (1 - S), and the expected G falls
    by N p, the identity rises by 1, from one count to the next.
    """
    n, params = spec.n_papers, spec.params

    def survival(k: int) -> float:
        return survival_probability(k, params) if k else 1.0

    # N S(k) - k falls with k and is N at k = 0
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if n * survival(mid) >= mid:
            lo = mid
        else:
            hi = mid - 1
    s = survival(lo)
    sd = math.sqrt(n * s * (1.0 - s)) / (1.0 + n * (s - survival(lo + 1)))
    reach = min(math.ceil(_WINDOW_SDS * sd), _MAX_BINS // 2)
    return max(0, lo - reach), min(n + 1, lo + reach + 1)


def _conditional(probabilities: np.ndarray) -> np.ndarray:
    """`probabilities` scaled to sum to 1, or left all zero: then no
    paper falls in them, and they are never drawn from."""
    total = probabilities.sum()
    return probabilities / total if total > 0 else probabilities


def _refined_row(rng: np.random.Generator, count: int, base: int, first: int,
                 probabilities: np.ndarray, hist: np.ndarray) -> tuple[int, int]:
    """Draw one row's breakdown of `count` papers over the counts first,
    first + 1, ... (the last cell: that count or more) and add it to
    `hist`. Returns the row's h over those counts, given `base` papers
    above them, and the papers in the last cell."""
    cells = rng.multinomial(count, probabilities)
    hist[first : first + len(cells)] += cells
    return int(_h_of_cells(cells, base, first)), int(cells[-1])


def _h_of_cells(cells: np.ndarray, base: int, first: int):
    """first - 1 plus the number of k = first, first + 1, ... with G(k) >= k,
    along the last axis of `cells`, the papers at each count from `first`
    (the last cell: that count or more), with `base` papers above them.

    G falls and k rises, so the k that G reaches run from `first` up to
    h: this is h when G(first) >= first and h is below the last count,
    and first - 1 when G(first) < first.
    """
    at_least = base + np.cumsum(cells[..., ::-1], axis=-1)[..., ::-1]
    return first - 1 + np.count_nonzero(at_least >= np.arange(first, first + cells.shape[-1]), axis=-1)


def _h_of_papers(papers: np.ndarray) -> int:
    """The h of `papers` on their own: the papers that reach their rank."""
    ranked = np.sort(papers)[::-1]
    return int(np.count_nonzero(ranked >= np.arange(1, len(ranked) + 1)))


def _exact_sum(papers: np.ndarray, top: float) -> int:
    """The exact sum of whole-number float64 `papers`, none above `top`
    and all below 2**63: float64 partial sums are exact below 2**53."""
    if top * len(papers) < 2.0**53:
        return int(papers.sum())
    return sum(papers.astype(np.int64).tolist())


def _bin_count(spec: SeriesSpec) -> int:
    """The bin count K of `spec`, or 0 to draw every paper. A window spec
    (K > 0) tallies counts below K' = max(U, K) bin by bin.

    K minimises the modelled cost of a scheme-3 histogram replicate,
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


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

Seeding scheme v2 (SEEDING_VERSION): replicates are grouped in chunks of
64. Chunk j owns one generator, seeded from (master seed, j) through a
SplitMix64-style avalanche, and replicate i takes row i % 64 of the
64 x N standard normals that chunk i // 64 draws in sequence. Drawing a
chunk in pieces gives the same values as drawing it whole, so results
depend only on the master seed, N and the replicate count: never on
block size or evaluation order, and the first R replicates are the same
for any larger replicate count. Aggregation runs over stored
per-replicate values. Scheme 1, one generator per replicate, gave other
simulated values; output simulated before scheme 2 does not reproduce.

:func:`run_replicates` works on blocks of replicates. The chunk
generators fill the rows of a preallocated float64 block and one pass of
numpy calls per block does the rest: exp/floor, a cast to whole counts, a
row-wise sort, h, the citation totals and every threshold count. A block
holds max(1, 2**15 // N) rows of N papers, so its two buffers (float64
draws and int32 counts) take about 384 KiB together whatever the
replicate count, or one row of N elements each when N exceeds 2**15. The
counts are int32 while a block's lifted threshold keys (see
_count_at_least), rows x (largest draw or cut + 1), stay below 2**31.
Otherwise the same steps run on an int64 counts buffer, which a worker
allocates the first time it needs one. A block may span several chunks,
and a chunk several blocks.

The blocks run on every CPU the process may use. Work is cut into units
of whole chunks, about one block each (fewer for a short run), so a
chunk's generator stays in one thread; on one CPU the whole run is one
unit. The calling thread and up to one helper thread per further CPU
take units from one shared iterator, each with its own ~384 KiB pair of
block buffers, and write the rows of the per-replicate arrays that their
units own. numpy releases the
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

from .lognormal import DEFAULT_THRESHOLDS, SeriesSpec, ThresholdSet

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

#: Master seed used when none is given; echoed in CLI output metadata.
DEFAULT_SEED = 20200212
#: How replicate streams derive from the master seed; echoed with it.
SEEDING_VERSION = 2


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

    Replicate i is row i % 64 of the normals drawn by the generator of
    chunk i // 64, seeded with derive_seed(seed, i // 64) (seeding scheme
    v2); per-replicate h, citation totals, and threshold counts are
    stored first and averaged afterwards, so the summary is identical
    however the replicates are blocked.

    Units of whole chunks run on the calling thread and on one helper
    thread per further CPU the process may use, as long as there are
    units for them. Each worker has its own ~384 KiB pair of block
    buffers, float64 draws and int32 counts, and an int64 counts buffer
    as well once a block needs one: one whose lifted threshold keys reach
    2**31. The summary is the same for any worker count and either
    counts dtype. When a unit fails, the workers take no further units,
    every helper is joined, and the error of the earliest failed unit is
    raised, the one a single thread would have met first.
    """
    if replicates < 1:
        raise ValueError(f"need at least 1 replicate, got {replicates}")
    n = spec.n_papers
    xs = list(thresholds)
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
    # the rank of each position in a row sorted ascending
    ranks = np.arange(n, 0, -1, dtype=np.int32)
    cut = math.ceil(xs[-1])
    h_values = np.empty(replicates, dtype=np.int64)
    totals = np.empty(replicates, dtype=np.int64)
    above = np.empty((replicates, len(xs)), dtype=np.int64)
    # (first replicate, float64 totals) of blocks whose totals reach 2**63
    wide: list[tuple[int, np.ndarray]] = []
    # (first replicate of the unit, the exception it raised)
    failures: list[tuple[int, BaseException]] = []
    stop = threading.Event()

    def work() -> None:
        draws = np.empty((rows, n))
        narrow_counts = np.empty((rows, n), dtype=np.int32)
        wide_counts = None
        # the flag is read before a unit is taken, never after, so every
        # unit taken is run: a successful run sets it only once the units
        # are all taken, and a failed one cannot leave an earlier unit unrun
        while not stop.is_set():
            first = next(units, None)
            if first is None:
                return
            try:
                for start, z in _normal_blocks(draws, first, min(first + step, replicates), seed):
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


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _normal_blocks(draws: np.ndarray, first: int, last: int, seed: int):
    """Yield (first replicate, rows) for successive blocks of `draws`.

    The rows hold the standard normals of replicates first .. last - 1
    under seeding scheme v2, one row each; the last block may be shorter.
    `first` starts a chunk. Each block is filled with one standard_normal
    call per chunk it touches, and a chunk's generator carries over into
    the next block.
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


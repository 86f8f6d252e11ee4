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

Sampling scheme v6 (SEEDING_VERSION): a run with master seed s draws from
two generators, the rows stream seeded from (s, 0) and the rest stream
from (s, 1) through a SplitMix64-style avalanche. Every simulated number
is either a replicate's h or a replicate average of an additive count
(the citation total and the threshold counts), and every spec draws them
the same way, exactly in law. With S(k) = P(c >= k) = erfc((ln k - mu) /
(sigma sqrt 2)) / 2 and p_k = S(k) - S(k + 1), the rows stream draws one
row of Multinomial(N; 1 - S(L), p_L, ..., p_{U-1}, S(U)) per replicate:
its papers below L, at each count of the window [L, U), and at U or
more. G(k), the number of papers with k or more citations, is then known
for k in [L, U], and a row's h is the largest k in [L, U) with
G(k) >= k. The rows are drawn in blocks of _BLOCK_ROWS, one multinomial
call each; numpy draws the rows of a call one after another, so the
bytes do not depend on the block size.

The rest stream draws everything else. First, in row order, a row whose
h lies outside the window draws its own breakdown of that side: below L,
one multinomial of its papers over p_0, ..., p_{L-1}; at U or above, one
over p_U, ..., p_{K'-1} and S(K'), K' = max(U, 256), then its papers at
K' or more as floor(exp(mu + sigma z)) with z conditioned on
z >= (ln K' - mu) / sigma (_conditioned_normals). Then every other row's
papers below L and at U or above are drawn pooled over the whole run:
one multinomial for each side, then the pool's tail in pieces of at most
_TAIL_PIECE papers. The piece size is part of the scheme, since
_conditioned_normals' rounds depend on the count asked for.

The pooling is exact: given the window rows, the rows' breakdowns are
independent multinomials with the same cell probabilities, and a sum of
such multinomials is the multinomial of the summed count. So the
per-replicate h, the summed citation total and the summed threshold
counts have exactly the joint law of R fully drawn series, while a
replicate costs W + 2 binomials, W = U - L, and the run a fixed number
of pooled draws. Per-replicate totals and counts are never formed;
ReplicateSummary holds only their means.

The window is a pure function of (mu, sigma, N) (_window): it is
k* +- ceil(4 sd), where k* is the largest k <= N with N S(k) >= k and
sd = sqrt(N S (1 - S)) / (1 + N p), S = S(k*) and p = p_{k*}, is the
first-order standard deviation of h; each side is capped at 128 counts
and the window at [0, N + 1). 3 to 4 rows in 10^5 of the study's series
fall outside it, so the refinements cost little on average.

Row i's window draw and its refinement are prefixes of their streams,
and the pooled draws come after all of them, so results depend only on
the master seed, N and the replicate count, never on evaluation order,
and the first R replicates' h are the same for any larger replicate
count. Schemes 1 (one generator per replicate), 2 (every spec per
paper), 3 (each replicate's whole histogram), 4 (a 7-sd window, a K'
from a cost model, and small N and huge medians drawn per paper, as
under scheme 2) and 5 (one generator per chunk of 64 replicates, each
chunk pooling its own papers outside the window) gave other simulated
values; such output does not reproduce under scheme 6.

:func:`run_replicates` runs on the calling thread, which holds one block
of _BLOCK_ROWS x (W + 2) window counts or one piece of tail papers at a
time, and a run-wide histogram of K' + 1 counts.
"""

from __future__ import annotations

import math
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

#: Window rows drawn by one multinomial call; the bytes do not depend on it.
_BLOCK_ROWS = 1024
#: Most pooled tail papers drawn at once. Part of the sampling scheme:
#: _conditioned_normals' rounds depend on the count asked for.
_TAIL_PIECE = 2**16
#: Draws must stay below this for their floor to fit in int64.
_COUNT_LIMIT = 2.0**63

#: The least K': papers below it are tallied bin by bin, those at K' or
#: more drawn one by one. Also twice the most counts on either side of k*
#: in a window.
_MAX_BINS = 256
#: Standard deviations of h on either side of k* in a window (_window).
_WINDOW_SDS = 4

#: Master seed used when none is given; echoed in CLI output metadata.
DEFAULT_SEED = 20200212
#: How replicate streams derive from the master seed; echoed with it.
SEEDING_VERSION = 6


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

    Sampling scheme v6: a generator seeded with derive_seed(seed, 0)
    draws one multinomial row per replicate of the papers below, inside
    and above the window [L, U) around the expected h (see _window), from
    which each row's h follows. A second, seeded with derive_seed(seed,
    1), draws the breakdown of each of the few rows whose h lies outside
    the window, in row order, and then the papers below L and at U or
    above of all other rows, pooled over the run, which is exact because
    a sum of multinomials with the same cell probabilities is
    multinomial. The citation total and the threshold counts are then
    summed over the run's papers, exactly, and divided by the replicate
    count. The first R replicates' h are the same for any larger
    replicate count. The run stays on the calling thread.
    """
    if replicates < 1:
        raise ValueError(f"need at least 1 replicate, got {replicates}")
    xs = list(thresholds)
    h_values, total, counts = _window_replicates(spec, replicates, xs, seed)
    return ReplicateSummary(
        spec=spec,
        replicates=replicates,
        h_mean=float(h_values.mean()),
        h_stddev=float(h_values.std(ddof=1)) if replicates > 1 else 0.0,
        sum_citations_mean=total / replicates,
        counts_above={x: count / replicates for x, count in zip(xs, counts)},
        seed=seed,
    )


def _window_replicates(spec: SeriesSpec, replicates: int, xs: list[float], seed: int):
    """Per-replicate h, and the citation total and the count at each of
    `xs` summed over all replicates, as Python ints (sampling scheme v6).

    hist[k] counts the run's papers with k citations for k < K' =
    max(U, _MAX_BINS) and hist[K'] its tail papers, those at K' or more,
    whose own citation sum and counts at each x beyond K' are kept apart.
    """
    n, params = spec.n_papers, spec.params
    low, high = _window(spec)
    top = max(high, _MAX_BINS)
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
    rows_rng = np.random.default_rng(derive_seed(seed, 0))
    rest_rng = np.random.default_rng(derive_seed(seed, 1))

    def tail(count: int) -> np.ndarray:
        """`count` tail papers, counted into the tail's sum and counts."""
        nonlocal tail_sum
        papers = _conditioned_normals(rest_rng, a, count)
        largest = _floor_exp(papers, spec)
        # exp can round a draw just past ln K' down below K'
        np.maximum(papers, top, out=papers)
        tail_sum += _exact_sum(papers, max(largest, top))
        for j, x in enumerate(xs):
            if x > top:
                tail_counts[j] += int(np.count_nonzero(papers >= x))
        return papers

    pooled_below = pooled_above = 0
    for start in range(0, replicates, _BLOCK_ROWS):
        window = rows_rng.multinomial(n, window_p, size=min(_BLOCK_ROWS, replicates - start))
        h = h_values[start : start + len(window)]
        # the largest k in [L, U] with G(k) >= k, or L - 1 when G(L) < L;
        # U means h >= U
        h[:] = _h_of_cells(window[:, 1:], 0, low)
        hist[low:high] += window[:, 1:-1].sum(axis=0)
        below = h < low
        above = h == high
        for i in np.flatnonzero(below | above):
            if below[i]:
                # G(L) is the row's papers at L or more
                h[i], _ = _refined_row(rest_rng, window[i, 0], n - window[i, 0], 0, below_p, hist)
            else:
                h[i], count = _refined_row(rest_rng, window[i, -1], 0, high, above_p, hist)
                if count:
                    h[i] = max(h[i], _h_of_papers(tail(count)))
        pooled_below += int(window[~below, 0].sum())
        pooled_above += int(window[~above, -1].sum())
    if pooled_below:
        hist[:low] += rest_rng.multinomial(pooled_below, below_p)
    if pooled_above:
        cells = rest_rng.multinomial(pooled_above, above_p)
        hist[high:] += cells
        count = int(cells[-1])
        for done in range(0, count, _TAIL_PIECE):
            tail(min(_TAIL_PIECE, count - done))

    total = sum(k * c for k, c in enumerate(hist[:-1].tolist())) + tail_sum
    # at_least[k] = the run's papers with k citations or more, k <= K'
    at_least = np.cumsum(hist[::-1])[::-1].tolist()
    counts = [at_least[math.ceil(x)] if x <= top else tail_counts[j] for j, x in enumerate(xs)]
    return h_values, total, counts


def _window(spec: SeriesSpec) -> tuple[int, int]:
    """The window [L, U) of counts whose papers every replicate draws
    one count at a time: k* +- ceil(_WINDOW_SDS sd) within [0, N + 1),
    each side at most _MAX_BINS / 2 counts.

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
    and all below 2**63: float64 partial sums are exact below 2**53.
    Past that the papers are summed as int64 in two halves, the high 31
    bits in int64 and the low 32 in uint64, neither of which can wrap
    for fewer than 2**32 papers."""
    if top * len(papers) < 2.0**53:
        return int(papers.sum())
    counts = papers.astype(np.int64)
    low = (counts & 0xFFFFFFFF).sum(dtype=np.uint64)
    return (int((counts >> 32).sum()) << 32) + int(low)


def _bin_probabilities(params: LognormalParams, bins: int) -> np.ndarray:
    """[p_0, ..., p_{K-1}, S(K)] for K = `bins`: p_k = S(k) - S(k + 1) is
    the probability that a paper's whole count is k, S(k) = P(c >= k).

    S(k) is survival_probability's expression, written out here because
    the call's own cost would dominate: the same operations, so the same
    bits."""
    mu, scale = params.mu, params.sigma * math.sqrt(2.0)
    survival = np.array(
        [1.0] + [0.5 * math.erfc((math.log(k) - mu) / scale) for k in range(1, bins + 1)])
    return np.append(survival[:-1] - survival[1:], survival[-1])


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

"""Replicate-averaged empirical indicators of synthetic citation series.

Draws are exp(mu + sigma * z) with z standard normal, truncated to whole
citation counts and ranked from most to least cited. Truncation (rather
than rounding to nearest) keeps threshold counting exact: a truncated
count reaches an integer threshold x exactly when the underlying draw
does, so empirical exceedance fractions are unbiased estimates of the
model's survival probabilities. The price is a mean shifted down by the
mean fractional part of the draws, about half a citation. Counts are
int64 at most, so a draw whose exp reaches 2**63 raises ValueError
instead of wrapping, and so does a run of N x replicates >= 2**63 papers.

Sampling scheme v8 (SEEDING_VERSION): a run with master seed s draws from
two generators, the rows stream seeded from (s, 0) and the rest stream
from (s, 1) through a SplitMix64-style avalanche. Every simulated number
is either a replicate's h or a replicate average of an additive count
(the citation total and the threshold counts), and every spec draws them
the same way, exactly in law. With S(k) = P(c >= k) = erfc((ln k - mu) /
(sigma sqrt 2)) / 2 and p_k = S(k) - S(k + 1), each replicate finds its h
by a scan of G(k), its number of papers with k or more citations, from
k*, the largest k <= N with N S(k) >= k (_scan_start). This is the
conditional-distribution method for multinomials (Davis 1993, Comput.
Stat. Data Anal. 16:205; Devroye 1986, Non-Uniform Random Variate
Generation), stopped as soon as h is known:

- every row draws G(k*) ~ Bin(N, S(k*));
- a row with G(k*) >= k* steps up, G(k + 1) ~ Bin(G(k), S(k + 1) / S(k)),
  until G(k) < k, and its h is k - 1;
- any other row steps down until G(k) >= k, and its h is k: of its
  N - G(k) papers below k, Bin(N - G(k), (1 - S(k - 1)) / (1 - S(k)))
  stay below k - 1, the same law as G(k - 1) = G(k) + Bin(N - G(k),
  p_{k-1} / (1 - S(k))), so that both directions draw the papers a row
  keeps on its far side (_kept).

An up-row costs |h - k*| + 2 binomials and a down-row |h - k*| + 1. Scan
step t (t = 0 draws G(k*)) draws from substream t of the rows stream, that
stream jumped t times (PCG64.jumped), carried from one block of
_BLOCK_ROWS rows to the next. A step draws one binomial per row still
scanning, in row order, so the bytes do not depend on the block size,
and the first R replicates' h are the same for any larger replicate
count.

Step 0 draws one law for every row, Bin(N, S(k*)). Where numpy draws
that law by inversion, p N <= 30 for p = S(k*) <= 1/2 or (1 - p) N <= 30
above (the smallest series: 8 of the study's 30), _inversion replays
numpy's loop for the whole call, from one table of the law's partial
sums: the same doubles, one a row, give the same variates and leave the
stream where numpy would. Where a uniform lies too close to a partial
sum for the table's rounding to tell, it rewinds and numpy draws the
call. So step 0's bytes are numpy's either way, and
tests/test_montecarlo.py's TestInversion pins them against numpy's.
Later steps, whose trials differ by row, and laws in numpy's BTPE regime
(N p > 30) are drawn by Generator.binomial.

A row leaves some papers unresolved: those at or above the count where an
up-row stopped, or below it for a down-row, and those on the other side
of k*. Given the scan, the papers known to lie at j or more are
independent draws from the law conditioned on c >= j, whichever row they
belong to, and likewise below j. So the rest stream pools them over the
whole run, exactly in law, and draws them one side at a time, the side
below k* first, each by one call of one routine (_pooled_side), applied
to the law above and to its reflection below:

- a cascade places the side's papers count by count: below k*, from k*
  down, one Bin(M, p_{j-1} / (1 - S(j))) at each count j for the M
  papers known to lie below j, those carried from above plus those of
  the rows that stopped at j; above, from the lowest count up, one Bin(M,
  p_j / S(j)) at each j. Its last count is J;
- one multinomial over a window of bins and a last cell for the papers
  past it: above, bins [J, K'), K' the largest of J, _MAX_BINS and one
  past every count a paper was placed at, and S(K'); below, bins [L, J),
  L = J - _MAX_BINS, and 1 - S(L), or where J <= _MAX_BINS the bins [0,
  J) alone, as scheme 7 drew them;
- below, while more papers lie below L than counts do, the window moves
  down _MAX_BINS counts, L with it, and draws them likewise;
- the papers left at K' or more drawn as floor(exp(mu + sigma z)) with z
  conditioned on z >= (ln K' - mu) / sigma (_conditioned_normals), and
  those below L with -z >= (mu - ln L) / sigma, each in pieces of at most
  _TAIL_PIECE papers; a tail paper that exp rounds across its edge counts
  K' above and L - 1 below.

So below k* a run draws papers one by one only where they are fewer than
the counts left unbinned: its work is at most about J, as scheme 7's
was, and about the papers below J where those are fewer, and its memory
holds one window and one piece. The piece size is part of the scheme,
since _conditioned_normals' rounds depend on the count asked for. The
scans, the cascades and the first window of each side take S(k) from
one table, each count evaluated once and only at the counts the scans
visit and over the bins of pools that hold papers; later windows
evaluate their own counts with _survival and keep none. k* alone is
found with survival_probability, and the law does not depend on it.

Schemes 1 (one generator per replicate), 2 (every spec per paper), 3
(each replicate's whole histogram), 4 (a 7-sd window, a K' from a cost
model, and small N and huge medians drawn per paper), 5 (one generator
per chunk of 64 replicates, each chunk pooling its own papers outside a
4-sd window) and 6 (one multinomial row per replicate over that window,
from two streams a run) gave other simulated values; such output does
not reproduce under scheme 8. Scheme 7 drew one multinomial over every
count below the lower side's J, in memory that grew with h. Scheme 8
draws what it drew wherever that J is at most _MAX_BINS or no paper lies
below it: every golden file, the study's 30 series (largest k* 144) and
the benchmark's commands.

:func:`run_replicates` runs on the calling thread, which holds one block
of rows, one window of bins or one piece of tail papers at a time. Every
simulated number is an exact Python-int sum over the run, of h, h^2, the
citation totals or the threshold counts, divided by the replicate count
once: no per-replicate array is formed, so memory grows neither with
the replicate count nor with h, only with the spread of the replicates'
h, which the scans cross.

numpy is imported by the functions that draw, on their first call, not
with the module: the CLI imports this module for its defaults and
derive_seed, and its closed-form commands start about 0.1 s sooner
without numpy. derive_seed is plain Python. No other module of the
package imports numpy.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

from .lognormal import (
    DEFAULT_THRESHOLDS,
    LognormalParams,
    SeriesSpec,
    ThresholdSet,
    survival_probability,
)

if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Rows scanned together; the bytes do not depend on it.
_BLOCK_ROWS = 2**16
#: PCG64's jump, (phi - 1) 2**128 draws (numpy's PCG64.jumped). Scan step t
#: draws from the rows stream jumped t times. A power-of-two spacing would
#: not do: PCG64 states 2**100 apart share their low bits, so their outputs
#: correlate, and h came out biased.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835
#: Most pooled tail papers drawn at once. Part of the sampling scheme:
#: _conditioned_normals' rounds depend on the count asked for.
_TAIL_PIECE = 2**16
#: _inversion leaves to numpy each call with a uniform this close to one
#: of its partial sums.
_MARGIN = 2.0**-40
#: Draws must stay below this for their floor to fit in int64.
_COUNT_LIMIT = 2.0**63

#: The least K': pooled papers below it are tallied bin by bin, those at
#: K' or more drawn one by one.
_MAX_BINS = 256

#: Master seed used when none is given; echoed in CLI output metadata.
DEFAULT_SEED = 20200212
#: Replicates per series when none is given.
DEFAULT_REPLICATES = 10_000
#: How replicate streams derive from the master seed; echoed with it.
SEEDING_VERSION = 8


def derive_seed(master: int, index: int) -> int:
    """Deterministic 64-bit sub-seed for stream `index` under `master`.

    SplitMix64: jump the Weyl sequence to position index + 1, then
    avalanche. Nearby (master, index) pairs land on unrelated seeds.
    A master outside [0, 2**64) raises ValueError: masked to 64 bits,
    it would give the same streams as a master inside.
    """
    if not 0 <= master <= _MASK64:
        raise ValueError(f"seed must be in [0, 2^64), got {master}")
    if index < 0:
        raise ValueError(f"stream index must be nonnegative, got {index}")
    z = (master + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _check_run(seed: int, replicates: int) -> None:
    """Raise ValueError for a master seed or replicate count that a
    simulated run rejects, whether or not anything is drawn."""
    derive_seed(seed, 0)
    if replicates < 1:
        raise ValueError(f"need at least 1 replicate, got {replicates}")


# Nothing calls this; bench/selftest.py patches it. It goes once the self-test
# plants its round-to-nearest fault in _survival and _floor_exp instead.
def _draw_sorted_counts(spec: SeriesSpec, seed: int) -> np.ndarray:
    import numpy as np

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
    import numpy as np

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


def run_replicates(
    spec: SeriesSpec,
    replicates: int,
    thresholds: ThresholdSet = DEFAULT_THRESHOLDS,
    seed: int = DEFAULT_SEED,
) -> ReplicateSummary:
    """Generate `replicates` independent series and average their metrics.

    Sampling scheme v8: a generator seeded with derive_seed(seed, 0) finds
    each replicate's h by a scan of binomials from k*, the h of the expected
    exceedance counts (see _scan_start), step t of every replicate's scan
    drawing from that generator jumped t times, in replicate order. A
    second, seeded with derive_seed(seed, 1), then draws the papers the
    scans left unresolved, pooled over the run by a cascade of binomials
    on each side of k*, then multinomials over windows of bins and one
    tail per side, exact in law because the papers known to lie on one
    side of a count are independent draws from the law conditioned on
    that side. h, h^2, the citation total and the threshold counts are
    summed over the run exactly and divided by the replicate count. The
    first R replicates' h are the same for any larger replicate count. A
    run of N x replicates >= 2**63 papers, past its int64 paper counts,
    raises ValueError.
    """
    _check_run(seed, replicates)
    if spec.n_papers * replicates >= 2**63:
        raise ValueError(f"N x replicates must stay below 2^63, got N = {spec.n_papers}, "
                         f"replicates = {replicates}")
    xs = list(thresholds)
    sum_h, sum_h2, total, counts = _scan_replicates(spec, replicates, xs, seed)
    # int / int divisions, correctly rounded; the spread is 0 at 1 replicate
    spread = (replicates * sum_h2 - sum_h * sum_h) / (replicates * (replicates - 1) or 1)
    return ReplicateSummary(
        spec=spec,
        replicates=replicates,
        h_mean=sum_h / replicates,
        h_stddev=math.sqrt(spread),
        sum_citations_mean=total / replicates,
        counts_above={x: count / replicates for x, count in zip(xs, counts)},
    )


def _scan_replicates(spec: SeriesSpec, replicates: int, xs: list[float], seed: int):
    """Exact Python-int sums over all replicates of h, h^2, the citation
    total and the count at each of `xs` (sampling scheme v8).

    Block by block, the scans place papers at counts in `exact` and pool
    the rest in `above`, at j or more, and `below`, below j. Then one
    call per side draws its pool, the side below first, as the rest
    stream's order has it, and its cascade adds to `exact`, which is
    tallied last."""
    import numpy as np

    n, params = spec.n_papers, spec.params
    start = _scan_start(spec)
    survival = _SurvivalTable(params, start)
    streams = _Substreams(derive_seed(seed, 0))
    rest_rng = np.random.default_rng(derive_seed(seed, 1))
    exact, above, below = (defaultdict(int) for _ in range(3))
    sum_h = sum_h2 = 0
    for first in range(0, replicates, _BLOCK_ROWS):
        size = min(_BLOCK_ROWS, replicates - first)
        streams.carry = first + size < replicates
        h = _scan(streams, size, n, start, survival, exact, above, below)
        # Python ints: a block's sum of h^2 can pass 2^63
        low = int(h.min())
        for value, count in enumerate(np.bincount(h - low).tolist(), low):
            sum_h += count * value
            sum_h2 += count * value * value

    counts = [0] * len(xs)
    total = _pooled_side(spec, below, False, start, survival, rest_rng, exact, xs, counts)
    total += _pooled_side(spec, above, True, start, survival, rest_rng, exact, xs, counts)
    first = min(exact, default=0)
    placed = [exact.get(k, 0) for k in range(first, max(exact, default=0) + 1)]
    total += _tally(first, placed, xs, counts)
    return sum_h, sum_h2, total, counts


def _pooled_side(spec: SeriesSpec, pool: dict[int, int], up: bool, start: int,
                 survival: _SurvivalTable, rng: np.random.Generator,
                 exact: defaultdict[int, int], xs: list[float], counts: list[int]) -> int:
    """Draw the papers of `pool`, pool[j] known to lie at j or more
    (`up`) or below j: add their count at each of `xs` to `counts`, and
    return their exact citation sum.

    A cascade places them in `exact`, count by count: up from the pool's
    lowest count, Bin(M, p_j / S(j)) of the M known to lie at j or more;
    down from its highest, Bin(M, p_{j-1} / (1 - S(j))) of the M below j.
    Its last count is J, k* = `start` if the pool holds none. One
    multinomial then draws the papers past J over a window of bins and,
    unless the window reaches 0, a last cell for the papers past it: up,
    bins [J, K') and S(K'), K' the largest of J, _MAX_BINS and one past
    every count a paper was placed at; down, bins [L, J) and 1 - S(L), L
    = max(J - _MAX_BINS, 0). Below, while more papers lie below L than
    counts do, the window moves down by _MAX_BINS counts and draws them
    likewise. The papers left past the window, under the law above K' or
    its reflection below L, are drawn as floor(exp(mu + sigma z)) with z
    >= (ln K' - mu) / sigma, or -z >= (mu - ln L) / sigma, in pieces of
    at most _TAIL_PIECE papers."""
    import numpy as np

    held = sorted(j for j, m in pool.items() if m) or [start]
    first, last = held[0], held[-1]
    s = survival(first, last + 1)
    tail = 0
    for j in range(first, last) if up else range(last, first, -1):
        tail += pool.get(j, 0)
        if tail:
            i = j if up else j - 1
            s_i, s_next = s[i - first], s[i + 1 - first]
            placed = int(rng.binomial(tail, (s_i - s_next) / (s_i if up else 1.0 - s_next)))
            exact[i] += placed
            tail -= placed
    # the papers past J: at J or more up, below J down
    tail += pool.get(last if up else first, 0)
    if up:
        # K' lies past every count a paper was placed at, whether or not a
        # pool above it holds papers
        lo, hi = last, max(last, max((k + 1 for k, m in exact.items() if m), default=0), _MAX_BINS)
    else:
        lo, hi = max(first - _MAX_BINS, 0), first
    total = 0
    # the cells are the differences of S over their edges
    s = np.array(survival(lo, hi + 1) if tail and lo < hi else [])
    while tail and lo < hi:
        p = s[:-1] - s[1:]
        # a cell past the edge, but for the papers below L = 0
        if up or lo:
            p = np.append(p, s[-1] if up else 1.0 - s[0])
        # cells that are all zero hold no paper, and stay zero
        cells = rng.multinomial(tail, p / (p.sum() or 1.0)).tolist()
        tail = cells.pop() if up or lo else 0
        total += _tally(lo, cells, xs, counts)
        if up or tail <= lo:
            break
        # the next window's S comes from _survival, not the table, so that
        # a run keeps no S below the first window
        lo, hi = max(lo - _MAX_BINS, 0), lo
        s = np.array(_survival(spec.params, lo, hi) + [s[0]])
    # the law past the edge, or its reflection; exp can round a draw just
    # past the edge back across it
    sign, clamp, bound = (1, np.maximum, hi) if up else (-1, np.minimum, lo - 1)
    for done in range(0, tail, _TAIL_PIECE):
        a = sign * (math.log(hi if up else lo) - spec.params.mu) / spec.params.sigma
        papers = _conditioned_normals(rng, a, min(_TAIL_PIECE, tail - done))
        papers *= sign
        largest = _floor_exp(papers, spec)
        clamp(papers, bound, out=papers)
        total += _exact_sum(papers, max(largest, bound))
        for j, x in enumerate(xs):
            # above, every paper reaches an x up to K'; below, none reaches L
            counts[j] += (len(papers) if up and x <= hi
                          else int(np.count_nonzero(papers >= x)) if up or x < lo else 0)
    return total


def _tally(first: int, bins: list[int], xs: list[float], counts: list[int]) -> int:
    """Add to `counts` the papers of `bins`, bins[i] at count first + i,
    that reach each of `xs`, and return their exact citation sum."""
    # at_least[i]: the papers at first + i or more; none past the last bin
    at_least = list(accumulate(reversed(bins)))[::-1] + [0]
    for j, x in enumerate(xs):
        counts[j] += at_least[min(max(math.ceil(x) - first, 0), len(bins))]
    return first * at_least[0] + sum(at_least[1:])


def _scan(streams: _Substreams, size: int, n: int, start: int, survival: _SurvivalTable,
          exact: defaultdict[int, int], above: defaultdict[int, int],
          below: defaultdict[int, int]) -> np.ndarray:
    """The h of each of `size` rows of N papers, scanned from k* =
    `start`. The papers each row places are added to `exact[k]` at count
    k, and those it keeps on a far side to `above[j]`, at j or more, or
    `below[j]`, below j.

    t holds each row's papers on the far side of its count k: G(k) for
    an up-row, N - G(k) for a down-row. A step keeps each of them past
    the next count with probability _kept and places the rest at k (up)
    or k - 1 (down), so up-rows reach k* + s at step s and down-rows
    k* - s. A row stops once it keeps at most its limit, which rises by
    one a step. u is 1 on the up-rows and 0 on the down-rows, and each
    row takes its probability and its limit by indexing a (down, up)
    pair with u, so a step draws every row alike. The rows still
    scanning are then compacted by one index array, and `rows` holds
    their indices among the `size`, so a row's last step is its stop
    step.

    Every scanning row keeps at least one paper: at step 0 an up-row
    holds G(k*) >= k* >= 1, or G(0) = N at k* = 0, and a down-row N -
    G(k*) >= 1; later a row scans on only while it keeps more than its
    limit, which is never negative. So the held sums, held_up and
    held_down, are positive exactly when their side has rows. A side
    with none takes a placeholder probability and limit and adds 0 to
    `exact`, and S is only evaluated at the counts of a side with rows.
    The down-limit needs its placeholder: once the last down-row has
    stopped, N - (k* - s) can pass int64.
    """
    import numpy as np

    g = streams.binomial(0, n, survival(start, start + 1)[0], size)
    up = g >= start
    u = up.astype(np.int64)
    ups = int(u.sum())
    t = np.where(up, g, n - g)
    # the papers the up-rows and the down-rows keep on their far sides
    held_up = int(np.dot(t, u))
    held_down = int(t.sum()) - held_up
    above[start] += n * (size - ups) - held_down
    below[start] += n * ups - held_up
    rows = np.arange(size)
    stops = np.zeros(size, dtype=np.int64)
    step = 0
    while t.size:
        step += 1
        high, low = start + step, start - step
        r_up = _kept(survival, high - 1, True) if held_up else 0.0
        r_down = _kept(survival, low + 1, False) if held_down else 0.0
        t = streams.binomial(step, t, np.array([r_down, r_up]).take(u))
        kept_up = int(np.dot(t, u))
        kept_down = int(t.sum()) - kept_up
        exact[high - 1] += held_up - kept_up
        exact[low] += held_down - kept_down
        # up: G(k* + s) <= k* + s - 1; down: N - G(k* - s) <= N - k* + s,
        # past int64 once no down-row is left
        limits = np.array([n - low if held_down else 0, high - 1])
        going = np.flatnonzero(t > limits.take(u))
        stops[rows] = step
        t, u, rows = t.take(going), u.take(going), rows.take(going)
        held_up = int(np.dot(t, u))
        held_down = int(t.sum()) - held_up
        above[high] += kept_up - held_up
        below[low] += kept_down - held_down
    # an up-row that stops at step s has h = k* + s - 1, a down-row k* - s
    return np.where(up, start + stops - 1, start - stops)


def _kept(survival: _SurvivalTable, k: int, up: bool) -> float:
    """The probability that a paper on the far side of count k, at k or
    more for an up-row and below k for a down-row, lies past the next
    count too: S(k + 1) / S(k) up, (1 - S(k - 1)) / (1 - S(k)) down, so
    a down-step draws the papers that stay below (see the module
    docstring)."""
    if up:
        s_k, s_next = survival(k, k + 2)
        return min(s_next / s_k, 1.0)
    s_next, s_k = survival(k - 1, k + 1)
    return min((1.0 - s_next) / (1.0 - s_k), 1.0)


class _Substreams:
    """Scan step t draws from substream t of one PCG64 stream, that
    stream jumped t times, then carried from one call to the next while
    `carry` is set: a later block of rows draws after this one."""

    def __init__(self, seed: int) -> None:
        import numpy as np

        self._bits = np.random.PCG64(seed)
        self._rng = np.random.Generator(self._bits)
        self._origin = self._bits.state
        self._states: list[dict] = []
        self.carry = False

    def binomial(self, step: int, trials, p, size=None):
        """Bin(trials, p) from substream `step`, after its earlier draws:
        `size` draws of one law (step 0) by _inversion where it can, the
        rest by Generator.binomial."""
        bits = self._bits
        if step < len(self._states):
            bits.state = self._states[step]
        else:
            bits.state = self._origin
            bits.advance(step * _JUMP % 2**128)
        drawn = None if size is None else _inversion(self._rng, trials, p, size)
        if drawn is None:
            drawn = self._rng.binomial(trials, p, size)
        if self.carry:
            if step < len(self._states):
                self._states[step] = bits.state
            else:
                self._states.append(bits.state)
        return drawn


def _inversion(rng: np.random.Generator, n: int, p: float, size: int) -> np.ndarray | None:
    """rng.binomial(n, p, size): the same draws and the same end state, or
    None, having drawn nothing, where it cannot tell them.

    Where p <= 1/2 and p N <= 30, or 1 - p in their place, numpy draws
    each variate by inversion (Kachitvichyanukul & Schmeiser 1988, CACM
    31:216): one double U, then x = 0, 1, ... while U, less px_0, ...,
    px_{x-1}, exceeds px_x, with px_0 = (1 - p)^N and px_x = ((N - x + 1)
    p px_{x-1}) / (x (1 - p)), and a fresh U past its bound. So X is the
    first x whose partial sum P_x reaches U. This builds the P_x, draws the
    same doubles, one a row, and finds each X by an indexed search (Chen &
    Asau 1974; Devroye 1986, III.2.4): of 2^k cells of [0, 1), about one
    for every 8 rows, a cell that holds no edge gives each U in it the
    edges below the cell, and the U in the others are searched. It rewinds
    and returns None where a U lies within _MARGIN of a P_x, far above the
    rounding of the C loop's subtractions, or past the last P_x, where
    numpy might restart. The P_x stop at numpy's bound, or where the rest
    of the law is within _MARGIN of 0. Other laws, and N = 0, p = 0 and
    p = 1, are left to numpy.
    """
    import numpy as np

    inverted = p > 0.5
    if inverted:
        p = 1.0 - p
    if not 0.0 < p * n <= 30.0:
        return None
    q = 1.0 - p
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    # P_0 - m, P_0 + m, P_1 - m, ..., P_x - m: an odd number of edges at or
    # below U puts it within m of a P or past the last
    px = total = math.exp(n * math.log1p(-p))
    edges = [total - _MARGIN]
    x = 0
    while x < bound and total < 1.0 - _MARGIN:
        x += 1
        px = ((n - x + 1) * p * px) / (x * q)
        edges.append(total + _MARGIN)
        total += px
        edges.append(total - _MARGIN)
    # the edges of a px below 2m overlap; kept nondecreasing, an overlap
    # is a run of odd counts
    edges = np.maximum.accumulate(edges)
    bits = rng.bit_generator
    start = bits.state
    u = rng.random(size)
    # cell c holds [c / cells, (c + 1) / cells); a product by a power of
    # two is exact. Cell -1 takes the edges below 0, `cells` those past 1
    cells = 1 << max(size.bit_length() - 3, 0)
    held = np.bincount(np.floor(edges * cells).clip(-1, cells).astype(np.intp) + 1,
                       minlength=cells + 2)
    found = np.where(held, -1, np.cumsum(held) - held)[1:-1][(u * cells).astype(np.intp)]
    search = np.flatnonzero(found < 0)
    found[search] = edges.searchsorted(u[search], side="right")
    if (found & 1).any():
        bits.state = start
        return None
    found >>= 1
    return n - found if inverted else found


class _SurvivalTable:
    """S(k) for the counts a run has asked for, evaluated by _survival
    once each. The table starts empty at k* = `start`, and the counts
    asked for grow outward from it as one range: the first is S(k*),
    for _scan's step 0."""

    def __init__(self, params: LognormalParams, start: int) -> None:
        self._params = params
        self._first = start
        self._values: list[float] = []

    def __call__(self, first: int, last: int) -> list[float]:
        """S(k) for k in [first, last)."""
        if first < self._first:
            self._values = _survival(self._params, first, self._first) + self._values
            self._first = first
        end = self._first + len(self._values)
        if last > end:
            self._values += _survival(self._params, end, last)
        return self._values[first - self._first : last - self._first]


def _scan_start(spec: SeriesSpec) -> int:
    """k*, where every replicate's scan starts: the largest k <= N with
    N S(k) >= k, the h of the expected exceedance counts, found by
    bisection as one less than the first k in [1, N] with N S(k) < k, or
    N if there is none. run_replicates rejects N >= 2**63 first, so the
    range's length fits in a Py_ssize_t."""
    n, params = spec.n_papers, spec.params
    # N S(k) - k falls with k and is N at k = 0
    return bisect.bisect_left(range(1, n + 1), True,
                              key=lambda k: n * survival_probability(k, params) < k)


def _exact_sum(papers: np.ndarray, top: float) -> int:
    """The exact sum of whole-number float64 `papers`, none above `top`
    and all below 2**63: float64 partial sums are exact below 2**53.
    Past that the papers are summed as int64 in two halves, the high 31
    bits in int64 and the low 32 in uint64, neither of which can wrap
    for fewer than 2**32 papers."""
    import numpy as np

    if top * len(papers) < 2.0**53:
        return int(papers.sum())
    counts = papers.astype(np.int64)
    low = (counts & 0xFFFFFFFF).sum(dtype=np.uint64)
    return (int((counts >> 32).sum()) << 32) + int(low)


def _survival(params: LognormalParams, first: int, last: int) -> list[float]:
    """S(k) = P(c >= k) for k in [first, last), S(0) = 1. Every S(k) and
    p_k = S(k) - S(k + 1) a run uses comes from here.

    S(k) is survival_probability's expression, written out here because
    the call's own cost would dominate: the same operations, so the same
    bits."""
    mu, scale = params.mu, params.sigma * math.sqrt(2.0)
    erfc, log = math.erfc, math.log
    return [1.0] * (first == 0 < last) + [
        0.5 * erfc((ln_k - mu) / scale) for ln_k in map(log, range(max(first, 1), last))]


def _conditioned_normals(rng: np.random.Generator, a: float, count: int) -> np.ndarray:
    """`count` standard normals from `rng` conditioned on z >= a, drawn by
    rejection, in the order accepted.

    Marsaglia's method (1964, Technometrics 6:101) proposes
    x = sqrt(a^2 - 2 ln(1 - U1)) and accepts it when U2 x < a, at the
    rate a sqrt(2 pi) e^(a^2 / 2) P(Z >= a); plain rejection accepts
    standard normals at or above a, at the rate P(Z >= a). The one that
    accepts more is used: Marsaglia's method above a = 0.372. Each round
    draws ceil((1.1 r + 8) / rate) candidates, r the number still needed,
    or just r when plain rejection's rate is 1 in double precision: two
    rows of uniforms, U1 then U2, for Marsaglia's method, standard normals
    otherwise. Accepted values beyond `count` are dropped.
    """
    import numpy as np

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
        m = need if plain == 1.0 else math.ceil((1.1 * need + 8) / rate)
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

"""Checks of citesim's CLI output against values computed apart from it.

Every expected value here comes from the model's definition evaluated
with scipy, never from citesim's own functions. The only things read
from citesim are the study's (mu, sigma, N) inputs.

Model: a paper's citation draw is X = exp(mu + sigma Z), Z standard
normal, its count is floor(X), and S(k) = P(X >= k) = norm.sf((ln k - mu)
/ sigma). Under truncation #{c >= k} ~ Binomial(N, S(k)), so

- E[f_x] = N S(x), and the count summed over R replicates is
  Binomial(R N, S(x)) exactly;
- P(h >= k) = P(Binomial(N, S(k)) >= k), which gives the whole law of h;
- E[sum c] = N sum_{k>=1} S(k).

Simulated cells are gated by Z_GATE standard errors plus half a unit of
their printed last digit; analytic cells by print precision alone.
"""

from __future__ import annotations

import csv
import math
import warnings

import numpy as np
from scipy import optimize, special, stats

from citesim.reference import REFERENCE_ROWS

#: Standard errors a simulated cell may sit from its expectation. Two
#: sided, 5 sigma is a 5.7e-7 chance per cell of failing correct code.
Z_GATE = 5.0
_ALPHA = 2.0 * stats.norm.sf(Z_GATE)
#: Fit coefficients may differ in the last digits of two optimisers'
#: stopping points. Scaling h by 1 + 1e-4 moves the amplitude, intercept
#: and slope of a fit on h by 100 times this.
FIT_REL = 1e-6
#: p-values come from different tail routines; compare them relatively.
P_REL = 1e-6
#: p-values below any double's precision: both sides agree they are 0.
P_ABS = 1e-300
THRESHOLDS = (5, 10, 20, 50, 100, 500)
STUDY = tuple((r.mu, r.sigma, r.n_papers) for r in REFERENCE_ROWS)


def survival(k, mu: float, sigma: float):
    """P(X >= k) for the lognormal draw X."""
    return special.ndtr(-(np.log(k) - mu) / sigma)


def mean_x(mu: float, sigma: float) -> float:
    return math.exp(mu + 0.5 * sigma * sigma)


def h_root(mu: float, sigma: float, n: int) -> float:
    """Continuous fixed point N S(h) = h, by scipy's brentq in u = ln h."""

    def gap(u: float) -> float:
        return n * special.ndtr(-(u - mu) / sigma) - math.exp(u)

    u = optimize.brentq(gap, -50.0, math.log(n), xtol=1e-15, rtol=1e-15, maxiter=500)
    return math.exp(u)


def h_law(mu: float, sigma: float, n: int) -> np.ndarray:
    """P(h = k) for k = 0..N, from P(h >= k) = P(Bin(N, S(k)) >= k)."""
    k = np.arange(1, n + 1)
    at_least = np.concatenate(([1.0], stats.binom.sf(k - 1, n, survival(k, mu, sigma)), [0.0]))
    return at_least[:-1] - at_least[1:]


def mean_floor_x(mu: float, sigma: float, terms: int = 20_000) -> float:
    """E[floor X] = sum_{k>=1} S(k): `terms` terms summed, the rest closed
    by the midpoint integral int_{K+1/2}^inf S(t) dt = E[(X - a)+]."""
    k = np.arange(1, terms + 1)
    a = terms + 0.5
    tail = mean_x(mu, sigma) * stats.norm.sf((math.log(a) - mu - sigma * sigma) / sigma)
    tail -= a * float(survival(a, mu, sigma))
    return float(np.sum(survival(k, mu, sigma))) + tail


def var_x(mu: float, sigma: float) -> float:
    """Variance of the continuous draw; scales the standard error of sum c."""
    return math.expm1(sigma * sigma) * math.exp(2.0 * mu + sigma * sigma)


def half_unit(text: str) -> float:
    """Half a unit in the last digit printed in `text`."""
    mantissa, _, exponent = text.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 0.5 * 10.0 ** (int(exponent or 0) - decimals)


def half_unit_6g(value: float) -> float:
    """Half a unit in the sixth significant digit, the `%.6g` rounding."""
    if value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 5)


class Checker:
    """Collects failures; `failures` is empty when every cell passed."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.cells = 0

    def expect(self, ok: bool, what: str) -> None:
        self.cells += 1
        if not ok:
            self.failures.append(what)

    def near(self, printed: str, expected: float, tol: float, what: str) -> None:
        value = float(printed)
        self.expect(abs(value - expected) <= tol, f"{what}: printed {printed}, expected {expected:.10g}")

    def printed_6g(self, printed: str, expected: float, what: str, rel: float = 1e-9, abs_: float = 0.0) -> None:
        """A `%.6g` cell equals `expected` to print precision, with `rel` and
        `abs_` allowing for the two computations' own rounding."""
        tol = half_unit_6g(float(printed)) + rel * abs(expected) + abs_
        self.near(printed, expected, tol, what)

    def mean_of_replicates(self, printed: str, slack: float, mean: float, se: float, what: str) -> None:
        """A replicate mean within Z_GATE standard errors plus `slack`."""
        self.near(printed, mean, Z_GATE * se + slack, what + f" (se {se:.3g})")

    def binomial_total(self, printed: str, slack: float, scale: float, trials: float, p: float, what: str) -> None:
        """`printed` * `scale` is a Binomial(trials, p) total, up to `slack`
        of print rounding; gated by the exact central 1 - _ALPHA region,
        which stays exact for rare events where a z-score does not."""
        lo = stats.binom.ppf(0.5 * _ALPHA, trials, p)
        hi = stats.binom.isf(0.5 * _ALPHA, trials, p)
        value = float(printed)
        ok = (value + slack) * scale >= lo - 1e-6 and (value - slack) * scale <= hi + 1e-6
        self.expect(ok, f"{what}: printed {printed}, total {value * scale:.6g} outside [{lo:g}, {hi:g}]")


def check_output(argv: list[str], stdout: str, checker: Checker) -> None:
    """Check one command's stdout; the command is read back from `argv`."""
    command, flags = argv[0], _flags(argv[1:])
    if command == "table1":
        rows = _csv(stdout)
        if flags.get("--mode", "analytic") == "simulate":
            _check_table1_simulated(rows, int(flags["--replicates"]), checker)
        else:
            _check_table1_analytic(rows, checker)
    elif command == "simulate":
        _check_simulate(_csv(stdout), flags, checker)
    elif command == "hcurve":
        _check_hcurve(_csv(stdout), flags, checker)
    elif command == "scatter":
        _check_scatter(_csv(stdout), flags, checker)
    elif command == "fit":
        _check_fit(_key_values(stdout), flags, checker)
    else:
        checker.expect(False, f"no check for command {command!r}")


def _flags(args: list[str]) -> dict[str, str]:
    flags: dict[str, str] = {}
    i = 0
    while i < len(args):
        if i + 1 < len(args) and not args[i + 1].startswith("--"):
            flags[args[i]] = args[i + 1]
            i += 2
        else:
            flags[args[i]] = ""
            i += 1
    return flags


def _csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(text.splitlines()))


def _key_values(text: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in text.splitlines())


def _study_rows(rows: list[dict[str, str]], checker: Checker) -> list[tuple[float, float, int]]:
    printed = [(float(r["mu"]), float(r["sigma"]), int(r["n"])) for r in rows]
    checker.expect(printed == list(STUDY), "table1 rows are not the study's 30 series in order")
    return list(STUDY)


def _check_table1_analytic(rows: list[dict[str, str]], checker: Checker) -> None:
    for i, (mu, sigma, n) in enumerate(_study_rows(rows, checker)):
        row = rows[i]
        where = f"table1 series {i + 1}"
        checker.near(row["sum_c"], n * mean_x(mu, sigma), 0.5 + 1e-9 * n * mean_x(mu, sigma), where + " sum_c")
        h = h_root(mu, sigma, n)
        checker.near(row["h"], h, 0.5 + 1e-9 * h, where + " h")
        for x in THRESHOLDS:
            cell = row[f"p_{x}"]
            p = float(survival(x, mu, sigma))
            checker.near(cell, p, half_unit(cell) + 1e-12 * p, where + f" p_{x}")


def _check_table1_simulated(rows: list[dict[str, str]], replicates: int, checker: Checker) -> None:
    for i, (mu, sigma, n) in enumerate(_study_rows(rows, checker)):
        row = rows[i]
        where = f"table1 simulate series {i + 1}"
        law = h_law(mu, sigma, n)
        _gate_h_mean(row["h"], 0.5, law, replicates, checker, where + " h")
        sum_se = math.sqrt(n * var_x(mu, sigma) / replicates)
        checker.mean_of_replicates(row["sum_c"], 0.5, n * mean_floor_x(mu, sigma), sum_se, where + " sum_c")
        for x in THRESHOLDS:
            cell = row[f"p_{x}"]
            checker.binomial_total(cell, half_unit(cell), replicates * n, replicates * n,
                                   float(survival(x, mu, sigma)), where + f" p_{x}")


def _check_simulate(rows: list[dict[str, str]], flags: dict[str, str], checker: Checker) -> None:
    mu, sigma, n = float(flags["--mu"]), float(flags["--sigma"]), int(flags["--n"])
    replicates = int(flags["--replicates"])
    where = f"simulate mu={mu:g} sigma={sigma:g} n={n}"
    checker.expect(len(rows) == 1, where + ": expected one row")
    row = rows[0]
    checker.expect(row["replicates"] == str(replicates) and row["seed"] == flags["--seed"],
                   where + ": replicates or seed not echoed")
    law = h_law(mu, sigma, n)
    _gate_h_mean(row["h_mean"], half_unit_6g(float(row["h_mean"])), law, replicates, checker, where + " h_mean")
    k = np.arange(law.size)
    mean = float(k @ law)
    var = float((k - mean) ** 2 @ law)
    fourth = float((k - mean) ** 4 @ law)
    sd_se = math.sqrt((fourth - var * var) / (4.0 * var * replicates))
    checker.mean_of_replicates(row["h_stddev"], half_unit_6g(float(row["h_stddev"])), math.sqrt(var), sd_se,
                               where + " h_stddev")
    sum_se = math.sqrt(n * var_x(mu, sigma) / replicates)
    checker.mean_of_replicates(row["sum_c_mean"], half_unit_6g(float(row["sum_c_mean"])),
                               n * mean_floor_x(mu, sigma), sum_se, where + " sum_c_mean")
    for x in THRESHOLDS:
        cell = row[f"f_{x}"]
        checker.binomial_total(cell, half_unit_6g(float(cell)), replicates, replicates * n,
                               float(survival(x, mu, sigma)), where + f" f_{x}")


def _gate_h_mean(printed: str, slack: float, law: np.ndarray, replicates: int, checker: Checker, what: str) -> None:
    k = np.arange(law.size)
    mean = float(k @ law)
    sd = math.sqrt(float((k - mean) ** 2 @ law))
    checker.mean_of_replicates(printed, slack, mean, sd / math.sqrt(replicates), what)


def _check_hcurve(rows: list[dict[str, str]], flags: dict[str, str], checker: Checker) -> None:
    mu, sigma = float(flags["--mu"]), float(flags["--sigma"])
    n_min, n_max = int(flags["--n-min"]), int(flags["--n-max"])
    where = f"hcurve mu={mu:g} sigma={sigma:g}"
    points = int(flags.get("--points", "50"))
    grid = [round(n_min * (n_max / n_min) ** (k / (points - 1))) for k in range(points)]
    ns = [int(r["n"]) for r in rows]
    checker.expect(len(ns) == points and all(abs(a - b) <= 1 for a, b in zip(ns, grid)),
                   where + ": n column is not the geometric grid")
    previous = 0.0
    for r, n in zip(rows, ns):
        h = float(r["h_exact"])
        checker.printed_6g(r["h_exact"], h_root(mu, sigma, n), where + f" n={n} h_exact")
        checker.expect(previous <= h <= n, where + f" n={n}: h {h:g} not in [{previous:g}, N]")
        previous = h
        if "--with-asymptotic" in flags:
            checker.printed_6g(r["h_asymptotic"], math.exp(sigma * math.sqrt(2.0 * math.log(n))),
                               where + f" n={n} h_asymptotic")


def _indicator(name: str, mu: float, sigma: float, n: int) -> float:
    value = h_root(mu, sigma, n) if name.startswith("h") else n * mean_x(mu, sigma)
    return value / n if name.endswith("_over_n") else value


def _axis(axis: str, threshold: float, mu: float, sigma: float, n: int) -> float:
    p = float(survival(threshold, mu, sigma))
    return n * p if axis == "counts" else p


def _check_scatter(rows: list[dict[str, str]], flags: dict[str, str], checker: Checker) -> None:
    y_name, axis = flags["--y"], flags.get("--x", "counts")
    if "--normalized" in flags:
        y_name = y_name if y_name.endswith("_over_n") else y_name + "_over_n"
        axis = "probabilities"
    threshold = float(flags["--threshold"])
    where = f"scatter y={y_name} x={axis} t={threshold:g}"
    checker.expect(len(rows) == len(STUDY), where + ": expected one row per series")
    for r, (mu, sigma, n) in zip(rows, STUDY):
        checker.printed_6g(r["x"], _axis(axis, threshold, mu, sigma, n), where + f" series {r['series']} x")
        checker.printed_6g(r["y"], _indicator(y_name, mu, sigma, n), where + f" series {r['series']} y")


def _check_fit(fields: dict[str, str], flags: dict[str, str], checker: Checker) -> None:
    y_name, axis, kind = flags["--y"], flags["--x"], flags["--kind"]
    threshold = float(flags["--threshold"]) if "--threshold" in flags else None
    where = f"fit {kind} y={y_name} x={axis} t={threshold}"
    if axis in ("counts", "probabilities"):
        xs = np.array([_axis(axis, threshold, *spec) for spec in STUDY])
    else:
        xs = np.array([_indicator(axis, *spec) for spec in STUDY])
    ys = np.array([_indicator(y_name, *spec) for spec in STUDY])
    checker.expect(fields.get("n_points") == str(len(STUDY)), where + ": n_points")
    if kind == "power":
        slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
        (a, b), _ = optimize.curve_fit(lambda x, a, b: a * np.power(x, b), xs, ys,
                                       p0=(math.exp(intercept), slope), xtol=1e-15, ftol=1e-15, maxfev=100_000)
        residual = ys - a * np.power(xs, b)
        r2 = 1.0 - float(residual @ residual) / float(((ys - ys.mean()) ** 2).sum())
        checker.printed_6g(fields["amplitude"], a, where + " amplitude", rel=FIT_REL)
        checker.printed_6g(fields["exponent"], b, where + " exponent", rel=FIT_REL)
        checker.printed_6g(fields["r_squared"], min(max(r2, 0.0), 1.0), where + " r_squared", rel=FIT_REL)
    else:
        with warnings.catch_warnings():
            # y against itself (h on h) leaves no residual to estimate a covariance from
            warnings.simplefilter("ignore", optimize.OptimizeWarning)
            (c0, c1), _ = optimize.curve_fit(lambda x, c0, c1: c0 + c1 * x, xs, ys, xtol=1e-15, ftol=1e-15)
        r, p = stats.pearsonr(xs, ys)
        # the intercept is a difference of terms as large as max|y|
        checker.printed_6g(fields["intercept"], c0, where + " intercept", rel=FIT_REL,
                           abs_=FIT_REL * float(np.max(np.abs(ys))))
        checker.printed_6g(fields["slope"], c1, where + " slope", rel=FIT_REL)
        checker.printed_6g(fields["pearson_r"], r, where + " pearson_r", rel=FIT_REL)
        checker.near(fields["p_value"], p, half_unit(fields["p_value"]) + P_REL * p + P_ABS, where + " p_value")

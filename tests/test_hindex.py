"""h fixed point, asymptotic form, and h-versus-N curves."""

import math
import re
import sys
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from citesim import (
    LognormalParams,
    hindex,
    SeriesSpec,
    expected_exceeding,
    h_asymptotic,
    h_curve,
    solve_h,
)
from citesim.reference import REFERENCE_ROWS
from citesim.special import ConvergenceError

MIT_LIKE = LognormalParams(2.7, 1.2)
MID = LognormalParams(2.1, 1.1)
LOW = LognormalParams(1.3, 0.8)

EPS = math.ulp(1.0)


def bracket_half_width(h):
    """How far from u = ln h brentq's final bracket may reach: its width,
    4 eps |u| + eps, plus the rounding of exp and log around it."""
    u = math.log(h)
    return 5.0 * EPS * abs(u) + 2.0 * EPS


def assert_converged(spec, sol):
    """F - h changes sign across brentq's final bracket around ln h, or
    the residual is within a few ulps of the larger of F(h) and h."""
    h = sol.h_continuous
    assert 0.0 < h <= spec.n_papers

    def gap(x):
        return expected_exceeding(x, spec) - x

    u = math.log(h)
    w = bracket_half_width(h)
    straddles = gap(math.exp(u - w)) >= 0.0 >= gap(math.exp(u + w))
    rounding = abs(gap(h)) <= 4.0 * math.ulp(max(h, expected_exceeding(h, spec)))
    assert straddles or rounding, (spec, h, gap(h))
    assert sol.residual == abs(gap(h))


def mp_fixed_point(mu, sigma, n):
    """F(h) = h at 40 digits, by bisection in u = ln h."""
    with mpmath.workdps(40):
        def gap(u):
            return n * mpmath.erfc((u - mu) / (sigma * mpmath.sqrt(2))) / 2 - mpmath.exp(u)

        ln_n = mpmath.log(n)
        lo, hi = min(mu, ln_n) - 1, ln_n + 1
        for _ in range(200):
            mid = (lo + hi) / 2
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float(mpmath.exp(lo))


class TestSolveH:
    def test_series_1_reported_value(self):
        assert solve_h(SeriesSpec(MIT_LIKE, 500)).h_reported == 61

    def test_series_13_reported_value(self):
        assert solve_h(SeriesSpec(MID, 200)).h_reported == 27

    def test_single_paper_fixed_point_below_one(self):
        for params in (MIT_LIKE, MID, LOW):
            sol = solve_h(SeriesSpec(params, 1))
            assert 0.0 < sol.h_continuous < 1.0
            assert sol.h_reported in (0, 1)

    @pytest.mark.parametrize(
        "mu,sigma,n",
        [
            (2.7, 1.2, 500), (2.1, 1.1, 10000), (1.3, 0.8, 1000),
            (2.7, 1.2, 10**8), (2.5, 1.1, 10**8), (1.4, 0.9, 10**9),
            (2.7, 1.2, 10**10), (1.3, 0.8, 10**10),
        ],
    )
    def test_residual_within_tolerance(self, mu, sigma, n):
        spec = SeriesSpec.from_values(mu, sigma, n)
        sol = solve_h(spec)
        assert sol.residual <= 1e-9
        assert abs(expected_exceeding(sol.h_continuous, spec) - sol.h_continuous) <= 1e-9

    def test_every_reference_parameter_pair_solves_out_to_1e10(self):
        for mu, sigma in sorted({(row.mu, row.sigma) for row in REFERENCE_ROWS}):
            for exponent in range(1, 11):
                spec = SeriesSpec.from_values(mu, sigma, 10**exponent)
                sol = solve_h(spec)
                assert sol.residual <= 1e-9, (mu, sigma, exponent)
                assert 1.0 < sol.h_continuous < spec.n_papers

    def test_root_far_below_the_paper_count(self):
        # with mu = -40 almost no paper is cited, so h sits near e^-36,
        # orders of magnitude below any bracket taken as a fraction of N
        spec = SeriesSpec.from_values(-40.0, 0.5, 10)
        sol = solve_h(spec)
        assert 0.0 < sol.h_continuous < 1e-12
        assert sol.residual <= 1e-9 * sol.h_continuous

    def test_reported_is_nearest_integer(self):
        sol = solve_h(SeriesSpec(MID, 200))
        assert sol.h_reported == int(math.floor(sol.h_continuous + 0.5))

    def test_strictly_increasing_in_n(self):
        values = [solve_h(SeriesSpec(MID, n)).h_continuous for n in (50, 100, 200, 500, 1000, 5000)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_nondecreasing_in_mu(self):
        values = [
            solve_h(SeriesSpec(LognormalParams(mu, 1.0), 1000)).h_continuous
            for mu in (1.3, 1.7, 2.1, 2.5)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_sigma_increase_helps_when_h_above_log_median(self):
        # at these sizes the fixed point sits above e^mu, so widening the
        # tail cannot lower it
        for mu in (1.5, 2.1):
            for n in (500, 5000):
                narrow = solve_h(SeriesSpec(LognormalParams(mu, 0.9), n)).h_continuous
                wide = solve_h(SeriesSpec(LognormalParams(mu, 1.1), n)).h_continuous
                assert math.log(narrow) > mu
                assert wide >= narrow

    def test_sublinear_growth_in_n(self):
        pairs = {(2.7, 1.2), (2.5, 1.1), (2.1, 1.1), (1.7, 1.0), (1.5, 0.9), (1.3, 0.8)}
        for mu, sigma in pairs:
            for n in (100, 250, 1000):
                h_n = solve_h(SeriesSpec.from_values(mu, sigma, n)).h_continuous
                h_2n = solve_h(SeriesSpec.from_values(mu, sigma, 2 * n)).h_continuous
                assert h_2n < 2 * h_n

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            solve_h(SeriesSpec(MID, 200), tolerance=-1.0)

    def test_explicit_tolerance_still_gates_the_residual(self):
        # one ulp of h near 9.2e9 is 1.9e-6 papers
        spec = SeriesSpec.from_values(30, 5, 10**10)
        assert solve_h(spec).residual > 1e-9
        with pytest.raises(ConvergenceError):
            solve_h(spec, tolerance=1e-9)


class TestRoundHalfUp:
    """round_half_up(x) = floor(x + 1/2) in exact arithmetic: a double's
    x + 0.5 can round up before the floor."""

    @pytest.mark.parametrize("x, expected", [
        (0.49999999999999994, 0),  # the double below 0.5: x + 0.5 rounds to 1
        (4503599627370497.0, 4503599627370497),  # odd in [2^52, 2^53): rounded to even
        (2**53 - 1.0, 2**53 - 1),
        (2.5, 3), (0.5, 1), (-0.5, 0), (-1.5, -1), (-2.5000000000000004, -3),
        (1e300, int(1e300)), (-0.0, 0),
    ])
    def test_values(self, x, expected):
        assert hindex.round_half_up(x) == expected

    @settings(max_examples=500, derandomize=True)
    @given(st.one_of(st.floats(-2.0**60, 2.0**60),
                     st.integers(2**52, 2**53 - 1).map(float),
                     st.integers(-2**20, 2**20).map(lambda k: k + 0.5)))
    def test_exact(self, x):
        assert hindex.round_half_up(x) == math.floor(Fraction(x) + Fraction(1, 2))


class TestConvergenceContract:
    """solve_h answers for every valid (mu, sigma, N): its root is given to
    within brentq's final bracket, and h = N once every paper is expected
    to reach N citations."""

    @pytest.mark.parametrize(
        "mu,sigma,n,printed",
        [
            # a near-step survival function: F jumps from N to 0 at e^2
            (2, 1e-9, 10**4, "7.38906"),
            # the old residual gate, 1e-9 papers, is a few ulps of h or less
            (30, 5, 596_362, "596113"),
            (30, 5, 10**10, "9.20923e+09"),
            # h = N: exp(ln N) rounded below N, outside the old bracket
            (30, 1, 1000, "1000"),
        ],
    )
    def test_former_failures_match_mpmath(self, mu, sigma, n, printed):
        spec = SeriesSpec.from_values(mu, sigma, n)
        sol = solve_h(spec)
        assert_converged(spec, sol)
        assert sol.h_continuous == pytest.approx(mp_fixed_point(mu, sigma, n), rel=1e-13)
        assert f"{sol.h_continuous:.6g}" == printed

    def test_underflowing_bracket_end_matches_mpmath(self):
        # the bracket's lower end, e^(mu - 1), is 0.0 in double precision
        spec = SeriesSpec.from_values(-745, 1, 100)
        sol = solve_h(spec)
        assert_converged(spec, sol)
        assert sol.h_continuous == pytest.approx(mp_fixed_point(-745, 1, 100), rel=1e-13)
        assert f"{sol.h_continuous:.6g}" == "6.11768e-308"

    def test_underflowing_fixed_point_is_zero(self):
        # F(h) < h already at the smallest positive double
        sol = solve_h(SeriesSpec.from_values(-2000, 1, 100))
        assert sol.h_continuous == mp_fixed_point(-2000, 1, 100) == 0.0
        assert sol.h_reported == 0
        assert 0.0 < sol.residual <= 5e-324

    def test_every_paper_above_n_gives_h_equal_n(self):
        for n in (1, 2, 1000, 10**12):
            sol = solve_h(SeriesSpec.from_values(60, 1, n))
            assert sol.h_continuous <= n
            assert math.log(n) - math.log(sol.h_continuous) <= bracket_half_width(n)
            assert sol.h_reported == n

    @pytest.mark.parametrize("n", [10**308, int(sys.float_info.max)], ids=["1e308", "DBL_MAX"])
    def test_paper_counts_up_to_the_largest_double(self, n):
        # the bracket's top, eN, is past the largest double from N = DBL_MAX / e,
        # where solve_h raised OverflowError
        spec = SeriesSpec.from_values(2, 1, n)
        sol = solve_h(spec)
        assert_converged(spec, sol)
        assert sol.h_continuous == pytest.approx(mp_fixed_point(2, 1, n), rel=1e-13)
        # every paper above N: h = N, as a double
        sol = solve_h(SeriesSpec.from_values(1000, 1, n))
        assert sol.h_continuous == float(n)
        assert sol.h_reported == int(float(n))
        assert sol.residual == 0.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        mu=st.floats(-50.0, 50.0),
        log_sigma=st.floats(math.log(1e-9), math.log(10.0)),
        n=st.integers(1, 10**12),
        d_mu=st.floats(0.0, 1e-12) | st.floats(0.0, 100.0),
        d_n=st.integers(0, 10) | st.integers(0, 10**12),
    )
    @example(mu=2.0, log_sigma=math.log(1e-9), n=10**4, d_mu=0.0, d_n=0)
    @example(mu=30.0, log_sigma=math.log(5.0), n=596_362, d_mu=0.0, d_n=10**10 - 596_362)
    @example(mu=30.0, log_sigma=0.0, n=1000, d_mu=1e-12, d_n=1)
    def test_every_valid_spec_converges_monotonically(self, mu, log_sigma, n, d_mu, d_n):
        sigma = math.exp(log_sigma)
        base = SeriesSpec.from_values(mu, sigma, n)
        more_papers = SeriesSpec.from_values(mu, sigma, n + d_n)
        higher_mu = SeriesSpec.from_values(mu + d_mu, sigma, n)
        h = {}
        for spec in (base, more_papers, higher_mu):
            sol = solve_h(spec)
            assert_converged(spec, sol)
            h[spec] = sol.h_continuous
        # the true root is nondecreasing in N and in mu; each computed one
        # may sit anywhere in its own bracket
        for spec in (more_papers, higher_mu):
            slack = bracket_half_width(h[base]) + bracket_half_width(h[spec])
            assert math.log(h[spec]) >= math.log(h[base]) - slack, (base, spec)


class TestAsymptotic:
    def test_direct_evaluation_sigma_08(self):
        value = h_asymptotic(SeriesSpec(LognormalParams(1.3, 0.8), 5000))
        assert value == pytest.approx(math.exp(0.8 * math.sqrt(2 * math.log(5000))), rel=1e-15)
        assert value == pytest.approx(27.16, abs=0.01)
        exact = solve_h(SeriesSpec(LognormalParams(1.3, 0.8), 5000)).h_continuous
        assert abs(value - exact) / exact <= 0.15

    def test_direct_evaluation_sigma_12(self):
        value = h_asymptotic(SeriesSpec(MIT_LIKE, 5000))
        assert value == pytest.approx(141.56, abs=0.01)
        exact = solve_h(SeriesSpec(MIT_LIKE, 5000)).h_continuous
        assert abs(value - exact) / exact <= 0.15

    def test_sigma_to_zero_limit(self):
        assert h_asymptotic(SeriesSpec(LognormalParams(2.0, 1e-12), 5000)) == pytest.approx(1.0, rel=1e-9)

    def test_mu_independent(self):
        a = h_asymptotic(SeriesSpec(LognormalParams(1.0, 1.1), 3000))
        b = h_asymptotic(SeriesSpec(LognormalParams(2.5, 1.1), 3000))
        assert a == b

    def test_tracks_exact_solution_for_growth_curve_parameters(self):
        # the study rows carrying the three growth-curve parameter sets;
        # at their large-N entries the approximation stays within 15%
        cases = [
            (MIT_LIKE, 1000), (MIT_LIKE, 5000),
            (MID, 5000), (MID, 10000),
            (LOW, 1000), (LOW, 5000),
        ]
        for params, n in cases:
            exact = solve_h(SeriesSpec(params, n)).h_continuous
            approx = h_asymptotic(SeriesSpec(params, n))
            assert abs(approx - exact) / exact <= 0.15, (params, n)

    def test_needs_at_least_two_papers(self):
        with pytest.raises(ValueError):
            h_asymptotic(SeriesSpec(MID, 1))

    def test_overflow_is_a_value_error(self):
        # exp(200 sqrt(2 ln 316228)) = e^1005; at N = 10 it is e^429. At
        # sigma = 1e308 the exponent is itself inf, and exp(inf) raised
        # nothing: it returned inf
        assert h_asymptotic(SeriesSpec(LognormalParams(2.0, 200.0), 10)) < math.inf
        for sigma, n in [(200.0, 316228), (1e308, 10)]:
            with pytest.raises(ValueError, match=re.escape(f"overflows for sigma={sigma!r}, N={n}")):
                h_asymptotic(SeriesSpec(LognormalParams(2.0, sigma), n))


class TestHCurve:
    def test_grid_is_strictly_increasing_with_endpoints(self):
        # past 2^53 the rounded exp of ln N misses N: the grid to 2^53
        # ended at 9007199254740986, and the one from 10^20 started at
        # 100000000000000081920
        for n_min, n_max in ((10, 10000), (10, 2**53), (10**20, 10**21), (10, 10**30)):
            curve = h_curve(MID, n_min, n_max, points=50)
            assert curve.n_papers[0] == n_min
            assert curve.n_papers[-1] == n_max
            assert all(a < b for a, b in zip(curve.n_papers, curve.n_papers[1:]))

    @staticmethod
    def point_by_point_grid(n_min, n_max, points):
        # the grid as built before runs of repeated counts were bisected:
        # one rounded exp for every index
        log_lo = math.log(n_min)
        step = (math.log(n_max) - log_lo) / (points - 1)
        grid = [n_min]
        for k in range(1, points - 1):
            n = hindex.round_half_up(math.exp(log_lo + k * step))
            if grid[-1] < n < n_max:
                grid.append(n)
        grid.append(n_max)
        return grid

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ends=st.lists(st.integers(1, 10**6), min_size=2, max_size=2, unique=True),
           points=st.integers(2, 5000))
    def test_grid_matches_the_point_by_point_loop(self, ends, points):
        n_min, n_max = sorted(ends)
        assert hindex._geometric_grid(n_min, n_max, points) == self.point_by_point_grid(n_min, n_max, points)

    def test_dense_grid_costs_its_distinct_counts(self):
        # a trillion points round to the 91 counts from 10 to 100; the
        # point-by-point loop took 2.4 s for 10^7 of them
        start = time.perf_counter()
        curve = h_curve(MID, 10, 100, 10**12)
        assert time.perf_counter() - start < 1.0
        assert curve.n_papers == tuple(range(10, 101))

    def test_h_nondecreasing_along_curve(self):
        curve = h_curve(MIT_LIKE, 10, 10000, points=40)
        assert all(a <= b for a, b in zip(curve.h_exact, curve.h_exact[1:]))

    def test_asymptotic_runs_parallel(self):
        curve = h_curve(MID, 100, 5000, points=10, with_asymptotic=True)
        assert curve.h_asymptotic is not None
        assert len(curve.h_asymptotic) == len(curve.n_papers) == len(curve.h_exact)

    def test_without_flag_no_asymptotic(self):
        assert h_curve(MID, 100, 5000, points=5).h_asymptotic is None

    @pytest.mark.parametrize(
        "params,expected_100,expected_200",
        [(MIT_LIKE, 29, 41), (MID, 20, 28), (LOW, 10, 13)],
    )
    def test_doubling_spot_values(self, params, expected_100, expected_200):
        curve = h_curve(params, 100, 200, points=2)
        assert curve.n_papers == (100, 200)
        reported = [int(math.floor(h + 0.5)) for h in curve.h_exact]
        assert abs(reported[0] - expected_100) <= 1
        assert abs(reported[1] - expected_200) <= 1

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        mu=st.floats(-50.0, 50.0),
        log_sigma=st.floats(math.log(1e-9), math.log(10.0)),
        n_min=st.integers(1, 10**11),
        span=st.integers(1, 10**12),
        points=st.integers(2, 50),
    )
    # narrow grids, whose neighbours differ by one paper
    @example(mu=2.1, log_sigma=math.log(1.1), n_min=10, span=30, points=50)
    @example(mu=2.7, log_sigma=math.log(1.2), n_min=10**12, span=20, points=21)
    # a near-step F, whose residuals are far above 1e-9 relative
    @example(mu=2.0, log_sigma=math.log(1e-9), n_min=10, span=10**8, points=50)
    # h = N over part of the grid, then below it
    @example(mu=30.0, log_sigma=0.0, n_min=1, span=10**12, points=50)
    @example(mu=33.75, log_sigma=math.log(3.7e-4), n_min=10, span=10**8, points=50)
    def test_points_match_per_point_solves(self, mu, log_sigma, n_min, span, points):
        params = LognormalParams(mu, math.exp(log_sigma))
        curve = h_curve(params, n_min, n_min + span, points)
        for n, h in zip(curve.n_papers, curve.h_exact):
            solved = solve_h(SeriesSpec(params, n)).h_continuous
            if solved == n:
                assert h == solved, (n, h, solved)
            else:
                assert h == pytest.approx(solved, rel=1e-13, abs=0.0), n

    @pytest.mark.parametrize("mu", [-745.0, -746.0, -760.0, -2000.0])
    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    def test_points_near_underflow_match_per_point_solves(self, mu, sigma):
        # below the smallest normal double F(h) is not monotone, so h = 0
        # and subnormal h come from solve_h itself; near e^-707 one ulp of
        # ln h is 1.1e-13 of h, so normal h agree within brentq's brackets
        params = LognormalParams(mu, sigma)
        curve = h_curve(params, 1, 10**12, points=60)
        for n, h in zip(curve.n_papers, curve.h_exact):
            solved = solve_h(SeriesSpec(params, n)).h_continuous
            if solved < sys.float_info.min:
                assert h == solved, (n, h, solved)
            else:
                slack = bracket_half_width(h) + bracket_half_width(solved)
                assert abs(math.log(h) - math.log(solved)) <= slack, (n, h, solved)

    def test_reference_curves_take_at_most_10_evaluations_a_point(self, monkeypatch):
        # each point after the first is bracketed from the one before;
        # from solve_h's own bracket the mean is 13.9
        evaluations = []

        def counting(f, a, b):
            root, count = brentq(f, a, b)
            evaluations.append(count)
            return root, count

        brentq = hindex.brentq
        monkeypatch.setattr(hindex, "brentq", counting)
        points = 0
        for mu, sigma in sorted({(row.mu, row.sigma) for row in REFERENCE_ROWS}):
            points += len(h_curve(LognormalParams(mu, sigma), 10, 10**10, points=50).n_papers)
        assert points == 15 * 50
        assert sum(evaluations) / points <= 10.0

    def test_reference_curves_build_one_solution_per_solve_h_call(self, monkeypatch):
        # a warm point is a bare root: only solve_h's solves, the first
        # point and any fallbacks, build an HSolution (one a point, 750
        # here, when every point built one); solve_h is still reached
        # through the module attribute, so a replacement sees every
        # first point
        solutions = 0
        solved_counts = []

        class CountingSolution(hindex.HSolution):
            def __init__(self, *args, **kwargs):
                nonlocal solutions
                solutions += 1
                super().__init__(*args, **kwargs)

        def recording(spec, tolerance=None):
            solved_counts.append(spec.n_papers)
            return solve(spec, tolerance)

        solve = hindex.solve_h
        monkeypatch.setattr(hindex, "HSolution", CountingSolution)
        monkeypatch.setattr(hindex, "solve_h", recording)
        for mu, sigma in sorted({(row.mu, row.sigma) for row in REFERENCE_ROWS}):
            calls_before = len(solved_counts)
            curve = h_curve(LognormalParams(mu, sigma), 10, 10**10, points=50, with_asymptotic=True)
            assert solved_counts[calls_before] == curve.n_papers[0] == 10
        assert len(solved_counts) >= 15
        assert solutions == len(solved_counts) < 15 * 50

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            h_curve(MID, 100, 100, points=2)
        with pytest.raises(ValueError):
            h_curve(MID, 200, 100, points=2)
        with pytest.raises(ValueError):
            h_curve(MID, 0, 100, points=2)
        with pytest.raises(ValueError):
            h_curve(MID, 10, 100, points=1)
        with pytest.raises(ValueError, match=f"n_max must not exceed the largest double, got {10**400}$"):
            h_curve(MID, 10, 10**400, points=3)

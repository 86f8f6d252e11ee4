"""Command line behavior, exercised through subprocesses, and repeated
in-process calls of ``citesim.cli.main``."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st


def run_cli(*args, check=True):
    result = subprocess.run(
        [sys.executable, "-m", "citesim", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    if check:
        assert result.returncode == 0, result.stderr
    return result


def assert_one_error_line(result):
    # the whole of stderr: no traceback, warning or seed comment beside it
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


def parse_csv(text):
    return list(csv.DictReader(text.splitlines()))


class TestTable1:
    def test_analytic_first_row(self):
        rows = parse_csv(run_cli("table1", "--mode", "analytic").stdout)
        assert len(rows) == 30
        first = rows[0]
        assert first["series"] == "1"
        assert first["mu"] == "2.7"
        assert first["sigma"] == "1.2"
        assert first["n"] == "500"
        assert abs(int(first["sum_c"]) - 15280) / 15280 < 0.01
        assert first["h"] == "61"
        assert float(first["p_5"]) == pytest.approx(0.8183, abs=5e-5)
        assert float(first["p_500"]) == pytest.approx(1.70e-3, rel=0.01)

    def test_simulate_deterministic_bytes(self):
        args = ("table1", "--mode", "simulate", "--replicates", "3", "--seed", "7")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert "seed=7" in first.stderr

    def test_csv_and_json_carry_identical_values(self):
        csv_rows = parse_csv(run_cli("table1").stdout)
        json_rows = json.loads(run_cli("table1", "--format", "json").stdout)
        assert len(json_rows) == 30
        for c_row, j_row in zip(csv_rows, json_rows):
            for key, c_value in c_row.items():
                assert float(c_value) == float(j_row[key]), key

    def test_out_file(self, tmp_path):
        target = tmp_path / "table.csv"
        run_cli("table1", "--out", str(target))
        assert target.read_text().startswith("series,mu,sigma,n,sum_c,h,")

    def test_simulated_probabilities_track_analytic(self):
        # fixed seed, 500 replicates: every printed P column sits within
        # 0.005 of the analytic table (verified margin ~2x)
        analytic = parse_csv(run_cli("table1").stdout)
        simulated = parse_csv(
            run_cli("table1", "--mode", "simulate", "--replicates", "500").stdout
        )
        for a_row, s_row in zip(analytic, simulated):
            for key in ("p_5", "p_10", "p_20", "p_50", "p_100", "p_500"):
                assert abs(float(a_row[key]) - float(s_row[key])) <= 0.005, key


class TestHCurve:
    def test_contains_requested_endpoints(self):
        rows = parse_csv(
            run_cli("hcurve", "--mu", "2.7", "--sigma", "1.2",
                    "--n-min", "100", "--n-max", "200", "--points", "2").stdout
        )
        by_n = {row["n"]: float(row["h_exact"]) for row in rows}
        assert by_n["100"] == pytest.approx(29, abs=1)
        assert by_n["200"] == pytest.approx(41, abs=1)

    def test_low_parameter_spots(self):
        rows = parse_csv(
            run_cli("hcurve", "--mu", "1.3", "--sigma", "0.8",
                    "--n-min", "100", "--n-max", "200", "--points", "2").stdout
        )
        values = [float(row["h_exact"]) for row in rows]
        assert values[0] == pytest.approx(10, abs=1)
        assert values[1] == pytest.approx(13, abs=1)

    def test_wide_grid_monotone_with_asymptotic(self):
        rows = parse_csv(
            run_cli("hcurve", "--mu", "2.1", "--sigma", "1.1",
                    "--n-min", "10", "--n-max", "10000", "--with-asymptotic").stdout
        )
        hs = [float(row["h_exact"]) for row in rows]
        assert all(a <= b for a, b in zip(hs, hs[1:]))
        assert all("h_asymptotic" in row for row in rows)

    def test_rejects_empty_range(self):
        result = run_cli("hcurve", "--mu", "2.0", "--sigma", "1.0",
                         "--n-min", "100", "--n-max", "100", "--points", "2", check=False)
        assert result.returncode != 0
        assert "error" in result.stderr.lower()

    @pytest.mark.parametrize(
        "args",
        [
            # h = N on this grid: every paper is expected to reach N citations
            ("--mu", "30", "--sigma", "1", "--n-max", "1000"),
            # one ulp of h is larger than a residual of 1e-9 papers here
            ("--mu", "30", "--sigma", "5", "--n-max", "10000000000"),
            # F(h) is a near-step at e^2
            ("--mu", "2", "--sigma", "1e-9"),
            # e^(mu - 1) underflows; at -2000 the fixed point does too
            ("--mu=-745", "--sigma", "1", "--n-max", "100", "--points", "3"),
            ("--mu=-2000", "--sigma", "1", "--n-max", "100", "--points", "3"),
        ],
    )
    def test_former_solver_failures_exit_zero(self, args):
        rows = parse_csv(run_cli("hcurve", *args).stdout)
        assert all(float(row["h_exact"]) <= int(row["n"]) for row in rows)

    def test_solver_failure_is_an_error_line(self, monkeypatch, capsys):
        # brentq exhausting its iterations is planted, in-process
        from citesim import cli, roots

        monkeypatch.setattr(roots, "_MAX_ITER", 1)
        assert cli.main(["hcurve", "--mu", "2", "--sigma", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: no root within 1 iterations")
        assert len(err.splitlines()) == 1

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        mu=st.floats(-50.0, 50.0),
        log_sigma=st.floats(math.log(1e-9), math.log(10.0)),
        n_min=st.integers(1, 10**11),
        span=st.integers(1, 10**12),
        points=st.integers(2, 20),
        with_asymptotic=st.booleans(),
    )
    def test_every_valid_grid_answers_in_process(self, mu, log_sigma, n_min, span, points, with_asymptotic):
        from citesim import cli

        # --mu=VALUE: argparse takes a lone "-6e-68" for an option
        argv = ["hcurve", f"--mu={mu!r}", "--sigma", repr(math.exp(log_sigma)),
                "--n-min", str(n_min), "--n-max", str(n_min + span), "--points", str(points)]
        if with_asymptotic:
            argv.append("--with-asymptotic")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        # an exception would propagate here, so no traceback is printed
        if code == 1:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
            assert len(err.getvalue().splitlines()) == 1
        else:
            assert code == 0
            assert err.getvalue() == ""
        # the only invalid grid drawn here is an asymptotic curve from N = 1
        assert (code == 1) == (with_asymptotic and n_min == 1)

    def test_unwritable_out_is_an_error_line(self, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        result = run_cli("hcurve", "--mu", "2", "--sigma", "1", "--out", str(target), check=False)
        assert_one_error_line(result)
        assert f"error: cannot write {target}: " in result.stderr

    @pytest.mark.parametrize("error", [RecursionError, NotImplementedError])
    def test_other_runtime_errors_keep_their_traceback(self, monkeypatch, error):
        from citesim import cli

        def fail(args):
            raise error("a bug, not a solver failure")

        monkeypatch.setattr(cli, "_dispatch", fail)
        with pytest.raises(error):
            cli.main(["table1"])


class TestRejectedArguments:
    """argparse's rejections follow the contract for invalid input."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (("scatter", "--y", "h", "--threshold", "7"), "error: argument --threshold: invalid choice"),
            (("scatter", "--y", "h"), "error: the following arguments are required: --threshold"),
            (("table1", "--bogus"), "error: unrecognized arguments: --bogus"),
            ((), "error: the following arguments are required: command"),
        ],
    )
    def test_one_error_line(self, args, message):
        result = run_cli(*args, check=False)
        assert_one_error_line(result)
        assert result.stderr.startswith(message)
        assert "usage:" not in result.stderr

    @pytest.mark.parametrize("args", [("--help",), ("scatter", "--help")])
    def test_help_exits_zero(self, args):
        result = run_cli(*args)
        assert result.stdout.startswith("usage: citesim")
        assert result.stderr == ""


class TestNegativeNumbers:
    """A negative value in exponent notation follows its flag as any other
    negative number does, in every subcommand."""

    def test_exponent_value_prints_what_the_joined_flag_prints(self, capsys):
        from citesim.cli import main

        outputs = []
        for mu in (["--mu", "-1e-05"], ["--mu=-1e-05"]):
            assert main(["hcurve", *mu, "--sigma", "1", "--n-max", "100"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != ""

    @pytest.mark.parametrize("value", ["-1e-05", "-2.5E+3", "-3e2", "-.5e-3", "-7"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--replicates", "{}"],
            ["hcurve", "--mu", "{}", "--sigma", "1"],
            ["scatter", "--y", "h", "--threshold", "{}"],
            ["fit", "--kind", "power", "--y", "h", "--x", "h", "--threshold", "{}"],
            ["simulate", "--mu", "{}", "--sigma", "1", "--n", "10"],
            ["verify", "--seed", "{}"],
        ],
        ids=["table1", "hcurve", "scatter", "fit", "simulate", "verify"],
    )
    def test_every_subcommand_reads_exponent_values(self, argv, value):
        from citesim.cli import build_parser

        def parsed(args):
            try:
                return vars(build_parser().parse_args(args))
            except ValueError as exc:
                return str(exc)

        spaced = [arg.format(value) for arg in argv]
        flag = argv.index("{}") - 1
        joined = [*argv[:flag], f"{argv[flag]}={value}", *argv[flag + 2 :]]
        assert parsed(spaced) == parsed(joined)
        assert "expected one argument" not in str(parsed(spaced))


class TestScatter:
    def test_h_versus_counts_panel(self):
        rows = parse_csv(run_cli("scatter", "--y", "h", "--x", "counts", "--threshold", "100").stdout)
        assert len(rows) == 30
        assert rows[0]["series"] == "1"
        assert float(rows[12]["y"]) == pytest.approx(27.28, abs=0.01)

    def test_normalized_divides_both_axes(self):
        plain = parse_csv(run_cli("scatter", "--y", "sum_c", "--x", "counts", "--threshold", "10").stdout)
        norm = parse_csv(
            run_cli("scatter", "--y", "sum_c", "--x", "counts", "--threshold", "10", "--normalized").stdout
        )
        n_papers = [500, 5000, 1000]
        for i, n in enumerate(n_papers):
            assert float(norm[i]["y"]) == pytest.approx(float(plain[i]["y"]) / n, rel=1e-4)
            assert float(norm[i]["x"]) == pytest.approx(float(plain[i]["x"]) / n, rel=1e-4)

    def test_rejects_unsupported_threshold(self):
        result = run_cli("scatter", "--y", "h", "--x", "counts", "--threshold", "7", check=False)
        assert result.returncode != 0

    def test_rejects_unknown_indicator(self):
        result = run_cli("scatter", "--y", "g_index", "--x", "counts", "--threshold", "10", check=False)
        assert result.returncode != 0


class TestFit:
    def test_power_fit_h_versus_f50(self):
        result = run_cli("fit", "--kind", "power", "--y", "h", "--x", "counts",
                         "--threshold", "50", "--format", "json")
        record = json.loads(result.stdout)[0]
        assert record["amplitude"] == pytest.approx(14.6, rel=0.10)
        assert record["exponent"] == pytest.approx(0.325, rel=0.10)

    def test_linear_fit_mean_citations_versus_p30(self):
        result = run_cli("fit", "--kind", "linear", "--y", "sum_c_over_n", "--x", "probabilities",
                         "--threshold", "30", "--format", "json")
        record = json.loads(result.stdout)[0]
        assert record["intercept"] == pytest.approx(4.9, rel=0.10)
        assert record["slope"] == pytest.approx(88.7, rel=0.10)

    def test_power_exponent_h_versus_total_citations(self):
        result = run_cli("fit", "--kind", "power", "--y", "h", "--x", "sum_c", "--format", "json")
        record = json.loads(result.stdout)[0]
        assert record["exponent"] == pytest.approx(0.42, abs=0.05)

    def test_default_output_is_key_value_text(self):
        result = run_cli("fit", "--kind", "power", "--y", "h", "--x", "counts", "--threshold", "50")
        assert "amplitude = " in result.stdout
        assert "r_squared = " in result.stdout

    def test_threshold_required_for_count_axes(self):
        result = run_cli("fit", "--kind", "power", "--y", "h", "--x", "counts", check=False)
        assert result.returncode != 0

    @pytest.mark.parametrize("axis", ["h", "sum_c"])
    def test_threshold_rejected_for_indicator_axes(self, axis):
        result = run_cli("fit", "--kind", "power", "--y", "h_over_n", "--x", axis,
                         "--threshold", "50", check=False)
        assert_one_error_line(result)
        assert result.stderr == f"error: x axis '{axis}' takes no threshold\n"


class TestSimulate:
    def test_single_spec_summary(self):
        result = run_cli("simulate", "--mu", "2.1", "--sigma", "1.1", "--n", "200",
                         "--replicates", "200", "--seed", "11", "--format", "json")
        record = json.loads(result.stdout)[0]
        assert record["n"] == 200
        assert record["replicates"] == 200
        assert record["seed"] == 11
        assert record["h_mean"] == pytest.approx(27, abs=2)
        assert record["f_5"] <= 200

    def test_deterministic(self):
        args = ("simulate", "--mu", "1.7", "--sigma", "1.0", "--n", "100",
                "--replicates", "50", "--seed", "3")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_echoes_seeding_scheme_on_stderr(self):
        result = run_cli("simulate", "--mu", "1.7", "--sigma", "1.0", "--n", "100",
                         "--replicates", "50", "--seed", "3")
        assert result.stderr.splitlines() == ["# command=simulate seed=3 replicates=50 seeding=7"]
        assert "seeding" not in result.stdout

    def test_totals_beyond_int64_stay_positive(self):
        # each replicate's citation total is about 7e19, above 2^63
        result = run_cli("simulate", "--mu", "36", "--sigma", "1", "--n", "10000",
                         "--replicates", "2")
        sum_c = float(parse_csv(result.stdout)[0]["sum_c_mean"])
        assert sum_c == pytest.approx(10_000 * math.exp(36 + 0.5), rel=0.05)

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_an_error(self, seed):
        # masked to 64 bits, -1 would draw what 2^64 - 1 draws
        result = run_cli("simulate", "--mu", "1", "--sigma", "1", "--n", "10",
                         "--replicates", "5", "--seed", seed, check=False)
        assert_one_error_line(result)
        assert f"seed must be in [0, 2^64), got {seed}" in result.stderr

    def test_counts_beyond_int64_are_an_error(self):
        result = run_cli("simulate", "--mu", "800", "--sigma", "1", "--n", "10",
                         "--replicates", "3", check=False)
        assert_one_error_line(result)

    def test_counts_beyond_int64_in_several_units_are_an_error(self):
        # 10,000 tail papers in one piece, each of which would raise; the
        # first one's error is reported
        result = run_cli("simulate", "--mu", "800", "--sigma", "1", "--n", "10",
                         "--replicates", "1000", check=False)
        assert_one_error_line(result)


class TestSeedEcho:
    """Commands that draw echo their seed on stderr after their output,
    and a rejected command prints its error line alone."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--mu", "1", "--sigma", "1", "--n", "10", "--seed", "-1"),
            ("simulate", "--mu", "1", "--sigma", "1", "--n", "10", "--replicates", "0"),
            ("table1", "--mode", "simulate", "--replicates", "0"),
            ("verify", "--filter", "no-such-check"),
            ("simulate", "--mu", "1", "--sigma", "1", "--n", "10", "--replicates", "5", "--out", "OUT"),
        ],
        ids=["seed", "replicates", "table1-replicates", "filter", "out"],
    )
    def test_rejected_run_echoes_no_seed(self, argv, tmp_path):
        argv = [str(tmp_path / "missing" / "x.csv") if a == "OUT" else a for a in argv]
        assert_one_error_line(run_cli(*argv, check=False))

    def test_seed_comment_follows_the_output(self):
        from citesim.cli import main

        both = io.StringIO()
        with contextlib.redirect_stdout(both), contextlib.redirect_stderr(both):
            assert main(["simulate", "--mu", "1", "--sigma", "1", "--n", "10",
                         "--replicates", "5", "--seed", "3"]) == 0
        lines = both.getvalue().splitlines()
        assert lines[0].startswith("mu,sigma,n,")
        assert lines[-1] == "# command=simulate seed=3 replicates=5 seeding=7"
        assert len(lines) == 3


class TestVerify:
    def test_filter_table1_passes(self):
        result = run_cli("verify", "--filter", "table1")
        assert result.stdout.count("[PASS]") == 3
        assert "[FAIL]" not in result.stdout

    def test_filter_determinism(self):
        result = run_cli("verify", "--filter", "determinism")
        assert "[PASS] determinism" in result.stdout

    def test_unknown_filter_errors(self):
        result = run_cli("verify", "--filter", "no-such-check", check=False)
        assert_one_error_line(result)
        assert result.stderr == "error: no checks match filter 'no-such-check'\n"

    def test_failed_check_exits_one_in_text_format(self):
        # 100 replicates a series are too few for the agreement gates
        result = run_cli("verify", "--filter", "simulation", "--replicates", "100", check=False)
        assert result.returncode == 1
        lines = result.stdout.splitlines()
        assert lines[0].startswith("[FAIL] simulation-agreement: ")
        assert lines[1:] == ["1 checks, 0 passed, 1 failed"]
        assert result.stderr == "# command=verify seed=20200212 replicates=100 seeding=7\n"

    def test_json_format(self):
        result = run_cli("verify", "--filter", "correlations", "--format", "json")
        records = json.loads(result.stdout)
        assert records[0]["name"] == "correlations"
        assert records[0]["status"] == "pass"


class TestImport:
    @staticmethod
    def loaded_after(argv):
        """Whether numpy is loaded in a fresh interpreter after
        ``cli.main(argv)`` has run and exited 0."""
        code = ("import contextlib, io, sys\n"
                "from citesim import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert cli.main({argv!r}) == 0\n"
                "print('numpy' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=60)
        assert result.returncode == 0, result.stderr
        return result.stdout.split() == ["True"]

    def test_cli_leaves_numpy_unloaded(self):
        # numpy is loaded by the first draw or fit, so importing the CLI
        # and building its parser does not load it
        code = ("import sys, citesim.cli; citesim.cli.build_parser(); "
                "assert 'numpy' not in sys.modules; assert 'numpy.random' not in sys.modules")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=60)
        assert result.returncode == 0, result.stderr

    def test_package_import_leaves_numpy_unloaded(self):
        code = "import sys, citesim; assert 'numpy' not in sys.modules"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=60)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("argv", [
        ["table1"],
        ["hcurve", "--mu", "2.7", "--sigma", "1.2", "--n-min", "10", "--n-max", "10000",
         "--points", "3"],
        ["scatter", "--y", "h", "--x", "counts", "--threshold", "30"],
    ])
    def test_closed_form_commands_leave_numpy_unloaded(self, argv):
        assert not self.loaded_after(argv)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--mu", "1.7", "--sigma", "1.0", "--n", "100", "--replicates", "5"],
        ["fit", "--kind", "power", "--y", "h", "--x", "sum_c"],
    ])
    def test_draws_and_fits_load_numpy(self, argv):
        # the control: without it, a broken check would pass the test above
        assert self.loaded_after(argv)

    def test_cli_loads_no_executor(self):
        # replicates run on the calling thread: no executor, no worker
        # processes
        code = ("import sys, citesim.cli; "
                "assert not {'concurrent.futures', 'multiprocessing'} & set(sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=60)
        assert result.returncode == 0, result.stderr


class TestParserReuse:
    """main builds its parser once per process; each call must still
    parse its own arguments into a fresh Namespace."""

    FIT = ["fit", "--kind", "power", "--y", "h", "--x", "sum_c"]

    @pytest.fixture
    def dispatched(self, monkeypatch):
        """The Namespaces main hands to _dispatch, in call order."""
        from citesim import cli

        seen = []
        dispatch = cli._dispatch

        def recording(args):
            seen.append(args)
            return dispatch(args)

        monkeypatch.setattr(cli, "_dispatch", recording)
        return seen

    @staticmethod
    def assert_fresh(seen, argvs):
        from citesim.cli import build_parser

        assert len({id(args) for args in seen}) == len(seen)
        assert [vars(args) for args in seen] == [vars(build_parser().parse_args(a)) for a in argvs]

    def test_parser_built_once(self, monkeypatch, capsys):
        from citesim import cli

        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting)
        try:
            for _ in range(3):
                assert cli.main(self.FIT) == 0
            assert cli.main(["table1", "--format", "json"]) == 0
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_format_and_out_do_not_carry_over(self, tmp_path, capsys, dispatched):
        from citesim.cli import main

        expected = run_cli(*self.FIT).stdout
        target = tmp_path / "fit.json"
        argvs = [[*self.FIT, "--format", "json", "--out", str(target)], self.FIT]
        for argv in argvs:
            assert main(argv) == 0
        assert json.loads(target.read_text())[0]["exponent"] == pytest.approx(0.42, abs=0.05)
        assert capsys.readouterr().out == expected
        self.assert_fresh(dispatched, argvs)

    def test_rejected_call_leaves_no_state(self, capsys, dispatched):
        from citesim.cli import main

        expected = run_cli(*self.FIT).stdout
        scatter = ["scatter", "--y", "h", "--x", "counts", "--threshold", "5", "--normalized"]
        assert main(scatter) == 0
        capsys.readouterr()
        assert main(["scatter", "--y", "h", "--threshold", "7"]) == 1
        capsys.readouterr()
        assert main(self.FIT) == 0
        assert capsys.readouterr().out == expected
        self.assert_fresh(dispatched, [scatter, self.FIT])

    def test_import_builds_no_parser(self):
        code = ("import argparse\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counting(self, *args, **kwargs):\n"
                "    built.append(1)\n"
                "    init(self, *args, **kwargs)\n"
                "argparse.ArgumentParser.__init__ = counting\n"
                "import citesim.cli\n"
                "print(len(built))\n"
                "citesim.cli.build_parser()\n"
                "print(len(built))\n")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0", "7"]  # the top-level parser and 6 subparsers

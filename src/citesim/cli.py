"""Command line interface.

Subcommands reproduce the study's datasets as CSV/TSV/JSON: the
30-series table (table1), h versus paper count curves (hcurve), indicator
scatters (scatter), regressions (fit), single-spec simulation summaries
(simulate), and the verification suite (verify). All output is
deterministic for fixed flags. A command that draws echoes its seed and
the seeding scheme on stderr once its output is written, and the numpy
version when numpy is loaded.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from .indicators import X_AXES, Y_INDICATORS
from .lognormal import DEFAULT_THRESHOLDS
from .montecarlo import DEFAULT_REPLICATES, DEFAULT_SEED, SEEDING_VERSION
from .output import KINDS, render_rows
from .report import (
    FIT_X_AXES,
    fit_rows,
    hcurve_rows,
    scatter_rows,
    simulate_rows,
    table1_rows,
)
from .special import ConvergenceError

#: Citation levels --threshold accepts: the study's levels plus 30.
THRESHOLD_CHOICES = tuple(float(x) for x in sorted((*DEFAULT_THRESHOLDS, 30)))


#: A negative number, exponent notation included: argparse's own pattern
#: (-1, -.5, -2.5) takes -1e-05 for an option and rejects it as a value.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subcommand parsers, that
    reads every negative number, -1e-05 and -2.5E+3 included, as a value,
    and raises ValueError on invalid arguments, so that main reports them
    as it reports every other invalid input: one error line and exit 1."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="citesim",
        description="Lognormal citation model: study tables, h-index curves, fits, and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's own parser, by name

    table1 = sub.add_parser("table1", help="emit the 30-series study table")
    table1.add_argument("--mode", choices=("analytic", "simulate"), default="analytic")
    table1.add_argument("--replicates", type=int, default=DEFAULT_REPLICATES)
    table1.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_flags(table1)

    hcurve = sub.add_parser("hcurve", help="emit h versus paper count over a geometric grid")
    hcurve.add_argument("--mu", type=float, required=True)
    hcurve.add_argument("--sigma", type=float, required=True)
    hcurve.add_argument("--n-min", type=int, default=10)
    hcurve.add_argument("--n-max", type=int, default=10_000)
    hcurve.add_argument("--points", type=int, default=50)
    hcurve.add_argument("--with-asymptotic", action="store_true")
    _add_output_flags(hcurve)

    scatter = sub.add_parser("scatter", help="emit per-series (x, y) indicator points")
    scatter.add_argument("--y", choices=Y_INDICATORS, required=True)
    scatter.add_argument("--x", choices=X_AXES, default="counts")
    scatter.add_argument("--threshold", type=float, choices=THRESHOLD_CHOICES, required=True)
    scatter.add_argument("--normalized", action="store_true",
                         help="divide by the paper count the axes not already per paper")
    _add_output_flags(scatter)

    fit = sub.add_parser("fit", help="regress one indicator on another over the study")
    fit.add_argument("--kind", choices=("power", "linear"), required=True)
    fit.add_argument("--y", choices=Y_INDICATORS, required=True)
    fit.add_argument("--x", choices=FIT_X_AXES, required=True)
    fit.add_argument("--threshold", type=float, choices=THRESHOLD_CHOICES)
    _add_output_flags(fit, default_format=None)

    simulate = sub.add_parser("simulate", help="replicate-averaged summary for one spec")
    simulate.add_argument("--mu", type=float, required=True)
    simulate.add_argument("--sigma", type=float, required=True)
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--replicates", type=int, default=DEFAULT_REPLICATES)
    simulate.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_flags(simulate)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--filter", default=None, help="only run checks whose name contains this")
    verify.add_argument("--replicates", type=int, default=DEFAULT_REPLICATES)
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_flags(verify, default_format=None)

    return parser


def _add_output_flags(sub: argparse.ArgumentParser, default_format: str | None = "csv") -> None:
    sub.add_argument("--format", choices=KINDS, default=default_format)
    sub.add_argument("--out", metavar="FILE", default=None)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses: built on its first call, then reused. Each
    parse_args call fills a new Namespace, so no call sees another's
    arguments."""
    return build_parser()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """What build_parser().parse_args(argv) returns or raises.

    An argv that starts with a command is parsed by that command's
    parser alone: the top-level parser would only scan every argument
    and hand the rest to it. Anything else (no command, an unknown one,
    a top-level -h) goes through the top-level parser, which reports it.
    """
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    """Run one command line, `argv` or else sys.argv[1:], and return its
    exit code; invalid input, and a run too large for memory, print one
    `error:` line on stderr and return 1. A command line is parsed by its command's own parser,
    which gives the Namespace, error or help text that the full parser
    gives. The parsers are built on the first call and reused."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return _dispatch(_parse_args(argv))
    except (ValueError, ConvergenceError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def _verify_rows(args: argparse.Namespace) -> list[dict]:
    # imported here, so that the other commands start without it
    from .verification import run_checks

    results = run_checks(args.filter, args.replicates, args.seed)
    if not results:
        raise ValueError(f"no checks match filter {args.filter!r}")
    return [
        {"name": r.name, "status": "pass" if r.passed else "fail", "detail": r.detail}
        for r in results
    ]


#: Each command's rows, built from its parsed arguments. The lambdas look
#: the row builders up when they run, so a wrapper set on this module's
#: attribute (bench/layers.py times them that way) sees every call.
_COMMANDS = {
    "table1": lambda a: table1_rows(a.mode, a.replicates, a.seed),
    "hcurve": lambda a: hcurve_rows(a.mu, a.sigma, a.n_min, a.n_max, a.points, a.with_asymptotic),
    "scatter": lambda a: scatter_rows(a.y, a.x, a.threshold, a.normalized),
    "fit": lambda a: fit_rows(a.kind, a.y, a.x, a.threshold),
    "simulate": lambda a: simulate_rows(a.mu, a.sigma, a.n, a.replicates, a.seed),
    "verify": _verify_rows,
}


def _dispatch(args: argparse.Namespace) -> int:
    rows = _COMMANDS[args.command](args)
    failed = sum(row.get("status") == "fail" for row in rows)
    if args.format is not None:
        text = render_rows(rows, args.format)
    elif args.command == "fit":
        text = "".join(f"{key} = {value}\n" for key, value in rows[0].items())
    else:
        text = "".join(f"[{row['status'].upper()}] {row['name']}: {row['detail']}\n" for row in rows)
        text += f"{len(rows)} checks, {len(rows) - failed} passed, {failed} failed\n"
    _emit(text, args.out)
    # the commands that draw echo their seed, once their output is written,
    # and the numpy version if numpy is loaded: in a fresh process, only
    # by a draw
    if "seed" in args and getattr(args, "mode", "simulate") == "simulate":
        numpy = sys.modules.get("numpy")
        print(
            f"# command={args.command} seed={args.seed} replicates={args.replicates} "
            f"seeding={SEEDING_VERSION}" + (f" numpy={numpy.__version__}" if numpy else ""),
            file=sys.stderr,
        )
    return 1 if failed else 0


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror}") from exc


if __name__ == "__main__":
    raise SystemExit(main())

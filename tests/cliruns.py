"""The two ways the tests run a command, each returning a CompletedProcess
and asserting exit code 0 unless ``check=False``.

``run_cli(*args)`` runs ``citesim ARGS`` by a call of ``citesim.cli.main``
in this process. ``run_process(*args)`` runs ``python ARGS`` in a fresh
interpreter, for the tests whose subject is the process: what it loads,
the ``python -m citesim`` entry point, and bytes compared across
processes.
"""

import contextlib
import io
import subprocess
import sys
import warnings

from citesim import cli


def run_cli(*args, check=True):
    out, err = io.StringIO(), io.StringIO()
    # a warning goes to stderr, as a process prints it, under the filters in force
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse's --help
            code = exc.code
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno, w.line))
    result = subprocess.CompletedProcess(["citesim", *args], code, out.getvalue(), err.getvalue())
    if check:
        assert result.returncode == 0, result.stderr
    return result


def run_process(*args, check=True):
    result = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=300)
    if check:
        assert result.returncode == 0, result.stderr
    return result

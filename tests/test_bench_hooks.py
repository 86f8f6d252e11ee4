"""The package names that bench/ wraps and patches.

bench/layers.py wraps each (module, attribute) of its WRAPPED table to time
a traced pass, and bench/selftest.py patches a few functions to plant
faults. Both find them by name, so a rename in the package would otherwise
show only when `bench/run.py --trace 1` or the self-test runs.
"""

import importlib.util
from pathlib import Path

import pytest

from citesim import hindex, indicators, montecarlo
from cliruns import run_cli

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = load_layers()


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _ in layers.WRAPPED],
    ids=[f"{module.__name__}.{attr}" for module, attr, _ in layers.WRAPPED],
)
def test_wrapped_name_exists(module, attr):
    assert hasattr(module, attr)


# montecarlo._survival is where a round-to-nearest fault, S(k - 1/2) in
# place of S(k), reaches every S(k) the simulation uses
@pytest.mark.parametrize(
    "module, attr",
    [(hindex, "solve_h"), (indicators, "solve_h"), (montecarlo, "_floor_exp"),
     (montecarlo, "_draw_sorted_counts"), (montecarlo, "_survival")],
    ids=["hindex.solve_h", "indicators.solve_h", "montecarlo._floor_exp",
         "montecarlo._draw_sorted_counts", "montecarlo._survival"],
)
def test_selftest_patch_point_exists(module, attr):
    assert hasattr(module, attr)


def test_every_wrapped_name_is_called_through_its_module():
    # a caller that bound a wrapped function at import time, or held it in
    # a table, would bypass the wrapper and leave its span at zero calls
    argvs = [
        ["table1"],
        ["table1", "--mode", "simulate", "--replicates", "2"],
        ["hcurve", "--mu", "2", "--sigma", "1", "--n-max", "100", "--points", "3"],
        ["scatter", "--y", "h", "--x", "counts", "--threshold", "30"],
        ["fit", "--kind", "linear", "--y", "h", "--x", "sum_c"],
        ["fit", "--kind", "power", "--y", "h", "--x", "counts", "--threshold", "50"],
        ["simulate", "--mu", "2", "--sigma", "1", "--n", "10", "--replicates", "2"],
    ]
    spans = layers.Spans()
    with spans.installed():
        for argv in argvs:
            run_cli(*argv)
    assert {name for _, _, name in layers.WRAPPED} <= {n for n, calls in spans.calls.items() if calls}

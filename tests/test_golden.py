"""CLI stdout diffed byte for byte against committed golden files.

The files under tests/golden/ were written by the per-replicate
simulator that preceded the blocked kernel in montecarlo.run_replicates,
with numpy 2.4.6. Simulated cells depend on numpy's PCG64 stream and its
exp, so another numpy release may legitimately print other digits.
"""

from pathlib import Path

import pytest

from citesim.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "table1_simulate_r50.csv": ("table1", "--mode", "simulate", "--replicates", "50"),
    "simulate_mu1.7_s1.0_n100_r500.csv": (
        "simulate", "--mu", "1.7", "--sigma", "1.0", "--n", "100", "--replicates", "500"),
    "simulate_mu2_s1.2_n40000_r5.csv": (
        "simulate", "--mu", "2", "--sigma", "1.2", "--n", "40000", "--replicates", "5"),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, capsys):
    assert main(list(COMMANDS[name])) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")

"""Canonical 30-series study: parameter sets and reference indicator values.

One row per series: the lognormal parameters and paper count that define
it, plus the reference total citations, h-index, and tail probabilities
the model is expected to reproduce. Probability cells are kept as the
reference prints them (four decimals, or scientific notation with three
significant digits) so the verification suite can pick the matching
tolerance per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lognormal import DEFAULT_THRESHOLDS


@dataclass(frozen=True)
class ReferenceRow:
    series: int
    mu: float
    sigma: float
    n_papers: int
    sum_citations: int
    h: int
    #: probability cells for DEFAULT_THRESHOLDS, as printed
    probabilities: tuple[str, ...]

    def probability(self, threshold: float) -> float:
        return float(self.probabilities[DEFAULT_THRESHOLDS.values.index(threshold)])

    def probability_is_scientific(self, threshold: float) -> bool:
        return "E" in self.probabilities[DEFAULT_THRESHOLDS.values.index(threshold)].upper()


REFERENCE_ROWS: tuple[ReferenceRow, ...] = (
    ReferenceRow(1, 2.7, 1.2, 500, 15280, 61, ("0.8183", "0.6297", "0.4027", "0.1562", "0.0562", "1.70E-03")),
    ReferenceRow(2, 2.7, 1.2, 5000, 152891, 145, ("0.8183", "0.6297", "0.4027", "0.1562", "0.0562", "1.70E-03")),
    ReferenceRow(3, 2.7, 1.2, 1000, 30593, 80, ("0.8183", "0.6297", "0.4027", "0.1562", "0.0562", "1.70E-03")),
    ReferenceRow(4, 2.5, 1.2, 500, 12510, 54, ("0.7710", "0.5653", "0.3398", "0.1197", "0.0397", "9.82E-04")),
    ReferenceRow(5, 2.5, 1.1, 4000, 89223, 104, ("0.7909", "0.5712", "0.3261", "0.0996", "0.0278", "3.67E-04")),
    ReferenceRow(6, 2.4, 1.1, 500, 10093, 47, ("0.7638", "0.5353", "0.2941", "0.0846", "0.0225", "2.62E-04")),
    ReferenceRow(7, 2.3, 1.1, 5000, 91364, 97, ("0.7349", "0.4991", "0.2635", "0.0714", "0.0181", "1.86E-04")),
    ReferenceRow(8, 2.3, 1.1, 1000, 18266, 57, ("0.7349", "0.4991", "0.2635", "0.0714", "0.0181", "1.86E-04")),
    ReferenceRow(9, 2.3, 1.1, 10000, 182662, 120, ("0.7349", "0.4991", "0.2635", "0.0714", "0.0181", "1.86E-04")),
    ReferenceRow(10, 2.2, 1.1, 3000, 49564, 77, ("0.7043", "0.4628", "0.2347", "0.0598", "0.0144", "1.31E-04")),
    ReferenceRow(11, 2.2, 1.1, 10000, 165273, 112, ("0.7043", "0.4628", "0.2347", "0.0598", "0.0144", "1.31E-04")),
    ReferenceRow(12, 2.1, 1.1, 500, 7483, 39, ("0.6722", "0.4269", "0.2077", "0.0497", "0.0114", "9.18E-05")),
    ReferenceRow(13, 2.1, 1.1, 200, 2987, 27, ("0.6722", "0.4269", "0.2077", "0.0497", "0.0114", "9.18E-05")),
    ReferenceRow(14, 2.1, 1.1, 5000, 74771, 84, ("0.6722", "0.4269", "0.2077", "0.0497", "0.0114", "9.18E-05")),
    ReferenceRow(15, 2.1, 1.1, 10000, 149541, 104, ("0.6722", "0.4269", "0.2077", "0.0497", "0.0114", "9.18E-05")),
    ReferenceRow(16, 2.1, 1.0, 3000, 40390, 63, ("0.6881", "0.4197", "0.1852", "0.0350", "0.0061", "1.94E-05")),
    ReferenceRow(17, 2.0, 1.0, 3000, 36545, 58, ("0.6519", "0.3811", "0.1597", "0.0279", "0.0046", "1.25E-05")),
    ReferenceRow(18, 1.9, 1.0, 5000, 55116, 63, ("0.6143", "0.3436", "0.1366", "0.0221", "0.0034", "7.99E-06")),
    ReferenceRow(19, 1.9, 1.0, 1000, 11026, 39, ("0.6143", "0.3436", "0.1366", "0.0221", "0.0034", "7.99E-06")),
    ReferenceRow(20, 1.7, 1.0, 500, 4520, 27, ("0.5361", "0.2734", "0.0975", "0.0135", "1.84E-03", "3.17E-06")),
    ReferenceRow(21, 1.7, 1.0, 300, 2709, 23, ("0.5361", "0.2734", "0.0975", "0.0135", "1.84E-03", "3.17E-06")),
    ReferenceRow(22, 1.7, 1.0, 100, 901, 15, ("0.5361", "0.2734", "0.0975", "0.0135", "1.84E-03", "3.17E-06")),
    ReferenceRow(23, 1.7, 0.9, 2000, 16411, 36, ("0.5401", "0.2516", "0.0750", "0.0070", "6.23E-04", "2.63E-07")),
    ReferenceRow(24, 1.5, 0.9, 500, 3360, 21, ("0.4516", "0.1863", "0.0483", "0.0037", "2.80E-04", "8.10E-08")),
    ReferenceRow(25, 1.5, 0.9, 200, 1344, 16, ("0.4516", "0.1863", "0.0483", "0.0037", "2.80E-04", "8.10E-08")),
    ReferenceRow(26, 1.5, 0.9, 2000, 13437, 31, ("0.4516", "0.1863", "0.0483", "0.0037", "2.80E-04", "8.10E-08")),
    ReferenceRow(27, 1.5, 0.9, 3000, 20161, 35, ("0.4516", "0.1863", "0.0483", "0.0037", "2.80E-04", "8.10E-08")),
    ReferenceRow(28, 1.4, 0.9, 1000, 6084, 24, ("0.4080", "0.1580", "0.0381", "0.0026", "1.85E-04", "4.41E-08")),
    ReferenceRow(29, 1.3, 0.8, 1000, 5060, 19, ("0.3495", "0.1051", "0.0170", "5.47E-04", "1.80E-05", "4.04E-10")),
    ReferenceRow(30, 1.3, 0.8, 5000, 25272, 28, ("0.3495", "0.1051", "0.0170", "5.47E-04", "1.80E-05", "4.04E-10")),
)

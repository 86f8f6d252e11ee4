"""Delimited and JSON rendering with study-table number formatting.

Probability columns mirror the study table's conventions: four decimals
down to the scientific threshold, below that scientific notation with
three significant digits. The same formatted value feeds every output
kind, so CSV, TSV, and JSON parse back to identical numbers.
"""

from __future__ import annotations

import csv
import io

KINDS = ("csv", "tsv", "json")
#: Decimals of a probability cell at or above SCI_THRESHOLD.
DECIMALS = 4
#: Nonzero probabilities below this print in scientific notation.
SCI_THRESHOLD = 1e-3


def format_probability(value: float) -> str:
    """Probability cell: DECIMALS fixed decimals, or 3-significant-digit
    scientific below SCI_THRESHOLD."""
    if value != 0.0 and abs(value) < SCI_THRESHOLD:
        return f"{value:.2E}"
    return f"{value:.{DECIMALS}f}"


def format_number(value: float) -> str:
    """General numeric cell with six significant digits."""
    return f"{value:.6g}"


def render_rows(rows: list[dict], kind: str) -> str:
    """Render pre-formatted rows (all sharing one key order) as `kind`,
    one of KINDS.

    Cells are ints or already-formatted strings; JSON output re-parses
    numeric strings so the emitted numbers equal what CSV readers see.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown output kind {kind!r}; expected one of {KINDS}")
    if kind == "json":
        # imported here, so that CSV and TSV output start without it
        import json

        return json.dumps([{k: _json_value(v) for k, v in row.items()} for row in rows], indent=2) + "\n"
    delimiter = "," if kind == "csv" else "\t"
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
    if rows:
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow(row.values())
    return buffer.getvalue()


def _json_value(cell):
    if isinstance(cell, (int, float)):
        return cell
    try:
        return int(cell)
    except ValueError:
        try:
            return float(cell)
        except ValueError:
            return cell

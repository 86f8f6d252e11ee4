"""Cell formatting and rendering."""

import json

import pytest

from citesim.output import format_number, format_probability, render_rows


class TestFormatProbability:
    def test_four_decimals_above_threshold(self):
        assert format_probability(0.818272) == "0.8183"
        assert format_probability(0.0562) == "0.0562"
        assert format_probability(0.0017) == "0.0017"

    def test_scientific_below_threshold(self):
        assert format_probability(9.82e-4) == "9.82E-04"
        assert format_probability(4.042e-10) == "4.04E-10"

    def test_zero(self):
        assert format_probability(0.0) == "0.0000"


def test_format_number_six_significant_digits():
    assert format_number(40.455823456) == "40.4558"
    assert format_number(1.8001334e-05) == "1.80013e-05"


def test_output_format_validation():
    with pytest.raises(ValueError):
        render_rows([{"series": 1}], "xml")


class TestRenderRows:
    ROWS = [
        {"series": 1, "p": "0.8183", "label": "alpha"},
        {"series": 2, "p": "1.70E-03", "label": "beta"},
    ]

    def test_csv_has_header_and_lf(self):
        text = render_rows(self.ROWS, "csv")
        assert text == "series,p,label\n1,0.8183,alpha\n2,1.70E-03,beta\n"

    def test_tsv_delimiter(self):
        text = render_rows(self.ROWS, "tsv")
        assert text.splitlines()[1] == "1\t0.8183\talpha"

    def test_json_parses_numeric_strings(self):
        records = json.loads(render_rows(self.ROWS, "json"))
        assert records[0] == {"series": 1, "p": 0.8183, "label": "alpha"}
        assert records[1]["p"] == 1.70e-3

    def test_csv_and_json_round_trip_to_same_values(self):
        csv_text = render_rows(self.ROWS, "csv")
        records = json.loads(render_rows(self.ROWS, "json"))
        for line, record in zip(csv_text.splitlines()[1:], records):
            series, p, label = line.split(",")
            assert int(series) == record["series"]
            assert float(p) == record["p"]
            assert label == record["label"]

    def test_empty_rows(self):
        assert render_rows([], "csv") == ""
        assert json.loads(render_rows([], "json")) == []

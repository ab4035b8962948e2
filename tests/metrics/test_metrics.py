"""Tests for table reporting."""

import pytest

from repro.metrics.reporting import Table, format_row, format_table


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_format_row(self):
        row = format_row(["x", 1.5], [4, 6])
        assert "x" in row and "1.5" in row

    def test_float_formatting(self):
        text = format_table(["v"], [[0.000012345], [123456.789], [1.5]])
        assert "1.23e-05" in text
        assert "1.5" in text

    def test_table_accumulator(self):
        table = Table(headers=["a", "b"], title="demo")
        table.add(1, 2)
        rendered = table.render()
        assert "demo" in rendered
        assert "1" in rendered

    def test_table_wrong_arity(self):
        table = Table(headers=["a", "b"])
        with pytest.raises(ValueError):
            table.add(1)

    def test_table_csv_output(self):
        table = Table(headers=["name", "value"], title="E99: demo, test")
        table.add("plain", 1)
        table.add('has "quotes", commas', 2.5)
        csv_text = table.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "name,value"
        assert lines[1] == "plain,1"
        assert '"has ""quotes"", commas"' in lines[2]

    def test_table_slug(self):
        table = Table(headers=["x"], title="E5: ledger load (0 revoked)")
        slug = table.slug()
        assert slug == "e5_ledger_load_0_revoked"
        assert Table(headers=["x"]).slug() == "table"


class TestFormatTableRegressions:
    """format_table must render, not crash, on degenerate shapes."""

    def test_zero_rows(self):
        text = format_table(["name", "value"], [])
        lines = text.splitlines()
        assert len(lines) == 2  # header + rule, no body
        assert "name" in lines[0] and "value" in lines[0]

    def test_ragged_rows_padded(self):
        text = format_table(["a", "b", "c"], [["x"], ["y", 2]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_row_wider_than_headers(self):
        text = format_table(["only"], [["x", "extra", "wider"]])
        assert "extra" in text and "wider" in text
        lines = text.splitlines()
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_empty_table(self):
        assert format_table([], []) == ""

    def test_body_matches_format_row(self):
        # The body is rendered by format_row itself, so float formatting
        # can never drift between the two paths.
        headers = ["v"]
        rows = [[0.000012345], [1.5]]
        text = format_table(headers, rows)
        widths = [len(text.splitlines()[0])]
        for row in rows:
            assert format_row(row, widths) in text

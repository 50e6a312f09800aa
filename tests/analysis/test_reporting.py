"""Tests for the reporting helpers."""


import pytest

from repro.analysis.reporting import Table, format_table


class TestTable:
    def test_row_arity_checked(self):
        t = Table(title="t", columns=["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_format_alignment(self):
        t = Table(title="Demo", columns=["name", "value"])
        t.add_row("x", 1)
        t.add_row("longer", 22)
        out = format_table(t)
        lines = out.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5


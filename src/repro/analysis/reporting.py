"""Result containers and plain-text table/series formatting.

The experiment targets print the same rows/series the paper's tables and
figures report; these helpers keep the format consistent across the
``python -m repro.experiments`` targets and the ``examples/`` scripts.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Table:
    """A figure/table reproduction: header + rows of formatted cells."""

    title: str
    columns: list[str]
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, expected {len(self.columns)}"
            )
        self.rows.append([str(c) for c in cells])


def format_table(table: Table) -> str:
    """Render a Table as aligned plain text."""
    widths = [len(c) for c in table.columns]
    for row in table.rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [table.title]
    header = "  ".join(c.ljust(w) for c, w in zip(table.columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in table.rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

"""ASCII table rendering for experiment rows.

``python -m repro experiment`` and ``bounds`` print their tables through
these helpers, one paper-style table per call.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Iterable, Sequence


def _render_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render a fixed-width ASCII table."""
    rendered = [[_render_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    header = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered:
        lines.append(
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def dataclass_table(rows: Sequence[Any], columns: Sequence[str] | None = None) -> str:
    """Render a list of dataclass rows (optionally a column subset)."""
    if not rows:
        return "(no rows)"
    first = rows[0]
    if not is_dataclass(first):
        raise TypeError("dataclass_table expects dataclass instances")
    names = columns or [f.name for f in fields(first)]
    table_rows = [[getattr(row, name) for name in names] for row in rows]
    return format_table(names, table_rows)


def print_table(title: str, rows: Sequence[Any], columns: Sequence[str] | None = None) -> None:
    """Print a titled dataclass table (used by benches and examples)."""
    print(f"\n== {title} ==")
    print(dataclass_table(rows, columns))

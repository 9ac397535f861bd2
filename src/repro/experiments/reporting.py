"""Plain-text report formatting for experiment results.

Experiments produce lists of dictionaries ("rows"); these helpers render
them as aligned text tables (for the console and the benchmark logs) or as
Markdown (the experiments runner's ``--output`` report).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence


def _stringify(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)


def format_rows(rows: Sequence[Dict[str, object]], *, title: str | None = None) -> str:
    """Render rows as an aligned plain-text table."""
    rows = list(rows)
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    table: List[List[str]] = [[_stringify(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in table)) for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    for line in table:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def rows_to_markdown(rows: Sequence[Dict[str, object]], *, title: str | None = None) -> str:
    """Render rows as a Markdown table."""
    rows = list(rows)
    if not rows:
        return (f"### {title}\n\n" if title else "") + "_no rows_"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines.append("| " + " | ".join(columns) + " |")
    lines.append("|" + "|".join(["---"] * len(columns)) + "|")
    for row in rows:
        lines.append("| " + " | ".join(_stringify(row.get(col, "")) for col in columns) + " |")
    return "\n".join(lines)


def relative_reduction(value: float, baseline: float) -> float:
    """Fractional reduction of ``value`` relative to ``baseline`` (positive = fewer)."""
    if baseline == 0:
        return 0.0
    return (baseline - value) / baseline

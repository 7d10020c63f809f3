"""Plain-text and Markdown table rendering for experiment results.

The benchmark harness prints the same "rows and series" a paper table or
figure would contain; this module owns the formatting so that every
experiment (``benchmarks/bench_e*.py``) reports consistently.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = ["format_value", "format_table", "format_markdown_table", "summarise_column"]


def format_value(value: object, float_format: str = "{:.4f}") -> str:
    """Human-friendly cell rendering (floats formatted, inf/nan spelled out)."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if math.isnan(value):
            return "nan"
        return float_format.format(value)
    return str(value)


def _normalise_columns(
    rows: Sequence[Dict[str, object]], columns: Optional[Sequence[str]]
) -> List[str]:
    if columns is not None:
        return list(columns)
    seen: List[str] = []
    for row in rows:
        for key in row:
            if key not in seen:
                seen.append(key)
    return seen


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    *,
    float_format: str = "{:.4f}",
    title: Optional[str] = None,
) -> str:
    """Fixed-width ASCII table (what the benchmarks print to stdout)."""
    columns = _normalise_columns(rows, columns)
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"

    rendered = [[format_value(row.get(col, ""), float_format) for col in columns] for row in rows]
    widths = [
        max(len(col), max((len(r[idx]) for r in rendered), default=0))
        for idx, col in enumerate(columns)
    ]

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    out: List[str] = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(columns))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(r) for r in rendered)
    return "\n".join(out)


def format_markdown_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    *,
    float_format: str = "{:.4f}",
) -> str:
    """GitHub-flavoured Markdown table (the experiments' ``results/*.md``)."""
    columns = _normalise_columns(rows, columns)
    header = "| " + " | ".join(columns) + " |"
    separator = "| " + " | ".join("---" for _ in columns) + " |"
    body = [
        "| " + " | ".join(format_value(row.get(col, ""), float_format) for col in columns) + " |"
        for row in rows
    ]
    return "\n".join([header, separator, *body])


def summarise_column(rows: Sequence[Dict[str, object]], column: str) -> Dict[str, float]:
    """Min / max / mean of a numeric column (ignoring missing values)."""
    values = [float(row[column]) for row in rows if column in row and row[column] is not None]
    if not values:
        return {"count": 0, "min": math.nan, "max": math.nan, "mean": math.nan}
    return {
        "count": len(values),
        "min": min(values),
        "max": max(values),
        "mean": sum(values) / len(values),
    }

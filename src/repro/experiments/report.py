"""Plain-text table/series formatting shared by the experiment drivers.

Benchmarks print these so the regenerated numbers appear next to the
pytest-benchmark timings in ``bench_output.txt``.
"""

from __future__ import annotations

import math
from decimal import Decimal
from typing import List, Sequence


def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned text table with a title rule."""
    str_rows: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(title: str, x_label: str, xs: Sequence[float],
                  series: Sequence[tuple]) -> str:
    """Render one or more y-series against a shared x axis.

    ``series`` is a sequence of ``(label, values)`` pairs.  The x values
    print exactly (η = 0.016 is "0.016", not "0.02"); the y values
    round as every other cell does.
    """
    headers = [x_label] + [label for label, _values in series]
    rows = []
    for i, x in enumerate(xs):
        rows.append([_exact(x)] + [values[i] for _label, values in series])
    return format_table(title, headers, rows)


def _exact(value: object) -> str:
    """A finite float as the shortest decimal that reads back as it,
    without an exponent; anything else as :func:`_fmt` prints it."""
    if not isinstance(value, float) or not math.isfinite(value):
        return _fmt(value)
    text = format(Decimal(repr(value)), ",f")
    return text.rstrip("0").rstrip(".") if "." in text else text


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 0.01:
            return f"{value:.5f}".rstrip("0").rstrip(".")
        return f"{value:,.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)

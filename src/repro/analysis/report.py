"""Plain-text rendering of experiment results (tables and series).

The benchmark harness prints the same rows/series the paper's figures
show; these helpers keep that output consistent and diff-friendly.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Union

Number = Union[int, float]


def _fmt(value: object, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 3,
    title: str = "",
) -> str:
    """Render rows as an aligned ASCII table."""
    str_rows = [[_fmt(c, precision) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out: List[str] = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(r) for r in str_rows)
    return "\n".join(out)


def format_series(
    series: Mapping[object, Number], precision: int = 3, title: str = "",
    key_header: str = "x", value_header: str = "y",
) -> str:
    """Render an x->y mapping as a two-column table."""
    rows = [(k, v) for k, v in series.items()]
    return format_table([key_header, value_header], rows, precision, title)


_SPARK_GLYPHS = " .:-=+*#%@"


def sparkline(series: Sequence[float], width: int = 60) -> str:
    """Render a series as a one-line ASCII intensity profile.

    Used for sensitivity-over-time displays (Figure 6-style) in the CLI
    and examples; values are scaled to the series maximum.
    """
    if not series:
        return ""
    cells = list(series[:width])
    top = max(max(cells), 1e-12)
    return "".join(
        _SPARK_GLYPHS[min(len(_SPARK_GLYPHS) - 1, int((len(_SPARK_GLYPHS) - 1) * max(v, 0.0) / top))]
        for v in cells
    )


def geometric_mean(values: Sequence[float]) -> float:
    """Geomean of positive values (paper's cross-workload summaries)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    product = 1.0
    for v in vals:
        product *= v
    return product ** (1.0 / len(vals))


__all__ = ["format_table", "format_series", "geometric_mean", "sparkline"]

"""Human-readable formatting helpers for reports and CLI output."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = [
    "format_si",
    "format_bytes",
    "format_seconds",
    "format_table",
    "ascii_gantt",
]

_SI_PREFIXES = [(1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "K")]


def format_si(value: float, unit: str = "", digits: int = 2) -> str:
    """Format ``value`` with an SI prefix, e.g. ``format_si(11.2e12, 'flop/s')``."""
    for scale, prefix in _SI_PREFIXES:
        if abs(value) >= scale:
            return f"{value / scale:.{digits}f} {prefix}{unit}".rstrip()
    return f"{value:.{digits}f} {unit}".rstrip()


def format_bytes(nbytes: float) -> str:
    """Format a byte count using binary prefixes."""
    value = float(nbytes)
    for prefix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or prefix == "TiB":
            return f"{value:.2f} {prefix}" if prefix != "B" else f"{int(value)} B"
        value /= 1024.0
    raise AssertionError("unreachable")


def format_seconds(seconds: float) -> str:
    """Format a duration, switching units below one second."""
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    return f"{seconds * 1e6:.1f} us"


#: Narrowest column :func:`format_table` renders.
MIN_WIDTH = 6


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned plain-text table.

    Numeric cells are right-aligned, text cells left-aligned; used by the
    experiment drivers so reports read like the paper's tables.
    """
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [max(MIN_WIDTH, len(h)) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 1e4 else f"{value:.4g}"
    return str(value)


def ascii_gantt(
    lanes: Sequence[Sequence[tuple[float, float, str]]],
    *,
    width: int = 100,
    lane_labels: Sequence[str] | None = None,
) -> str:
    """Render execution traces as an ASCII Gantt chart.

    Parameters
    ----------
    lanes:
        One sequence per lane (e.g. per worker thread) of
        ``(start, end, symbol)`` intervals; ``symbol`` is a single character
        identifying the task class (the Figure 7 reproduction uses ``F`` for
        flat-tree factor kernels, ``U`` for updates and ``B`` for binary
        reductions).
    width:
        Number of character columns used for the time axis.
    """
    horizon = max((end for lane in lanes for _, end, _ in lane), default=0.0)
    if horizon <= 0.0:
        return "(empty trace)"
    if lane_labels is None:
        lane_labels = [f"t{i}" for i in range(len(lanes))]
    label_w = max(len(s) for s in lane_labels)
    out = []
    for label, lane in zip(lane_labels, lanes):
        row = ["."] * width
        for start, end, sym in lane:
            lo = int(start / horizon * (width - 1))
            hi = max(lo + 1, int(end / horizon * (width - 1)) + 1)
            for c in range(lo, min(hi, width)):
                row[c] = sym[0]
        out.append(f"{label.rjust(label_w)} |{''.join(row)}|")
    out.append(f"{' ' * label_w} 0{' ' * (width - len(f'{horizon:.4g}') - 1)}{horizon:.4g}")
    return "\n".join(out)

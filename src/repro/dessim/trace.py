"""Execution-trace utilities (the paper's Figure 7 style analysis).

Traces come out of :func:`repro.dessim.simulate` as
``(worker, start, end, kind, meta)`` records.  This module turns them into
per-worker lanes, overlap metrics and ASCII Gantt charts.

Kind codes follow the paper's trace colouring: ``0`` = flat-tree panel
kernels (red), ``1`` = flat-tree trailing updates (orange), ``2`` =
binary-tree kernels (blue).  These three codes are the complete vocabulary:
:func:`lanes_from_trace` raises :class:`~repro.util.errors.TraceError` on
anything else rather than silently rendering an unknown symbol.

For cross-backend analysis, convert these records to the unified span
model with :func:`repro.obs.spans_from_des_trace` (or
``SimResult.spans()``) and export them with :mod:`repro.obs.export`
(Chrome trace, summary table, :func:`~repro.obs.export.spans_to_csv`).
"""

from __future__ import annotations

from ..util.errors import TraceError
from ..util.formatting import ascii_gantt

__all__ = [
    "KIND_PANEL",
    "KIND_UPDATE",
    "KIND_BINARY",
    "KIND_SYMBOLS",
    "lanes_from_trace",
    "overlap_fraction",
    "gantt",
]

KIND_PANEL = 0
KIND_UPDATE = 1
KIND_BINARY = 2

#: Gantt symbols per kind code (F = flat panel, U = update, B = binary).
KIND_SYMBOLS = {KIND_PANEL: "F", KIND_UPDATE: "U", KIND_BINARY: "B"}


def lanes_from_trace(
    trace: list[tuple], n_workers: int
) -> list[list[tuple[float, float, str]]]:
    """Group trace records into per-worker ``(start, end, symbol)`` lanes.

    Raises
    ------
    TraceError
        If a record carries a kind code outside :data:`KIND_SYMBOLS` —
        a silent blank symbol would make the Gantt chart lie about what
        ran.
    """
    lanes: list[list[tuple[float, float, str]]] = [[] for _ in range(n_workers)]
    for w, start, end, kind, _meta in trace:
        symbol = KIND_SYMBOLS.get(kind)
        if symbol is None:
            raise TraceError(
                f"unknown trace kind code {kind!r} in record "
                f"(worker={w}, start={start}); expected one of "
                f"{sorted(KIND_SYMBOLS)}"
            )
        lanes[w].append((start, end, symbol))
    for lane in lanes:
        lane.sort()
    return lanes


def overlap_fraction(trace: list[tuple], kind_a: int, kind_b: int) -> float:
    """Fraction of kind-``a`` busy time during which kind ``b`` also runs.

    This quantifies Figure 7's point: with shifted domain boundaries the
    flat-tree reductions (kind 0/1) overlap the binary reductions (kind 2)
    much more than with fixed boundaries.
    """
    a_iv = sorted((s, e) for w, s, e, k, _ in trace if k == kind_a)
    b_iv = sorted((s, e) for w, s, e, k, _ in trace if k == kind_b)
    if not a_iv or not b_iv:
        return 0.0
    b_merged: list[list[float]] = []
    for s, e in b_iv:
        if b_merged and s <= b_merged[-1][1]:
            b_merged[-1][1] = max(b_merged[-1][1], e)
        else:
            b_merged.append([s, e])
    total = sum(e - s for s, e in a_iv)
    if total <= 0.0:
        return 0.0
    overlap = 0.0
    bi = 0
    for s, e in a_iv:
        while bi < len(b_merged) and b_merged[bi][1] <= s:
            bi += 1
        k = bi
        while k < len(b_merged) and b_merged[k][0] < e:
            overlap += min(e, b_merged[k][1]) - max(s, b_merged[k][0])
            k += 1
    return overlap / total


def gantt(trace: list[tuple], n_workers: int, width: int = 100) -> str:
    """ASCII Gantt chart of a trace (the text analogue of Figure 7)."""
    lanes = lanes_from_trace(trace, n_workers)
    return ascii_gantt(lanes, width=width, lane_labels=[f"w{i}" for i in range(n_workers)])


"""Exporters: spans/counters to Chrome-trace JSON, summary tables, CSV.

The JSON exporter emits the Chrome Trace Event format (the ``traceEvents``
array of ``"X"`` complete events), which both ``chrome://tracing`` and
`Perfetto <https://ui.perfetto.dev>`_ load directly — drop the file onto
the Perfetto UI and every lane becomes a named track.  Events are sorted by
timestamp and validated structurally by :mod:`repro.obs.validate`.

Summary tables reuse :func:`repro.util.formatting.format_table` so trace
breakdowns read like the experiment reports.

Doctest::

    >>> from repro.obs import Span, to_chrome_trace
    >>> doc = to_chrome_trace([Span("GEQRT", "panel", 0.0, 1.5e-3, worker=0)])
    >>> [e["ph"] for e in doc["traceEvents"]]  # process_name metadata + span
    ['M', 'X']
    >>> doc["traceEvents"][1]["dur"]  # microseconds
    1500.0
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections.abc import Iterable, Mapping

from ..util.formatting import format_seconds, format_si, format_table
from .record import Counters, Span

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "des_traces_to_chrome",
    "span_summary",
    "counter_summary",
    "spans_to_csv",
]

_US = 1e6  # Chrome trace timestamps are microseconds


def _events_for_group(
    spans: Iterable[Span],
    *,
    pid: int,
    process_name: str | None,
    lane_names: Mapping[int, str] | None,
) -> list[dict]:
    meta: list[dict] = []
    if process_name is not None:
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": process_name},
            }
        )
    for lane, label in sorted((lane_names or {}).items()):
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": lane,
                "args": {"name": label},
            }
        )
    events = []
    for s in spans:
        args = dict(s.args)
        # Causal identity travels in args so Perfetto shows it per slice
        # and the validator can check edges without the Span objects.
        if s.span_id:
            args["span"] = s.span_id
        if s.parent_id is not None:
            args["parent"] = s.parent_id
        events.append(
            {
                "name": s.name,
                "cat": s.cat,
                "ph": "X",
                "ts": s.start * _US,
                "dur": s.duration * _US,
                "pid": pid,
                "tid": s.worker,
                "args": args,
            }
        )
    events.sort(key=lambda e: (e["ts"], -e["dur"]))
    return meta + events


def to_chrome_trace(
    spans: Iterable[Span],
    *,
    counters: Mapping[str, float] | None = None,
    clock: str = "real",
    lane_names: Mapping[int, str] | None = None,
    process_name: str = "repro",
    run_id: str | None = None,
) -> dict:
    """Build a Chrome-trace document (one process group, ``pid`` 0).

    ``counters`` totals travel in ``otherData`` (Chrome counter events model
    time series; ours are end-of-run totals, so structured side data keeps
    them lossless).  ``clock`` is recorded there too, so a viewer-side
    human can tell virtual seconds from wall-clock seconds, and ``run_id``
    (when the trace came from a live recorder) ties the file to its event
    log, metrics samples, and registry record.
    """
    other: dict = {"clock": clock, "counters": dict(counters or {})}
    if run_id is not None:
        other["run_id"] = run_id
    return {
        "traceEvents": _events_for_group(
            spans, pid=0, process_name=process_name, lane_names=lane_names
        ),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def des_traces_to_chrome(
    groups: Mapping[str, list],
    *,
    counters: Mapping[str, float] | None = None,
) -> dict:
    """Several DES traces in one document, one ``pid`` per label.

    ``groups`` maps a label (``"fixed"`` / ``"shifted"``, ``"lazy"`` /
    ``"aggressive"``) to a raw DES trace; side-by-side process groups are
    how Figure 7-style comparisons read best in Perfetto.
    """
    from .adapters import spans_from_des_trace

    events: list[dict] = []
    for pid, (label, trace) in enumerate(sorted(groups.items())):
        spans = spans_from_des_trace(trace)
        lanes = {s.worker for s in spans}
        events.extend(
            _events_for_group(
                spans,
                pid=pid,
                process_name=label,
                lane_names={w: f"worker {w}" for w in sorted(lanes)},
            )
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "virtual", "counters": dict(counters or {})},
    }


def write_chrome_trace(path: str | os.PathLike, document_or_spans, **kw) -> dict:
    """Serialise a trace document (or spans, via :func:`to_chrome_trace`).

    Returns the document written, so callers can validate or inspect it.
    """
    if isinstance(document_or_spans, dict):
        doc = document_or_spans
    else:
        doc = to_chrome_trace(document_or_spans, **kw)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=str)
    return doc


def span_summary(spans: Iterable[Span]) -> str:
    """Per-(category, name) time breakdown as an aligned text table.

    This is the tool behind "where did the time go?": total/mean duration
    and share of the summed span time per kernel or runtime event.
    """
    agg: dict[tuple[str, str], list[float]] = {}
    for s in spans:
        agg.setdefault((s.cat, s.name), []).append(s.duration)
    grand = sum(sum(v) for v in agg.values()) or 1.0
    rows = [
        (
            cat,
            name,
            len(durs),
            format_seconds(sum(durs)),
            format_seconds(sum(durs) / len(durs)),
            f"{sum(durs) / grand:.1%}",
        )
        for (cat, name), durs in sorted(
            agg.items(), key=lambda kv: -sum(kv[1])
        )
    ]
    return format_table(
        ["category", "name", "count", "total", "mean", "share"], rows
    )


def counter_summary(counters: Counters | Mapping[str, float]) -> str:
    """Counters as an aligned table, flop counters SI-formatted."""
    rows = []
    for key in sorted(counters):
        value = counters[key]
        shown = format_si(value, "flop") if key.startswith("flops.") else (
            f"{value:.0f}" if float(value).is_integer() else f"{value:.3f}"
        )
        rows.append((key, shown))
    return format_table(["counter", "value"], rows)


def spans_to_csv(spans: Iterable[Span]) -> str:
    """Spans as CSV (``worker,start,end,cat,name,args``).

    Fields are quoted where they need it, so an argument such as a VDP
    tuple or a fallback reason with a comma keeps its row at six fields.
    """
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(("worker", "start", "end", "cat", "name", "args"))
    for s in spans:
        args = ";".join(f"{k}={v}" for k, v in sorted(s.args.items()))
        out.writerow((s.worker, f"{s.start:.9f}", f"{s.end:.9f}", s.cat, s.name, args))
    return buf.getvalue()

"""Unified observability: spans, counters, and trace export for every backend.

The four execution paths of this library — the serial reference executor,
the threaded PULSAR runtime, the process-parallel dispatcher, and the
discrete-event simulator — historically reported what happened in four
incompatible shapes.  This package gives them one schema:

* :class:`Span` — a named, categorised interval on a worker lane (the
  simulator's trace converts with :func:`spans_from_des_trace`);
* :class:`Counters` — typed event totals (per-kernel flops, firings,
  packets by-passed, bytes moved, queue depths, faults, retries): the one
  tally of how many times anything happened;
* :class:`Recorder` — the process-global real-time sink with a no-op fast
  path when tracing is disabled;
* exporters — Chrome-trace/Perfetto JSON (:func:`write_chrome_trace`),
  summary tables (:func:`span_summary`, :func:`counter_summary`), CSV;
* :func:`validate_chrome_trace` — structural schema check (also a CLI:
  ``python -m repro.obs.validate trace.json``);
* analysis — :func:`realized_critical_path` / :func:`lane_attribution`
  answer "where did the time go" from recorded spans, :func:`gap_report`
  whether the machine model predicts it, and :func:`analyze_factorization`
  runs all three on one traced call (see ``docs/performance.md``);
* :class:`MetricsSampler` — a background thread streaming counter/gauge
  snapshots to JSON-lines while a backend runs (tail, summarise, or
  dashboard with ``python -m repro.obs.monitor metrics.jsonl``);
* trace context (:mod:`repro.obs.context`) — every ``qr_factor`` call
  mints a ``run_id`` that propagates through worker pipes, PULSAR packets,
  and checkpoint archives, so spans and events from every process and
  thread of one factorization share one identity (and causal
  ``span_id``/``parent_id`` edges — see :func:`causal_edges`);
* :class:`EventLog` — typed, schema-validated runtime events (retries,
  respawns, SDC repairs, checkpoint writes, stalls) correlated to spans:
  the narrative of who, which op and which span, kept in a bounded ring;
* :class:`RunRegistry` — an append-only per-run counter summary store with
  cross-run diffing (``python -m repro.obs.registry list|show|diff``).

Quick start: ``qr_factor(a, backend="parallel", trace="t.json")`` records
spans from whichever backend runs and writes a Perfetto-loadable JSON; see
``docs/observability.md`` for the per-backend recipes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import-time typing only
    from .adapters import (
        KERNEL_CATEGORY,
        KIND_CATEGORY,
        counters_from_ops,
        spans_from_des_trace,
    )
    from .analysis import (
        CriticalPathResult,
        CriticalPathStep,
        GapReport,
        KernelGap,
        LaneUsage,
        PerfAnalysis,
        analyze_factorization,
        attribution_table,
        causal_edges,
        gap_report,
        lane_attribution,
        match_spans_to_ops,
        realized_critical_path,
    )
    from .context import RunContext, current_run_id, mint_run_id, use_run
    from .events import EVENT_TYPES, Event, EventLog, read_events
    from .export import (
        counter_summary,
        des_traces_to_chrome,
        span_summary,
        spans_to_csv,
        to_chrome_trace,
        write_chrome_trace,
    )
    from .record import (
        Counters,
        Recorder,
        Span,
        current_lane,
        current_op,
        current_span_id,
        get_recorder,
        recording,
        set_current_op,
        set_worker_lane,
    )
    from .registry import RunRegistry, anomaly_flags, build_record, diff_records
    from .sampler import MetricsSampler
    from .validate import (
        canonical_counter_keys,
        validate_chrome_trace,
        validate_counters,
        validate_run_telemetry,
    )

#: The submodule of each public name (the one export table: ``__all__`` is
#: its names), imported on first access (PEP 562)
#: so that a process that records nothing loads none of the analysis, export,
#: registry, sampler or validation modules.
_HOME = {
    "adapters": ("KERNEL_CATEGORY", "KIND_CATEGORY", "counters_from_ops", "spans_from_des_trace"),
    "analysis": (
        "CriticalPathResult", "CriticalPathStep", "GapReport", "KernelGap", "LaneUsage",
        "PerfAnalysis", "analyze_factorization", "attribution_table", "causal_edges",
        "gap_report", "lane_attribution", "match_spans_to_ops", "realized_critical_path",
    ),
    "context": ("RunContext", "current_run_id", "mint_run_id", "use_run"),
    "events": ("EVENT_TYPES", "Event", "EventLog", "read_events"),
    "export": (
        "counter_summary", "des_traces_to_chrome", "span_summary", "spans_to_csv",
        "to_chrome_trace", "write_chrome_trace",
    ),
    "record": (
        "Counters", "Recorder", "Span", "current_lane", "current_op", "current_span_id",
        "get_recorder", "recording", "set_current_op", "set_worker_lane",
    ),
    "registry": ("RunRegistry", "anomaly_flags", "build_record", "diff_records"),
    "sampler": ("MetricsSampler",),
    "validate": (
        "canonical_counter_keys", "validate_chrome_trace", "validate_counters",
        "validate_run_telemetry",
    ),
}
_MODULE_OF = {name: module for module, names in _HOME.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value

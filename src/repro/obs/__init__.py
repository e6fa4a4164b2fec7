"""Unified observability: spans, counters, and trace export for every backend.

The four execution paths of this library — the serial reference executor,
the threaded PULSAR runtime, the process-parallel dispatcher, and the
discrete-event simulator — historically reported what happened in four
incompatible shapes.  This package gives them one schema:

* :class:`Span` — a named, categorised interval on a worker lane;
* :class:`Counters` — typed event totals (per-kernel flops, firings,
  packets by-passed, bytes moved, queue depths);
* :class:`Recorder` — the process-global sink with a no-op fast path when
  tracing is disabled;
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
  respawns, SDC repairs, checkpoint writes, stalls) correlated to spans;
* :class:`RunRegistry` — an append-only per-run summary store with
  cross-run diffing (``python -m repro.obs.registry list|show|diff``).

Quick start: ``qr_factor(a, backend="parallel", trace="t.json")`` records
spans from whichever backend runs and writes a Perfetto-loadable JSON; see
``docs/observability.md`` for the per-backend recipes.
"""

from .adapters import (
    KERNEL_CATEGORY,
    KIND_CATEGORY,
    counters_from_ops,
    recorder_from_sim_result,
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
    install,
    recording,
    set_current_op,
    set_worker_lane,
    uninstall,
)
from .registry import RunRegistry, anomaly_flags, build_record, diff_records
from .sampler import MetricsSampler
from .validate import (
    canonical_counter_keys,
    register_counter_prefix,
    validate_chrome_trace,
    validate_counters,
    validate_run_telemetry,
)

__all__ = [
    "Span",
    "Counters",
    "Recorder",
    "get_recorder",
    "install",
    "uninstall",
    "recording",
    "set_worker_lane",
    "current_lane",
    "set_current_op",
    "current_op",
    "match_spans_to_ops",
    "realized_critical_path",
    "lane_attribution",
    "attribution_table",
    "CriticalPathStep",
    "CriticalPathResult",
    "LaneUsage",
    "gap_report",
    "GapReport",
    "KernelGap",
    "analyze_factorization",
    "PerfAnalysis",
    "MetricsSampler",
    "KERNEL_CATEGORY",
    "KIND_CATEGORY",
    "spans_from_des_trace",
    "recorder_from_sim_result",
    "counters_from_ops",
    "to_chrome_trace",
    "des_traces_to_chrome",
    "write_chrome_trace",
    "span_summary",
    "counter_summary",
    "spans_to_csv",
    "validate_chrome_trace",
    "validate_counters",
    "validate_run_telemetry",
    "canonical_counter_keys",
    "register_counter_prefix",
    "causal_edges",
    "current_span_id",
    "RunContext",
    "mint_run_id",
    "current_run_id",
    "use_run",
    "Event",
    "EventLog",
    "EVENT_TYPES",
    "read_events",
    "RunRegistry",
    "build_record",
    "diff_records",
    "anomaly_flags",
]

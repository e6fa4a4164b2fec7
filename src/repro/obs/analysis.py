"""Performance analysis over recorded spans: where did the time go?

The recording layer (:mod:`repro.obs.record`) captures *what happened*;
this module answers the paper's actual question — whether the pipeline
stayed busy and the panel critical path stayed short (Sec. VI-A) — and
whether the machine model the DES experiments trust is telling the truth.
The analyses all operate on the same :class:`~repro.obs.record.Span` model
so they apply to every backend alike:

* :func:`match_spans_to_ops` joins measured kernel spans back onto the
  operation list.  Spans tagged with an op index (``Span.args["op"]``, see
  :meth:`Recorder.record_kernel`) match exactly even when lanes finish work
  out of program order; untagged traces fall back to per-kind schedule
  order, which is sound for the serial executor.
* :func:`realized_critical_path` walks the dataflow DAG
  (:func:`repro.qr.dag.op_dependency_graph`) *backwards* from the last
  kernel to finish, at each step following the predecessor that finished
  latest — the chain of ops that actually bounded the wall time, with the
  scheduling/communication wait incurred before each hop.
* :func:`lane_attribution` splits each lane's wall time into **busy**
  (kernel execution), **overhead** (non-kernel span time: firings, proxy
  work, dispatch) and **idle** (no span at all); the three sum to the wall
  time exactly, per lane.
* :func:`gap_report` replays the operation list through the machine model
  (:mod:`repro.machine`) and compares predicted against measured time per
  kernel kind and per tree phase, flagging kinds whose efficiency deviates
  from the model beyond a threshold.
* :func:`analyze_factorization` bundles all three for one traced
  :func:`repro.qr_factor` run.

See ``docs/performance.md`` for how to read the reports, and
``python -m repro.experiments perf`` for the backend comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..util.errors import TraceError
from ..util.formatting import format_table
from .adapters import KERNEL_CATEGORY
from .record import Span

if TYPE_CHECKING:  # the machine model imports the kernels, which import obs
    from ..machine.model import MachineModel

__all__ = [
    "match_spans_to_ops",
    "realized_critical_path",
    "lane_attribution",
    "attribution_table",
    "causal_edges",
    "CriticalPathStep",
    "CriticalPathResult",
    "LaneUsage",
    "KernelGap",
    "GapReport",
    "gap_report",
    "PerfAnalysis",
    "analyze_factorization",
]


def _kernel_spans(spans) -> list[Span]:
    return [s for s in spans if s.name in KERNEL_CATEGORY]


def causal_edges(spans) -> dict[int, int | None]:
    """``span_id -> parent_id`` over every identified span in the trace.

    Clock alignment can only say two spans *overlapped*; the identity
    edges recorded by the tracer (:attr:`~repro.obs.record.Span.parent_id`)
    say one span *caused* the other — a kernel fired inside a PULSAR
    firing, a worker attach triggered by a pool lease.  This helper
    extracts those edges and enforces their invariants:

    * span ids are unique (a duplicate means two spans claim the same
      identity — a recorder bug or a spliced trace);
    * every ``parent_id`` resolves to a span present in the trace (an
      orphan edge means the parent was dropped or the trace truncated).

    Spans without an id (``span_id == 0`` — DES-derived or hand-built
    spans) carry no identity and are skipped.  Roots map to ``None``.
    """
    edges: dict[int, int | None] = {}
    for s in spans:
        if not s.span_id:
            continue
        if s.span_id in edges:
            raise TraceError(f"duplicate span id {s.span_id} ({s.name!r})")
        edges[s.span_id] = s.parent_id
    orphans = sorted(
        sid for sid, parent in edges.items()
        if parent is not None and parent not in edges
    )
    if orphans:
        raise TraceError(
            f"{len(orphans)} span(s) reference parents absent from the "
            f"trace: ids {orphans[:5]}"
        )
    return edges


def match_spans_to_ops(spans, ops) -> list[Span | None]:
    """One measured kernel span per op (schedule order), ``None`` if unmeasured.

    When any kernel span carries an op index the join is by identity:
    ``Span.args["op"]`` must be a valid index whose op kind matches the span
    name (anything else raises :class:`TraceError`); if an op was measured
    twice — possible when the fault layer re-dispatches in-flight work — the
    first report wins.  Traces without op tags (DES exports, pre-existing
    files) are matched per kind in recording order, which equals schedule
    order only for serial execution; mixed traces use the tagged spans only.
    """
    kspans = _kernel_spans(spans)
    n = len(ops)
    out: list[Span | None] = [None] * n
    tagged = [s for s in kspans if "op" in s.args]
    if tagged:
        for s in tagged:
            i = s.args["op"]
            if not isinstance(i, int) or not 0 <= i < n:
                raise TraceError(f"span {s.name!r} tagged with invalid op index {i!r}")
            if ops[i].kind != s.name:
                raise TraceError(
                    f"span {s.name!r} tagged as op {i}, but op {i} is {ops[i].kind}"
                )
            if out[i] is None:
                out[i] = s
        return out
    by_kind: dict[str, list[Span]] = {}
    for s in kspans:
        by_kind.setdefault(s.name, []).append(s)
    cursor = {k: 0 for k in by_kind}
    for i, op in enumerate(ops):
        queue = by_kind.get(op.kind)
        if queue is None:
            continue
        j = cursor[op.kind]
        if j < len(queue):
            out[i] = queue[j]
            cursor[op.kind] = j + 1
    return out


@dataclass(frozen=True)
class CriticalPathStep:
    """One hop of the realized critical path."""

    op_index: int
    kind: str
    lane: int
    start: float
    end: float
    #: Gap between the binding predecessor's finish (or the trace window
    #: start, for the first hop) and this op's start: scheduling latency,
    #: communication, or time lost to unrelated work occupying the lane.
    wait_s: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPathResult:
    """The realized critical path plus per-kind on/off-path accounting.

    ``path_s + wait_s`` equals the trace window (``wall_s``) by
    construction: walking backwards from the last finisher through the
    latest-finishing measured predecessor covers the window with
    alternating execution and wait segments.
    """

    steps: list[CriticalPathStep]
    #: Trace window of the measured kernel spans (first start to last end).
    wall_s: float
    #: Per kernel kind: (count on path, seconds on path).
    on_path: dict[str, tuple[int, float]] = field(default_factory=dict)
    #: Per kernel kind: (count measured, seconds measured) over *all* ops.
    totals: dict[str, tuple[int, float]] = field(default_factory=dict)

    @property
    def path_s(self) -> float:
        return sum(s.duration for s in self.steps)

    @property
    def wait_s(self) -> float:
        return sum(s.wait_s for s in self.steps)

    def table(self) -> str:
        """Per-kind breakdown: time on the path vs off it."""
        rows = []
        for kind in sorted(self.totals, key=lambda k: -self.totals[k][1]):
            n_tot, s_tot = self.totals[kind]
            n_on, s_on = self.on_path.get(kind, (0, 0.0))
            share = s_on / self.path_s if self.path_s > 0 else 0.0
            rows.append([
                kind, n_on, n_tot, f"{s_on * 1e3:.3f}", f"{(s_tot - s_on) * 1e3:.3f}",
                f"{share:6.1%}",
            ])
        return format_table(
            ["kind", "on_path", "total", "on_path_ms", "off_path_ms", "path_share"],
            rows,
        )

    def summary(self) -> str:
        return (
            f"critical path: {len(self.steps)} ops, "
            f"{self.path_s * 1e3:.3f} ms executing + {self.wait_s * 1e3:.3f} ms waiting "
            f"over a {self.wall_s * 1e3:.3f} ms window"
        )


def realized_critical_path(ops, op_spans, graph=None) -> CriticalPathResult:
    """The chain of measured ops that bounded the wall time.

    Starting from the measured op with the latest end time, repeatedly step
    to the dependency-graph predecessor with the latest *end* — the one
    whose completion gated (or came closest to gating) the current op's
    start — until an op with no measured predecessors is reached.  Each hop
    records the wait between the predecessor's finish and the op's start.

    Parameters
    ----------
    ops:
        The operation list (schedule order).
    op_spans:
        Output of :func:`match_spans_to_ops` — one span or ``None`` per op.
    graph:
        The op dataflow DAG; derived with
        :func:`repro.qr.dag.op_dependency_graph` when omitted.
    """
    if len(op_spans) != len(ops):
        raise TraceError(f"op_spans has {len(op_spans)} entries for {len(ops)} ops")
    matched = [i for i, s in enumerate(op_spans) if s is not None]
    if not matched:
        raise TraceError("no measured spans matched any op; nothing to analyse")
    if graph is None:
        from ..qr.dag import op_dependency_graph

        graph = op_dependency_graph(ops)
    preds: list[list[int]] = [[] for _ in range(len(ops))]
    for t in range(graph.n_tasks):
        for e in range(graph.succ_index[t], graph.succ_index[t + 1]):
            preds[int(graph.succ_task[e])].append(t)

    t0 = min(op_spans[i].start for i in matched)
    t1 = max(op_spans[i].end for i in matched)
    cur = max(matched, key=lambda i: op_spans[i].end)
    chain: list[int] = [cur]
    while True:
        measured_preds = [p for p in preds[cur] if op_spans[p] is not None]
        if not measured_preds:
            break
        cur = max(measured_preds, key=lambda p: op_spans[p].end)
        chain.append(cur)
    chain.reverse()

    steps = []
    prev_end = t0
    for i in chain:
        s = op_spans[i]
        steps.append(CriticalPathStep(
            op_index=i, kind=ops[i].kind, lane=s.worker,
            start=s.start, end=s.end, wait_s=max(0.0, s.start - prev_end),
        ))
        prev_end = s.end

    on_path: dict[str, tuple[int, float]] = {}
    for st in steps:
        n, t = on_path.get(st.kind, (0, 0.0))
        on_path[st.kind] = (n + 1, t + st.duration)
    totals: dict[str, tuple[int, float]] = {}
    for i in matched:
        s = op_spans[i]
        n, t = totals.get(s.name, (0, 0.0))
        totals[s.name] = (n + 1, t + s.duration)
    return CriticalPathResult(steps=steps, wall_s=t1 - t0, on_path=on_path, totals=totals)


@dataclass(frozen=True)
class LaneUsage:
    """One lane's wall-time split; ``busy + overhead + idle == wall``."""

    lane: int
    label: str
    n_kernels: int
    #: Seconds inside kernel spans.
    busy_s: float
    #: Seconds covered by some span but not kernel work — firings, proxy
    #: relays, dispatch batches.  (Negative only if kernel spans overlap on
    #: one lane, which the lane model forbids.)
    overhead_s: float
    #: Seconds with no span at all: waiting for dependencies or shutdown.
    idle_s: float
    wall_s: float

    @property
    def busy_frac(self) -> float:
        return self.busy_s / self.wall_s if self.wall_s > 0 else 0.0


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``[start, end)`` intervals."""
    total = 0.0
    hi = float("-inf")
    for a, b in sorted(intervals):
        if b <= hi:
            continue
        total += b - max(a, hi)
        hi = b
    return total


def lane_attribution(spans, lane_names=None) -> list[LaneUsage]:
    """Split every lane's share of the trace window into busy/overhead/idle.

    The window is the whole trace's extent (first span start to last span
    end), identical for every lane, so the rows are directly comparable:
    a lane that joined late or finished early shows the difference as idle
    time.  Within a lane, *busy* is the summed duration of kernel spans,
    *overhead* is the additional time covered by any span (runtime events
    envelop the kernels they run), and *idle* is the remainder.
    """
    spans = list(spans)
    if not spans:
        raise TraceError("no spans to attribute")
    lane_names = lane_names or {}
    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans)
    wall = t1 - t0
    by_lane: dict[int, list[Span]] = {}
    for s in spans:
        by_lane.setdefault(s.worker, []).append(s)
    out = []
    for lane in sorted(by_lane):
        mine = by_lane[lane]
        kernels = [s for s in mine if s.name in KERNEL_CATEGORY]
        busy = sum(s.duration for s in kernels)
        active = _union_length([(s.start, s.end) for s in mine])
        out.append(LaneUsage(
            lane=lane,
            label=lane_names.get(lane, f"lane {lane}"),
            n_kernels=len(kernels),
            busy_s=busy,
            overhead_s=active - busy,
            idle_s=wall - active,
            wall_s=wall,
        ))
    return out


def attribution_table(lanes: list[LaneUsage]) -> str:
    """Render :func:`lane_attribution` rows as a text table."""
    rows = [
        [
            u.lane, u.label, u.n_kernels,
            f"{u.busy_s * 1e3:.3f}", f"{u.overhead_s * 1e3:.3f}",
            f"{u.idle_s * 1e3:.3f}", f"{u.busy_frac:6.1%}",
        ]
        for u in lanes
    ]
    return format_table(
        ["lane", "label", "kernels", "busy_ms", "overhead_ms", "idle_ms", "busy_frac"],
        rows,
    )


# --------------------------------------------------------------------------
# Model-vs-measured gaps
# --------------------------------------------------------------------------
#
# The DES experiments trust :class:`~repro.machine.model.MachineModel` to
# price every kernel; the real backends measure those same kernels.  Because
# this library's kernels run on whatever machine hosts them — not on Kraken
# — absolute times differ from the model by a large common factor.  The
# report therefore normalises: ``scale`` is the overall measured/predicted
# ratio, and each kind's ``normalized`` column is its own ratio divided by
# ``scale``.  A kind with ``normalized`` near 1.0 has the efficiency
# *profile* the model assumes, whatever the hardware; a kind far from 1.0
# is mis-modelled (or mis-implemented) relative to the others, and gets
# flagged.


@dataclass(frozen=True)
class KernelGap:
    """Predicted vs measured totals for one kernel kind."""

    kind: str
    cat: str
    count: int
    predicted_s: float
    measured_s: float
    #: measured / predicted (raw — includes the host-vs-model speed gap).
    ratio: float
    #: ratio divided by the report's overall scale; 1.0 = exactly the
    #: relative efficiency the machine model assumes.
    normalized: float
    flagged: bool


@dataclass
class GapReport:
    """Per-kind and per-phase model-vs-measured accounting."""

    rows: list[KernelGap]
    phases: list[KernelGap]
    predicted_total_s: float
    measured_total_s: float
    #: Overall measured/predicted ratio — the host-vs-model speed factor.
    scale: float
    threshold: float
    #: Model-side bounds from the op DAG priced with predicted durations.
    model_critical_path_s: float
    model_work_s: float
    #: Ops without a measured span (not in any total).
    unmeasured: int = 0
    #: Measured wall time of the run, when the caller knows it.
    measured_wall_s: float | None = None

    def flagged(self) -> list[str]:
        """Kernel kinds deviating from the model beyond the threshold."""
        return [r.kind for r in self.rows if r.flagged]

    def table(self) -> str:
        return self._render(self.rows, "kind")

    def phase_table(self) -> str:
        return self._render(self.phases, "phase")

    def _render(self, rows: list[KernelGap], label: str) -> str:
        body = [
            [
                r.kind, r.count, f"{r.predicted_s * 1e3:.3f}",
                f"{r.measured_s * 1e3:.3f}", f"{r.ratio:.1f}",
                f"{r.normalized:.3f}", "FLAG" if r.flagged else "ok",
            ]
            for r in rows
        ]
        return format_table(
            [label, "ops", "model_ms", "measured_ms", "ratio", "normalized", "gap"],
            body,
        )

    def summary(self) -> str:
        parts = [
            f"host runs {self.scale:.1f}x the model's predicted times; "
            f"model bounds: work {self.model_work_s * 1e3:.3f} ms, "
            f"critical path {self.model_critical_path_s * 1e3:.3f} ms"
        ]
        if self.measured_wall_s is not None:
            parts.append(f"measured wall {self.measured_wall_s * 1e3:.3f} ms")
        bad = self.flagged()
        parts.append(
            f"flagged (|normalized - 1| > {self.threshold}): "
            + (", ".join(bad) if bad else "none")
        )
        return "; ".join(parts)


def gap_report(
    ops,
    ib: int,
    machine: MachineModel,
    op_spans,
    *,
    threshold: float = 0.5,
    wall_s: float | None = None,
) -> GapReport:
    """Compare measured kernel times against the machine model's predictions.

    Parameters
    ----------
    ops, ib:
        The operation list and inner block size that produced the spans.
    machine:
        The model to replay the ops through
        (:meth:`~repro.machine.model.MachineModel.kernel_seconds` per op).
    op_spans:
        Output of :func:`match_spans_to_ops` — one measured span or
        ``None`` per op.  Totals cover matched ops only, so predicted and
        measured columns always describe the same work.
    threshold:
        Flag a kind when its normalised ratio leaves ``1 ± threshold``.
    wall_s:
        Optionally the run's measured wall time, echoed in the summary
        next to the model's critical-path bound.
    """
    if len(op_spans) != len(ops):
        raise TraceError(f"op_spans has {len(op_spans)} entries for {len(ops)} ops")
    predicted_all = [
        machine.kernel_seconds(op.kind, op.m2, op.k, op.q, ib) for op in ops
    ]
    per_kind: dict[str, list[float]] = {}
    per_phase: dict[str, list[float]] = {}
    unmeasured = 0
    for op, pred, span in zip(ops, predicted_all, op_spans):
        if span is None:
            unmeasured += 1
            continue
        for key, acc in ((op.kind, per_kind), (KERNEL_CATEGORY[op.kind], per_phase)):
            row = acc.setdefault(key, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += pred
            row[2] += span.duration
    if not per_kind:
        raise TraceError("no measured spans matched any op; nothing to compare")

    predicted_total = sum(v[1] for v in per_kind.values())
    measured_total = sum(v[2] for v in per_kind.values())
    scale = measured_total / predicted_total if predicted_total > 0 else float("nan")

    def rows_of(acc: dict, cat_of) -> list[KernelGap]:
        rows = []
        for key in sorted(acc, key=lambda k: -acc[k][2]):
            n, pred, meas = acc[key]
            ratio = meas / pred if pred > 0 else float("nan")
            norm = ratio / scale if scale > 0 else float("nan")
            rows.append(KernelGap(
                kind=key, cat=cat_of(key), count=n,
                predicted_s=pred, measured_s=meas, ratio=ratio,
                normalized=norm, flagged=abs(norm - 1.0) > threshold,
            ))
        return rows

    from ..qr.dag import op_dependency_graph

    graph = op_dependency_graph(ops, durations=predicted_all)
    return GapReport(
        rows=rows_of(per_kind, lambda k: KERNEL_CATEGORY[k]),
        phases=rows_of(per_phase, lambda k: k),
        predicted_total_s=predicted_total,
        measured_total_s=measured_total,
        scale=scale,
        threshold=threshold,
        model_critical_path_s=graph.critical_path(),
        model_work_s=sum(predicted_all),
        unmeasured=unmeasured,
        measured_wall_s=wall_s,
    )


# --------------------------------------------------------------------------
# One call per traced factorization
# --------------------------------------------------------------------------


@dataclass
class PerfAnalysis:
    """The three analyses of one recorded run, ready to print."""

    backend: str
    critical_path: CriticalPathResult
    lanes: list[LaneUsage]
    gap: GapReport

    def to_text(self) -> str:
        return "\n\n".join([
            f"[{self.backend}] {self.critical_path.summary()}",
            self.critical_path.table(),
            attribution_table(self.lanes),
            self.gap.table(),
            self.gap.summary(),
        ])


def analyze_factorization(
    f,
    *,
    machine: MachineModel | None = None,
    threshold: float = 0.5,
) -> PerfAnalysis:
    """Analyse a :class:`~repro.qr.api.QRFactorization` recorded with ``trace=``.

    Joins the run's spans onto its operation list, extracts the realized
    critical path, attributes each lane's wall time, and compares measured
    kernel times against ``machine`` (default: the paper's Kraken model).

    >>> import numpy as np
    >>> from repro import qr_factor
    >>> from repro.obs import analyze_factorization
    >>> a = np.arange(48.0).reshape(12, 4) + 10.0 * np.eye(12, 4)
    >>> f = qr_factor(a, nb=4, ib=2, tree="flat", trace="/dev/null")
    >>> pa = analyze_factorization(f)
    >>> len(pa.critical_path.steps) >= 1 and pa.gap.unmeasured
    0
    """
    if f.recorder is None:
        raise TraceError(
            "factorization was not recorded; pass trace= (or metrics=) to qr_factor"
        )
    if machine is None:
        from ..machine.model import kraken

        machine = kraken()
    ops, ib = f._ops, f._ib
    op_spans = match_spans_to_ops(f.recorder.spans, ops)
    return PerfAnalysis(
        backend=f.backend,
        critical_path=realized_critical_path(ops, op_spans),
        lanes=lane_attribution(f.recorder.spans, f.recorder.lane_names),
        gap=gap_report(ops, ib, machine, op_spans, threshold=threshold),
    )

"""Span/counter recording core of the observability layer.

One process-global :class:`Recorder` (installed with :func:`recording`)
collects two kinds of evidence while any backend executes:

* :class:`Span` records — named, categorised ``[start, end)`` intervals on a
  *lane* (a worker thread, a worker process, a proxy, the dispatcher...);
* :class:`Counters` — a flat ``name -> float`` accumulator for typed event
  counts (per-kernel flops, firings, packets forwarded/by-passed, bytes
  moved, maximum queue depths).  Canonical key names live in the ``K_*``
  module constants so every backend reports under the same vocabulary.

The design constraint is the **no-op fast path**: instrumented call sites
(the kernel shim in :mod:`repro.kernels`, the PULSAR runtime, the parallel
dispatcher) read the module-global ``_RECORDER`` once and branch away when
it is ``None``.  With no recorder installed the per-call cost is one global
load and one comparison — unmeasurable next to a NumPy kernel — which is
how ``qr_factor`` keeps its throughput when tracing is off.

Clock: a recorder stamps spans with ``time.perf_counter()`` relative to its
creation instant (``Recorder.now``), so it only ever holds real-time spans.
Simulated runs never pass through one: :meth:`repro.dessim.engine.SimResult.spans`
converts a DES trace to spans in virtual seconds, which export directly
(``write_chrome_trace(path, res.spans(), clock="virtual")``).

Causality: every recorder-built span carries a ``span_id`` unique within
the run, allocated when the span *opens* (so children observe it), and a
``parent_id`` naming the span that caused it — the enclosing
:meth:`Recorder.span` block on the same thread by default, or an explicit
parent for spans reported across a process boundary (the parallel
dispatcher parents worker kernel spans under its ``pool.lease`` span).  The
recorder also owns the run's identity (``run_id``, see
:mod:`repro.obs.context`) and its structured event log
(:class:`repro.obs.events.EventLog`), so spans, counters, and events are
correlated by construction rather than by clock alignment.

Doctest::

    >>> from repro.obs import recording
    >>> with recording() as rec:
    ...     with rec.span("outer", cat="demo"):
    ...         with rec.span("inner", cat="demo"):
    ...             rec.count("widgets", 3)
    >>> [s.name for s in rec.spans]
    ['inner', 'outer']
    >>> rec.counters["widgets"]
    3.0
"""

from __future__ import annotations

import itertools
import threading
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..util.errors import TraceError
from .context import mint_run_id
from .events import Event, EventLog

__all__ = [
    "Span",
    "Counters",
    "Recorder",
    "get_recorder",
    "recording",
    "set_worker_lane",
    "current_lane",
    "set_current_op",
    "current_op",
    "current_span_id",
    "K_FIRINGS",
    "K_PACKETS_PUSHED",
    "K_PACKETS_BYPASSED",
    "K_BYTES_MOVED",
    "K_QUEUE_MAX_DEPTH",
    "K_PROXY_MESSAGES",
    "K_DISPATCH_BATCHES",
    "K_BATCH_CALLS",
    "K_BATCH_OPS",
    "K_FAULT_DROP",
    "K_FAULT_DUPLICATE",
    "K_FAULT_DELAY",
    "K_FAULT_CRASH",
    "K_RETRY_RESEND",
    "K_RETRY_DUP_SUPPRESSED",
    "K_WORKER_DEAD",
    "K_WORKER_RESTART",
    "K_REDISPATCH_OPS",
    "K_FALLBACK_SERIAL",
    "K_POOL_LEASES",
    "K_POOL_SPAWNS",
    "K_POOL_REUSED",
    "K_SDC_INJECTED",
    "K_SDC_DETECTED",
    "K_SDC_RECOVERED",
    "K_CKPT_WRITES",
    "K_CKPT_BYTES",
    "K_RESUME_SKIPPED",
]

# -- canonical counter keys --------------------------------------------------
# Per-kernel keys are derived: "flops.<KIND>" and "ops.<KIND>" with KIND one
# of GEQRT/ORMQR/TSQRT/TSMQR/TTQRT/TTMQR, plus "flops.total"/"ops.total".
K_FIRINGS = "firings"  # VDP firings (PRT)
K_PACKETS_PUSHED = "packets.pushed"  # channel pushes (PRT)
K_PACKETS_BYPASSED = "packets.bypassed"  # pop+forward relays (PRT)
K_BYTES_MOVED = "bytes.moved"  # payload bytes through channels
K_QUEUE_MAX_DEPTH = "queue.max_depth"  # deepest channel FIFO observed
K_PROXY_MESSAGES = "proxy.messages"  # inter-node messages routed by proxies
K_DISPATCH_BATCHES = "dispatch.batches"  # reports (batches of ops) received from worker processes
K_BATCH_CALLS = "batch.calls"  # wavefront steps run (the ``batched`` lane only)
K_BATCH_OPS = "batch.ops"  # ops executed inside those steps

# Fault-injection and recovery events (repro.faults; docs/robustness.md).
K_FAULT_DROP = "fault.drop"  # fabric sends lost by the FaultPlan
K_FAULT_DUPLICATE = "fault.duplicate"  # fabric sends delivered twice
K_FAULT_DELAY = "fault.delay"  # fabric sends artificially delayed
K_FAULT_CRASH = "fault.crash"  # scheduled worker-process crashes
K_RETRY_RESEND = "retry.resend"  # proxy retransmissions of unacked packets
K_RETRY_DUP_SUPPRESSED = "retry.dup_suppressed"  # receiver-side duplicate discards
K_WORKER_DEAD = "worker.dead"  # dead worker processes detected
K_WORKER_RESTART = "worker.restart"  # replacement workers spawned
K_REDISPATCH_OPS = "retry.redispatch"  # in-flight ops re-dispatched after a death
K_FALLBACK_SERIAL = "fallback.serial"  # degradations to the serial reference

# Worker-pool events (repro.qr.parallel; docs/sessions.md).  Every parallel
# run, a session's or not, leases the one pool the process keeps:
# pool.leases == 1, and pool.spawns == n_procs only on the process's first.
K_POOL_LEASES = "pool.leases"  # jobs leased to the worker pool
K_POOL_SPAWNS = "pool.spawns"  # pool worker processes spawned (cold start or respawn)
K_POOL_REUSED = "pool.reused"  # warm workers reused by a lease

# Silent-data-corruption defense and checkpoint/resume events
# (repro.qr.checksum, repro.qr.persist; docs/robustness.md).
K_SDC_INJECTED = "sdc.injected"  # bit flips injected by a FaultPlan
K_SDC_DETECTED = "sdc.detected"  # checksum mismatches caught by the guard
K_SDC_RECOVERED = "sdc.recovered"  # ops repaired by re-execution
K_CKPT_WRITES = "ckpt.writes"  # checkpoint archives written
K_CKPT_BYTES = "ckpt.bytes"  # bytes written into checkpoint archives
K_RESUME_SKIPPED = "resume.ops_skipped"  # completed ops skipped by a resume


@dataclass(frozen=True)
class Span:
    """One named interval on a lane — the unit every backend reports in.

    Attributes
    ----------
    name:
        What ran (kernel kind, ``"fire"``, ``"proxy"``, ``"dispatch"``...).
    cat:
        Coarse grouping used by summaries and trace viewers: kernel spans
        use the tree-phase categories ``"panel"`` / ``"update"`` /
        ``"binary"``; runtime events use ``"runtime"``, ``"proxy"``,
        ``"dispatch"``.
    start, end:
        Seconds since the recorder's origin, or simulated seconds for
        spans converted from a DES trace; ``end >= start``.
    worker:
        Lane id — worker thread / process rank / proxy lane.
    args:
        Free-form details (op description, VDP tuple, batch size...).
    span_id:
        Identity unique within the run, allocated by the recorder when
        the span opens; ``0`` means "no identity" (spans converted from
        a DES trace keep the default).
    parent_id:
        ``span_id`` of the span that caused this one (the enclosing
        :meth:`Recorder.span` block, or an explicitly supplied parent for
        work reported across a process boundary); ``None`` for roots.
    """

    name: str
    cat: str
    start: float
    end: float
    worker: int = 0
    args: dict = field(default_factory=dict)
    span_id: int = 0
    parent_id: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Counters(dict):
    """A ``name -> float`` accumulator with merge/max semantics.

    A plain dict subclass so exporters can treat it as data; the helpers
    keep call sites one-liners.

    >>> c = Counters()
    >>> c.add("flops.GEQRT", 128.0)
    >>> c.add("flops.GEQRT", 64.0)
    >>> c.max("queue.max_depth", 3)
    >>> c.max("queue.max_depth", 2)
    >>> c["flops.GEQRT"], c["queue.max_depth"]
    (192.0, 3.0)
    """

    def add(self, key: str, value: float = 1.0) -> None:
        """Accumulate ``value`` into ``key`` (missing keys start at 0)."""
        self[key] = self.get(key, 0.0) + float(value)

    def max(self, key: str, value: float) -> None:
        """Keep the maximum ever reported for ``key`` (e.g. queue depth)."""
        value = float(value)
        if value > self.get(key, float("-inf")):
            self[key] = value

    def merge(self, other: dict) -> "Counters":
        """Add every counter of ``other`` into this one; returns self."""
        for key, value in other.items():
            self.add(key, value)
        return self


class Recorder:
    """Thread-safe span/counter sink for one recorded execution.

    Parameters
    ----------
    run_id:
        Identity of the run this recorder records (minted fresh when not
        supplied; ``qr_factor`` passes the run id it minted so recorder,
        result, events, and registry record all agree).

    Attributes
    ----------
    spans:
        Completed spans in *end-time* order (a span is appended when it
        closes, so nested spans appear inner-first).
    counters:
        The shared :class:`Counters` accumulator.
    events:
        The run's structured :class:`~repro.obs.events.EventLog`.
    lane_names:
        Optional ``lane id -> human label`` map filled by the backend
        adapters (``"worker 0 (node 0)"``, ``"proxy 1"``, ``"dispatcher"``);
        exported as Chrome-trace thread names.
    """

    def __init__(self, run_id: str | None = None):
        self.run_id = run_id or mint_run_id()
        self.spans: list[Span] = []
        self.counters = Counters()
        self.events = EventLog()
        self.lane_names: dict[int, str] = {}
        self.gauges: dict[str, Callable[[], float]] = {}
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        # GIL-atomic id source: span ids are handed out at span *open* so
        # children can reference their parent before it is recorded.
        self._span_ids = itertools.count(1)

    # -- clock ---------------------------------------------------------------

    def now(self) -> float:
        """Seconds since this recorder was created."""
        return time.perf_counter() - self._t0

    def from_monotonic(self, t: float) -> float:
        """Convert an absolute ``time.perf_counter()`` stamp to recorder time.

        Worker *processes* of the parallel backend report absolute
        monotonic stamps; on platforms where ``perf_counter`` is
        system-wide (Linux ``CLOCK_MONOTONIC``) this aligns them with the
        parent's spans.
        """
        return t - self._t0

    # -- hygiene -------------------------------------------------------------

    def _check_lane(self, worker) -> int:
        """Normalize a lane id; reject anything that is not a small index.

        Lane ids name Chrome-trace threads and index attribution tables, so
        a float rank or a negative id would silently create phantom lanes.
        """
        lane = int(worker)
        if lane != worker or lane < 0:
            raise TraceError(f"span lane must be a non-negative integer, got {worker!r}")
        return lane

    # -- recording -----------------------------------------------------------

    def new_span_id(self) -> int:
        """Allocate the next span id (call when the span opens)."""
        return next(self._span_ids)

    def add_span(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        worker: int = 0,
        args: dict | None = None,
        *,
        span_id: int | None = None,
        parent: int | None = None,
    ) -> Span:
        """Append one completed span (times in recorder seconds).

        ``span_id`` is allocated here unless the caller already holds one
        (a :meth:`span` block allocated at open).  ``parent`` defaults to
        the calling thread's innermost open :meth:`span` block; pass the
        causing span's id explicitly when recording work that happened on
        another thread or process.
        """
        if end < start:
            raise TraceError(f"span {name!r} ends before it starts ({end} < {start})")
        if parent is None:
            parent = current_span_id()
        s = Span(
            name, cat, float(start), float(end), self._check_lane(worker),
            dict(args or {}),
            span_id=self.new_span_id() if span_id is None else span_id,
            parent_id=parent,
        )
        with self._lock:
            self.spans.append(s)
        return s

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters.add(key, value)

    def record_kernel(
        self,
        kind: str,
        cat: str,
        flops: float,
        start: float,
        end: float,
        worker: int,
        op: int | None = None,
        parent: int | None = None,
    ) -> None:
        """One kernel invocation: span + the four flop/op counters.

        A single-lock fast path for the shim in :mod:`repro.kernels`, which
        sits on the hot path of every backend.  ``op`` is the index of the
        originating :class:`~repro.qr.ops.Op` in schedule order when the
        backend knows it; it lands in ``Span.args["op"]`` and lets
        :mod:`repro.obs.analysis` join spans back onto the dependency graph
        even when lanes complete work out of program order.  ``parent``
        defaults to the calling thread's innermost open :meth:`span` block
        (a PULSAR firing, a fallback window); the parallel dispatcher
        passes the causing span explicitly when it records worker-reported
        kernels from the parent process.
        """
        lane = self._check_lane(worker)
        args = {} if op is None else {"op": op}
        if parent is None:
            parent = current_span_id()
        with self._lock:
            self.spans.append(
                Span(kind, cat, start, end, lane, args,
                     span_id=next(self._span_ids), parent_id=parent)
            )
            c = self.counters
            c.add(f"flops.{kind}", flops)
            c.add(f"ops.{kind}")
            c.add("flops.total", flops)
            c.add("ops.total")

    def count_packet(self, key: str, nbytes: float, depth: float | None = None) -> None:
        """One channel event: bump ``key``, accumulate bytes, track depth.

        A single-lock helper for the PULSAR runtime's push/forward paths.
        """
        with self._lock:
            self.counters.add(key)
            self.counters.add(K_BYTES_MOVED, nbytes)
            if depth is not None:
                self.counters.max(K_QUEUE_MAX_DEPTH, depth)

    def count_max(self, key: str, value: float) -> None:
        with self._lock:
            self.counters.max(key, value)

    def name_lane(self, lane: int, name: str) -> None:
        with self._lock:
            self.lane_names[self._check_lane(lane)] = name

    @contextmanager
    def span(self, name: str, cat: str = "default", worker: int | None = None, **args):
        """Context manager recording a span around its body.

        The span's id is allocated on entry and pushed on a thread-local
        stack, so everything recorded inside the block on this thread
        (nested blocks, kernel-shim spans, events) parents to it.
        """
        lane = current_lane() if worker is None else worker
        span_id = self.new_span_id()
        parent = current_span_id()
        _push_span(span_id)
        start = self.now()
        try:
            yield self
        finally:
            _pop_span()
            self.add_span(
                name, cat, start, self.now(), worker=lane, args=args,
                span_id=span_id, parent=parent,
            )

    # -- events --------------------------------------------------------------

    def event(
        self,
        etype: str,
        *,
        worker: int | None = None,
        op: int | None = None,
        span: int | None = None,
        **data,
    ) -> Event:
        """Emit one structured event stamped with this run's identity.

        ``span`` defaults to the calling thread's innermost open
        :meth:`span` block, correlating the event to the interval it
        happened inside; ``worker`` defaults to the thread's lane when
        one was bound with :func:`set_worker_lane`.
        """
        if span is None:
            span = current_span_id()
        if worker is None:
            worker = getattr(_LANE, "value", None)
        return self.events.emit(
            Event(self.now(), etype, self.run_id, worker=worker, op=op,
                  span=span, data=data)
        )

    # -- gauges --------------------------------------------------------------
    # Instantaneous values that only exist while a backend runs (ready-queue
    # depth, in-flight ops, live workers...).  Backends register a zero-arg
    # callable per gauge around their execution window; the metrics sampler
    # (:mod:`repro.obs.sampler`) polls them from its own thread.

    def register_gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Expose ``fn()`` as the live value of gauge ``name``."""
        with self._lock:
            self.gauges[name] = fn

    def unregister_gauge(self, name: str) -> None:
        """Remove gauge ``name`` (missing names are ignored)."""
        with self._lock:
            self.gauges.pop(name, None)

    def read_gauges(self) -> dict[str, float]:
        """Snapshot every registered gauge.

        Gauges read backend-owned state that mutates concurrently; a gauge
        that throws mid-read (e.g. a dict resized during iteration) is
        skipped for that sample rather than killing the sampler thread.
        """
        with self._lock:
            fns = list(self.gauges.items())
        out: dict[str, float] = {}
        for name, fn in fns:
            try:
                out[name] = float(fn())
            except Exception:
                continue
        return out

    def counters_snapshot(self) -> dict[str, float]:
        """A point-in-time copy of the counters (safe to read concurrently)."""
        with self._lock:
            return dict(self.counters)


# -- process-global recorder -------------------------------------------------
# Instrumented call sites read this module attribute directly; ``None`` is
# the disabled fast path.
_RECORDER: Recorder | None = None


def get_recorder() -> Recorder | None:
    """The currently installed recorder, or ``None`` when tracing is off."""
    return _RECORDER


@contextmanager
def recording(run_id: str | None = None):
    """Install a fresh :class:`Recorder` for the duration of the block.

    Restores whatever recorder (usually none) was installed before, so
    nested recordings do not leak.
    """
    global _RECORDER
    prev = _RECORDER
    rec = Recorder(run_id=run_id)
    _RECORDER = rec
    try:
        yield rec
    finally:
        _RECORDER = prev


# -- span stack --------------------------------------------------------------
# Which span the *current thread* is inside (innermost open ``span()``
# block), so nested spans, kernel-shim spans, and events can parent to it
# without threading ids through every call signature.
_SPAN_STACK = threading.local()


def _push_span(span_id: int) -> None:
    ids = getattr(_SPAN_STACK, "ids", None)
    if ids is None:
        ids = _SPAN_STACK.ids = []
    ids.append(span_id)


def _pop_span() -> None:
    ids = getattr(_SPAN_STACK, "ids", None)
    if ids:
        ids.pop()


def current_span_id() -> int | None:
    """Id of the calling thread's innermost open span (``None`` outside)."""
    ids = getattr(_SPAN_STACK, "ids", None)
    return ids[-1] if ids else None


# -- lanes -------------------------------------------------------------------
# Which lane the *current thread* reports spans on.  The PULSAR runtime sets
# this to the worker id inside each worker thread so kernel spans land on
# the right lane; unset threads (the serial executor) report on lane 0.
_LANE = threading.local()


def set_worker_lane(lane: int) -> None:
    """Bind the calling thread's spans to ``lane``."""
    _LANE.value = int(lane)


def current_lane() -> int:
    """The calling thread's span lane (0 when never set)."""
    return getattr(_LANE, "value", 0)


# -- op identity -------------------------------------------------------------
# Which schedule-order op index the *current thread* is executing, so the
# kernel shim can tag each span with the op it realises.  Executors that know
# the op list (the execution core's driver, the PULSAR VDP bodies) set this
# just before calling the kernel; the parallel backend's dispatcher tags
# spans directly.
_OP = threading.local()


def set_current_op(index: int | None) -> None:
    """Bind kernel spans recorded by this thread to op ``index`` (or clear)."""
    _OP.value = index


def current_op() -> int | None:
    """The op index bound to the calling thread (``None`` when unknown)."""
    return getattr(_OP, "value", None)

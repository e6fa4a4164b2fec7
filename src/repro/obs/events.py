"""Structured event log: typed, schema'd runtime events correlated to spans.

Counters say *how many* retries/respawns/SDC repairs a run took; spans say
*when* lanes were busy.  This module records the narrative in between —
one :class:`Event` per noteworthy runtime occurrence (a worker death, a
retransmission, a checksum repair, a checkpoint write, a watchdog stall),
each stamped with

* the **run id** of the factorization it belongs to (:mod:`repro.obs.context`),
* the **op index** and **worker lane** involved when known, and
* the **span id** of the related span when one exists
  (:class:`repro.obs.record.Span.span_id`), so a viewer can jump from the
  event to the interval it annotates.

Events are *typed*: every ``type`` must appear in :data:`EVENT_TYPES` and
may only carry the data fields declared there — a typo'd type or field
raises :class:`~repro.util.errors.TraceError` at the emission site, the
same fail-fast contract the counter vocabulary has.

The log lives on the :class:`~repro.obs.record.Recorder` and shares its
no-op fast path: with no recorder installed, instrumented sites never
construct an event.  In memory the log is a bounded ring (oldest events
drop first); ``qr_factor(events=path)`` additionally streams every event
to a JSON-lines file, one flushed line per event so a killed run keeps
everything emitted before the kill.  How many of each a run had is the
recorder's counters' job, not the log's: every counted event type has a
counter, and an event that stands for several occurrences says how many
in its data (a worker's SDC delta as ``n``, a re-dispatch as ``n_ops``).

Doctest::

    >>> from repro.obs.events import Event, EventLog
    >>> log = EventLog(capacity=2)
    >>> for n in range(3):
    ...     _ = log.emit(Event(0.1 * n, "ckpt.write", "r-1", data={"ops_done": n}))
    >>> [e.data["ops_done"] for e in log.tail(5)]  # ring kept the newest 2
    [1, 2]
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..util.errors import TraceError

__all__ = ["Event", "EventLog", "EVENT_TYPES", "read_events"]

#: Canonical event vocabulary: ``type -> allowed data field names``.
#: Emitting an unknown type, or a known type with an undeclared field,
#: raises ``TraceError`` — the schema is the contract the registry, the
#: monitor dashboard, and the validator all parse against.
EVENT_TYPES: dict[str, frozenset[str]] = {
    k: frozenset(v)
    for k, v in {
        # Run lifecycle (emitted by qr_factor itself).
        "run.start": {"backend", "m", "n", "nb", "ib", "tree", "h", "parent_run"},
        "run.end": {"backend", "status", "wall_s"},
        # Parallel dispatcher fault handling (docs/robustness.md).
        "worker.dead": {"rank", "exit_code", "generation"},
        "worker.respawn": {"rank", "generation"},
        "retry.redispatch": {"rank", "n_ops"},
        "fault.crash": {"rank"},
        "fallback.serial": {"reason"},
        # PULSAR reliable-transport protocol.
        "retry.resend": {"dst", "seq", "n"},
        "retry.dup_suppressed": {"src", "seq"},
        # Silent-data-corruption guard (repro.qr.checksum).
        "sdc.injected": {"kind", "n"},
        "sdc.detected": {"kind", "n"},
        "sdc.recovered": {"kind", "attempts", "n"},
        # Checkpoint/resume (repro.qr.persist).
        "ckpt.write": {"ops_done", "bytes", "path"},
        "resume": {"path", "ops_skipped", "parent_run"},
        # Watchdog (repro.faults.watchdog).
        "watchdog.stall": {"what", "stalled_s"},
        # The worker pool (repro.qr.parallel).
        "pool.spawn": {"rank", "generation"},
        "pool.lease": {"n_procs", "spawned", "reused"},
    }.items()
}

#: Field names reserved by the envelope; schema data fields may not shadow
#: them (the JSONL form is flat, so a collision would be silent).
_RESERVED = frozenset({"t", "type", "run", "worker", "op", "span"})
assert not any(_RESERVED & fields for fields in EVENT_TYPES.values())


@dataclass(frozen=True)
class Event:
    """One structured runtime event.

    Attributes
    ----------
    t:
        Seconds since the recorder's origin (same clock as spans).
    type:
        A key of :data:`EVENT_TYPES`.
    run_id:
        The factorization run this event belongs to.
    worker:
        Lane id of the worker involved, when one is (``None`` otherwise).
    op:
        Schedule-order op index involved, when one is.
    span:
        ``span_id`` of the related span, when one exists.
    data:
        Type-specific fields, validated against the schema at emission.
    """

    t: float
    type: str
    run_id: str
    worker: int | None = None
    op: int | None = None
    span: int | None = None
    data: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """The flat JSON-lines form (identity first, then data fields)."""
        out: dict = {"t": round(self.t, 9), "type": self.type, "run": self.run_id}
        if self.worker is not None:
            out["worker"] = self.worker
        if self.op is not None:
            out["op"] = self.op
        if self.span is not None:
            out["span"] = self.span
        out.update(self.data)
        return out


def _check(etype: str | None, fields: Iterable[str]) -> None:
    """Reject an event type outside :data:`EVENT_TYPES` or a data field its
    schema does not declare (the emitter and the validator both ask here)."""
    allowed = EVENT_TYPES.get(etype)
    if allowed is None:
        raise TraceError(
            f"unknown event type {etype!r}; the vocabulary is "
            f"{sorted(EVENT_TYPES)}"
        )
    extra = set(fields) - allowed
    if extra:
        raise TraceError(
            f"event {etype!r} carries undeclared fields {sorted(extra)}; "
            f"the schema allows {sorted(allowed)}"
        )


class EventLog:
    """Thread-safe bounded ring of events with an optional JSON-lines sink.

    The ring bounds memory for long runs (a stalled reliable-transport
    loop can retransmit thousands of times); the sink keeps every event.
    """

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError(f"event ring capacity must be positive, got {capacity}")
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._sink = None

    def emit(self, event: Event) -> Event:
        """Validate ``event`` against the schema, ring it, stream it."""
        _check(event.type, event.data)
        with self._lock:
            self._ring.append(event)
            sink = self._sink
            if sink is not None and not sink.closed:
                sink.write(json.dumps(event.to_json(), sort_keys=True) + "\n")
                sink.flush()
        return event

    def tail(self, n: int = 16) -> list[Event]:
        """The newest ``n`` events, oldest first."""
        with self._lock:
            return list(self._ring)[-n:]

    def snapshot(self) -> list[Event]:
        """Everything still in the ring, oldest first."""
        with self._lock:
            return list(self._ring)

    # -- JSONL sink ----------------------------------------------------------

    def open_sink(self, path: str | os.PathLike) -> None:
        """Stream every subsequent event to ``path`` (one flushed line each)."""
        f = open(path, "w", encoding="utf-8")
        with self._lock:
            if self._sink is not None:
                f.close()
                raise TraceError("event log already has an open sink")
            self._sink = f

    def close_sink(self) -> None:
        """Close the sink if one is open (idempotent)."""
        with self._lock:
            sink, self._sink = self._sink, None
        if sink is not None and not sink.closed:
            sink.close()


def read_events(path: str | os.PathLike) -> list[dict]:
    """Parse a JSON-lines file — an event log, sampler metrics, a run
    registry — back into dicts, one per line.

    A last line with no newline that does not parse is a record still being
    appended (or the torn tail a writer killed mid-append leaves): it is
    skipped.  A bad line that ends in a newline raises
    :class:`json.JSONDecodeError`.
    """
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                if line.endswith("\n"):
                    raise
    return out

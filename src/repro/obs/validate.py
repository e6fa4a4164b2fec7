"""Structural validation of Chrome-trace JSON documents and run telemetry.

A cheap, dependency-free schema check used by the tests and the CI trace
smoke job: it does not replace loading a file in Perfetto, but it checks
what the exporter (:mod:`repro.obs.export`) writes — ``"X"`` complete
events and ``"M"`` metadata, nothing else — and catches every malformation
we have a name for: an unknown phase, missing keys, negative durations,
timestamps running backwards within a lane, and counters emitted under
names outside the canonical ``K_*`` vocabulary (typo'd counter keys
otherwise vanish into dashboards silently).

:func:`validate_run_telemetry` adds the **causal** checks for traces
written by a live run (``qr_factor(trace=...)``): the document must name
its ``run_id``, every span must carry a unique ``span`` id, every
``parent`` edge must resolve to a recorded span (zero orphans), and an
optional events JSONL file must match the event schema and the same run.
The edge and event-schema rules are the ones :func:`repro.obs.causal_edges`
and the event log apply; this module only adds the indices.

Run as a module to validate files from the shell::

    python -m repro.obs.validate trace.json
    python -m repro.obs.validate --run trace.json --events events.jsonl

Doctest::

    >>> from repro.obs import validate_chrome_trace
    >>> doc = {"traceEvents": [
    ...     {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
    ...      "args": {"name": "worker 0"}},
    ...     {"name": "GEQRT", "ph": "X", "ts": 0.0, "dur": 5.0, "pid": 0, "tid": 0},
    ... ]}
    >>> validate_chrome_trace(doc)["traceEvents"][1]["ph"]
    'X'
"""

from __future__ import annotations

import json
import numbers
import os
import sys

from ..util.errors import TraceError
from .analysis import _check_edges
from .events import _RESERVED, read_events
from .events import _check as _check_event_schema

__all__ = [
    "validate_chrome_trace",
    "validate_counters",
    "validate_run_telemetry",
    "canonical_counter_keys",
    "main",
]

#: Event phases the exporter writes: complete spans and lane metadata.
_KNOWN_PH = {"X", "M"}

# -- counter vocabulary ------------------------------------------------------

#: Kernel kinds whose derived ``flops.<KIND>`` / ``ops.<KIND>`` keys are
#: canonical (see :meth:`repro.obs.record.Recorder.record_kernel`).
_KERNEL_KINDS = ("GEQRT", "ORMQR", "TSQRT", "TSMQR", "TTQRT", "TTMQR")


def canonical_counter_keys() -> frozenset[str]:
    """Every counter key the ``K_*`` vocabulary declares, plus derived keys.

    Derived from :mod:`repro.obs.record` at call time so a constant added
    there is canonical here without a second edit.
    """
    from . import record as _record

    keys = {
        getattr(_record, name)
        for name in _record.__all__
        if name.startswith("K_")
    }
    for kind in _KERNEL_KINDS:
        keys.add(f"flops.{kind}")
        keys.add(f"ops.{kind}")
    keys.update(("flops.total", "ops.total"))
    return frozenset(keys)


def validate_counters(counters: dict) -> dict:
    """Reject counter keys outside the canonical vocabulary.

    Returns ``counters`` unchanged when every key is either a ``K_*``
    constant or a derived per-kernel key — otherwise raises
    :class:`TraceError` naming every offender (this is how a typo'd key
    fails at test time instead of silently splitting a metric in two).
    """
    known = canonical_counter_keys()
    unknown = [key for key in counters if key not in known]
    if unknown:
        raise TraceError(
            f"counters outside the canonical K_* vocabulary: {sorted(unknown)}; "
            "add a K_* constant in repro.obs.record"
        )
    return counters


def _check_event(i: int, ev: object) -> dict:
    if not isinstance(ev, dict):
        raise TraceError(f"traceEvents[{i}] is not an object: {ev!r}")
    ph = ev.get("ph")
    if ph not in _KNOWN_PH:
        raise TraceError(f"traceEvents[{i}] has unknown phase {ph!r}")
    if "name" not in ev:
        raise TraceError(f"traceEvents[{i}] ({ph!r}) has no name")
    if ph == "X":
        ts = ev.get("ts")
        if not isinstance(ts, numbers.Real) or ts < 0:
            raise TraceError(
                f"traceEvents[{i}] ({ev.get('name')!r}) has invalid ts {ts!r}"
            )
        dur = ev.get("dur")
        if not isinstance(dur, numbers.Real) or dur < 0:
            raise TraceError(
                f"traceEvents[{i}] ({ev.get('name')!r}) has invalid dur {dur!r}"
            )
    return ev


def validate_chrome_trace(doc: dict | str | os.PathLike) -> dict:
    """Validate a Chrome-trace document; returns the parsed document.

    Accepts a parsed dict, a JSON string, or a path to a ``.json`` file.

    Checks
    ------
    * the top level is an object with a ``traceEvents`` list;
    * every event is an object with a ``name`` and phase ``"X"`` or
      ``"M"``, and every ``"X"`` has a non-negative numeric ``ts`` and
      ``dur``;
    * within each ``(pid, tid)`` lane, span timestamps are monotone
      non-decreasing in file order;
    * ``otherData.counters``, when present, passes :func:`validate_counters`.

    Raises
    ------
    TraceError
        On the first violation found, with the offending event index.
    """
    if isinstance(doc, (str, os.PathLike)):
        text = str(doc)
        if isinstance(doc, os.PathLike) or text.lstrip()[:1] not in ("{", "["):
            with open(doc) as fh:
                doc = json.load(fh)
        else:
            doc = json.loads(text)
    if not isinstance(doc, dict):
        raise TraceError(f"trace document must be a JSON object, got {type(doc).__name__}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise TraceError("trace document has no 'traceEvents' list")

    last_ts: dict[tuple, float] = {}
    for i, ev in enumerate(events):
        if _check_event(i, ev)["ph"] != "X":
            continue
        lane = (ev.get("pid", 0), ev.get("tid", 0))
        ts = float(ev["ts"])
        if ts < last_ts.get(lane, 0.0):
            raise TraceError(
                f"traceEvents[{i}]: ts {ts} goes backwards on lane {lane} "
                f"(previous {last_ts[lane]})"
            )
        last_ts[lane] = ts
    other = doc.get("otherData")
    if isinstance(other, dict) and isinstance(other.get("counters"), dict):
        validate_counters(other["counters"])
    return doc


def validate_run_telemetry(
    doc: dict | str | os.PathLike,
    events: list[dict] | str | os.PathLike | None = None,
) -> dict:
    """Causal-identity checks for a trace recorded from a live run.

    On top of :func:`validate_chrome_trace`:

    * ``otherData.run_id`` names the run;
    * every ``"X"`` span event carries a unique positive ``args.span``;
    * every ``args.parent`` resolves to a recorded span id — zero orphan
      causal edges;
    * when ``events`` is given (a parsed list or a JSONL path), every
      event has a type from the schema, only declared fields, the trace's
      ``run`` id, and any ``span`` reference resolves to a recorded span.

    Returns the parsed trace document.
    """
    doc = validate_chrome_trace(doc)
    run_id = doc.get("otherData", {}).get("run_id")
    if not run_id:
        raise TraceError("run telemetry must carry otherData.run_id")
    nodes = []
    for i, ev in enumerate(doc["traceEvents"]):
        if ev.get("ph") != "X":
            continue
        args = ev.get("args", {})
        sid = args.get("span")
        if not isinstance(sid, int) or sid <= 0:
            raise TraceError(
                f"traceEvents[{i}] ({ev.get('name')!r}) has no span id; every "
                "live-run span must carry args.span"
            )
        nodes.append((f"traceEvents[{i}]", sid, args.get("parent")))
    span_ids = _check_edges(nodes)
    if events is not None:
        if isinstance(events, (str, os.PathLike)):
            events = read_events(events)
        for i, ev in enumerate(events):
            etype = ev.get("type")
            try:
                _check_event_schema(etype, set(ev) - _RESERVED)
            except TraceError as exc:
                raise TraceError(f"events[{i}]: {exc}") from None
            if ev.get("run") != run_id:
                raise TraceError(
                    f"events[{i}] ({etype!r}) belongs to run {ev.get('run')!r}, "
                    f"trace is run {run_id!r}"
                )
            span = ev.get("span")
            if span is not None and span not in span_ids:
                raise TraceError(
                    f"events[{i}] ({etype!r}) references span {span!r} which "
                    "was never recorded"
                )
    return doc


def main(argv: list[str] | None = None) -> int:
    """CLI: validate each path argument; non-zero exit on the first failure.

    ``--run`` switches to :func:`validate_run_telemetry` (causal-identity
    checks); ``--events FILE`` additionally validates an events JSONL
    file against the trace (implies ``--run``).
    """
    argv = sys.argv[1:] if argv is None else argv
    run_mode = False
    events_path = None
    paths = []
    it = iter(argv)
    for arg in it:
        if arg == "--run":
            run_mode = True
        elif arg == "--events":
            events_path = next(it, None)
            if events_path is None:
                print("error: --events needs a file argument", file=sys.stderr)
                return 2
            run_mode = True
        else:
            paths.append(arg)
    if not paths:
        print(
            "usage: python -m repro.obs.validate [--run] [--events ev.jsonl] "
            "trace.json [...]",
            file=sys.stderr,
        )
        return 2
    for path in paths:
        try:
            if run_mode:
                doc = validate_run_telemetry(path, events=events_path)
            else:
                doc = validate_chrome_trace(path)
        except (OSError, json.JSONDecodeError, TraceError) as exc:
            print(f"{path}: INVALID — {exc}", file=sys.stderr)
            return 1
        n = len(doc["traceEvents"])
        kind = "run telemetry ok" if run_mode else "ok"
        print(f"{path}: {kind} ({n} events)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI smoke job
    sys.exit(main())

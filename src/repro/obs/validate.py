"""Structural validation of Chrome-trace JSON documents and run telemetry.

A cheap, dependency-free schema check used by the tests and the CI trace
smoke job: it does not replace loading a file in Perfetto, but it catches
every malformation we have a name for — missing keys, negative durations,
timestamps running backwards within a lane, unmatched ``"B"``/``"E"``
begin/end pairs, and counters emitted under names outside the canonical
``K_*`` vocabulary (typo'd counter keys otherwise vanish into dashboards
silently; register project-specific families with
:func:`register_counter_prefix`).

:func:`validate_run_telemetry` adds the **causal** checks for traces
written by a live run (``qr_factor(trace=...)``): the document must name
its ``run_id``, every span must carry a unique ``span`` id, every
``parent`` edge must resolve to a recorded span (zero orphans), and an
optional events JSONL file must match the event schema and the same run.

Run as a module to validate files from the shell::

    python -m repro.obs.validate trace.json
    python -m repro.obs.validate --run trace.json --events events.jsonl

Doctest::

    >>> from repro.obs import validate_chrome_trace
    >>> doc = {"traceEvents": [
    ...     {"name": "a", "ph": "B", "ts": 0.0, "pid": 0, "tid": 0},
    ...     {"name": "a", "ph": "E", "ts": 5.0, "pid": 0, "tid": 0},
    ... ]}
    >>> validate_chrome_trace(doc)["traceEvents"][1]["ph"]
    'E'
"""

from __future__ import annotations

import json
import numbers
import os
import sys

from ..util.errors import TraceError

__all__ = [
    "validate_chrome_trace",
    "validate_counters",
    "validate_run_telemetry",
    "canonical_counter_keys",
    "register_counter_prefix",
    "main",
]

#: Event phases the validator understands (the subset we emit or accept).
_KNOWN_PH = {"X", "B", "E", "C", "M", "i", "I"}
#: Phases that must carry a numeric timestamp.
_TIMED_PH = {"X", "B", "E", "C", "i", "I"}

# -- counter vocabulary ------------------------------------------------------

#: Kernel kinds whose derived ``flops.<KIND>`` / ``ops.<KIND>`` keys are
#: canonical (see :meth:`repro.obs.record.Recorder.record_kernel`).
_KERNEL_KINDS = ("GEQRT", "ORMQR", "TSQRT", "TSMQR", "TTQRT", "TTMQR")

#: Prefixes registered at runtime for project-specific counter families;
#: keys starting with one of these always pass the vocabulary lint.
_DYNAMIC_PREFIXES: set[str] = set()


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


def register_counter_prefix(prefix: str) -> None:
    """Whitelist every counter key starting with ``prefix``.

    For experiment scripts and downstream users that report their own
    counter families through the shared recorder; library code must use
    the ``K_*`` constants instead.
    """
    if not prefix:
        raise TraceError("counter prefix must be a non-empty string")
    _DYNAMIC_PREFIXES.add(str(prefix))


def validate_counters(counters: dict) -> dict:
    """Reject counter keys outside the canonical vocabulary.

    Returns ``counters`` unchanged when every key is either a ``K_*``
    constant, a derived per-kernel key, or covered by a registered
    dynamic prefix — otherwise raises :class:`TraceError` naming every
    offender (this is how a typo'd key fails at test time instead of
    silently splitting a metric in two).
    """
    known = canonical_counter_keys()
    unknown = [
        key for key in counters
        if key not in known
        and not any(key.startswith(p) for p in _DYNAMIC_PREFIXES)
    ]
    if unknown:
        raise TraceError(
            f"counters outside the canonical K_* vocabulary: {sorted(unknown)}; "
            "add a K_* constant in repro.obs.record or register a prefix with "
            "repro.obs.validate.register_counter_prefix"
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
    if ph in _TIMED_PH:
        ts = ev.get("ts")
        if not isinstance(ts, numbers.Real) or ts < 0:
            raise TraceError(
                f"traceEvents[{i}] ({ev.get('name')!r}) has invalid ts {ts!r}"
            )
    if ph == "X":
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
    * every event is an object with a known ``ph``, a ``name``, and (for
      timed phases) a non-negative numeric ``ts`` (``dur`` for ``"X"``);
    * within each ``(pid, tid)`` lane, timestamps are monotone
      non-decreasing in file order;
    * ``"B"``/``"E"`` pairs match per lane with LIFO nesting and matching
      names, and no ``"B"`` is left open at the end.

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
    open_spans: dict[tuple, list[tuple[int, str]]] = {}
    for i, ev in enumerate(events):
        ev = _check_event(i, ev)
        ph = ev["ph"]
        if ph not in _TIMED_PH:
            continue
        lane = (ev.get("pid", 0), ev.get("tid", 0))
        ts = float(ev["ts"])
        if ts < last_ts.get(lane, 0.0):
            raise TraceError(
                f"traceEvents[{i}]: ts {ts} goes backwards on lane {lane} "
                f"(previous {last_ts[lane]})"
            )
        last_ts[lane] = ts
        if ph == "B":
            open_spans.setdefault(lane, []).append((i, ev["name"]))
        elif ph == "E":
            stack = open_spans.get(lane)
            if not stack:
                raise TraceError(
                    f"traceEvents[{i}]: 'E' ({ev['name']!r}) with no open 'B' "
                    f"on lane {lane}"
                )
            bi, bname = stack.pop()
            if bname != ev["name"]:
                raise TraceError(
                    f"traceEvents[{i}]: 'E' ({ev['name']!r}) does not match "
                    f"open 'B' ({bname!r}, traceEvents[{bi}]) on lane {lane}"
                )
    dangling = {lane: stack for lane, stack in open_spans.items() if stack}
    if dangling:
        lane, stack = next(iter(dangling.items()))
        bi, bname = stack[-1]
        raise TraceError(
            f"unclosed 'B' event {bname!r} (traceEvents[{bi}]) on lane {lane}"
        )
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
    span_ids: set[int] = set()
    parents: list[tuple[int, int]] = []
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
        if sid in span_ids:
            raise TraceError(f"traceEvents[{i}]: duplicate span id {sid}")
        span_ids.add(sid)
        if "parent" in args:
            parents.append((i, args["parent"]))
    for i, pid in parents:
        if pid not in span_ids:
            raise TraceError(
                f"traceEvents[{i}]: orphan causal edge — parent span {pid!r} "
                "was never recorded"
            )
    if events is not None:
        if isinstance(events, (str, os.PathLike)):
            from .events import read_events

            events = read_events(events)
        from .events import EVENT_TYPES, _RESERVED

        for i, ev in enumerate(events):
            etype = ev.get("type")
            allowed = EVENT_TYPES.get(etype)
            if allowed is None:
                raise TraceError(f"events[{i}] has unknown type {etype!r}")
            extra = set(ev) - _RESERVED - allowed
            if extra:
                raise TraceError(
                    f"events[{i}] ({etype!r}) carries undeclared fields "
                    f"{sorted(extra)}"
                )
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

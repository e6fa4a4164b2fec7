"""Measurement primitives: timed calls under a deadline, the operation
tally, sample summaries, and the harness's own in-memory span recorder."""

from __future__ import annotations

import itertools
import os
import signal
import statistics
import time
from contextlib import contextmanager

#: Longest any single timed call may take before it counts as failed.
CALL_TIMEOUT_S = 45.0


class CallTimeout(Exception):
    """A timed call ran past its deadline."""


def _on_alarm(signum, frame):
    raise CallTimeout(f"call exceeded {CALL_TIMEOUT_S:.0f} s")


class Tally:
    """Operations attempted and failed: every timed call and every check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)


class Stopwatch:
    """Times calls; a call that raises or overruns is a failed operation.

    ``slowdown`` stretches every measured call by sleeping
    ``(slowdown - 1) x`` its duration inside the timed region — the
    ``--check`` self-test uses it to prove ``compare`` sees a regression.
    """

    def __init__(self, tally: Tally, slowdown: float = 1.0):
        self.tally = tally
        self.slowdown = slowdown

    def time(self, what: str, fn):
        """Run ``fn`` once: ``(seconds, result)``, or ``(None, None)`` when
        the call failed (recorded on the tally)."""
        self.tally.attempted += 1
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CALL_TIMEOUT_S)
        try:
            t0 = time.perf_counter()
            out = fn()
            if self.slowdown > 1.0:
                time.sleep((self.slowdown - 1.0) * (time.perf_counter() - t0))
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # boundary: a failing call must not end the run
            self.tally.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None, None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        return elapsed, out


def summarize(samples: list[float]) -> dict:
    """Location and spread of one quantity's samples within a run."""
    out = {"min": min(samples), "median": statistics.median(samples), "n": len(samples)}
    if len(samples) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(samples, n=4)
    return out


def shm_segments() -> set[str]:
    """Names currently under ``/dev/shm`` (empty where it does not exist)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class SpanRecorder:
    """Spans around the harness's calls into each layer, kept in memory.

    A span is ``(id, name, start, end, parent id)``; all spans of one
    recorder share its ``run_id``.  Nesting follows the ``with`` blocks.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
            )


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: duration minus the part its child spans cover.

    Raises ``ValueError`` when a child leaves its parent's interval or a
    self time comes out negative — the span-tree invariants ``--check``
    asserts.
    """
    by_id = {s["id"]: s for s in spans}
    covered = dict.fromkeys(by_id, 0.0)
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is None:
            continue
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            raise ValueError(f"span {s['name']} leaves its parent {parent['name']}")
        covered[parent["id"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        own = (s["end"] - s["start"]) - covered[s["id"]]
        if own < 0.0:
            raise ValueError(f"span {s['name']} has negative self time {own}")
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out

"""Live metrics sampling: periodic counter/gauge snapshots to JSON-lines.

Spans answer questions after the fact; the sampler answers "what is the
runtime doing *right now*".  A :class:`MetricsSampler` runs a daemon
thread that every ``interval`` seconds snapshots

* the recorder's **counters** (cumulative — firings, ops, flops, bytes,
  retransmits...),
* every registered **gauge** (instantaneous backend state: progress,
  in-flight ops, queue depths, live workers; see
  :meth:`~repro.obs.record.Recorder.register_gauge`), and
* **rates** — the per-second derivative of selected counters over the last
  sampling interval (firings/s, ops/s, flops/s, bytes/s),

and appends one JSON object per sample to a ``.jsonl`` file.  One sample
is always written at start and one at stop, so even a run shorter than
the interval produces a usable file.  Tail or summarise with::

    python -m repro.obs.monitor metrics.jsonl [--follow]

Wiring: ``qr_factor(..., metrics="metrics.jsonl")`` starts a sampler
around whichever backend runs; the in-process driver
(:func:`repro.qr.execute.run_schedule`), the PULSAR runtime and the
parallel dispatcher each register their gauges for the duration of the run
(names below).

Gauge vocabulary
----------------
========================== ===================================================
``serial.ops_done``        ops completed by the in-process driver in program
                           order (``backend="serial"``)
``batched.ops_done``       the same driver walking wavefronts
                           (``backend="batched"``)
``pulsar.firings``         VDP firings so far
``pulsar.workers_alive``   live worker threads across nodes
``pulsar.outgoing_depth``  packets queued on node outgoing channels
``pulsar.fabric_inflight`` messages in flight inside the fabric
``parallel.inflight_ops``  ops dispatched, completion not yet reported
``parallel.workers_alive`` live worker processes
``parallel.completed_ops`` ops whose completion was processed
``parallel.redispatched``  in-flight ops re-dispatched after worker deaths
``pool.workers_alive``     live processes in the process's one pool
                           (:class:`repro.qr.parallel.WorkerPool`)
========================== ===================================================
"""

from __future__ import annotations

import atexit
import json
import os
import threading
from pathlib import Path

from .record import Recorder

__all__ = ["MetricsSampler", "DEFAULT_RATE_KEYS"]

#: Counters whose per-second derivative is reported under ``rates``.
DEFAULT_RATE_KEYS = ("ops.total", "flops.total", "firings", "bytes.moved")


class MetricsSampler:
    """Background thread writing periodic metrics snapshots to ``path``.

    Use as a context manager or call :meth:`start`/:meth:`stop` explicitly;
    ``stop()`` is idempotent and always flushes a final sample.

    >>> from repro.obs import recording
    >>> import tempfile, os, json
    >>> path = os.path.join(tempfile.mkdtemp(), "m.jsonl")
    >>> with recording() as rec:
    ...     with MetricsSampler(rec, path, interval=10.0):
    ...         rec.count("ops.total", 5)
    >>> samples = [json.loads(l) for l in open(path)]
    >>> len(samples) >= 2 and samples[-1]["counters"]["ops.total"]
    5.0
    """

    def __init__(
        self,
        recorder: Recorder,
        path: str | os.PathLike,
        interval: float = 0.05,
    ):
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        self.recorder = recorder
        self.path = Path(path)
        self.interval = float(interval)
        self.n_samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._file = None
        self._prev_t: float | None = None
        self._prev_counters: dict[str, float] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MetricsSampler":
        """Open the file, write the first sample, launch the thread."""
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "w", encoding="utf-8")
        self._sample()
        self._thread = threading.Thread(
            target=self._run, name="repro-metrics-sampler", daemon=True
        )
        self._thread.start()
        # Abnormal-exit safety net: an exception that unwinds past the
        # owner's ``finally`` still gets the final sample and a closed
        # file via atexit.  ``os._exit`` (the chaos drill) skips atexit,
        # but every per-sample write is flushed, so a hard kill loses at
        # most the final snapshot, never the samples already written.
        atexit.register(self.stop)
        return self

    def stop(self) -> None:
        """Stop the thread, write a final sample, close the file."""
        if self._file is None:
            return
        atexit.unregister(self.stop)
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._sample()
        self._file.close()
        self._file = None

    def __enter__(self) -> "MetricsSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- sampling ------------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self._sample()
            except Exception:
                # A transient snapshot failure (e.g. a gauge raising while
                # its backend tears down) must not kill the thread — the
                # next interval retries, and stop() still writes the final
                # sample.
                continue

    def _sample(self) -> None:
        rec = self.recorder
        t = rec.now()
        counters = rec.counters_snapshot()
        rates: dict[str, float] = {}
        if self._prev_t is not None and t > self._prev_t:
            dt = t - self._prev_t
            for key in DEFAULT_RATE_KEYS:
                if key in counters or key in self._prev_counters:
                    delta = counters.get(key, 0.0) - self._prev_counters.get(key, 0.0)
                    rates[f"{key}/s"] = delta / dt
        self._prev_t, self._prev_counters = t, counters
        record = {
            "t": round(t, 6),
            "run": rec.run_id,
            "counters": counters,
            "gauges": rec.read_gauges(),
            "rates": rates,
        }
        # The run thread and stop() may race on the final sample; the file
        # write itself is the only shared mutation and json.dumps keeps it
        # to a single .write call.
        f = self._file
        if f is not None and not f.closed:
            f.write(json.dumps(record, sort_keys=True) + "\n")
            f.flush()
            self.n_samples += 1

"""Process-parallel shared-memory executor for tile QR.

The serial reference executor and the threaded PULSAR backend both run
their kernels under the GIL.  This module executes the *same* operation list
(:mod:`repro.qr.ops`) across real OS processes:

* the tiles, one slot per compact-WY ``T`` factor and one completion flag
  per op live in a single shared-memory segment per job
  (:class:`repro.tiles.shared.SharedTileStore`); workers attach once and
  mutate tiles in place — no array is ever pickled, and the factors a run
  returns *are* that segment's views: nothing is copied out;
* *what runs where, and in which order*, is decided once per geometry:
  :meth:`repro.qr.schedule.Schedule.assignment` list-schedules the DAG on
  ``n_procs`` model workers under the PRT ready-pool policy, each op homed
  on the rank of its block of tile rows, and gives every rank its *share* —
  its ops in start order, each with the ops it waits on;
* *when an op fires, when a worker reports or stands still, what the parent
  books and who takes over a dead worker's work* are the rules of
  :mod:`repro.qr.protocol` — a :class:`~repro.qr.protocol.Walk` per worker
  and the parent's :class:`~repro.qr.protocol.Ledger`.  This module only
  carries them: a worker with nothing ready spins briefly, then sleeps on its
  pipe with a capped back-off, and the parent reads reports, watches
  sentinels and runs the no-progress watchdog;
* every op is one :func:`repro.qr.execute.run_step` call on the shared
  store, the step runner the in-process schedules use;
* there is one pool of workers per process, :data:`_KEPT`: every run
  leases it, from a :class:`~repro.qr.session.QRSession` or not, so workers
  are forked once (and ended by :func:`shutdown_workers` or at interpreter
  exit);
* there is one segment rule: a finished run's segment joins the
  process's free list (:data:`SPARE_SEGMENTS` of them, descriptor, views
  and record skeleton kept), and a later run under the same op list loads
  its input into one only once nobody holds the result made of it
  (:func:`take_segment`), so a result stays valid for as long as it lives.
  Segments are anonymous (``memfd``): a worker is sent the
  descriptor of each one it is to map, down its own socket, maps it and
  closes it.  A worker owns its end of one pipe and the last mappings it
  made — it closes every pipe end and segment descriptor it was forked
  with, so it exits the moment its parent is gone, however the parent
  died, and nothing it holds outlives it.

Because the dependency graph totally orders every tile's mutations, any
legal schedule produces factors **bit-identical** to the serial reference.
When ``n_procs == 1`` or shared memory is unavailable the executor falls
back to the serial reference (``stats.mode``, ``fallback.serial``).

Fault tolerance: the parent waits on every worker's pipe *and* its process
sentinel, so a dead worker is detected the moment the OS reaps it; one that
is alive but silent is caught by the no-progress
:class:`~repro.faults.Watchdog` (``timeout_s`` without a report, a death, an
attach echo or a newly raised flag).  What happens to a dead worker's work,
and when the run fails instead, is rule 5 of :mod:`repro.qr.protocol`
(docs/robustness.md).

Observability: with a recorder installed (:mod:`repro.obs`) workers report
each op's absolute ``perf_counter`` stamps and the parent turns them into
kernel spans on per-process lanes, charged the exact
:mod:`repro.kernels.flops` count; every report bumps ``dispatch.batches``.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing as mp
import os
import threading
import time
import traceback
import weakref
from dataclasses import dataclass, field
from functools import partial
from multiprocessing.connection import Connection, wait as conn_wait
from multiprocessing.reduction import recv_handle, send_handle
from select import select

import numpy as np

from ..faults.watchdog import Watchdog
from ..kernels._lapack import pin_process
from ..kernels.flops import kernel_flops
from ..obs import context as _obs_context
from ..obs import record as _obs_record
from ..obs.adapters import KERNEL_CATEGORY
from ..obs.record import (
    K_DISPATCH_BATCHES,
    K_FALLBACK_SERIAL,
    K_FAULT_CRASH,
    K_POOL_LEASES,
    K_POOL_REUSED,
    K_POOL_SPAWNS,
    K_REDISPATCH_OPS,
    K_SDC_DETECTED,
    K_SDC_INJECTED,
    K_SDC_RECOVERED,
    K_WORKER_DEAD,
    K_WORKER_RESTART,
)
from ..tiles.matrix import TileMatrix
from ..tiles.shared import _FORK_LOCK, SharedTileStore, descriptor
from ..util.errors import ParallelExecutionError
from ..util.validation import require
from .checksum import SDCGuard
from .execute import run_step
from .ops import Op
from .protocol import MAX_REDISPATCH, Ledger, Walk  # noqa: F401
from .reference import TileQRFactors, execute_ops, factor_records
from .schedule import Schedule

__all__ = [
    "ParallelRunStats",
    "serial_fallback",
    "WorkerPool",
    "execute_ops_parallel",
    "shutdown_workers",
    "take_segment",
    "default_n_procs",
]

#: Exit code used by FaultPlan-scheduled worker crashes, so the parent can
#: tell an injected crash (counted under ``fault.crash``) from a real one.
_CRASH_EXIT_CODE = 37

#: Entries of the free-segment list (:data:`_FREE`), and attachments a
#: worker keeps.  Two, because ``f = qr_factor(...)`` in a
#: loop still holds result *k* while call *k + 1* runs.
SPARE_SEGMENTS = 2

#: Scans of the look-ahead window (:data:`~repro.qr.protocol.LOOKAHEAD`)
#: that may fail back to back before a worker with nothing ready starts to
#: sleep: some 20 us, the length of a short kernel, so a flag raised by a
#: neighbour mid-op is seen without a syscall.
SPIN_SCANS = 20

#: First and longest nap in seconds; each nap doubles the next.  The nap is
#: a ``select`` on the worker's pipe, so the parent's word ends it at once; a
#: flag is seen at the latest one nap after it went up — at most as long
#: again as the worker had already waited, and never more than the cap.
NAP_S = (50e-6, 1e-3)


def default_n_procs() -> int:
    """Worker count used when ``n_procs`` is not given: usable CPUs."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class ParallelRunStats:
    """Observability record of one process-parallel execution.

    ``mode`` is ``"parallel"`` for a real multi-process run and
    ``"serial-fallback"`` when the executor degraded to the serial
    reference (``n_procs == 1`` or shared memory unavailable).
    """

    n_ops: int = 0
    n_procs: int = 1
    policy: str = "lazy"
    batch: int = 1  # most ops a worker reports in one message
    # Parent traffic: pipe messages sent or read, bytes tiled into the segment.
    pipe_messages: int = 0
    bytes_in: int = 0
    # Whether the job ran on a segment an earlier run left, and each worker's
    # seconds from header to attach echo (mapping and view building, if any).
    segment_recycled: bool = False
    per_worker_attach_s: dict[int, float] = field(default_factory=dict)
    elapsed_s: float = 0.0
    # The parent's lease: briefing (or spawning) every worker.  Several ms of
    # it mean the parent lost its CPU after briefing them, not that they
    # waited: a worker fires from the moment it reads its header.
    spawn_s: float = 0.0
    dispatch_s: float = 0.0  # parent time spent booking reports (not waiting)
    per_worker_busy_s: dict[int, float] = field(default_factory=dict)
    # Seconds a worker had nothing it could fire: waiting on a flag, parked
    # for a checkpoint, or done with its share while others were not.  Per
    # worker, busy + wait + a few microseconds per op = elapsed, less what of
    # the lease (spawn_s) passed before the worker read its header.
    per_worker_wait_s: dict[int, float] = field(default_factory=dict)
    per_worker_ops: dict[int, int] = field(default_factory=dict)
    mode: str = "parallel"
    fallback_reason: str = ""
    # Fault-tolerance evidence (all zero on a clean run).
    workers_died: int = 0
    workers_respawned: int = 0
    ops_redispatched: int = 0
    # Silent-data-corruption evidence, aggregated from worker-side
    # :class:`~repro.qr.checksum.SDCGuard` deltas (zero without a
    # ``flip_rate`` fault plan).
    sdc_injected: int = 0
    sdc_detected: int = 0
    sdc_recovered: int = 0

    @property
    def tasks_per_s(self) -> float:
        """Completed kernel invocations per wall-clock second."""
        return self.n_ops / self.elapsed_s if self.elapsed_s > 0.0 else 0.0

    def busy_fractions(self) -> dict[int, float]:
        """Per-worker fraction of the run each worker spent inside kernels."""
        if self.elapsed_s <= 0.0:
            return {w: 0.0 for w in self.per_worker_busy_s}
        return {w: b / self.elapsed_s for w, b in self.per_worker_busy_s.items()}

    @property
    def dispatch_overhead(self) -> float:
        """Fraction of the run the parent spent booking reports (IPC + bookkeeping)."""
        return self.dispatch_s / self.elapsed_s if self.elapsed_s > 0.0 else 0.0


def serial_fallback(a, ops, ib: int, reason: str, policy: str,
                    *, checkpoint=None, skip=None, preloaded_ts=None):
    """Serial-reference degradation: same factors, reason on the record.

    The reason is never silent: it lands in ``stats.fallback_reason`` /
    ``stats.mode`` and, when a recorder is installed, on the
    ``fallback.serial`` counter and a ``fallback`` span whose args carry
    the reason — so a trace shows *that* and *why* the run degraded.

    ``checkpoint`` / ``skip`` / ``preloaded_ts`` pass through to the
    serial executor so a degraded run keeps snapshotting (``checkpoint``
    must be bound to ``a``: the run envelope re-binds it to the pristine
    copy before degrading) and — crucially on the resume path — never
    re-executes ops whose writes are already in the tiles (a QR kernel is
    destructive; re-running a completed factor op would corrupt the
    result).
    """
    rec = _obs_record._RECORDER
    t0 = time.perf_counter()
    factors = execute_ops(a, ops, ib, checkpoint=checkpoint, skip=skip,
                          preloaded_ts=preloaded_ts)
    elapsed = time.perf_counter() - t0
    if rec is not None:
        rec.count(K_FALLBACK_SERIAL)
        rec.event("fallback.serial", worker=0, reason=reason)
        end = rec.now()
        rec.add_span("fallback", "dispatch", end - elapsed, end, worker=0,
                     args={"reason": reason})
    return factors, ParallelRunStats(  # one lane: n_procs and batch stay at 1
        n_ops=len(ops), policy=policy, elapsed_s=elapsed,
        per_worker_busy_s={0: elapsed}, per_worker_ops={0: len(ops)},
        mode="serial-fallback", fallback_reason=reason,
    )


# --------------------------------------------------------------------------
# Worker processes: a share of the schedule -> execution-core steps on the store
# --------------------------------------------------------------------------


def _serve_job(store, ops: list[Op], ib: int, fault_plan, rank: int,
               generation: int, conn: Connection, share, batch: int,
               park_every: int = 0, stamped: bool = False) -> object:
    """Carry one job's :class:`~repro.qr.protocol.Walk` until a terminator.

    ``share`` is the rank's ``(seq, idx, waits)`` entries in start order
    (:func:`repro.qr.schedule.list_schedule`); which entry fires, when a
    report is due and when the worker stands still is the walk's to say
    (:mod:`repro.qr.protocol`, rules 1–3), through its own methods.  An op
    is one 1-wide :func:`repro.qr.execute.run_step`, timed on its own.  With nothing ready
    the worker rescans :data:`SPIN_SCANS` times, then naps on its pipe
    (:data:`NAP_S`), where the parent's messages reach it; standing still it
    blocks on the pipe and uses no CPU.

    Messages to the parent: ``("done", rank, [idx, ...], sdc, wait_s, busy_s,
    t_last, stamps)`` — the :class:`SDCGuard` delta, the seconds spent with
    nothing ready and inside ops since the previous report, when the last op
    ended and, only when ``stamped`` (the parent records spans), the absolute
    ``perf_counter`` ``(t0, t1)`` of each op; ``("parked", rank)`` after the
    report it flushes when it parks; ``("err", rank, idx, traceback)``.
    Messages from the parent: ``("adopt", entries)``, ``("resume",)`` and a
    terminator.

    Before each op the worker consults the :class:`~repro.faults.FaultPlan`
    crash schedule (generation 0 only) and ``os._exit``\\ s when told to;
    ``ops_done`` restarts at zero per job, and a job with a fault plan runs
    on fresh workers, so every such job injects what its plan says.

    Returns the terminator received: ``None`` (shut the worker down),
    ``("endjob",)`` (job complete, the worker keeps its attachment and waits
    for the next job), or the string ``"err"`` after an execution error was
    reported.
    """
    crashy = fault_plan is not None and fault_plan.faulty_workers
    guard = None
    if fault_plan is not None and fault_plan.faulty_sdc:
        guard = SDCGuard(fault_plan, ops)
    walk = Walk(share, batch, park_every)
    ready, publish, pause, flags = store.ready, store.publish, store.pause, store.flags
    pipe_fd = conn.fileno()
    clock, first_nap = time.perf_counter, NAP_S[0]
    ops_done = 0
    stamps = [] if stamped else None
    wait_s = busy_s = 0.0
    waited, scans, nap = False, 0, first_nap
    t_prev = clock()
    while True:
        standing = walk.stands_still(pause[0])
        if walk.report_due(standing):
            conn.send(("done", rank, walk.flush(),
                       guard.take_delta() if guard is not None else None,
                       wait_s, busy_s, t_prev, stamps))
            stamps, wait_s, busy_s = [] if stamped else None, 0.0, 0.0
        if standing:
            waited, parked = True, walk.stand()
            if parked:
                conn.send(("parked", rank))
        else:
            k = walk.pick(ready)
            if k:
                idx = walk.fire(k)
                if crashy and fault_plan.worker_crash(rank, generation, ops_done):
                    os._exit(_CRASH_EXIT_CODE)
                t0 = clock()
                if waited:
                    wait_s += t0 - t_prev
                if not flags[idx]:
                    try:
                        run_step(store, ops, [idx], ib, guard, publish)
                    except BaseException:
                        conn.send(("err", rank, idx, traceback.format_exc()))
                        return "err"
                ops_done += 1
                t_prev = clock()
                busy_s += t_prev - t0
                if stamped:
                    stamps.append((t0, t_prev))
                waited, scans, nap = False, 0, first_nap
                continue
            waited, scans, parked = True, scans + 1, False
            if scans <= SPIN_SCANS:
                continue
            # ``select`` keeps microseconds (``conn.poll`` rounds its
            # timeout up to a millisecond).
            word = select((pipe_fd,), (), (), nap)[0]
            nap = min(2.0 * nap, NAP_S[1])
            if not word:
                continue
        while True:  # the parent's word: an adopt, a resume, or a terminator
            msg = conn.recv()
            if msg is None or msg[0] not in ("adopt", "resume"):
                return msg
            if walk.heard(msg, parked):
                break


#: Parent-side end of every live worker pipe in this process, whichever pool
#: owns it.  A forked child inherits a copy of each, and a pipe delivers EOF
#: only once *every* copy of its far end is closed — so every forked child
#: closes them all first thing (:func:`_after_fork_in_child`), or a worker
#: would outlive a parent that died without saying goodbye.  A pipe is made
#: and listed under :data:`~repro.tiles.shared._FORK_LOCK`, which every fork
#: takes, so no child inherits an end the set does not hold yet.
_PARENT_ENDS: "weakref.WeakSet[Connection]" = weakref.WeakSet()


def _worker_main(rank: int, generation: int, conn: Connection, job) -> None:
    """Worker process: serve factorization jobs until told to exit.

    Each job starts with a header
    ``("job", shm_name, layout, ops, ib, fault_plan, run_id, batch,
    park_every, stamped, share)``
    and ends with a terminator; in between the worker fires its ``share``
    on its own (:func:`_serve_job`).  A worker is only ever spawned for a
    job (:meth:`WorkerPool.spawn`, at lease time or after a mid-job death),
    so its first header rides in the spawn args — under ``fork`` the op
    list and the share are inherited, not pickled; later headers arrive on
    the pipe after each ``("endjob",)``, and a bare
    ``None`` instead of a header ends the worker.

    ``shm_name`` is the segment's string id; the segment itself arrives as
    a descriptor on the same socket, right after any header that carries a
    ``layout`` — at spawn and at lease alike — and the worker maps it and
    closes the descriptor at once (:meth:`SharedTileStore.attach`): an idle
    worker holds mappings, never a descriptor.

    A header names only what the worker does not hold yet.  ``layout`` and
    ``ops`` both ``None`` means "a segment you map": the worker keeps its
    last :data:`SPARE_SEGMENTS` attachments by id, each with the schedule
    it was attached under, so a call on a free segment it served before
    costs it no new mapping, no descriptor and no unpickling.
    ``ops`` alone ``None`` means "a new segment, the operation list of your
    previous job": the worker maps the descriptor with its cached list and
    the offset tables it derived for it (it keeps both as a
    :class:`~repro.qr.schedule.Schedule` of its own) — a call on a segment
    the worker does not map pickles no op list and derives no table.
    ``share`` ``None`` means "the share of your previous job" (the memoized
    assignment is one object per geometry, worker count and policy).  Either way ``spawn_s`` on the parent collapses to a couple of
    pipe messages.
    """
    # The parent's *objects* over its mappings (stores, one-shot results) came
    # along, over addresses now free for the worker's own mappings: nothing
    # here reads them, and ``gc.freeze`` keeps the collector from ever
    # finalizing one.  Its pipe ends and segment descriptors went at the fork
    # (``_after_fork_in_child`` here and in :mod:`repro.tiles.shared`).
    gc.freeze()
    # A forked child inherits the parent's recorder; spans must be recorded
    # by the parent from the reported stamps, not duplicated here.  The run
    # identity *does* survive the boundary: it arrives in the job header
    # and is echoed in the attach handshake, so the parent can verify the
    # worker is serving the run it thinks it is.
    _obs_record._RECORDER = None
    pin_process()  # kernels on one BLAS thread, whatever the parent runs on
    cached: Schedule | None = None  # the last job's op list, and its segment tables
    cached_share = None
    held: dict[str, tuple] = {}  # name -> (attachment, its schedule), oldest first
    try:
        while job is not None:
            (_, shm_name, layout, ops, ib, fault_plan, run_id, batch, park_every,
             stamped, share) = job
            _obs_context.activate(run_id)
            t_attach0 = time.perf_counter()
            if share is not None:
                cached_share = share
            # A header with a layout is followed by the segment's descriptor.
            fd = None if layout is None else recv_handle(conn)
            kept = held.pop(shm_name, None)
            if kept is None:
                if ops is not None:
                    cached = Schedule(None, ops, ib, layout)
                kept = SharedTileStore.attach(shm_name, fd, layout, cached, ib), cached
            elif fd is not None:
                os.close(fd)
            held[shm_name] = kept
            store, cached = kept
            if len(held) > SPARE_SEGMENTS:
                held.pop(next(iter(held)))[0].close()
            conn.send(("attached", rank, t_attach0, time.perf_counter(), run_id))
            end = _serve_job(store, cached.ops, ib, fault_plan, rank, generation,
                             conn, cached_share, batch, park_every, stamped)
            if end is None or end == "err":
                break
            job = conn.recv()
    except (EOFError, ConnectionError, KeyboardInterrupt):  # parent went away: just exit
        pass
    finally:
        for kept in held.values():
            kept[0].close()
        conn.close()


def _send_descriptor(conn: Connection, fd: int, pid: int) -> None:
    """Send a worker a copy of segment descriptor ``fd`` down its own socket,
    right after the header that announces it (:func:`_worker_main`)."""
    with _FORK_LOCK:  # ``send_handle`` works on a duplicate of the pipe end
        send_handle(conn, fd, pid)


class WorkerPool:
    """Worker processes leased out one factorization at a time: the class
    of :data:`_KEPT`, the process's one pool.

    Each worker runs :func:`_worker_main`: a loop over *jobs*, where a job
    is a header naming the shared segment and the worker's share of the
    schedule, ended by ``("endjob",)``.  The pool tracks
    which segments each worker maps (:attr:`known`, its LRU mirrored) and which
    operation list and share it was last sent, and slims the header
    accordingly (see :func:`_worker_main`): no layout and no op list for a
    segment it maps, no op list for a new segment under the same list, no share
    when it is the object the worker already holds — a warm lease costs one
    small pipe message per worker.  Each lease names its own worker count;
    the pool grows to the largest.

    Generation tags are the pool's crash-recovery bookkeeping, shared with
    the parent loop in :func:`execute_ops_parallel` (the
    ``procs``/``conns``/``generations`` dicts are handed over *by
    reference* during a lease, so mid-job respawns are visible to both
    sides).  A rank's generation only ever increases — across respawns,
    :meth:`reset`, and successive jobs — until :meth:`shutdown`, so a
    :class:`~repro.faults.FaultPlan`, which kills generation 0 only, never
    re-kills a replacement; a fault-plan job starts from a shut pool.
    """

    def __init__(self):
        self.procs: dict[int, mp.process.BaseProcess] = {}
        self.conns: dict[int, Connection] = {}
        self.generations: dict[int, int] = {}
        #: rank -> names of the segments the worker maps, oldest first.
        self.known: dict[int, list[str]] = {}
        # rank -> the op list and the share the worker holds, *by reference*:
        # the memoized ones of ``schedule_for`` are one object each however
        # often they are leased.
        self._ops_of: dict[int, list] = {}
        self._share_of: dict[int, tuple] = {}
        self._ctx = mp.get_context()
        self._job = None

    def alive_count(self) -> int:
        """Live worker processes (the ``pool.workers_alive`` gauge)."""
        return sum(1 for p in self.procs.values() if p.is_alive())

    def spawn(self, rank: int, share=None) -> None:
        """Start ``rank``'s next generation on the job being leased — a
        missing or dead rank at lease time, or the replacement of a worker
        that died mid-job, which gets what its predecessor left undone as
        ``share`` (the parent loop calls this during its lease)."""
        if share is None:
            share = self._job[-1][rank]
        old = self.conns.pop(rank, None)
        if old is not None:
            with contextlib.suppress(OSError):
                old.close()
        generation = self.generations.get(rank, -1) + 1
        with _FORK_LOCK:  # no fork between the pipe and its listing
            parent_conn, child_conn = self._ctx.Pipe()
            _PARENT_ENDS.add(parent_conn)
        p = self._ctx.Process(target=_worker_main,
                              args=(rank, generation, child_conn, self._job[:-1] + (share,)),
                              daemon=True, name=f"qr-pool-{rank}g{generation}")
        p.start()
        child_conn.close()
        with contextlib.suppress(OSError):  # dead already: its sentinel says so
            _send_descriptor(parent_conn, descriptor(self._job[1]), p.pid)
        self.procs[rank] = p
        self.conns[rank] = parent_conn
        self.generations[rank] = generation
        self.known[rank] = [self._job[1]]
        self._ops_of[rank] = self._job[3]
        self._share_of[rank] = share
        rec = _obs_record._RECORDER
        if rec is not None:
            rec.count(K_POOL_SPAWNS)
            rec.event("pool.spawn", worker=rank, generation=generation)

    def _send_job(self, rank: int) -> None:
        """Send a live worker the job header, less what it already holds."""
        job, share = self._job[:-1], self._job[-1][rank]
        shm_name, ops = job[1], job[3]
        names = self.known.setdefault(rank, [])
        if shm_name in names:
            names.remove(shm_name)
            job = job[:2] + (None, None) + job[4:]  # no layout, no op list
        elif self._ops_of.get(rank) is ops:
            job = job[:3] + (None,) + job[4:]  # new segment, no op list
        conn = self.conns[rank]
        conn.send(job + (None if self._share_of.get(rank) is share else share,))
        if job[2] is not None:  # a new segment: its descriptor follows the header
            _send_descriptor(conn, descriptor(shm_name), self.procs[rank].pid)
        names.append(shm_name)
        del names[:-SPARE_SEGMENTS]
        self._ops_of[rank] = ops
        self._share_of[rank] = share

    def lease(self, k: int, job: tuple) -> dict:
        """Hand ranks ``0..k-1`` one job: respawn the dead, brief the rest.

        ``job`` is the header :func:`_worker_main` documents with every
        rank's share in its last field (a worker is sent its own); its
        ``run_id`` binds every worker's spans and events to the leasing run
        (trace-context propagation).  Returns the lease summary
        ``{"n_procs", "spawned", "reused"}`` recorded on the parent's
        ``pool.lease`` span; a rank counts as reused only once its header
        went down the pipe.
        """
        self._job = job
        spawned = reused = 0
        for rank in range(k):
            p = self.procs.get(rank)
            if p is not None and p.is_alive():
                try:
                    self._send_job(rank)
                    reused += 1
                    continue
                except (BrokenPipeError, OSError):
                    pass  # died between the liveness check and the send
            self.spawn(rank)
            spawned += 1
        rec = _obs_record._RECORDER
        if rec is not None:
            rec.count(K_POOL_LEASES)
            if reused:
                rec.count(K_POOL_REUSED, reused)
            rec.event("pool.lease", n_procs=k, spawned=spawned, reused=reused)
        return {"n_procs": k, "spawned": spawned, "reused": reused}

    def reset(self) -> None:
        """Kill every worker after a failed job.

        Workers may be wedged, mid-op or waiting on a flag nobody will
        raise; fresh processes are the only state safe to lease from again.
        Generations are preserved (and bump on the next spawn), so an
        injected-fault generation never reappears.
        """
        for p in self.procs.values():
            if p.is_alive():
                p.terminate()
        for p in self.procs.values():
            p.join(timeout=5.0)
        self._forget_workers()

    def _forget_workers(self) -> None:
        for conn in self.conns.values():
            with contextlib.suppress(OSError):
                conn.close()
        self.procs.clear()
        self.conns.clear()
        self.known.clear()
        self._ops_of.clear()
        self._share_of.clear()

    def shutdown(self) -> None:
        """Graceful stop: ask each worker to exit, then make sure it did."""
        for conn in self.conns.values():
            with contextlib.suppress(OSError):
                conn.send(None)
        deadline = time.perf_counter() + 5.0
        for p in self.procs.values():
            p.join(timeout=max(0.1, deadline - time.perf_counter()))
            if p.is_alive():
                p.terminate()
        self._forget_workers()
        self.generations.clear()


#: The process's one pool: every run leases it, so workers are forked once
#: per process and grow to the largest ``n_procs`` asked for.  Idle it pins
#: the copy-on-write pages of its parent at fork time, a pipe per worker and
#: the last :data:`SPARE_SEGMENTS` segments each worker served.
_KEPT = WorkerPool()

#: The process's free segments, newest first, at most :data:`SPARE_SEGMENTS`:
#: ``(store, op list, weakref(result))`` per segment a clean run finished on.  The store keeps its descriptor, its views and its
#: record skeleton; the result is the run's own
#: :class:`~repro.qr.reference.TileQRFactors`, and the segment is loaded
#: again only once that is gone (:func:`take_segment`).  An entry that falls
#: off the list closes its descriptor and drops its views; its pages stay
#: with the result while it lives.  Read and written under ``_FORK_LOCK``.
_FREE: list[tuple] = []

#: Serialises the kept pool between calls from different threads: held
#: from before the lease until the workers are handed back (or reset).
_LEASE_LOCK = threading.Lock()


def shutdown_workers() -> None:
    """End the workers ``backend="parallel"`` calls have left idle, and
    let go of the free segments.

    Idempotent, and never required: the next call forks new workers or
    makes new segments, and at interpreter exit ``multiprocessing`` stops
    the workers as it stops any daemon.  Call it to give back what idle
    workers and free segments pin (then a segment belongs to its result
    alone), or before a test that relies on what a worker inherits when it
    is forked.  :meth:`~repro.qr.session.QRSession.close` ends no worker.
    """
    with _LEASE_LOCK:
        _KEPT.shutdown()
    _trim_free(0)


def take_segment(a, sched: Schedule, ib: int) -> SharedTileStore:
    """A segment laid out for ``sched`` and ``ib`` holding ``a`` (a dense
    array or a :class:`TileMatrix`) with every flag clear: the newest free
    one under the same op list whose result is gone, else a new one
    (``OSError`` where none can be had).  Taken under a lock, so by one
    caller; the run on it gives it back (:func:`execute_ops_parallel`)."""
    with _FORK_LOCK:
        free = [i for i, (store, ops, result) in enumerate(_FREE)
                if ops is sched.ops and store.ib == ib and result() is None]
        store = _FREE.pop(free[0])[0] if free else None
    if store is None:
        return SharedTileStore.create(a, sched, ib)
    store.load(a)
    return store


def _give_back(store: SharedTileStore, ops: list, result: TileQRFactors) -> None:
    """Put the segment of a finished run at the head of :data:`_FREE`."""
    with _FORK_LOCK:
        _FREE.insert(0, (store, ops, weakref.ref(result)))
    _trim_free(SPARE_SEGMENTS)


def _trim_free(keep: int) -> None:
    """Cut :data:`_FREE` to ``keep`` entries; what falls off closes its
    descriptor and drops its views."""
    with _FORK_LOCK:
        dropped = _FREE[keep:]
        del _FREE[keep:]
    for store, _, _ in dropped:
        store.destroy()


def _after_fork_in_child() -> None:
    """Nothing of the parent's workers belongs to a forked child.

    Worker or not, the child closes its copies of the parent-side pipe ends
    (see :data:`_PARENT_ENDS`), forgets the kept workers — they are its
    parent's children — and the free segments, which are mapped in the
    parent only (``MADV_DONTFORK``) and whose descriptors the fork hook of
    :mod:`repro.tiles.shared` has closed; a call made here makes its own.
    It also replaces the lease lock, which a thread that does not exist
    here may hold.
    """
    global _LEASE_LOCK
    _LEASE_LOCK = threading.Lock()
    for conn in list(_PARENT_ENDS):
        conn.close()
    _KEPT._forget_workers()
    _KEPT.generations.clear()
    del _FREE[:]


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=_after_fork_in_child)


# --------------------------------------------------------------------------
# The parent: lease, listen, book
# --------------------------------------------------------------------------


def _auto_batch(n_ops: int, n_procs: int, watched: bool = False) -> int:
    """Report size.  A batch is a report, not a round trip — no worker waits
    for an answer — and every one wakes the parent on a core a worker is
    using, so nobody reads one unless somebody reads the parent's count of
    completed ops: the progress gauges of a recorder and the cadence of a
    checkpoint (``watched``) get a report every few dozen ops, anyone else
    one per worker and job, sent when the worker stands still.
    """
    return max(1, min(32, n_ops // (n_procs * 8))) if watched else max(1, n_ops)


def _stall_report(ledger: Ledger, store, stats: ParallelRunStats) -> str:
    """What the watchdog says when the run stops moving."""
    alive = sorted(ledger.alive)
    return (
        f"{ledger.completed}/{len(ledger.ops)} ops reported, "
        f"{int(np.count_nonzero(store.flags))} flagged done; "
        f"alive workers {alive}; unreported per worker "
        f"{ {w: ledger.owed[w] for w in alive} }; parked {sorted(ledger.parked)}; "
        f"died {stats.workers_died}, respawned {stats.workers_respawned}"
    )


def _record_report(rec, root, ops: list[Op], ib: int, w: int, done, stamps) -> None:
    """A report's evidence: one ``dispatch.batches`` count, and the worker's
    stamps as each op's kernel span on its lane, charged its exact flops."""
    rec.count(K_DISPATCH_BATCHES)
    for idx, (op_t0, op_t1) in zip(done, stamps):
        op = ops[idx]
        rec.record_kernel(
            op.kind, KERNEL_CATEGORY[op.kind], kernel_flops(op.kind, op.m2, op.k, op.q, ib),
            rec.from_monotonic(op_t0), rec.from_monotonic(op_t1), w, op=idx, parent=root,
        )


def _book_sdc(stats: ParallelRunStats, rec, root, w: int, sdc) -> None:
    """Add a worker's :class:`SDCGuard` delta to the run's evidence."""
    for attr, key, n in zip(("sdc_injected", "sdc_detected", "sdc_recovered"),
                            (K_SDC_INJECTED, K_SDC_DETECTED, K_SDC_RECOVERED), sdc):
        setattr(stats, attr, getattr(stats, attr) + n)
        if rec is not None and n:
            rec.count(key, n)
            rec.event(key, worker=w, span=root, n=n)


def execute_ops_parallel(
    a: TileMatrix,
    ops: list[Op] | Schedule,
    ib: int,
    *,
    n_procs: int | None = None,
    policy: str = "lazy",
    batch: int | None = None,
    timeout_s: float = 120.0,
    fault_plan=None,
    respawn: bool = True,
    arena=None,
    checkpoint=None,
    skip=None,
    preloaded_ts=None,
) -> tuple[TileQRFactors, ParallelRunStats]:
    """Run an operation list on ``a`` across worker processes.

    The factorization happens in the job's shared segment.  Without
    ``arena`` the tiles of ``a`` are copied into one (:func:`take_segment`)
    and ``a`` is *not* mutated (unlike
    :func:`~repro.qr.reference.execute_ops`); with it, ``a`` is the
    :class:`TileMatrix` of that segment's views the caller loaded.  The
    :class:`TileQRFactors` returned is a new object around the segment's
    tile and ``T`` views (one skeleton per store), and nobody loads the
    segment again while it is alive: a clean run gives the segment to the
    free list (:data:`_FREE`) with a weak reference to it.

    Parameters
    ----------
    a, ops, ib:
        As for the serial executor: ``ops`` comes from
        :func:`repro.qr.ops.expand_plans`, or is the
        :class:`~repro.qr.schedule.Schedule` holding it, whose
        :meth:`~repro.qr.schedule.Schedule.assignment` gives every rank its
        share — :func:`~repro.qr.backends.run_backend` passes the memoized
        one, so only the first call on a geometry derives it and a worker
        that holds its share is not sent it again.  A bare list is wrapped in
        a schedule of its own, derived here.
    n_procs:
        Worker process count (default: usable CPUs).  ``1`` falls back to
        the serial reference executor.
    policy:
        Ready-pool discipline of the list scheduler that assigns ops to
        ranks, ``"lazy"`` (program order) or ``"aggressive"`` (most
        recently enabled), mirroring the PRT.
    batch:
        Most operations per worker message (default: :func:`_auto_batch` —
        the whole share, i.e. one report per worker, unless a recorder or a
        ``checkpoint`` reads the count in between).  A message is a report —
        workers never wait for an answer.
        :func:`repro.qr.backends.run_backend` validates ``n_procs``,
        ``policy`` and ``batch`` for every backend; a direct caller passes
        values it has checked.
    timeout_s:
        No-progress watchdog: raise
        :class:`~repro.util.errors.WatchdogTimeout` instead of hanging if
        nothing is reported, flagged done, dies, or attaches for this long.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` whose ``crash_workers``
        schedule makes workers die abruptly (testing the recovery path).
    respawn:
        Spawn a replacement process for each dead worker that left work
        undone (capped at ``n_procs`` respawns per run), which takes over
        what the dead one had not flagged done.  With ``respawn=False`` (or
        the budget spent) a survivor adopts it, and the run fails only when
        none remain (:mod:`repro.qr.protocol`, rule 5).
    arena:
        The job's one segment, a
        :class:`~repro.tiles.shared.SharedTileStore` into which the caller
        has already loaded the input (flags cleared) — the run envelope's
        (:func:`repro.qr.backends.stage_input`); without it the segment is
        taken here.  Either way the run owns it from here on: a clean run
        gives it to the free list, any other closes its descriptor.  The job
        is leased to the process's pool (one caller at a time) and handed
        back with ``("endjob",)``.  The workers outlive the call
        (:func:`shutdown_workers` ends them) except under a ``fault_plan``,
        which runs on fresh generation-0 workers and leaves none, and after
        a job during which one died.
    checkpoint:
        Optional bound :class:`~repro.qr.persist.CheckpointStore`.  The
        parent raises the segment's pause byte when a snapshot falls due,
        and captures it from the shared store — the completion flags are
        the done mask — once every live worker stands still
        (:mod:`repro.qr.protocol`, rules 3 and 4); the write overlaps the
        workers' execution.
    skip, preloaded_ts:
        Resume support (:func:`~repro.qr.persist.resume_factorization`):
        op indices whose writes are already present in ``a``'s tiles, and
        the ``T`` factors (op index -> array) of the completed factor
        ops.  Completed ops are pre-flagged, pre-counted, and left out of
        every share; their ``T`` arrays are loaded into the shared
        store's slots so successors read them as if computed this run.
    """
    require(a.m >= a.n, f"tile QR requires m >= n, got {a.m} x {a.n}")
    sched = ops if isinstance(ops, Schedule) else Schedule(None, ops, ib, a.layout)
    ops = sched.ops
    if n_procs is None:
        n_procs = default_n_procs()
    n_procs = max(1, min(n_procs, len(ops)))
    rec = _obs_record._RECORDER
    if batch is None:
        batch = _auto_batch(len(ops), n_procs, rec is not None or checkpoint is not None)
    completed_set = frozenset() if skip is None else frozenset(int(i) for i in skip)
    degrade = partial(serial_fallback, ops=ops, ib=ib, policy=policy, checkpoint=checkpoint,
                      skip=completed_set or None, preloaded_ts=preloaded_ts)
    if n_procs == 1:
        return degrade(a.copy(), reason="n_procs=1")
    pool, store = _KEPT, arena
    # A fault plan kills generation 0 only, and its job must inject what it
    # says: it gets workers nobody has used and leaves none.
    fresh = fault_plan is not None
    ranks = range(n_procs)
    stats = ParallelRunStats(
        n_ops=len(ops), n_procs=n_procs, policy=policy, batch=batch,
        per_worker_busy_s=dict.fromkeys(ranks, 0.0),
        per_worker_wait_s=dict.fromkeys(ranks, 0.0),
        per_worker_ops=dict.fromkeys(ranks, 0),
        per_worker_attach_s=dict.fromkeys(ranks, 0.0),
    )
    with _LEASE_LOCK:
        if fresh:
            pool.shutdown()
        if store is None:  # a direct caller's tiles go in here
            try:
                store = take_segment(a, sched, ib)
            except OSError as exc:
                return degrade(a.copy(), reason=f"shared memory unavailable: {exc}")
        # Only a finished run builds the records, and only a finished run
        # puts a segment on the free list.
        stats.segment_recycled = store.records is not None
        success, gauges = False, {}
        try:
            shares = sched.assignment(n_procs, policy)
            if completed_set:
                # Resume: the ops' writes are already in the tiles (loaded from
                # the checkpoint) — pre-flag them so successors fire and no
                # worker re-applies one, restore their T factors so successors
                # can read them, and leave them out of every share.
                for idx in completed_set:
                    store.flags[idx] = 1
                    op = ops[idx]
                    if op.is_factor and preloaded_ts is not None and idx in preloaded_ts:
                        store.put_t(op.t_key, preloaded_ts[idx])
                shares = tuple(tuple(e for e in share if e[1] not in completed_set)
                               for share in shares)

            # Run identity: prefer the recorder's (qr_factor minted it), else the
            # ambient context (resume path), else mint one — direct callers of
            # this function still get workers that know which run they serve.
            if rec is not None:
                run_id = rec.run_id
                for w in ranks:
                    rec.name_lane(w, f"proc {w}")
                rec.name_lane(n_procs, "dispatcher")
            else:
                run_id = _obs_context.current_run_id() or _obs_context.mint_run_id()
            # The pool's own dicts: pool.spawn() replacements show up here.
            procs, conns, generations = pool.procs, pool.conns, pool.generations
            t_run = time.perf_counter()
            # Op indices reach a worker here, and after a death as the ledger's heir.
            lease = pool.lease(n_procs, (
                "job", store.name, a.layout, ops, ib, fault_plan, run_id, batch,
                0 if checkpoint is None else checkpoint.every_ops, rec is not None, shares,
            ))
            stats.spawn_s = time.perf_counter() - t_run
            stats.pipe_messages = lease["reused"]  # a spawned worker's header rode in the fork
            # Every span the parent records for worker-reported work hangs
            # off this root: the workers were leased (or spawned) because of it.
            root_span_id = None
            if rec is not None:
                end = rec.now()
                root_span_id = rec.add_span("pool.lease", "dispatch", end - stats.spawn_s, end,
                                            worker=n_procs, args=lease).span_id

            ledger = Ledger(ops, shares, respawn, len(completed_set))
            attached: set[int] = set()  # whose attach echo for *this* job was read
            last_seen: dict[int, float] = {}  # when each rank last showed life
            flags_up = len(completed_set)  # refreshed from the segment when the pipes are quiet
            if rec is not None:
                # Live state for the metrics sampler (vocabulary in
                # repro.obs.sampler).  Read from the sampler thread while this
                # thread mutates; Recorder.read_gauges tolerates torn reads.
                gauges.update({
                    "parallel.inflight_ops": ledger.inflight,
                    "parallel.workers_alive": ledger.alive.__len__,
                    "pool.workers_alive": pool.alive_count,
                    "parallel.completed_ops": partial(getattr, ledger, "completed"),
                    "parallel.redispatched": partial(getattr, stats, "ops_redispatched"),
                })
                for name, read in gauges.items():
                    rec.register_gauge(name, read)

            wd = Watchdog(timeout_s, what="parallel dispatcher",
                          report=partial(_stall_report, ledger, store, stats))
            # Until every op is booked *and* every live worker's attach echo
            # was read: a job of a few ops can complete first, and the pool's
            # next job would read a straggler's echo as its own.
            while not ledger.finished() or ledger.alive - attached:
                if checkpoint is not None and not ledger.finished():
                    if not ledger.pausing and checkpoint.due():
                        ledger.pause()
                        store.pause[0] = 1
                    if ledger.capture_due():
                        # Capture (cheap memcpys into parent-owned buffers),
                        # let the workers go on, and let the
                        # serialize-fsync-replace overlap with their execution.
                        checkpoint.capture(store, store.t_factor, store.flags.astype(bool))
                        store.pause[0] = 0
                        for w in ledger.captured():
                            with contextlib.suppress(OSError):  # dead: its sentinel is next
                                conns[w].send(("resume",))
                                stats.pipe_messages += 1
                        checkpoint.flush()
                # Wait on every live worker's pipe AND its process sentinel: the
                # sentinel is the heartbeat — it fires the instant the OS reaps
                # a dead worker, with no polling interval to tune.
                sentinel_of = {procs[w].sentinel: (w, procs[w]) for w in ledger.alive}
                conn_of = {conns[w]: w for w in ledger.alive}
                got = conn_wait([*conn_of, *sentinel_of], timeout=min(timeout_s, 0.5))
                t0 = time.perf_counter()
                if not got:
                    # Workers report every ``batch`` ops; between reports the
                    # flags they raise are the sign of progress.
                    flags_up = int(np.count_nonzero(store.flags))
                for obj in got:
                    if obj in sentinel_of:
                        w, proc = sentinel_of[obj]
                        stale = procs[w] is not proc
                    else:
                        w, proc = conn_of[obj], None
                        stale = conns[w] is not obj
                    if stale or w not in ledger.alive:
                        continue  # an event of a worker replaced, or dead, this round
                    msgs, dead = [], proc is not None
                    try:
                        if not dead:  # a readable pipe: one message, or EOF
                            msgs.append(conns[w].recv())
                        # A death: all it sent before, so what it reported is not handed on.
                        while dead and conns[w].poll(0):
                            msgs.append(conns[w].recv())
                    except (EOFError, OSError):
                        dead = True
                    booked = ledger.completed
                    for msg in msgs:
                        stats.pipe_messages += 1
                        if msg[0] == "err":
                            raise ParallelExecutionError(
                                f"worker {w} failed on {ops[msg[2]].describe()}:\n{msg[3]}"
                            )
                        if msg[0] == "attached":
                            _, _, a0, a1, echoed = msg
                            if echoed != run_id:
                                raise ParallelExecutionError(
                                    f"worker {w} attached for run {echoed!r} but this "
                                    f"dispatcher serves run {run_id!r} — job header and "
                                    "worker state disagree"
                                )
                            attached.add(w)
                            last_seen[w] = a1
                            stats.per_worker_attach_s[w] += a1 - a0
                            if rec is not None:
                                rec.add_span("attach", "dispatch", rec.from_monotonic(a0),
                                             rec.from_monotonic(a1), worker=w, parent=root_span_id)
                        elif msg[0] == "parked":
                            ledger.on_parked(w)
                            store.pause[0] = ledger.pausing
                        else:
                            _, _, done, sdc, wait_s, busy_s, t_last, stamps = msg
                            ledger.on_report(w, done)
                            stats.per_worker_wait_s[w] += wait_s
                            stats.per_worker_busy_s[w] += busy_s
                            last_seen[w] = t_last
                            if sdc is not None:
                                _book_sdc(stats, rec, root_span_id, w, sdc)
                            if rec is not None:
                                _record_report(rec, root_span_id, ops, ib, w, done, stamps)
                    if dead:
                        attached.discard(w)  # a replacement echoes for itself
                        last_seen.pop(w, None)
                        conns[w].close()
                        procs[w].join(timeout=5.0)
                        code = procs[w].exitcode
                        stats.workers_died += 1
                        if rec is not None:
                            rec.count(K_WORKER_DEAD)
                            rec.event("worker.dead", worker=w, span=root_span_id,
                                      exit_code=code, generation=generations.get(w))
                            if code == _CRASH_EXIT_CODE:
                                rec.count(K_FAULT_CRASH)
                                rec.event("fault.crash", worker=w, span=root_span_id)
                        _, lost, heir = ledger.on_death(w, bytes(store.flags), code)
                        stats.ops_redispatched += len(lost)
                        if lost and rec is not None:
                            rec.count(K_REDISPATCH_OPS, len(lost))
                            rec.event("retry.redispatch", worker=w, span=root_span_id,
                                      n_ops=len(lost))
                        if heir == w:
                            stats.workers_respawned += 1
                            if rec is not None:
                                rec.count(K_WORKER_RESTART)
                                rec.event("worker.respawn", worker=w, span=root_span_id,
                                          generation=generations.get(w, 0) + 1)
                            pool.spawn(w, lost)
                        elif heir is not None:
                            # Read the next time it naps or runs dry; if it is
                            # dead, its sentinel is next and the entries go on
                            # from the ledger.
                            with contextlib.suppress(OSError):
                                conns[heir].send(("adopt", lost))
                                stats.pipe_messages += 1
                    # What the ledger booked for ``w`` — reported, or flagged at
                    # its death — is the transport's to count, in one place.
                    booked = ledger.completed - booked
                    if booked:
                        stats.per_worker_ops[w] += booked
                        if checkpoint is not None:
                            checkpoint.note_done(booked)
                # An attach echo is progress too: after the last op is booked
                # the loop waits for nothing else.
                wd.note_progress((ledger.completed, flags_up, len(attached),
                                  stats.workers_died, stats.workers_respawned))
                wd.check()
                stats.dispatch_s += time.perf_counter() - t0

            # Hand the workers back to await the next job header, keeping
            # their store attachment (or to the shutdown below).
            for w in ledger.alive:
                with contextlib.suppress(OSError):
                    conns[w].send(("endjob",))
                    stats.pipe_messages += 1
            t_end = time.perf_counter()
            stats.elapsed_s = t_end - t_run
            for w, seen in last_seen.items():  # out of work while others were not
                stats.per_worker_wait_s[w] += t_end - seen
            if checkpoint is not None:
                # Final snapshot: all flags set, so a resume from this archive
                # skips every op (and the file doubles as a completion marker).
                checkpoint.write(store, store.t_factor, store.flags.astype(bool))
            if fresh or stats.workers_died:
                pool.shutdown()
            # The factors are the segment's views — views that keep its pages —
            # whose skeleton is a fact of it, built by the first run over it;
            # the object around them is this run's, what the free list watches.
            if store.records is None:
                store.records = factor_records(sched, store.t_factor)
            factors = TileQRFactors(store.matrix(), store.records, ib)
            stats.bytes_in = store.bytes_in
            success = True
        finally:
            for name in gauges:
                rec.unregister_gauge(name)
            if success:
                _give_back(store, ops, factors)
            else:
                # Workers may be mid-op, wedged, or napping on a flag that will
                # never go up; a clean slate (fresh processes, bumped
                # generations) is the only safe state to return the pool in.
                pool.reset()
                store.destroy()

    return factors, stats

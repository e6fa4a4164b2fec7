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
  ``n_procs`` model workers under the PRT ready-pool policy and gives every
  rank its *share* — its ops in start order, each with the ops it waits on;
* *when an op fires* is decided by the worker that owns it: it walks its
  share and fires an op the moment the completion flags of its predecessors
  are up, looking :data:`LOOKAHEAD` entries ahead — the paper's firing rule,
  with nothing central between two firings.  A worker with nothing ready
  spins briefly, then sleeps on its pipe with a capped back-off;
* the parent only listens: after the lease it sends nothing per op and reads
  one report per worker when the worker stands still (every ``batch`` ops
  where a recorder or a checkpoint reads its count, :func:`_auto_batch`),
  and watches sentinels and the no-progress watchdog;
* every op is one :func:`repro.qr.execute.run_step` call on the shared
  store, the step runner the in-process schedules use;
* there is one worker lifecycle, :class:`WorkerPool`, and workers are
  spawned once per process: every one-shot run leases the module's kept pool
  (ended by :func:`shutdown_workers` or at interpreter exit) on a segment
  whose name is gone when the call returns and which a later call loads
  again once its result is gone (:data:`SPARE_SEGMENTS`); a
  :class:`~repro.qr.session.QRSession` keeps a pool of its own and one
  segment per cached plan.  A worker owns its end of one pipe and the last
  attachments it made — it closes everything else it was forked with,
  so it exits the moment its parent is gone, however the parent died.

Because the dependency graph totally orders every tile's mutations, any
legal schedule produces factors **bit-identical** to the serial reference.
When ``n_procs == 1`` or shared memory is unavailable the executor falls
back to the serial reference (``stats.mode``, ``fallback.serial``).

Fault tolerance: the parent waits on every worker's pipe *and* its process
sentinel, so a dead worker is detected the moment the OS reaps it; one that
is alive but silent is caught by the no-progress
:class:`~repro.faults.Watchdog` (``timeout_s`` without a report, a death or
a newly raised flag).  What a dead worker had not *flagged* goes to its
replacement (``respawn=True``) or to a survivor, which merges the *adopt*
message into its list by position in the assignment's global order; what it
had flagged is booked from the flags, reported or not.  Handing on is safe
because an op runs only while its flag is clear and the flag goes up only
after the op's tile mutations (a QR kernel is destructive — factoring a tile
twice would corrupt it), no successor fires before the flag is up, and an op
is handed on only after its owner's death is confirmed.  The one unprotected
window is a worker dying *inside* a kernel's tile writes (docs/robustness.md).
:class:`ParallelExecutionError` is raised only once an op was handed on more
than :data:`MAX_REDISPATCH` times or every worker is dead with respawn off.

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
from multiprocessing import resource_tracker
from multiprocessing.connection import Connection, wait as conn_wait
from select import select

import numpy as np

from ..faults.watchdog import Watchdog
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
from ..tiles.shared import _FORK_LOCK, SharedTileStore, t_factor_key
from ..util.errors import ParallelExecutionError
from ..util.validation import check_positive_int, require
from .checksum import SDCGuard
from .dag import op_dependency_graph
from .execute import run_step
from .ops import Op
from .reference import TileQRFactors, execute_ops, factor_records
from .schedule import Schedule, list_schedule

__all__ = [
    "ParallelRunStats",
    "serial_fallback",
    "WorkerPool",
    "execute_ops_parallel",
    "shutdown_workers",
    "default_n_procs",
]

#: Exit code used by FaultPlan-scheduled worker crashes, so the parent can
#: tell an injected crash (counted under ``fault.crash``) from a real one.
_CRASH_EXIT_CODE = 37

#: Times one op may be handed on after worker deaths before the run fails
#: with :class:`~repro.util.errors.ParallelExecutionError`.
MAX_REDISPATCH = 2

#: Entries of its list a worker examines for one whose flags are all up.
#: Start order is the model's guess; real kernels finish in another order,
#: and a short look-ahead lets a worker do useful work while the entry at
#: its head waits.  Measured (docs/performance.md, Dispatch): 1 — strictly
#: in order — costs the tall workload a sixth of its window and the burst
#: one a third; 4, 8 and 16 cannot be told apart.
LOOKAHEAD = 8

#: Segments a finished one-shot run may leave mapped for the next one, and
#: attachments a worker keeps (of either pool).  Two, because ``f =
#: qr_factor(...)`` in a loop still holds result *k* while call *k + 1* runs.
SPARE_SEGMENTS = 2

#: Scans of the look-ahead window that may fail back to back before a worker
#: with nothing ready starts to sleep: some 20 us, the length of a short
#: kernel, so a flag raised by a neighbour mid-op is seen without a syscall.
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
    # Parent traffic: pipe messages sent or read, bytes tiled into the
    # segment, bytes copied out of it (``QRFactorization.detach``).
    pipe_messages: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    # Whether the job ran on a mapping an earlier run left, and each worker's
    # seconds from header to attach echo (mapping and view building, if any).
    segment_recycled: bool = False
    per_worker_attach_s: dict[int, float] = field(default_factory=dict)
    elapsed_s: float = 0.0
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
        rec.add_span(
            "fallback", "dispatch", end - elapsed, end, worker=0,
            args={"reason": reason},
        )
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
    """Fire one job's share of the schedule until a terminator arrives.

    ``share`` is the rank's ``(seq, idx, waits)`` entries in start order
    (:func:`repro.qr.schedule.list_schedule`).  The worker fires the first
    of its next :data:`LOOKAHEAD` entries whose ``waits`` have all raised
    their completion flags (:meth:`SharedTileStore.ready
    <repro.tiles.shared.SharedTileStore.ready>`) — one 1-wide
    :func:`repro.qr.execute.run_step`, timed on its own.  With none ready it
    rescans :data:`SPIN_SCANS` times, then naps on its pipe
    (:data:`NAP_S`), where the parent's messages reach it.  With its list
    empty it blocks on the pipe and uses no CPU.

    Messages to the parent: ``("done", rank, [idx, ...], sdc, wait_s, busy_s,
    t_last, stamps)`` every ``batch`` ops and when the list runs empty — the
    :class:`SDCGuard` delta, the seconds spent with nothing ready and inside
    ops since the previous report, when the last op ended and, only when
    ``stamped`` (the parent records spans), the absolute ``perf_counter``
    ``(t0, t1)`` of each op;
    ``("parked", rank)`` after the report it flushes when it finds the
    segment's pause byte up — or has itself fired ``park_every`` ops since it
    last stood still (the checkpoint's ``every_ops``; 0: no checkpoint), so
    that the work between two snapshots is bounded by what the workers
    count, not by how fast the parent reacts; ``("err", rank, idx,
    traceback)``.  Messages from the parent: ``("adopt", entries)`` — a dead
    rank's entries, merged by ``seq``; ``("resume",)`` to a parked worker; a
    terminator.

    Before each op the worker consults the :class:`~repro.faults.FaultPlan`
    crash schedule (generation 0 only) and ``os._exit``\\ s when told to;
    ``ops_done`` restarts at zero per job, so in a session the same schedule
    applies to every ``factor`` call until the worker is respawned.  An op
    only runs while its completion flag is clear, and ``run_step`` raises it
    right after the op's tile mutations — under an armed SDC guard only once
    its output verified; an op handed on whose flag is already up is
    reported done without running.

    Returns the terminator received: ``None`` (shut the worker down),
    ``("endjob",)`` (job complete, the worker keeps its attachment and waits
    for the next job), ``("detach",)`` (job complete, drop the attachment,
    then wait: a fault-plan run leaves nothing behind), or the string
    ``"err"`` after an execution error was reported.
    """
    crashy = fault_plan is not None and fault_plan.faulty_workers
    guard = None
    if fault_plan is not None and fault_plan.faulty_sdc:
        guard = SDCGuard(fault_plan, ops)
    ops_done = since_park = 0
    # Next entry last: firing the k-th entry of the window is ``pop(-k)``.
    todo = list(reversed(share))
    done: list[int] = []
    stamps = [] if stamped else None
    wait_s = busy_s = 0.0
    ready, publish, pause, flags = store.ready, store.publish, store.pause, store.flags
    pipe_fd = conn.fileno()

    def report() -> None:
        nonlocal done, stamps, wait_s, busy_s
        conn.send(("done", rank, done, guard.take_delta() if guard is not None else None,
                   wait_s, busy_s, t_prev, stamps))
        done, stamps, wait_s, busy_s = [], [] if stamped else None, 0.0, 0.0

    def hear(until_resume: bool = False):
        """Block for the parent's word.  An adopt message is merged and the
        wait ends (unless parked: only ``resume`` ends that one); anything
        else is a terminator and is returned as ``(terminator,)``."""
        nonlocal todo
        while True:
            msg = conn.recv()
            if msg is None or msg[0] not in ("adopt", "resume"):
                return (msg,)
            if msg[0] == "adopt":
                todo = sorted(todo + list(msg[1]), reverse=True)
            if not until_resume or msg[0] == "resume":
                return None

    t_prev = time.perf_counter()
    while True:
        waited, scans, nap = False, 0, NAP_S[0]
        while True:  # until an entry of the window may fire
            end = None
            if not todo or pause[0] or (park_every and since_park >= park_every):
                # Out of work, or a checkpoint is due: report, then stand
                # still until the parent's word.
                if done:
                    report()
                # The parent captures only while every worker stands still,
                # so the count restarts at every standstill — dry or parked —
                # and never runs ahead of the checkpoint's own.
                since_park = 0
                parking = bool(todo)
                if parking:
                    conn.send(("parked", rank))
                end = hear(until_resume=parking)
            else:
                for k in range(1, min(LOOKAHEAD, len(todo)) + 1):
                    if ready(todo[-k][2]):
                        break
                else:
                    k = 0
                if k:
                    break
                scans += 1
                if scans > SPIN_SCANS:
                    # ``select`` keeps microseconds (``conn.poll`` rounds its
                    # timeout up to a millisecond).
                    if select((pipe_fd,), (), (), nap)[0]:
                        end = hear()
                    nap = min(2.0 * nap, NAP_S[1])
            waited = True
            if end is not None:
                return end[0]
        idx = todo.pop(-k)[1]
        if crashy and fault_plan.worker_crash(rank, generation, ops_done):
            os._exit(_CRASH_EXIT_CODE)
        t0 = time.perf_counter()
        if waited:
            wait_s += t0 - t_prev
        if not flags[idx]:
            try:
                run_step(store, ops, [idx], ib, guard, publish)
            except BaseException:
                conn.send(("err", rank, idx, traceback.format_exc()))
                return "err"
        ops_done += 1
        since_park += 1
        t_prev = time.perf_counter()
        done.append(idx)
        busy_s += t_prev - t0
        if stamped:
            stamps.append((t0, t_prev))
        if len(done) >= batch:
            report()


#: Parent-side end of every live worker pipe in this process, whichever pool
#: owns it.  A forked child inherits a copy of each, and a pipe delivers EOF
#: only once *every* copy of its far end is closed — so every forked child
#: closes them all first thing (:func:`_after_fork_in_child`), or a worker
#: would outlive a parent that died without saying goodbye.  A pipe is made
#: and listed under :data:`~repro.tiles.shared._FORK_LOCK`, which every fork
#: takes, so no child inherits an end the set does not hold yet.
_PARENT_ENDS: "weakref.WeakSet[Connection]" = weakref.WeakSet()


def _drop_inherited() -> None:
    """Close what a worker was forked with but does not own.

    A worker owns its end of one pipe and the attachments it made itself.
    The parent-side pipe ends went at the fork (:func:`_after_fork_in_child`)
    and the parent's mappings of shared segments never came along
    (``MADV_DONTFORK``, :class:`~repro.tiles.shared.SharedTileStore`); here
    goes the resource tracker's pipe — workers attach untracked and never
    talk to it, while the tracker waits for the last copy of that descriptor
    before it exits.  The parent's *objects* over those mappings (stores,
    one-shot results) did come along, over addresses now free for the
    worker's own attachments: nothing here reads them, and ``gc.freeze``
    keeps the collector from ever finalizing one.
    """
    gc.freeze()
    tracker = resource_tracker._resource_tracker
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        os.close(fd)
        tracker._fd = None


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
    the pipe after each ``("endjob",)`` / ``("detach",)``, and a bare
    ``None`` instead of a header ends the worker.

    A header names only what the worker does not hold yet.  ``layout`` and
    ``ops`` both ``None`` means "a segment you map": the worker keeps its
    last :data:`SPARE_SEGMENTS` attachments by name (a name stays a unique id
    after ``unlink``), each with the schedule it was attached under, so a
    warm ``session.factor`` call and a one-shot call on a recycled segment
    cost it no re-attach and no unpickling.
    ``ops`` alone ``None`` means "a new segment, the operation list of your
    previous job": the worker attaches by name with its cached list and
    the offset tables it derived for it (it keeps both as a
    :class:`~repro.qr.schedule.Schedule` of its own) — a one-shot call that
    found no spare pickles no op list and derives no
    table.  ``share`` ``None`` means "the share of your previous job" (the
    memoized assignment is one object per geometry, worker count and
    policy).  Either way ``spawn_s`` on the parent collapses to a couple of
    pipe messages.
    """
    _drop_inherited()
    # A forked child inherits the parent's recorder; spans must be recorded
    # by the parent from the reported stamps, not duplicated here.  The run
    # identity *does* survive the boundary: it arrives in the job header
    # and is echoed in the attach handshake, so the parent can verify the
    # worker is serving the run it thinks it is.
    _obs_record._RECORDER = None
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
            kept = held.pop(shm_name, None)
            if kept is None:
                if ops is not None:
                    cached = Schedule(None, ops, ib, layout)
                kept = SharedTileStore.attach(shm_name, layout, cached, ib), cached
            held[shm_name] = kept
            store, cached = kept
            if len(held) > SPARE_SEGMENTS:
                held.pop(next(iter(held)))[0].close()
            conn.send(("attached", rank, t_attach0, time.perf_counter(), run_id))
            end = _serve_job(store, cached.ops, ib, fault_plan, rank, generation,
                             conn, cached_share, batch, park_every, stamped)
            if end is None or end == "err":
                break
            if end == ("detach",):
                held.pop(shm_name)[0].close()
            job = conn.recv()
    except (EOFError, ConnectionError, KeyboardInterrupt):  # parent went away: just exit
        pass
    finally:
        for kept in held.values():
            kept[0].close()
        conn.close()


class WorkerPool:
    """Worker processes leased out one factorization at a time.

    Each worker runs :func:`_worker_main`: a loop over *jobs*, where a job
    is a header naming the shared segment and the worker's share of the
    schedule, ended by ``("endjob",)`` or ``("detach",)``.  The pool tracks
    which segments each worker maps (:attr:`known`, its LRU mirrored) and which
    operation list and share it was last sent, and slims the header
    accordingly (see :func:`_worker_main`): no layout and no op list for a
    segment it maps, no op list for a new segment under the same list, no share
    when it is the object the worker already holds — a warm lease costs one
    small pipe message per worker.  A
    :class:`~repro.qr.session.QRSession` keeps its pool across calls; every
    one-shot :func:`execute_ops_parallel` leases the one this module keeps
    for the process (:func:`shutdown_workers` ends its workers), which also
    keeps the segments its last clean jobs ran on (:attr:`spares`): unlinked,
    still mapped here and in the workers, and loaded again by a call under
    their op list once the result made of them is gone (:meth:`take_spare`).

    Generation tags are the pool's crash-recovery bookkeeping, shared with
    the parent loop in :func:`execute_ops_parallel` (the
    ``procs``/``conns``/``generations`` dicts are handed over *by
    reference* during a lease, so mid-job respawns are visible to both
    sides).  A rank's generation only ever increases — across respawns,
    :meth:`reset`, and successive jobs — so a
    :class:`~repro.faults.FaultPlan`, which kills generation 0 only, never
    re-kills a replacement.
    """

    def __init__(self, size: int):
        check_positive_int(size, "pool size")
        self.size = size
        self.procs: dict[int, mp.process.BaseProcess] = {}
        self.conns: dict[int, Connection] = {}
        self.generations: dict[int, int] = {}
        #: rank -> names of the segments the worker maps, oldest first.
        self.known: dict[int, list[str]] = {}
        #: ``(handle, mapping, weakref(root), ops, ib)`` per segment a clean
        #: one-shot job left behind, newest first.
        self.spares: list[tuple] = []
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
            try:
                old.close()
            except OSError:
                pass
        generation = self.generations.get(rank, -1) + 1
        with _FORK_LOCK:  # no fork between the pipe and its listing
            parent_conn, child_conn = self._ctx.Pipe()
            _PARENT_ENDS.add(parent_conn)
        p = self._ctx.Process(
            target=_worker_main,
            args=(rank, generation, child_conn, self._job[:-1] + (share,)),
            daemon=True,
            name=f"qr-pool-{rank}g{generation}",
        )
        p.start()
        child_conn.close()
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
        self.conns[rank].send(job + (None if self._share_of.get(rank) is share else share,))
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
        ``pool.lease`` span.
        """
        self._job = job
        spawned = reused = 0
        for rank in range(k):
            p = self.procs.get(rank)
            if p is None or not p.is_alive():
                self.spawn(rank)
                spawned += 1
                continue
            reused += 1
            try:
                self._send_job(rank)
            except (BrokenPipeError, OSError):
                # Died between the liveness check and the send: one retry
                # with a fresh process (the parent loop's watchdog and
                # respawn machinery take over from here).
                self.spawn(rank)
        rec = _obs_record._RECORDER
        if rec is not None:
            rec.count(K_POOL_LEASES)
            if reused:
                rec.count(K_POOL_REUSED, reused)
            rec.event("pool.lease", n_procs=k, spawned=spawned, reused=reused)
        return {"n_procs": k, "spawned": spawned, "reused": reused}

    def holds(self, name: str, k: int) -> bool:
        """Whether ranks ``0..k-1`` are alive and map segment ``name`` — the
        only ones that can serve a segment whose name is gone."""
        return all(name in self.known.get(w, ()) and self.procs[w].is_alive() for w in range(k))

    def take_spare(self, ops, ib: int, k: int):
        """``(handle, mapping)`` of the newest spare laid out for ``ops`` and
        ``ib`` that nobody reads any more (its root is dead) and ranks
        ``0..k-1`` map, or ``None``; taken under a lock, so by one caller."""
        with _FORK_LOCK:
            spares = self.spares  # one list, whoever ends the pool meanwhile
            for i, (shm, buf, root, its_ops, its_ib) in enumerate(spares):
                if its_ops is ops and its_ib == ib and root() is None and self.holds(shm.name, k):
                    del spares[i]
                    return shm, buf

    def reset(self) -> None:
        """Kill every worker after a failed job.

        Workers may be wedged, mid-op or waiting on a flag nobody will
        raise; fresh processes are the
        only state safe to lease from again.  Generations are preserved
        (and bump on the next spawn), so an injected-fault generation
        never reappears.
        """
        for p in self.procs.values():
            if p.is_alive():
                p.terminate()
        for p in self.procs.values():
            p.join(timeout=5.0)
        self._forget_workers()

    def _forget_workers(self) -> None:
        for conn in self.conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self.procs.clear()
        self.conns.clear()
        self.known.clear()
        self._ops_of.clear()
        self._share_of.clear()
        self.spares = []  # nobody left who maps them

    def shutdown(self) -> None:
        """Graceful stop: ask each worker to exit, then make sure it did."""
        for conn in self.conns.values():
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.perf_counter() + 5.0
        for p in self.procs.values():
            p.join(timeout=max(0.1, deadline - time.perf_counter()))
            if p.is_alive():
                p.terminate()
        self._forget_workers()
        self.generations.clear()


#: The process's kept pool: every one-shot run leases it, so workers are
#: forked once per process and grow to the largest ``n_procs`` asked for
#: (each lease names its own ``k``; the pool's ``size`` is not read).
#: Idle it pins the copy-on-write pages of its parent at fork time, a pipe
#: per worker and at most :data:`SPARE_SEGMENTS` unlinked segments.
_KEPT = WorkerPool(1)

#: Serialises the kept pool between one-shot calls from different threads:
#: held from before the lease until the workers are handed back (or reset).
_LEASE_LOCK = threading.Lock()


def shutdown_workers() -> None:
    """End the workers one-shot ``backend="parallel"`` calls have left idle.

    Idempotent, and never required: the next one-shot call forks new ones,
    and at interpreter exit ``multiprocessing`` stops them as it stops any
    daemon.  Call it to give back what idle workers pin (spare segments
    included: then a segment belongs to its result alone), or before a test
    that relies on what a worker inherits when it is forked.  A
    :class:`~repro.qr.session.QRSession` has its own pool and ``close()``.
    """
    with _LEASE_LOCK:
        _KEPT.shutdown()


def _after_fork_in_child() -> None:
    """Nothing of the parent's workers belongs to a forked child.

    Worker or not, the child closes its copies of the parent-side pipe ends
    (see :data:`_PARENT_ENDS`), forgets the kept workers — they are its
    parent's children, and the spares are mapped in the parent only
    (``MADV_DONTFORK``); a one-shot call made here makes its own — and
    replaces the lease lock, which a thread that does not exist here may
    hold.
    """
    global _LEASE_LOCK
    _LEASE_LOCK = threading.Lock()
    for conn in list(_PARENT_ENDS):
        conn.close()
    _KEPT._forget_workers()
    _KEPT.generations.clear()


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


def execute_ops_parallel(
    a: TileMatrix,
    ops: list[Op],
    ib: int,
    *,
    n_procs: int | None = None,
    policy: str = "lazy",
    batch: int | None = None,
    timeout_s: float = 120.0,
    fault_plan=None,
    respawn: bool = True,
    assignment=None,
    pool=None,
    arena=None,
    checkpoint=None,
    skip=None,
    preloaded_ts=None,
) -> tuple[TileQRFactors, ParallelRunStats]:
    """Run an operation list on ``a`` across worker processes.

    The factorization happens in the job's shared segment.  Without
    ``arena`` the tiles of ``a`` are copied into a fresh one and ``a`` is
    *not* mutated (unlike :func:`~repro.qr.reference.execute_ops`); with it,
    ``a`` is the :class:`TileMatrix` of that segment's views the caller
    loaded.  The :class:`TileQRFactors` returned *are* the segment — its
    tile and ``T`` views, one skeleton per store — whose
    pages nobody writes while one of those arrays, or a view of one, is alive
    (:class:`~repro.tiles.shared.SharedTileStore`).  A one-shot segment's name
    is unlinked before this function returns and its mapping kept as a spare
    for a later call; a session's is loaded again by
    the next call on its geometry, which is when
    :class:`~repro.qr.api.QRFactorization` stops handing these factors out.

    Parameters
    ----------
    a, ops, ib:
        As for the serial executor; ``ops`` must come from
        :func:`repro.qr.ops.expand_plans`.
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
        Spawn a replacement process for each dead worker (capped at
        ``n_procs`` respawns per run), which takes over what the dead one
        had not flagged done.  With ``respawn=False`` (or the budget spent, or
        on a recycled segment, whose name is gone) a
        survivor adopts it, and the run fails only when none remain.
    assignment:
        ``assignment(n_procs, policy)`` returns the shares of *exactly
        these* ``ops`` (:func:`repro.qr.schedule.list_schedule`) —
        :func:`~repro.qr.backends.run_backend` and a session pass the
        memoized :meth:`Schedule.assignment
        <repro.qr.schedule.Schedule.assignment>`, so only the first call on
        a geometry derives it and a worker that holds its share is not sent
        it again.  ``None`` (the default, for direct callers) derives graph
        and shares here.
    pool, arena:
        ``arena`` is the job's one segment, a
        :class:`~repro.tiles.shared.SharedTileStore` into which the caller
        has already loaded the input (flags cleared); ``pool`` the
        :class:`WorkerPool` of a persistent session (``docs/sessions.md``),
        which the job is leased to and handed back to with ``("endjob",)``,
        and which never comes without the session's arena — both outlive
        this call.  Without ``pool`` the run is *one-shot*: it owns its
        segment from here on — the ``arena`` the run envelope tiled the input
        into (:func:`repro.qr.backends.stage_input`: a fresh one, or a spare
        of the kept pool), or one made here from
        ``a`` — takes its name away on every way out, and leases the pool this
        module keeps for the process (one caller at a time).  A clean job
        leaves its mapping to the pool as a spare; a recycled ``arena`` that a
        leased rank does not map is moved to a fresh named segment first.
        The workers outlive the call (:func:`shutdown_workers` ends them)
        except under a ``fault_plan``, which runs on fresh generation-0
        workers, ends with ``("detach",)`` and leaves none and no spare, and
        after a job during which one died.
    checkpoint:
        Optional bound :class:`~repro.qr.persist.CheckpointStore`.  When
        a snapshot falls due the parent raises the segment's pause byte;
        each worker sees it before its next op, flushes its report, says it
        is parked and waits (a worker also parks of its own accord after
        ``every_ops`` ops since it last stood still, and the first
        ``parked`` message raises the byte if it is not up yet — a parked
        worker always has a capture coming).  Once every live worker is
        parked or out of work no op is mid-execution, so the completion
        flags describe a consistent, predecessor-closed frontier: the parent
        captures the snapshot from the shared store, lowers the byte and
        tells the parked workers to resume.  The done mask is the flags, not
        the parent's report ledger, here as at a worker's death.
    skip, preloaded_ts:
        Resume support (:func:`~repro.qr.persist.resume_factorization`):
        op indices whose writes are already present in ``a``'s tiles, and
        the ``T`` factors (op index -> array) of the completed factor
        ops.  Completed ops are pre-flagged, pre-counted, and left out of
        every share; their ``T`` arrays are loaded into the shared
        store's slots so successors read them as if computed this run.
    """
    require(a.m >= a.n, f"tile QR requires m >= n, got {a.m} x {a.n}")
    if n_procs is None:
        n_procs = default_n_procs()
    n_procs = max(1, min(n_procs, len(ops)))
    rec = _obs_record._RECORDER
    if batch is None:
        batch = _auto_batch(len(ops), n_procs, rec is not None or checkpoint is not None)
    completed_set = frozenset() if skip is None else frozenset(int(i) for i in skip)

    def degrade(reason: str):
        return serial_fallback(
            a.copy(), ops, ib, reason, policy, checkpoint=checkpoint,
            skip=completed_set or None, preloaded_ts=preloaded_ts,
        )

    if n_procs == 1:
        return degrade("n_procs=1")
    # A session's segment already holds the tiles and cleared flags (the
    # caller loaded the input) and outlives this call with its pool.  A
    # one-shot run's segment ends with the call in name — its pages go on as
    # the factors, and as a spare of the process's kept pool (one caller at a
    # time), whose workers keep their attachment like a session's.
    one_shot = pool is None
    require(one_shot or arena is not None, "a session's pool runs on its arena")
    store, lock = arena, contextlib.nullcontext()
    if one_shot:
        pool, lock = _KEPT, _LEASE_LOCK
    # A fault plan kills generation 0 only, and its job must inject what it
    # says: on the kept pool it gets workers nobody has used and leaves none.
    fresh = one_shot and fault_plan is not None
    terminator = ("detach",) if fresh else ("endjob",)
    ranks = range(n_procs)
    stats = ParallelRunStats(
        n_ops=len(ops), n_procs=n_procs, policy=policy, batch=batch,
        per_worker_busy_s=dict.fromkeys(ranks, 0.0),
        per_worker_wait_s=dict.fromkeys(ranks, 0.0),
        per_worker_ops=dict.fromkeys(ranks, 0),
        per_worker_attach_s=dict.fromkeys(ranks, 0.0),
    )
    with lock:
        if fresh:
            pool.shutdown()
        if one_shot and (store is None or store.recycled and not pool.holds(store.name, n_procs)):
            # A direct caller's tiles go in here; so do those of a segment
            # without a name that a rank about to be leased does not map.
            try:
                store = SharedTileStore.create(a, ops, ib)
            except OSError as exc:
                return degrade(f"shared memory unavailable: {exc}")
        stats.segment_recycled = store.recycled
        respawn = respawn and not store.recycled  # nothing to attach by: survivors adopt
        success = False
        try:
            if assignment is not None:
                shares = assignment(n_procs, policy)
            else:  # a direct caller; run_backend and sessions pass the memo's
                graph = op_dependency_graph(ops)  # lint: disable=derive-once
                shares = list_schedule(ops, graph, ib, n_procs, policy)  # lint: disable=derive-once
            if completed_set:
                # Resume: the ops' writes are already in the tiles (loaded from
                # the checkpoint) — pre-flag them so successors fire and no
                # worker re-applies one, restore their T factors so successors
                # can read them, and leave them out of every share.
                for idx in completed_set:
                    store.flags[idx] = 1
                    op = ops[idx]
                    if op.is_factor and preloaded_ts is not None and idx in preloaded_ts:
                        store.put_t(t_factor_key(op), preloaded_ts[idx])
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
            # The pool's own dicts, so pool.spawn() replacements are visible
            # to the loop below.
            procs, conns, generations = pool.procs, pool.conns, pool.generations
            t_run = time.perf_counter()
            # The one place op indices go to a worker: its share at lease time
            # (and, after a death, what handle_death builds from the shares).
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
                root_span_id = rec.add_span(
                    "pool.lease", "dispatch", end - stats.spawn_s, end,
                    worker=n_procs, args=lease,
                ).span_id

            alive = set(ranks)
            # Workers whose attach echo for *this* job has been read.
            attached: set[int] = set()
            # The ledger: what each live rank was given (its share, then what
            # it took over), how much of it is still unreported, which ops
            # were reported by anyone, and when each rank last showed life.
            given: dict[int, list] = {w: [shares[w]] for w in ranks}
            owed = {w: len(shares[w]) for w in ranks}
            reported = bytearray(len(ops))
            last_seen: dict[int, float] = {}
            attempts = [0] * len(ops)
            respawns_used = 0
            completed = len(completed_set)
            flags_up = completed  # refreshed from the segment when the pipes are quiet
            # Checkpoint park state: the pause byte is up, and who said so far
            # that it stands still.
            pausing = False
            parked: set[int] = set()

            if rec is not None:
                # Live state for the metrics sampler (vocabulary in
                # repro.obs.sampler).  Read from the sampler thread while this
                # thread mutates; Recorder.read_gauges tolerates torn reads.
                rec.register_gauge(
                    "parallel.inflight_ops", lambda: sum(list(owed.values()))
                )
                rec.register_gauge("parallel.workers_alive", lambda: len(alive))
                rec.register_gauge("pool.workers_alive", pool.alive_count)
                rec.register_gauge("parallel.completed_ops", lambda: completed)
                rec.register_gauge(
                    "parallel.redispatched", lambda: stats.ops_redispatched
                )

            def book(w: int, idxs) -> None:
                """Ops of ``w`` are done: said so in a report, or found flagged
                at its death."""
                nonlocal completed
                completed += len(idxs)
                owed[w] -= len(idxs)
                if checkpoint is not None:
                    checkpoint.note_done(len(idxs))
                stats.per_worker_ops[w] += len(idxs)
                for idx in idxs:
                    reported[idx] = 1

            def handle_msg(w: int, msg) -> None:
                """Book one worker message (attached / done / parked / err)."""
                nonlocal pausing
                stats.pipe_messages += 1
                if msg[0] == "err":
                    _, _, idx, tb = msg
                    raise ParallelExecutionError(
                        f"worker {w} failed on {ops[idx].describe()}:\n{tb}"
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
                        rec.add_span(
                            "attach", "dispatch",
                            rec.from_monotonic(a0), rec.from_monotonic(a1),
                            worker=w, parent=root_span_id,
                        )
                    return
                if msg[0] == "parked":
                    # On the pause byte or on its own count: either way it
                    # waits for a capture, so one is due — no parked worker is
                    # ever left to a ``resume`` that nothing would send.
                    parked.add(w)
                    pausing = True
                    store.pause[0] = 1
                    return
                _, _, done, sdc, wait_s, busy_s, t_last, stamps = msg
                if sdc is not None:
                    inj, det, rcv = sdc
                    stats.sdc_injected += inj
                    stats.sdc_detected += det
                    stats.sdc_recovered += rcv
                    if rec is not None:
                        for key, etype, n in (
                            (K_SDC_INJECTED, "sdc.injected", inj),
                            (K_SDC_DETECTED, "sdc.detected", det),
                            (K_SDC_RECOVERED, "sdc.recovered", rcv),
                        ):
                            if n:
                                rec.count(key, n)
                                rec.event(etype, worker=w, span=root_span_id, n=n)
                book(w, done)
                stats.per_worker_wait_s[w] += wait_s
                stats.per_worker_busy_s[w] += busy_s
                last_seen[w] = t_last
                if rec is not None:
                    rec.count(K_DISPATCH_BATCHES)
                    for idx, (op_t0, op_t1) in zip(done, stamps):
                        # The worker's stamps become the op's kernel span on its
                        # lane, charged the op's exact flop count.
                        op = ops[idx]
                        rec.record_kernel(
                            op.kind, KERNEL_CATEGORY[op.kind],
                            kernel_flops(op.kind, op.m2, op.k, op.q, ib),
                            rec.from_monotonic(op_t0), rec.from_monotonic(op_t1), w,
                            op=idx, parent=root_span_id,
                        )

            def handle_death(w: int, *, proc=None, via_conn=None) -> None:
                """Confirmed worker death: drain, hand its ops on, maybe respawn.

                ``proc`` / ``via_conn`` identify which incarnation of rank ``w``
                the triggering event (sentinel / EOF) belongs to; a stale event
                for an already-replaced worker is ignored.
                """
                nonlocal respawns_used
                if w not in alive:
                    return
                if proc is not None and procs[w] is not proc:
                    return
                if via_conn is not None and conns[w] is not via_conn:
                    return
                alive.discard(w)
                # Drain reports the worker managed to send before dying, so a
                # completed-and-reported op is never handed on.
                try:
                    while conns[w].poll(0):
                        handle_msg(w, conns[w].recv())
                except (EOFError, OSError):
                    pass
                attached.discard(w)  # a replacement echoes for itself
                parked.discard(w)
                last_seen.pop(w, None)
                conns[w].close()
                procs[w].join(timeout=5.0)
                code = procs[w].exitcode
                stats.workers_died += 1
                if rec is not None:
                    rec.count(K_WORKER_DEAD)
                    rec.event(
                        "worker.dead", worker=w, span=root_span_id,
                        exit_code=code, generation=generations.get(w),
                    )
                    if code == _CRASH_EXIT_CODE:
                        rec.count(K_FAULT_CRASH)
                        rec.event("fault.crash", worker=w, span=root_span_id)
                # The done mask is the flags, not the reports: a flag goes up
                # only after the op's tile writes (and their verification), and
                # nobody raises one of a dead rank's.  What it flagged and had
                # not reported yet is booked; what it leaves undone goes on, in
                # the assignment's global order.
                unreported = sorted(e for es in given[w] for e in es if not reported[e[1]])
                up = bytes(store.flags)
                book(w, [e[1] for e in unreported if up[e[1]]])
                lost = tuple(e for e in unreported if not up[e[1]])
                given[w], owed[w] = [], 0
                for _, idx, _ in lost:
                    attempts[idx] += 1
                    if attempts[idx] > MAX_REDISPATCH:
                        raise ParallelExecutionError(
                            f"worker {w} died (exit code {code}) and "
                            f"{ops[idx].describe()} was already re-dispatched "
                            f"{MAX_REDISPATCH} time(s) — retries exhausted"
                        )
                if lost:
                    stats.ops_redispatched += len(lost)
                    if rec is not None:
                        rec.count(K_REDISPATCH_OPS, len(lost))
                        rec.event(
                            "retry.redispatch", worker=w, span=root_span_id,
                            n_ops=len(lost),
                        )
                heir = w
                if respawn and respawns_used < n_procs:
                    respawns_used += 1
                    stats.workers_respawned += 1
                    if rec is not None:
                        rec.count(K_WORKER_RESTART)
                        rec.event(
                            "worker.respawn", worker=w, span=root_span_id,
                            generation=generations.get(w, 0) + 1,
                        )
                    pool.spawn(w, lost)
                    alive.add(w)
                elif not alive:
                    raise ParallelExecutionError(
                        f"worker {w} died (exit code {code}) and no workers remain"
                        + ("; respawn budget exhausted" if respawn else "; respawn disabled")
                    )
                elif lost:
                    # The survivor with the least left to do adopts them; it
                    # reads the message the next time it naps or runs dry.
                    heir = min(alive, key=lambda v: (owed[v], v))
                    try:
                        conns[heir].send(("adopt", lost))
                        stats.pipe_messages += 1
                    except (BrokenPipeError, OSError):
                        pass  # its own sentinel is next; the entries go on from its ledger
                given[heir].append(lost)
                owed[heir] += len(lost)

            def _stall_report() -> str:
                return (
                    f"{completed}/{len(ops)} ops reported, "
                    f"{int(np.count_nonzero(store.flags))} flagged done; "
                    f"alive workers {sorted(alive)}; unreported per worker "
                    f"{ {w: owed[w] for w in sorted(alive)} }; parked {sorted(parked)}; "
                    f"died {stats.workers_died}, respawned {stats.workers_respawned}"
                )

            wd = Watchdog(timeout_s, what="parallel dispatcher", report=_stall_report)
            while completed < len(ops):
                if checkpoint is not None and not pausing and checkpoint.due():
                    pausing = True
                    store.pause[0] = 1
                if pausing and all(w in parked or not owed[w] for w in alive):
                    # Every live worker stands still — parked, or blocked on
                    # its pipe with nothing left — so no op is mid-execution
                    # and the completion flags are a consistent, predecessor-
                    # closed frontier.  Capture (cheap memcpys into parent-owned
                    # buffers), let the workers go on, and let the
                    # serialize-fsync-replace overlap with their execution.
                    checkpoint.capture(store, store.t_factor, store.flags.astype(bool))
                    pausing = False
                    store.pause[0] = 0
                    for w in sorted(parked):
                        try:
                            conns[w].send(("resume",))
                            stats.pipe_messages += 1
                        except (BrokenPipeError, OSError):
                            pass  # dead: its sentinel is handled below
                    parked.clear()
                    checkpoint.flush()
                # Wait on every live worker's pipe AND its process sentinel: the
                # sentinel is the heartbeat — it fires the instant the OS reaps
                # a dead worker, with no polling interval to tune.
                sentinel_of = {procs[w].sentinel: (w, procs[w]) for w in alive}
                conn_of = {conns[w]: w for w in alive}
                got = conn_wait(
                    list(conn_of) + list(sentinel_of), timeout=min(timeout_s, 0.5)
                )
                t0 = time.perf_counter()
                if not got:
                    # Workers report every ``batch`` ops; between reports the
                    # flags they raise are the sign of progress.
                    flags_up = int(np.count_nonzero(store.flags))
                for obj in got:
                    if obj in sentinel_of:
                        w, proc = sentinel_of[obj]
                        handle_death(w, proc=proc)
                        continue
                    w = conn_of.get(obj)
                    if w is None or w not in alive or conns[w] is not obj:
                        continue  # stale handle: worker was replaced this round
                    try:
                        msg = conns[w].recv()
                    except (EOFError, OSError):
                        handle_death(w, via_conn=obj)
                        continue
                    handle_msg(w, msg)
                wd.note_progress(
                    (completed, flags_up, stats.workers_died, stats.workers_respawned)
                )
                wd.check()
                stats.dispatch_s += time.perf_counter() - t0

            # A job of a few ops can complete before every leased worker's attach
            # echo was read; collect the stragglers, or the pool's next job would
            # read them as its own and reject the stale run id.
            for w in alive - attached:
                try:
                    if conns[w].poll(timeout_s):
                        handle_msg(w, conns[w].recv())
                except (EOFError, OSError):
                    pass  # died idle: the next lease respawns it
            # Hand the workers back to await the next job header (or the pool
            # owner's shutdown): ``("endjob",)`` keeps their store attachment,
            # ``("detach",)`` drops it (those workers end below).
            for w in alive:
                try:
                    conns[w].send(terminator)
                    stats.pipe_messages += 1
                except (BrokenPipeError, OSError):
                    pass
            t_end = time.perf_counter()
            stats.elapsed_s = t_end - t_run
            for w, seen in last_seen.items():  # out of work while others were not
                stats.per_worker_wait_s[w] += t_end - seen
            if checkpoint is not None:
                # Final snapshot: all flags set, so a resume from this archive
                # skips every op (and the file doubles as a completion marker).
                checkpoint.write(store, store.t_factor, store.flags.astype(bool))
            if fresh or (one_shot and stats.workers_died):
                pool.shutdown()
            # The factors are the segment — views that keep its pages — and
            # their skeleton is a fact of it, built by the first run over it.
            if store.factors is None:
                store.factors = TileQRFactors(store.matrix(), factor_records(ops, store.t_factor), ib)
            factors, stats.bytes_in = store.factors, store.bytes_in
            success = True
        finally:
            if rec is not None:
                for g in (
                    "parallel.inflight_ops", "parallel.workers_alive",
                    "pool.workers_alive", "parallel.completed_ops",
                    "parallel.redispatched",
                ):
                    rec.unregister_gauge(g)
            if not success:
                # Workers may be mid-op, wedged, or napping on a flag that will
                # never go up; a clean slate (fresh processes, bumped
                # generations) is the only safe state to return the pool in.
                pool.reset()
            if one_shot:
                if success and not fresh and not stats.workers_died:
                    with _FORK_LOCK:  # against take_spare in another thread
                        pool.spares[:] = [(*store.spare(), ops, ib), *pool.spares][:SPARE_SEGMENTS]
                store.destroy()

    return factors, stats

"""Process-parallel shared-memory executor for tile QR.

The serial reference executor and the threaded PULSAR backend both run
their kernels under the GIL, so ``qr_factor`` uses one core no matter how
many the machine has.  This module executes the *same* operation list
(:mod:`repro.qr.ops`) across real OS processes:

* the tiles (and one slot per compact-WY ``T`` factor) live in a single
  shared-memory segment (:class:`repro.tiles.shared.SharedTileStore`);
  workers attach once and mutate tiles in place — no array is ever pickled;
* the parent runs a DAG-driven dispatcher over the dataflow graph of
  :func:`repro.qr.dag.op_dependency_graph`, tracking dependency counts and
  handing *batches* of ready operation indices to idle workers to amortise
  IPC;
* the ready pool supports the PRT scheduling policies: ``lazy`` fires the
  oldest ready op in program order, ``aggressive`` the most recently
  enabled one;
* with ``batch="wavefront"`` the dispatcher goes level-synchronous: ops
  are pre-grouped by :func:`repro.qr.wavefront.compute_wavefronts` and
  :func:`repro.qr.execute.group_by_shape` into same-kind, same-shape,
  tile-disjoint slices (split across workers), a slice is dispatched once
  *all* its members' dependencies are met, and the worker runs it as one
  step (one message, one report) — the 3D-VSA wavefront execution style
  on real processes;
* workers own no kernel code of their own: every dispatch message becomes
  one or more :func:`repro.qr.execute.run_step` calls on the shared store,
  the same step runner the in-process schedules use.

Because the dependency graph totally orders every tile's mutations, any
legal schedule — whichever workers run whichever ops in whatever
interleaving — produces factors **bit-identical** to the serial reference;
the tests assert exactly that.

When ``n_procs == 1`` or shared memory is unavailable the executor falls
back to the serial reference (same factors, ``stats.mode`` and an obs
``fallback.serial`` counter record the fallback) instead of failing.

Fault tolerance: the dispatcher waits on every worker's pipe *and* its
process sentinel, so a dead worker (crashed, OOM-killed, or killed by a
:class:`~repro.faults.FaultPlan` crash schedule) is detected the moment the
OS reaps it — the process sentinel is the heartbeat; a worker that is alive
but silent is caught by the no-progress :class:`~repro.faults.Watchdog`
instead (:class:`~repro.util.errors.WatchdogTimeout` after ``timeout_s``).
In-flight operations of a dead worker are re-dispatched to survivors (and a
replacement process is spawned when ``respawn=True``).  Re-dispatch is safe
because operations are *idempotent on the shared tile store given DAG
ordering*, and that idempotency is enforced, not assumed: a per-op
completion flag in shared memory is set after an op's tile mutations, so a
re-dispatched op that already ran is skipped rather than re-applied (a QR
kernel is destructive — factoring a tile twice would corrupt it).  The DAG
guarantees no successor was dispatched before the flag went up, and an op
is only ever re-dispatched after its owner's death is confirmed, so no two
live workers run the same op concurrently.  The one unprotected window is a
worker dying *inside* a kernel's tile writes; injected crashes land on op
boundaries only, and docs/robustness.md spells out the residual risk.
:class:`ParallelExecutionError` is raised only once retries are exhausted
(an op re-dispatched more than ``max_redispatch`` times, or every worker
dead with respawn disabled).

Observability: workers report each op as absolute ``perf_counter`` start /
end stamps (system-wide ``CLOCK_MONOTONIC`` on Linux), so with a recorder
installed (:mod:`repro.obs`) the parent converts them into kernel spans on
per-process lanes — aligned with its own ``spawn`` / ``attach`` /
``dispatch`` spans — and charges the exact :mod:`repro.kernels.flops`
count per completed op.  Batches sent to workers bump the
``dispatch.batches`` counter.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import os
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as conn_wait

import numpy as np

from ..faults.watchdog import Watchdog
from ..kernels.flops import kernel_flops
from ..obs import context as _obs_context
from ..obs import record as _obs_record
from ..obs.adapters import KERNEL_CATEGORY
from ..obs.record import (
    K_BATCH_CALLS,
    K_BATCH_OPS,
    K_DISPATCH_BATCHES,
    K_FAULT_CRASH,
    K_REDISPATCH_OPS,
    K_SDC_DETECTED,
    K_SDC_INJECTED,
    K_SDC_RECOVERED,
    K_WORKER_DEAD,
    K_WORKER_RESTART,
)
from ..tiles.matrix import TileMatrix
from ..tiles.shared import SharedArena, SharedTileStore, attach_untracked, t_factor_key
from ..util.errors import ConfigurationError, ParallelExecutionError
from ..util.validation import check_nonnegative_int, check_positive_int, require
from .checksum import SDCGuard
from .dag import op_dependency_graph
from .execute import group_by_shape, run_step
from .ops import Op
from .reference import TileQRFactors, factor_records
from .wavefront import compute_wavefronts

__all__ = [
    "ParallelRunStats",
    "execute_ops_parallel",
    "default_n_procs",
]

_POLICIES = ("lazy", "aggressive")

#: Exit code used by FaultPlan-scheduled worker crashes, so the parent can
#: tell an injected crash (counted under ``fault.crash``) from a real one.
_CRASH_EXIT_CODE = 37


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
    batch: int | str = 1  # ops per message, or "wavefront"
    elapsed_s: float = 0.0
    spawn_s: float = 0.0
    dispatch_s: float = 0.0  # parent time spent dispatching (not waiting)
    per_worker_busy_s: dict[int, float] = field(default_factory=dict)
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
        """Fraction of the run the parent spent dispatching (IPC + bookkeeping)."""
        return self.dispatch_s / self.elapsed_s if self.elapsed_s > 0.0 else 0.0


# --------------------------------------------------------------------------
# Worker processes: dispatch messages -> execution-core steps on the store
# --------------------------------------------------------------------------


def _serve_job(store, flags, ops: list[Op], ib: int, fault_plan, rank: int,
               generation: int, conn: Connection) -> object:
    """Execute one job's dispatch messages until a terminator arrives.

    A message is a list of op indices — each a 1-wide step, timed on its
    own — or ``("stack", idxs)``, one wavefront slice run as a single
    :func:`repro.qr.execute.run_step` whose call window is sliced evenly
    across its (same-kind, same-shape) ops.  Timings travel back as absolute
    ``perf_counter`` stamps so the parent can place them on the recorder's
    timeline and derive busy seconds (see module docstring).

    Fault hooks: before each step the worker consults the
    :class:`~repro.faults.FaultPlan` crash schedule (generation 0 only) and
    ``os._exit``\\ s when told to; a slice advances ``ops_done`` by
    its whole width, so a crash scheduled anywhere inside it lands on the
    slice boundary.  ``ops_done`` restarts at zero per job, so in a session
    the same schedule applies to every ``factor`` call until the worker is
    respawned.

    Idempotency: an op only runs while its completion flag in the shared
    ``flags`` segment is clear, and ``run_step`` raises the flag right
    after the op's tile mutations — under an armed SDC guard only once its
    output verified.  A re-dispatched slice with some flags already set
    runs only its unflagged ops; tile-disjointness makes that safe.

    Returns the terminator received: ``None`` (shut the worker down),
    ``("endjob",)`` (job complete, a pool worker waits for the next job), or
    the string ``"err"`` after an execution error was reported.
    """
    crashy = fault_plan is not None and fault_plan.faulty_workers
    guard = SDCGuard(fault_plan) if fault_plan is not None and fault_plan.faulty_sdc else None
    ops_done = 0

    def raise_flag(idx: int) -> None:
        flags[idx] = 1

    while True:
        batch = conn.recv()
        if batch is None:
            return None
        if isinstance(batch, tuple) and batch[0] == "endjob":
            return batch
        stacked = isinstance(batch, tuple) and batch[0] == "stack"
        done: list[tuple[int, float, float]] = []
        for idxs in [batch[1]] if stacked else [[idx] for idx in batch]:
            if crashy and any(
                fault_plan.worker_crash(rank, generation, ops_done + b)
                for b in range(len(idxs))
            ):
                os._exit(_CRASH_EXIT_CODE)
            t0 = time.perf_counter()
            pend = [i for i in idxs if not flags[i]]
            try:
                run_step(store, ops, pend, ib, guard, raise_flag)
            except BaseException:
                conn.send(("err", rank, idxs[0], traceback.format_exc()))
                return "err"
            width = (time.perf_counter() - t0) / len(idxs)
            ops_done += len(idxs)
            done += [(i, t0 + b * width, t0 + (b + 1) * width)
                     for b, i in enumerate(idxs)]
        conn.send(("done", rank, done,
                   guard.take_delta() if guard is not None else None))


def _worker_main(rank: int, generation: int, conn: Connection,
                 first_job=None) -> None:
    """Worker process: serve factorization jobs until told to exit.

    Each job starts with a header
    ``("job", shm_name, flags_name, layout, ops, ib, fault_plan, run_id)``
    followed by the usual dispatch messages and a terminator.  A one-shot
    worker gets its only header in the spawn args (``first_job``) and is
    shut down with ``None`` after it; a persistent pool worker
    (:class:`~repro.qr.session.WorkerPool`) reads headers from its pipe, is
    handed back with ``("endjob",)``, and exits on a bare ``None`` header.

    A ``layout``/``ops`` of ``None`` means "same segment as your previous
    job": the worker keeps its last attachment and operation list cached,
    so a warm ``session.factor`` call costs it no re-attach and no op-list
    unpickling — ``spawn_s`` on the parent collapses to a couple of pipe
    messages.
    """
    # A forked child inherits the parent's recorder; spans must be recorded
    # by the parent from the reported stamps, not duplicated here.  The run
    # identity *does* survive the boundary: it arrives in the job header
    # and is echoed in the attach handshake, so the parent can verify the
    # worker is serving the run it thinks it is.
    _obs_record._RECORDER = None
    cached_name: str | None = None
    cached_ops: list[Op] | None = None
    store = flags_shm = None
    try:
        msg = conn.recv() if first_job is None else first_job
        while msg is not None:
            _, shm_name, flags_name, layout, ops, ib, fault_plan, run_id = msg
            _obs_context.activate(run_id)
            t_attach0 = time.perf_counter()
            if shm_name != cached_name:
                if store is not None:
                    store.close()
                    flags_shm.close()
                store = SharedTileStore.attach(shm_name, layout, ops, ib)
                flags_shm = attach_untracked(flags_name)
                cached_name, cached_ops = shm_name, ops
            conn.send(("attached", rank, t_attach0, time.perf_counter(), run_id))
            end = _serve_job(
                store, flags_shm.buf, cached_ops, ib, fault_plan, rank, generation, conn
            )
            if end is None or end == "err":
                break
            msg = conn.recv()
    except (EOFError, KeyboardInterrupt):  # parent went away: just exit
        pass
    finally:
        if store is not None:
            store.close()
            flags_shm.close()
        conn.close()


# --------------------------------------------------------------------------
# Parent-side dispatcher
# --------------------------------------------------------------------------


class _ReadyPool:
    """Ready-op pool with the two PRT disciplines (lazy / aggressive)."""

    def __init__(self, policy: str):
        self._lazy = policy == "lazy"
        self._items: list[int] = []

    def __len__(self) -> int:
        return len(self._items)

    def push(self, idx: int) -> None:
        if self._lazy:
            heapq.heappush(self._items, idx)  # oldest in program order first
        else:
            self._items.append(idx)  # most recently enabled first

    def pop(self) -> int:
        return heapq.heappop(self._items) if self._lazy else self._items.pop()


def _auto_batch(n_ops: int, n_procs: int) -> int:
    """Batch size: amortise IPC without starving the critical path."""
    return max(1, min(8, n_ops // (n_procs * 8)))


def execute_ops_parallel(
    a: TileMatrix,
    ops: list[Op],
    ib: int,
    *,
    n_procs: int | None = None,
    policy: str = "lazy",
    batch: int | str | None = None,
    timeout_s: float = 120.0,
    fault_plan=None,
    max_redispatch: int = 2,
    respawn: bool = True,
    graph=None,
    wavefronts=None,
    pool=None,
    arena=None,
    checkpoint=None,
    skip=None,
    preloaded_ts=None,
) -> tuple[TileQRFactors, ParallelRunStats]:
    """Run an operation list on ``a`` across worker processes.

    ``a`` is *not* mutated (unlike :func:`~repro.qr.reference.execute_ops`):
    tiles are copied into the shared segment, factored there, and copied
    back out into the returned :class:`TileQRFactors`.

    Parameters
    ----------
    a, ops, ib:
        As for the serial executor; ``ops`` must come from
        :func:`repro.qr.ops.expand_plans`.
    n_procs:
        Worker process count (default: usable CPUs).  ``1`` falls back to
        the serial reference executor.
    policy:
        Ready-pool discipline, ``"lazy"`` (program order) or
        ``"aggressive"`` (most recently enabled), mirroring the PRT.
    batch:
        Operations dispatched per worker message (default: auto-sized from
        the op count), or the string ``"wavefront"`` for level-synchronous
        batched dispatch: the op list is partitioned with
        :func:`repro.qr.wavefront.compute_wavefronts`, same-kind/same-shape
        ops of a wavefront are grouped (and split evenly across workers), and
        each worker runs its slice as one step — fewer, larger messages,
        still bit-identical factors.
    timeout_s:
        No-progress watchdog: raise
        :class:`~repro.util.errors.WatchdogTimeout` instead of hanging if
        nothing completes, dies, or attaches for this long.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` whose ``crash_workers``
        schedule makes workers die abruptly (testing the recovery path).
    max_redispatch:
        How many times one op may be re-dispatched after worker deaths
        before the run fails with :class:`ParallelExecutionError`.
    respawn:
        Spawn a replacement process for each dead worker (capped at
        ``n_procs`` respawns per run).  With ``respawn=False`` the run
        continues on the survivors and fails only when none remain.
    graph, wavefronts:
        Precomputed :func:`~repro.qr.dag.op_dependency_graph` result and
        wavefront partition for *exactly these* ``ops`` — the
        :class:`~repro.qr.session.PlanCache` passes them so warm
        ``session.factor`` calls skip schedule derivation.  ``None`` (the
        default) derives both here.
    pool, arena:
        Persistent-session plumbing (see :mod:`repro.qr.session` and
        ``docs/sessions.md``).  ``pool`` is a
        :class:`~repro.qr.session.WorkerPool`: instead of spawning
        ``n_procs`` one-shot workers, the job is *leased* to the pool's
        long-lived processes (respawned here on death via
        ``pool.respawn``, preserving generation tags) and returned to it
        with an ``("endjob",)`` message instead of being shut down.
        ``arena`` is a :class:`~repro.tiles.shared.SharedArena` owning the shared
        tile store and completion-flag segment; the caller has already
        loaded ``a`` into it, and it survives this call for reuse.  Both
        default to ``None`` — the one-shot create/spawn/teardown
        lifecycle — and must be given (or omitted) together.
    checkpoint:
        Optional bound :class:`~repro.qr.persist.CheckpointStore`.  When
        a snapshot falls due the dispatcher *quiesces* — stops handing
        out work and drains in-flight ops to zero — so the completion
        flags describe a consistent, predecessor-closed frontier, writes
        the snapshot from the shared store, and resumes dispatching.  The
        done mask is taken from the shared completion flags, not the
        parent's report ledger: the flags are the authoritative record of
        which ops' tile mutations happened (a worker can die after
        flagging but before reporting).
    skip, preloaded_ts:
        Resume support (:func:`~repro.qr.persist.resume_factorization`):
        op indices whose writes are already present in ``a``'s tiles, and
        the ``T`` factors (op index -> array) of the completed factor
        ops.  Completed ops are pre-flagged, pre-counted, and excluded
        from dispatch; their ``T`` arrays are loaded into the shared
        store's slots so successors read them as if computed this run.
    """
    require(a.m >= a.n, f"tile QR requires m >= n, got {a.m} x {a.n}")
    require(policy in _POLICIES, f"policy must be one of {_POLICIES}, got {policy!r}")
    check_nonnegative_int(max_redispatch, "max_redispatch")
    if n_procs is None:
        n_procs = default_n_procs()
    check_positive_int(n_procs, "n_procs")
    n_procs = max(1, min(n_procs, len(ops)))
    wavefront = batch == "wavefront"
    if batch is None:
        batch = _auto_batch(len(ops), n_procs)
    if not wavefront:
        if isinstance(batch, str):
            raise ConfigurationError(
                f"batch must be a positive int or 'wavefront', got {batch!r}"
            )
        check_positive_int(batch, "batch")
    completed_set = frozenset() if skip is None else frozenset(int(i) for i in skip)

    def degrade(reason: str):
        from .backends import serial_fallback  # backends imports this module

        return serial_fallback(
            a.copy(), ops, ib, reason, policy, checkpoint=checkpoint,
            skip=completed_set or None, preloaded_ts=preloaded_ts,
        )

    if n_procs == 1:
        return degrade("n_procs=1")
    require((pool is None) == (arena is None),
            "pool and arena must be given together (or both omitted)")

    # Session mode: the arena already holds the tiles (the caller ran
    # arena.load(a)) and a zeroed flag segment; both outlive this call.
    # One-shot mode creates its own and destroys it on the way out.
    own_arena = arena is None
    if own_arena:
        try:
            arena = SharedArena.create(a, ops, ib)
        except OSError as exc:
            return degrade(f"shared memory unavailable: {exc}")
    store, flags_shm = arena.store, arena.flags
    flags_view = np.frombuffer(flags_shm.buf, dtype=np.uint8)[: len(ops)]
    if graph is None:
        graph = op_dependency_graph(ops)
    deps_left = graph.n_deps.copy()
    succ_index, succ_task = graph.succ_index, graph.succ_task
    for idx in completed_set:
        # Resume: the op's writes are already in the tiles (loaded from the
        # checkpoint) — pre-flag it so a worker never re-applies it, restore
        # its T factor so successors can read it, and release its successors.
        flags_view[idx] = 1
        op = ops[idx]
        if op.is_factor and preloaded_ts is not None and idx in preloaded_ts:
            store.put_t(t_factor_key(op), preloaded_ts[idx])
        for e in range(succ_index[idx], succ_index[idx + 1]):
            deps_left[int(succ_task[e])] -= 1

    # Wavefront mode: pre-partition the op list into same-kind, same-shape
    # (hence same-cost) groups, split so a single wide wavefront still
    # spreads evenly across all workers.  A group enters the ready
    # pool only when *every* member's dependencies are met — that is the
    # level-synchronous trade the batching makes.
    groups: list[list[int]] = []
    group_of: list[int] = []
    group_pending: list[int] = []
    if wavefront:
        if wavefronts is None:
            wavefronts = compute_wavefronts(ops, graph)
        group_of = [0] * len(ops)
        for wf in wavefronts:
            # Resume: already-executed ops have nothing to group.
            live = [idx for idx in wf if idx not in completed_set]
            for members in group_by_shape(a, ops, live):
                chunk = max(1, -(-len(members) // n_procs))
                for s in range(0, len(members), chunk):
                    gid = len(groups)
                    groups.append(members[s : s + chunk])
                    for idx in groups[gid]:
                        group_of[idx] = gid
        group_pending = [len(g) for g in groups]

    stats = ParallelRunStats(
        n_ops=len(ops), n_procs=n_procs, policy=policy, batch=batch,
        per_worker_busy_s={w: 0.0 for w in range(n_procs)},
        per_worker_ops={w: 0 for w in range(n_procs)},
    )
    rec = _obs_record._RECORDER
    # Run identity: prefer the recorder's (qr_factor minted it), else the
    # ambient context (resume path), else mint one — direct callers of this
    # function still get workers that know which run they serve.
    if rec is not None:
        run_id = rec.run_id
    else:
        run_id = _obs_context.current_run_id() or _obs_context.mint_run_id()
    if rec is not None:
        for w in range(n_procs):
            rec.name_lane(w, f"proc {w}")
        rec.name_lane(n_procs, "dispatcher")
    ctx = mp.get_context()
    if pool is not None:
        # Lease the pool's long-lived workers: same dict objects, so
        # pool.respawn() replacements are visible to the dispatcher below.
        procs, conns, generations = pool.procs, pool.conns, pool.generations
    else:
        procs: dict[int, mp.Process] = {}
        conns: dict[int, Connection] = {}
        generations: dict[int, int] = {}
    t_run = time.perf_counter()
    success = False

    job = ("job", store.name, flags_shm.name, a.layout, ops, ib, fault_plan, run_id)

    def spawn(rank: int, generation: int) -> None:
        # A one-shot worker is a pool worker whose only job header rides
        # in the spawn args.
        parent_conn, child_conn = ctx.Pipe()
        p = ctx.Process(
            target=_worker_main,
            args=(rank, generation, child_conn, job),
            daemon=True,
            name=f"qr-parallel-{rank}g{generation}",
        )
        p.start()
        child_conn.close()
        procs[rank] = p
        conns[rank] = parent_conn
        generations[rank] = generation

    try:
        if pool is not None:
            lease = pool.lease(n_procs, job)
        else:
            for rank in range(n_procs):
                spawn(rank, 0)
        stats.spawn_s = time.perf_counter() - t_run
        # Every span this dispatcher records for worker-reported work hangs
        # off this root: the workers exist (or were leased) because of it.
        root_span_id = None
        if rec is not None:
            end = rec.now()
            name, args = ("spawn", {"n_procs": n_procs}) if pool is None else ("pool.lease", lease)
            root_span_id = rec.add_span(
                name, "dispatch", end - stats.spawn_s, end, worker=n_procs, args=args
            ).span_id

        ready = _ReadyPool(policy)

        def op_ready(idx: int) -> None:
            """An op's deps are met: enqueue it (or its completed group)."""
            if wavefront:
                g = group_of[idx]
                group_pending[g] -= 1
                if group_pending[g] == 0:
                    # Order groups by their oldest member so the lazy
                    # policy keeps meaning "program order".
                    ready.push((groups[g][0], g))
            else:
                ready.push(idx)

        for idx in range(len(ops)):
            if deps_left[idx] == 0 and idx not in completed_set:
                op_ready(idx)
        alive = set(range(n_procs))
        # Workers whose attach echo for *this* job has been read.
        attached: set[int] = set()
        idle = list(range(n_procs - 1, -1, -1))  # pop() yields rank 0 first
        inflight_of: dict[int, set[int]] = {w: set() for w in range(n_procs)}
        attempts = [0] * len(ops)
        respawns_used = 0
        completed = len(completed_set)
        # Checkpoint quiesce state: when a snapshot falls due, stop
        # dispatching and let in-flight work drain before writing.
        draining = False

        if rec is not None:
            # Live dispatcher state for the metrics sampler (vocabulary in
            # repro.obs.sampler).  Read from the sampler thread while this
            # thread mutates; Recorder.read_gauges tolerates torn reads.
            rec.register_gauge("parallel.ready_ops", lambda: len(ready))
            rec.register_gauge(
                "parallel.inflight_ops",
                lambda: sum(len(s) for s in list(inflight_of.values())),
            )
            rec.register_gauge("parallel.workers_alive", lambda: len(alive))
            if pool is not None:
                rec.register_gauge("pool.workers_alive", pool.alive_count)
            rec.register_gauge("parallel.completed_ops", lambda: completed)
            rec.register_gauge(
                "parallel.redispatched", lambda: stats.ops_redispatched
            )

        def handle_msg(w: int, msg) -> None:
            """Apply one worker report (attached / done / err)."""
            nonlocal completed
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
                if rec is not None:
                    rec.add_span(
                        "attach", "dispatch",
                        rec.from_monotonic(a0), rec.from_monotonic(a1),
                        worker=w, parent=root_span_id,
                    )
                return
            done, sdc = msg[2], msg[3]
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
            completed += len(done)
            if checkpoint is not None:
                checkpoint.note_done(len(done))
            stats.per_worker_ops[w] = stats.per_worker_ops.get(w, 0) + len(done)
            for idx, op_t0, op_t1 in done:
                if w in inflight_of:
                    inflight_of[w].discard(idx)
                busy = stats.per_worker_busy_s.get(w, 0.0)
                stats.per_worker_busy_s[w] = busy + (op_t1 - op_t0)
                if rec is not None:
                    # The worker's stamps become the op's kernel span on its
                    # lane, charged the op's exact flop count.
                    op = ops[idx]
                    rec.record_kernel(
                        op.kind, KERNEL_CATEGORY[op.kind],
                        kernel_flops(op.kind, op.m2, op.k, op.q, ib),
                        rec.from_monotonic(op_t0), rec.from_monotonic(op_t1), w,
                        op=idx, parent=root_span_id,
                    )
                for e in range(succ_index[idx], succ_index[idx + 1]):
                    d = int(succ_task[e])
                    deps_left[d] -= 1
                    if deps_left[d] == 0:
                        op_ready(d)
            if wavefront and rec is not None and done:
                # One report == one dispatched slice (B == 1 for re-dispatched
                # singleton slices).
                rec.count(K_BATCH_CALLS)
                rec.count(K_BATCH_OPS, len(done))
            idle.append(w)

        def handle_death(w: int, *, proc=None, via_conn=None) -> None:
            """Confirmed worker death: drain, requeue its ops, maybe respawn.

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
            # completed-and-reported op is never requeued.
            try:
                while conns[w].poll(0):
                    handle_msg(w, conns[w].recv())
            except (EOFError, OSError):
                pass
            attached.discard(w)  # a replacement echoes for itself
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
            lost = sorted(inflight_of.pop(w, ()))
            for idx in lost:
                attempts[idx] += 1
                if attempts[idx] > max_redispatch:
                    raise ParallelExecutionError(
                        f"worker {w} died (exit code {code}) and "
                        f"{ops[idx].describe()} was already re-dispatched "
                        f"{max_redispatch} time(s) — retries exhausted"
                    )
                if wavefront:
                    # Requeue as a singleton slice: the worker skips any
                    # member whose completion flag is already set, so a
                    # partially-applied group never re-runs finished ops.
                    groups.append([idx])
                    ready.push((idx, len(groups) - 1))
                else:
                    ready.push(idx)
            if lost:
                stats.ops_redispatched += len(lost)
                if rec is not None:
                    rec.count(K_REDISPATCH_OPS, len(lost))
                    rec.event(
                        "retry.redispatch", worker=w, span=root_span_id,
                        n_ops=len(lost),
                    )
            if respawn and respawns_used < n_procs:
                respawns_used += 1
                stats.workers_respawned += 1
                if rec is not None:
                    rec.count(K_WORKER_RESTART)
                    rec.event(
                        "worker.respawn", worker=w, span=root_span_id,
                        generation=generations.get(w, 0) + 1,
                    )
                if pool is not None:
                    pool.respawn(w)
                else:
                    spawn(w, generations[w] + 1)
                alive.add(w)
                inflight_of[w] = set()
                idle.append(w)
            elif not alive:
                raise ParallelExecutionError(
                    f"worker {w} died (exit code {code}) and no workers remain"
                    + ("; respawn budget exhausted" if respawn else "; respawn disabled")
                )

        def dispatch() -> None:
            """Feed idle live workers from the ready pool."""
            while idle and len(ready):
                w = idle.pop()
                if w not in alive:
                    continue  # stale idle entry from a replaced worker
                if wavefront:
                    chunk = groups[ready.pop()[1]]
                    msg = ("stack", chunk)
                else:
                    take = min(batch, max(1, len(ready) // (len(idle) + 1)))
                    msg = chunk = [ready.pop() for _ in range(min(take, len(ready)))]
                inflight_of[w].update(chunk)
                try:
                    conns[w].send(msg)
                except (BrokenPipeError, OSError):
                    handle_death(w, via_conn=conns[w])
                    continue
                if rec is not None:
                    rec.count(K_DISPATCH_BATCHES)

        def _stall_report() -> str:
            per_worker = {w: len(inflight_of.get(w, ())) for w in sorted(alive)}
            return (
                f"{completed}/{len(ops)} ops done; alive workers {sorted(alive)}; "
                f"in-flight per worker {per_worker}; ready {len(ready)}; "
                f"died {stats.workers_died}, respawned {stats.workers_respawned}"
            )

        wd = Watchdog(timeout_s, what="parallel dispatcher", report=_stall_report)
        dispatch()
        while completed < len(ops):
            if checkpoint is not None and not draining and checkpoint.due():
                draining = True
            if draining and not any(inflight_of.get(w) for w in alive):
                # Quiesced: no op is mid-execution, so the completion flags
                # are a consistent, predecessor-closed frontier.  Capture
                # (cheap memcpys into parent-owned buffers) under the
                # quiesce, resume dispatching immediately, and let the
                # serialize-fsync-replace overlap with worker execution.
                checkpoint.capture(store, store.t_factor,
                                   flags_view.astype(bool))
                draining = False
                dispatch()
                checkpoint.flush()
            if not len(ready) and not any(inflight_of.get(w) for w in alive):
                raise ParallelExecutionError(
                    f"dispatcher stalled: {completed}/{len(ops)} ops done, "
                    "none ready or in flight (dependency cycle?)"
                )
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
                wd.check()
                continue
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
                (completed, stats.workers_died, stats.workers_respawned)
            )
            if not draining:
                dispatch()
            stats.dispatch_s += time.perf_counter() - t0

        # A job of a few ops can complete before every leased worker's attach
        # echo was read; collect the stragglers, or the pool's next job would
        # read them as its own and reject the stale run id.
        if pool is not None:
            for w in alive - attached:
                try:
                    if conns[w].poll(timeout_s):
                        handle_msg(w, conns[w].recv())
                except (EOFError, OSError):
                    pass  # died idle: the next lease respawns it
        # Hand pool workers back (they keep their store attachment and
        # await the next job header); shut one-shot workers down.
        for w in alive:
            try:
                conns[w].send(("endjob",) if pool is not None else None)
            except (BrokenPipeError, OSError):
                pass
        if pool is None:
            for p in procs.values():
                p.join(timeout=10.0)
        stats.elapsed_s = time.perf_counter() - t_run
        if checkpoint is not None:
            # Final snapshot: all flags set, so a resume from this archive
            # skips every op (and the file doubles as a completion marker).
            checkpoint.write(store, store.t_factor, flags_view.astype(bool))

        factored = store.extract_matrix()
        ts = store.extract_ts()
        success = True
    finally:
        # Release the numpy view before closing the segment: an exported
        # buffer pointer would make SharedMemory.close() raise BufferError.
        flags_view = None
        if rec is not None:
            for g in (
                "parallel.ready_ops", "parallel.inflight_ops",
                "parallel.workers_alive", "pool.workers_alive",
                "parallel.completed_ops", "parallel.redispatched",
            ):
                rec.unregister_gauge(g)
        if pool is not None:
            if not success:
                # Workers may be mid-job or wedged; a clean slate (fresh
                # processes, bumped generations) is the only safe state to
                # return the pool in.
                pool.reset()
        else:
            for p in procs.values():
                if p.is_alive():
                    p.terminate()
            for conn in conns.values():
                try:
                    conn.close()
                except OSError:
                    pass
        if own_arena:
            arena.destroy()

    records = factor_records(ops, ts.__getitem__)
    return TileQRFactors(a=factored, records=records, ib=ib), stats

"""Persistent factorization sessions: reusable worker pool + plan cache.

One-shot ``qr_factor(backend="parallel")`` pays, on every call, for things
that do not depend on the matrix *values* at all: creating a shared-memory
segment, attaching the workers to it, faulting its pages in and destroying
it.  In the tall-skinny batch regime the paper targets, the same
``(shape, nb, ib, tree, h)`` configuration is factored over and over, and
all of that is pure, repeated overhead.  (The other value-independent
costs are kept per process for *every* caller, session or not: panel plans,
op list, dependency DAG, wavefront partition and worker assignment by
:mod:`repro.qr.schedule`, the worker processes by the pool
:mod:`repro.qr.parallel` keeps behind one-shot calls.)

:class:`QRSession` amortises it.  A session owns

* a :class:`~repro.qr.parallel.WorkerPool` of its own — the class of the
  pool kept behind one-shot calls, a separate instance with its own
  generations and ``health()`` — whose workers keep their shared-memory
  attachment cached between jobs; and
* a :class:`PlanCache` — an LRU keyed by
  ``(tree, m, n, nb, ib, h, shifted)`` whose entries pair the process-wide
  :class:`~repro.qr.schedule.Schedule` of that key (plans, ops, dependency
  graph, wavefront partition, worker assignment) with what only a session
  has: a
  shared-memory *arena* — the one segment of a job (tiles, ``T`` slots,
  completion flags; :class:`~repro.tiles.shared.SharedTileStore`) sized
  for that plan — and per-session hit/miss/eviction accounting.

``session.factor(a, ...)`` routes through :func:`repro.qr.api.qr_factor`
(and accepts the same keywords), so every guarantee of the one-shot path
holds unchanged: factors are **bit-exact** with ``backend="serial"``, the
completion flags still make handing a dead worker's ops on idempotent
(to its replacement, or to a survivor), and generation tags survive across calls
(a pool worker respawned during call *k* keeps its bumped generation in
call *k+1*, so a generation-0 :class:`~repro.faults.FaultPlan` cannot
re-kill it).  See ``docs/sessions.md`` for the lifecycle and the
warm-vs-cold cost model; ``python3 -m bench`` measures the amortization
(``session_warm_vs_lapack`` next to ``parallel_vs_lapack``).

Example
-------
>>> import numpy as np
>>> from repro import QRSession
>>> rng = np.random.default_rng(0)
>>> with QRSession(n_procs=2) as sess:
...     f1 = sess.factor(rng.standard_normal((96, 32)), nb=16, ib=8)
...     f2 = sess.factor(rng.standard_normal((96, 32)), nb=16, ib=8)
>>> sess.plan_cache.stats.hits, sess.plan_cache.stats.misses
(1, 1)
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..obs import record as _obs_record
from ..obs.record import K_PLAN_EVICTIONS, K_PLAN_HITS, K_PLAN_MISSES
from ..tiles.shared import SharedTileStore
from ..util.errors import ConfigurationError
from ..util.validation import check_positive_int
from .parallel import WorkerPool, default_n_procs
from .schedule import CAPACITY, schedule_for

__all__ = ["QRSession", "PlanCache", "PlanCacheStats", "WorkerPool"]


class _PlanEntry:
    """One session's view of a schedule: the shared, memoized
    :class:`~repro.qr.schedule.Schedule` plus this session's arena.

    The graph, wavefront partition and worker assignments come from the
    schedule (derived once per process) and are pinned to the entry on first
    use, so one session's entry can be inspected — or corrupted — without
    touching what other callers of the memo see; ``verify_schedule=True``
    certifies the pinned ones.
    """

    def __init__(self, key, schedule):
        self.key = key
        self.schedule = schedule
        self._graph = None
        self._wavefronts = None
        self._assignments: dict[tuple[int, str], tuple] = {}
        self._arena = None

    @property
    def ops(self):
        return self.schedule.ops

    def factor_ops(self):
        return self.schedule.factor_ops()

    def graph(self):
        if self._graph is None:
            self._graph = self.schedule.graph()
        return self._graph

    def wavefronts(self):
        if self._wavefronts is None:
            self._wavefronts = self.schedule.wavefronts()
        return self._wavefronts

    def assignment(self, n_procs: int, policy: str):
        key = (n_procs, policy)
        if key not in self._assignments:
            self._assignments[key] = self.schedule.assignment(n_procs, policy)
        return self._assignments[key]

    def arena_for(self, a, ib) -> SharedTileStore:
        """The entry's segment holding ``a`` (a dense array or a
        :class:`~repro.tiles.matrix.TileMatrix`, tiled straight into it) with
        every completion flag clear — created on first use, reloaded after.

        Raises ``OSError`` where shared memory is unavailable; the caller
        degrades to the serial fallback, exactly like the one-shot path.
        """
        if self._arena is None:
            self._arena = SharedTileStore.create(a, self.schedule, ib)
        else:
            self._arena.load(a)
        return self._arena

    def close(self) -> None:
        """Take the segment's name away and let go of the store.  Its pages
        stay with the results still made of them (each holds the store), so
        neither ``close()`` nor an eviction makes a result dangle."""
        if self._arena is not None:
            self._arena.unlink()
            self._arena = None


@dataclass
class PlanCacheStats:
    """Cumulative :class:`PlanCache` event counts (mirrors the ``plan.*``
    observability counters, but always on)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


class PlanCache:
    """LRU cache of factorization plans keyed by
    ``(tree, m, n, nb, ib, h, shifted)``.

    Everything under a key is a pure function of that key — the schedule
    (shared with the whole process through
    :func:`~repro.qr.schedule.schedule_for`) and the arena *layout* — so
    entries never go stale and there is no invalidation beyond LRU
    capacity eviction (evicting destroys the entry's shared-memory
    segment, never the memoized schedule).  Hits, misses, and evictions are
    tallied per session on :attr:`stats` always, and on the ``plan.*``
    observability counters when a recording is active.
    """

    def __init__(self, maxsize: int = CAPACITY):
        check_positive_int(maxsize, "plan_cache_size")
        self.maxsize = maxsize
        self.stats = PlanCacheStats()
        self._entries: OrderedDict[tuple, _PlanEntry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple) -> _PlanEntry:
        """The entry for ``key`` — the argument tuple of
        :func:`~repro.qr.schedule.schedule_for`, whose memoized schedule a
        new entry wraps (evicting the least recently used entry past
        capacity)."""
        rec = _obs_record._RECORDER
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            if rec is not None:
                rec.count(K_PLAN_HITS)
            return entry
        entry = _PlanEntry(key, schedule_for(*key))
        self._entries[key] = entry
        self.stats.misses += 1
        if rec is not None:
            rec.count(K_PLAN_MISSES)
        while len(self._entries) > self.maxsize:
            _, evicted = self._entries.popitem(last=False)
            evicted.close()
            self.stats.evictions += 1
            if rec is not None:
                rec.count(K_PLAN_EVICTIONS)
        return entry

    def clear(self) -> None:
        """Drop every entry, destroying cached shared-memory arenas."""
        for entry in self._entries.values():
            entry.close()
        self._entries.clear()


class QRSession:
    """Reusable factorization context: persistent workers + cached plans.

    Use as a context manager (or call :meth:`close` explicitly)::

        with QRSession(n_procs=4) as sess:
            for a in matrices:                 # same shape/nb/ib/tree/h
                f = sess.factor(a, nb=64, ib=16)

    The first call on a configuration is *cold* — it derives the plan and
    spawns the pool, costing what a process's first one-shot ``qr_factor``
    costs.  Every
    later call on that configuration is *warm*: plan, DAG, wavefronts,
    assignment, shared-memory arena, and worker processes are all reused —
    each worker already holds its share — so the call reduces to one pass
    in and the kernels (``stats.spawn_s`` collapses to roughly zero).
    Results are bit-exact with one-shot ``qr_factor`` on every backend.

    Parameters
    ----------
    n_procs:
        Pool size for ``backend="parallel"`` (default: usable CPUs).
        ``1`` keeps the pool empty and routes parallel calls to the
        serial fallback, mirroring ``qr_factor(n_procs=1)``.
    plan_cache_size:
        Maximum distinct configurations cached before LRU eviction.
    """

    def __init__(self, *, n_procs: int | None = None, plan_cache_size: int = CAPACITY):
        if n_procs is None:
            n_procs = default_n_procs()
        check_positive_int(n_procs, "n_procs")
        self.n_procs = n_procs
        self.plan_cache = PlanCache(plan_cache_size)
        self._pool = WorkerPool(n_procs) if n_procs > 1 else None
        self._closed = False
        #: ``run_id`` of the most recent ``factor`` call (``None`` before
        #: the first one) — set by :func:`repro.qr.api.qr_factor`.
        self.last_run_id: str | None = None

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "QRSession":
        self._check_open()
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    @property
    def pool(self) -> WorkerPool | None:
        """The worker pool (``None`` when ``n_procs=1``)."""
        return self._pool

    def close(self) -> None:
        """Shut the pool down and unlink every cached arena (idempotent);
        results made of one keep its pages."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown()
        self.plan_cache.clear()

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError("QRSession is closed")

    def health(self) -> dict:
        """A point-in-time health snapshot of the session.

        Pure inspection — touches no locks the dispatcher holds and sends
        nothing to workers, so it is safe to call from a monitoring thread
        while a factorization is in flight.  Keys:

        ``closed``
            Whether :meth:`close` has run.
        ``pool``
            ``None`` when ``n_procs=1``; otherwise a dict with ``size``,
            ``alive`` (live worker count), ``workers`` (per-rank
            ``{"rank", "alive", "generation"}`` rows), and
            ``generations`` (rank -> generation map).
        ``plan_cache``
            ``{"entries", "maxsize", "hits", "misses", "evictions"}``.
        ``last_run_id``
            The most recent ``factor`` call's run id (``None`` before the
            first call).
        """
        pool = None
        if self._pool is not None:
            pool = {
                "size": self._pool.size,
                "alive": self._pool.alive_count(),
                "workers": [
                    {
                        "rank": rank,
                        "alive": p.is_alive(),
                        "generation": self._pool.generations.get(rank, 0),
                    }
                    for rank, p in sorted(self._pool.procs.items())
                ],
                "generations": dict(self._pool.generations),
            }
        return {
            "closed": self._closed,
            "pool": pool,
            "plan_cache": {
                "entries": len(self.plan_cache),
                "maxsize": self.plan_cache.maxsize,
                "hits": self.plan_cache.stats.hits,
                "misses": self.plan_cache.stats.misses,
                "evictions": self.plan_cache.stats.evictions,
            },
            "last_run_id": self.last_run_id,
        }

    # -- factoring ---------------------------------------------------------

    def factor(self, a, **kw):
        """Factor ``a`` through this session.

        Equivalent to ``qr_factor(a, session=self, **kw)`` with
        ``backend`` defaulting to ``"parallel"`` instead of ``"serial"``
        (the pool is the point of having a session).  Accepts every
        :func:`~repro.qr.api.qr_factor` keyword except ``n_procs``, which
        is fixed by the pool.

        Nothing is copied out: a ``parallel`` result is the views of this
        geometry's segment, valid until the next ``factor`` on the geometry
        loads it again — after that its accessors raise
        :class:`~repro.util.errors.StaleResultError` — and through
        :meth:`close` and eviction, which take only the segment's name.
        ``result.detach()`` is the owned copy to keep across calls.
        """
        from .api import qr_factor

        kw.setdefault("backend", "parallel")
        return qr_factor(a, session=self, **kw)

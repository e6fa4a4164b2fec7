"""Persistent factorization sessions: a worker pool of their own.

In the tall-skinny batch regime the paper targets, the same
``(shape, nb, ib, tree, h)`` configuration is factored over and over.  What
does not depend on the matrix *values* is kept per process for *every*
caller, session or not: panel plans, op list, dependency DAG, wavefront
partition and worker assignment by :mod:`repro.qr.schedule`'s one memo, the
worker processes of one-shot calls and the free shared-memory segments
(views, record skeleton and descriptor with each) by :mod:`repro.qr.parallel`.

A :class:`QRSession` is its :class:`~repro.qr.parallel.WorkerPool` — the
class of the pool kept behind one-shot calls, a separate instance with its
own generations and ``health()`` — whose workers keep their shared-memory
attachments cached between jobs.  It takes its plans from
:func:`~repro.qr.schedule.schedule_for` like every other caller and keeps
only the set of geometries ``(tree, m, n, nb, ib, h, shifted)`` it has
factored, which is what its ``plan.hits`` / ``plan.misses`` count.

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
>>> h = sess.health()["plan_cache"]
>>> h["hits"], h["misses"]
(1, 1)
"""

from __future__ import annotations

from ..obs import record as _obs_record
from ..obs.record import K_PLAN_HITS, K_PLAN_MISSES
from ..util.errors import ConfigurationError
from ..util.validation import check_positive_int
from .parallel import WorkerPool, default_n_procs

__all__ = ["QRSession", "WorkerPool"]


class QRSession:
    """Reusable factorization context: a worker pool kept across calls.

    Use as a context manager (or call :meth:`close` explicitly)::

        with QRSession(n_procs=4) as sess:
            for a in matrices:                 # same shape/nb/ib/tree/h
                f = sess.factor(a, nb=64, ib=16)

    The first call is *cold* — it spawns the pool (and derives the plan if
    no caller in the process has), costing what a process's first one-shot
    ``qr_factor`` costs.  Every later call on that configuration is *warm*:
    plan, DAG, wavefronts, assignment, and worker processes are all reused —
    each worker already holds its share — and so is a free shared-memory
    segment the workers map, so the call reduces to one pass in and the
    kernels (``stats.spawn_s`` collapses to roughly zero).  The plan is the
    process memo's (:func:`~repro.qr.schedule.schedule_for`): a geometry the
    memo has dropped since is derived again.
    Results are bit-exact with one-shot ``qr_factor`` on every backend.

    Parameters
    ----------
    n_procs:
        Pool size for ``backend="parallel"`` (default: usable CPUs).
        ``1`` keeps the pool empty and routes parallel calls to the
        serial fallback, mirroring ``qr_factor(n_procs=1)``.
    """

    def __init__(self, *, n_procs: int | None = None):
        if n_procs is None:
            n_procs = default_n_procs()
        check_positive_int(n_procs, "n_procs")
        self.n_procs = n_procs
        self._factored: set[tuple] = set()  # the schedule_for keys seen
        self._plan_hits = 0
        #: The worker pool (``None`` when ``n_procs=1``).
        self.pool = WorkerPool(n_procs) if n_procs > 1 else None
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

    def close(self) -> None:
        """Shut the pool down (idempotent); results keep their segments, and
        the free ones stay the process's."""
        if self._closed:
            return
        self._closed = True
        if self.pool is not None:
            self.pool.shutdown()

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError("QRSession is closed")

    def _count_plan(self, key: tuple) -> None:
        """Tally a call on geometry ``key``: a hit when this session has
        factored it before, else a miss (on the ``plan.*`` counters too when a
        recording is active)."""
        hit = key in self._factored
        self._factored.add(key)
        self._plan_hits += hit
        rec = _obs_record._RECORDER
        if rec is not None:
            rec.count(K_PLAN_HITS if hit else K_PLAN_MISSES)

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
            ``{"hits", "misses"}``: calls on a geometry this session had
            factored before, and on one it had not.
        ``last_run_id``
            The most recent ``factor`` call's run id (``None`` before the
            first call).
        """
        pool, p = None, self.pool
        if p is not None:
            pool = {
                "size": p.size,
                "alive": p.alive_count(),
                "workers": [
                    {"rank": rank, "alive": w.is_alive(), "generation": p.generations.get(rank, 0)}
                    for rank, w in sorted(p.procs.items())
                ],
                "generations": dict(p.generations),
            }
        return {
            "closed": self._closed,
            "pool": pool,
            "plan_cache": {"hits": self._plan_hits, "misses": len(self._factored)},
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

        Nothing is copied out: a ``parallel`` result is the views of its
        segment, valid for as long as it lives — through later calls and
        :meth:`close`; no call loads a segment whose result is alive.
        """
        from .api import qr_factor

        kw.setdefault("backend", "parallel")
        return qr_factor(a, session=self, **kw)

"""Factorization sessions: a tally over :func:`~repro.qr.api.qr_factor`.

In the tall-skinny batch regime the paper targets, the same
``(shape, nb, ib, tree, h)`` configuration is factored over and over.  What
does not depend on the matrix *values* is kept per process for *every*
caller: panel plans, op list, dependency DAG, wavefront partition and worker
assignment by :mod:`repro.qr.schedule`'s one memo, and the worker processes
and the free shared-memory segments (views, record skeleton and descriptor
with each) by :mod:`repro.qr.parallel`'s one pool.  A process's first
``backend="parallel"`` call forks the workers; every later one, a session's
or not, finds them idle.

A :class:`QRSession` owns none of that.  It fixes ``n_procs``, defaults
``backend`` to ``"parallel"``, and keeps a tally: the geometries
``(tree, m, n, nb, ib, h, shifted)`` it has factored — the key of the memo —
with a count of the calls that found theirs already there, and the run id
of its last call.  ``session.factor(a, ...)`` is ``qr_factor(a,
backend="parallel", n_procs=session.n_procs, ...)``, so every guarantee of
``qr_factor`` holds unchanged: factors are **bit-exact** with
``backend="serial"``, a dead worker's ops are handed on, and a
:class:`~repro.faults.FaultPlan` call runs on fresh generation-0 workers.
See ``docs/sessions.md`` for the lifecycle and the warm-vs-cold cost model;
``python3 -m bench`` measures the amortization (``session_warm_vs_lapack``
next to ``parallel_vs_lapack``).

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

from ..util.errors import ConfigurationError
from ..util.validation import check_positive_int
from . import parallel as _parallel
from .api import qr_factor

__all__ = ["QRSession"]


class QRSession:
    """A worker count and a tally of the geometries factored with it.

    Use as a context manager (or call :meth:`close` explicitly)::

        with QRSession(n_procs=4) as sess:
            for a in matrices:                 # same shape/nb/ib/tree/h
                f = sess.factor(a, nb=64, ib=16)

    A call is *cold* when no caller in the process has factored its
    geometry (it derives the plan) or it is the process's first parallel
    call (it forks the workers).  Every later call on that configuration is
    *warm*: plan, DAG, wavefronts, assignment and worker processes are all
    reused — each worker already holds its share — and so is a free
    shared-memory segment the workers map, so the call reduces to one pass
    in and the kernels (``stats.spawn_s`` collapses to roughly zero).  A
    geometry the memo has dropped since is derived again.

    Parameters
    ----------
    n_procs:
        Worker count of every call (default: usable CPUs).  ``1`` routes
        parallel calls to the serial fallback, mirroring
        ``qr_factor(n_procs=1)``.
    """

    def __init__(self, *, n_procs: int | None = None):
        if n_procs is None:
            n_procs = _parallel.default_n_procs()
        self.n_procs = check_positive_int(n_procs, "n_procs")
        self._factored: set[tuple] = set()  # the schedule_for keys seen
        self._plan_hits = 0
        self._closed = False
        #: ``run_id`` of the most recent ``factor`` call (``None`` before
        #: the first one).
        self.last_run_id: str | None = None

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "QRSession":
        self._check_open()
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Refuse further calls (idempotent).  No worker ends: they are the
        process's (:func:`~repro.qr.parallel.shutdown_workers` ends them),
        and every result keeps its segment."""
        self._closed = True

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
            ``None`` when ``n_procs=1``; otherwise the process's pool as a
            dict with ``size`` (the session's ``n_procs``), ``alive`` (live
            worker count), ``workers`` (per-rank ``{"rank", "alive",
            "generation"}`` rows), and ``generations`` (rank -> generation
            map).
        ``plan_cache``
            ``{"hits", "misses"}``: calls on a geometry this session had
            factored before, and on one it had not.
        ``last_run_id``
            The most recent ``factor`` call's run id (``None`` before the
            first call).
        """
        pool = None
        if self.n_procs > 1:
            p = _parallel._KEPT
            generations = dict(p.generations)
            workers = [{"rank": rank, "alive": w.is_alive(), "generation": generations.get(rank, 0)}
                       for rank, w in sorted(p.procs.items())]
            pool = {
                "size": self.n_procs,
                "alive": sum(w["alive"] for w in workers),
                "workers": workers,
                "generations": generations,
            }
        return {
            "closed": self._closed,
            "pool": pool,
            "plan_cache": {"hits": self._plan_hits, "misses": len(self._factored)},
            "last_run_id": self.last_run_id,
        }

    # -- factoring ---------------------------------------------------------

    def factor(self, a, **kw):
        """``qr_factor(a, backend="parallel", n_procs=self.n_procs, **kw)``,
        tallied.

        Accepts every :func:`~repro.qr.api.qr_factor` keyword; ``backend``
        defaults to ``"parallel"``, and an ``n_procs`` other than the
        session's is a :class:`ConfigurationError` on every backend.  The
        result's geometry is counted once the call has returned; a call that
        raises counts nothing.

        Nothing is copied out: a ``parallel`` result is the views of its
        segment, valid for as long as it lives — through later calls and
        :meth:`close`; no call loads a segment whose result is alive.
        """
        self._check_open()
        n_procs = kw.pop("n_procs", None)
        if n_procs is not None and n_procs != self.n_procs:
            raise ConfigurationError(
                f"n_procs={n_procs!r} conflicts with the session's n_procs={self.n_procs}; "
                "omit n_procs in a session call"
            )
        kw.setdefault("backend", "parallel")
        f = qr_factor(a, n_procs=self.n_procs, **kw)
        key = (f.tree, *f.shape, f._factors.a.nb, f._factors.ib, f.h, f.shifted)
        self._plan_hits += key in self._factored
        self._factored.add(key)
        self.last_run_id = f.run_id
        return f

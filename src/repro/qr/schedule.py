"""The schedule memo: derive once per process, run many times.

Panel plans, the expanded operation list, the dependency DAG and the
wavefront partition are pure functions of the factorization geometry
``(tree, m, n, nb, ib, h, shifted)`` — the matrix *values* never enter.  The
paper builds its virtual systolic array once and streams tiles through it;
:func:`schedule_for` is that step here: a process-wide, LRU-bounded memo
returning one :class:`Schedule` per geometry, behind every backend.
:func:`~repro.qr.api.qr_factor` (with or without a session),
:func:`~repro.qr.backends.run_backend`,
:func:`~repro.qr.persist.resume_factorization` and
:class:`~repro.qr.session.PlanCache` all obtain plans, ops, graph and
wavefronts from it, so a repeat call on a geometry pays copy-in and kernels
only.  This is the one module of the execution path that calls
``plan_all_panels``, ``expand_plans``, ``op_dependency_graph`` or
``compute_wavefronts`` (the ``derive-once`` rule of :mod:`repro.lint`
enforces it).

A memoized :class:`Schedule` is shared by every caller in the process and
read-only by convention: executors index ``ops`` and walk the graph, nothing
in ``src/`` mutates either.  Two threads racing the first derivation of a
key both compute the same pure result; whichever the cache keeps is
equivalent.
"""

from __future__ import annotations

from functools import lru_cache

from ..tiles.layout import TileLayout
from ..trees.plan import TreeKind, plan_all_panels
from .dag import op_dependency_graph
from .ops import expand_plans
from .wavefront import compute_wavefronts

__all__ = ["Schedule", "schedule_for", "CAPACITY"]

#: Geometries kept before the least recently used one is dropped — the
#: default ``plan_cache_size`` of a :class:`~repro.qr.session.QRSession`.
CAPACITY = 8


class Schedule:
    """Plans and ops of one geometry, plus its lazily derived, then pinned,
    dependency graph and wavefront partition."""

    def __init__(self, plans, ops):
        self.plans = plans
        self.ops = ops
        self._graph = None
        self._wavefronts = None

    def graph(self):
        """:func:`~repro.qr.dag.op_dependency_graph` of :attr:`ops`.  The
        graph keeps its CSR arrays as Python lists too
        (:meth:`~repro.dessim.graph.TaskGraph.csr_lists`), converted once,
        for the level walk and the parallel dispatcher."""
        if self._graph is None:
            self._graph = op_dependency_graph(self.ops)
        return self._graph

    def wavefronts(self):
        """:func:`~repro.qr.wavefront.compute_wavefronts` of :attr:`ops`."""
        if self._wavefronts is None:
            self._wavefronts = compute_wavefronts(self.ops, self.graph())
        return self._wavefronts


@lru_cache(maxsize=CAPACITY)
def schedule_for(kind: TreeKind, m: int, n: int, nb: int, ib: int, h: int,
                 shifted: bool) -> Schedule:
    """The process-wide :class:`Schedule` of one geometry (arguments
    positional: they are the memo key, the one a session's plan cache uses).

    ``schedule_for.cache_info()`` reports hits, misses and the current
    size; ``schedule_for.cache_clear()`` empties the memo.
    """
    layout = TileLayout(m, n, nb)
    plans = plan_all_panels(kind, layout.mt, layout.nt, h=h, shifted=shifted)
    return Schedule(plans, expand_plans(layout, plans))

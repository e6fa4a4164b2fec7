"""The schedule memo: derive once per process, run many times.

Panel plans, the expanded operation list, the dependency DAG, the wavefront
partition and the assignment of ops to worker ranks are pure functions of
the factorization geometry ``(tree, m, n, nb, ib, h, shifted)`` (the last
also of the worker count and policy) — the matrix *values* never enter.  The
paper builds its virtual systolic array once and streams tiles through it;
:func:`schedule_for` is that step here: a process-wide, LRU-bounded memo
returning one :class:`Schedule` per geometry, behind every backend.
:func:`~repro.qr.api.qr_factor`,
:func:`~repro.qr.backends.run_backend` and
:func:`~repro.qr.persist.resume_factorization` all obtain plans, ops,
graph, wavefronts and assignment from it — the one object of a geometry, no
caller keeps a copy of its parts or pins it — so a repeat call on a geometry pays
copy-in and kernels only.  This is the one module of the execution path that
calls ``plan_all_panels``, ``expand_plans``, ``op_dependency_graph``,
``compute_wavefronts``, :func:`list_schedule` or the segment's
``_segment_plan`` (the ``derive-once`` rule of :mod:`repro.lint` enforces it).

A memoized :class:`Schedule` is shared by every caller in the process and
read-only by convention: executors index ``ops`` and walk the graph, nothing
in ``src/`` mutates either.  Two threads racing the first derivation of a
key both compute the same pure result; whichever the cache keeps is
equivalent.
"""

from __future__ import annotations

import heapq
from functools import lru_cache

from ..kernels.flops import kernel_flops
from ..tiles.layout import TileLayout
from ..tiles.shared import _segment_plan
from ..trees.plan import TreeKind, plan_all_panels
from .dag import op_dependency_graph
from .ops import expand_plans
from .reference import factor_ops
from .wavefront import compute_wavefronts

__all__ = ["Schedule", "schedule_for", "list_schedule", "CAPACITY", "POLICIES"]

#: Geometries kept before the least recently used one is dropped, for every
#: caller in the process alike (docs/sessions.md sizes an entry).
CAPACITY = 8

#: What one op costs the list-schedule model beyond its arithmetic, in flops.
#: A weight of the model, left as it is on purpose: every worker assignment,
#: and so every ``parallel`` timing, follows from it.  It no longer equals the
#: per-op Python it was sized after (40 kflop is 25 us at 1.6 Gflop/s): the
#: core's driver costs 1.2–3.1 us per op with the kernels stubbed out, and the
#: core runs 3–5 us per op slower than a bare loop of the same LAPACK calls
#: (``tools/fixed_cost_probes.py glue`` on a 2-vCPU x86 VM; docs/performance.md,
#: "One op, one LAPACK call").
OP_OVERHEAD_FLOPS = 4.0e4


#: The ready-pool disciplines (paper Section IV-A), interpreted by
#: :class:`_ReadyPool` here and by the PULSAR runtime and the DES engine.
POLICIES = ("lazy", "aggressive")


class _ReadyPool(list):
    """Ready-op pool with the two PRT disciplines (lazy / aggressive).

    ``head()`` ranks pools against each other, lowest first: the smallest
    index (lazy), or minus the ``stamps`` entry of the last op pushed
    (aggressive: ``stamps[idx]`` counts the pushes before op ``idx``'s)."""

    def __init__(self, policy: str, stamps: list[int]):
        super().__init__()
        self._lazy = policy == "lazy"
        self._stamps = stamps

    def push(self, idx: int) -> None:
        if self._lazy:
            heapq.heappush(self, idx)  # oldest in program order first
        else:
            self.append(idx)  # most recently enabled first

    def pop(self) -> int:
        return heapq.heappop(self) if self._lazy else list.pop(self)

    def head(self) -> int:
        return self[0] if self._lazy else -self._stamps[self[-1]]


def list_schedule(ops, graph, ib: int, n_procs: int, policy: str) -> tuple:
    """Static assignment of ``ops`` to ``n_procs`` ranks: who runs what, in
    which order, waiting on whom.

    List-schedules the DAG on ``n_procs`` model workers.  An op costs its
    :func:`~repro.kernels.flops.kernel_flops` plus
    :data:`OP_OVERHEAD_FLOPS` and has a *home*: rank ``row * n_procs // mt``
    of the contiguous blocks of tile rows, ``row`` the row it eliminates
    (``k2`` of a TS/TT op, ``i`` of any other) and ``mt`` one more than the
    largest such row, which is the largest row any op names (a TS/TT pivot
    lies above the row it eliminates).  So a flat-tree domain stays on one
    rank, as the paper keeps it on one node, and only merges between blocks
    move a tile between cores.  Each rank has a ready pool (``policy``:
    ``"lazy"`` the oldest in program order first, ``"aggressive"`` the most
    recently enabled); an idle worker, the one that just finished first,
    takes the next op of its own pool, and only when that is empty the op
    the policy would pick first across the others.  It returns one *share*
    per rank: a tuple of ``(seq, idx, waits)`` entries in the order the
    model started them.  ``seq`` is the op's position in the model's global
    start order, ``waits`` the indices of all its DAG predecessors.

    An op starts in the model only after its predecessors finished, so
    ``seq`` is a topological order of the DAG and every share ascends in it.
    That is the deadlock-freedom precondition of the flag-driven workers
    (:class:`repro.qr.protocol.Walk`): however shares are later merged
    (a survivor adopting a dead rank's entries sorts by ``seq``), each
    worker's list stays a subsequence of one topological order, so the
    first unfinished op of that order is always the first unfinished entry
    of its owner's list, with every flag it waits on up.
    :func:`repro.analysis.races.certify_schedule` checks exactly this.
    """
    succ_index, succ_task, n_deps = graph.csr_lists()
    deps_left = n_deps.copy()
    preds: list[list[int]] = [[] for _ in ops]
    for u in range(len(ops)):
        for v in succ_task[succ_index[u]:succ_index[u + 1]]:
            preds[v].append(u)
    rows = [op.k2 if op.k2 >= 0 else op.i for op in ops]
    mt = 1 + max(rows, default=0)
    home = [row * n_procs // mt for row in rows]
    stamps = [0] * len(ops)
    pools = [_ReadyPool(policy, stamps) for _ in range(n_procs)]
    pushes = 0
    for idx, left in enumerate(deps_left):
        if left == 0:
            pools[home[idx]].push(idx)
            stamps[idx] = pushes
            pushes += 1
    shares: list[list[tuple]] = [[] for _ in range(n_procs)]
    idle = list(range(n_procs - 1, -1, -1))  # pop() yields rank 0 first
    running: list[tuple[float, int, int, int]] = []  # (finish, seq, rank, idx)
    costs: dict[tuple, float] = {}  # per kernel shape: few distinct ones
    now, seq = 0.0, 0
    while pushes > seq or running:  # seq counts the pops
        while idle and pushes > seq:
            rank = idle.pop()
            pool = pools[rank]
            if not pool:  # nothing of its own: the policy's pick of the others'
                pool = min((p for p in pools if p), key=_ReadyPool.head)
            idx = pool.pop()
            op = ops[idx]
            shape = (op.kind, op.m2, op.k, op.q)
            cost = costs.get(shape)
            if cost is None:
                try:
                    cost = kernel_flops(*shape, ib) + OP_OVERHEAD_FLOPS
                except KeyError:  # not a tile kernel: the worker that fires it says so
                    cost = OP_OVERHEAD_FLOPS
                costs[shape] = cost
            shares[rank].append((seq, idx, tuple(preds[idx])))
            heapq.heappush(running, (now + cost, seq, rank, idx))
            seq += 1
        now, _, rank, idx = heapq.heappop(running)
        idle.append(rank)
        for d in succ_task[succ_index[idx]:succ_index[idx + 1]]:
            deps_left[d] -= 1
            if deps_left[d] == 0:
                pools[home[d]].push(d)
                stamps[d] = pushes
                pushes += 1
    return tuple(tuple(share) for share in shares)


class Schedule:
    """Plans and ops of one geometry, plus its lazily derived, then pinned,
    dependency graph, wavefront partition, per-``(n_procs, policy)`` worker
    assignments, factor-op table and shared-segment offset tables."""

    def __init__(self, plans, ops, ib: int, layout: TileLayout):
        self.plans = plans
        self.ops = ops
        self.ib = ib
        self.layout = layout
        self._graph = None
        self._wavefronts = None
        self._segment_plan = self._factor_ops = None
        self._assignments: dict[tuple[int, str], tuple] = {}

    def graph(self):
        """:func:`~repro.qr.dag.op_dependency_graph` of :attr:`ops`.  The
        graph keeps its CSR arrays as Python lists too
        (:meth:`~repro.dessim.graph.TaskGraph.csr_lists`), converted once,
        for the level walk and the list scheduler."""
        if self._graph is None:
            self._graph = op_dependency_graph(self.ops)
        return self._graph

    def wavefronts(self):
        """:func:`~repro.qr.wavefront.compute_wavefronts` of :attr:`ops`."""
        if self._wavefronts is None:
            self._wavefronts = compute_wavefronts(self.ops, self.graph())
        return self._wavefronts

    def assignment(self, n_procs: int, policy: str):
        """:func:`list_schedule` of :attr:`ops` on ``n_procs`` ranks — one
        object per ``(n_procs, policy)`` however often it is asked for, so a
        :class:`~repro.qr.parallel.WorkerPool` can tell by identity that a
        worker already holds its share."""
        key = (n_procs, policy)
        shares = self._assignments.get(key)
        if shares is None:  # setdefault: of two racing derivations, one object stays
            shares = self._assignments.setdefault(
                key, list_schedule(self.ops, self.graph(), self.ib, n_procs, policy))
        return shares

    def factor_ops(self):
        """:func:`~repro.qr.reference.factor_ops` of :attr:`ops`: what
        :func:`~repro.qr.reference.factor_records` walks for every result."""
        if self._factor_ops is None:
            self._factor_ops = factor_ops(self.ops)
        return self._factor_ops

    def segment_plan(self):
        """:func:`~repro.tiles.shared._segment_plan` of :attr:`ops`: where
        every tile, ``T`` slot and flag of a job sits in its shared segment.
        :class:`~repro.tiles.shared.SharedTileStore` takes the tables from
        here when it is handed the schedule in place of the op list — the
        parent's, and the one a pool worker keeps around the op list it was
        sent."""
        if self._segment_plan is None:
            self._segment_plan = _segment_plan(self.layout, self.ops, self.ib)
        return self._segment_plan


@lru_cache(maxsize=CAPACITY)
def schedule_for(kind: TreeKind, m: int, n: int, nb: int, ib: int, h: int,
                 shifted: bool) -> Schedule:
    """The process-wide :class:`Schedule` of one geometry (arguments
    positional: they are the memo key, the one a session counts its hits on).

    ``schedule_for.cache_info()`` reports hits, misses and the current
    size; ``schedule_for.cache_clear()`` empties the memo.
    """
    layout = TileLayout(m, n, nb)
    plans = plan_all_panels(kind, layout.mt, layout.nt, h=h, shifted=shifted)
    return Schedule(plans, expand_plans(layout, plans), ib, layout)

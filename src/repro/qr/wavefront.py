"""Wavefront partition and the wavefront schedule for tile QR.

The dependency DAG of a tree QR is shallow and wide: at every level of
the longest-path schedule, dozens of independent ops of the *same kind
and shape* are ready (one TSQRT per domain; one TSMQR per domain per
trailing column).  This module walks the DAG level-synchronously:

1. :func:`compute_wavefronts` partitions the op list into *wavefronts*
   — antichains of the dependency graph whose ops touch pairwise
   disjoint tiles — using longest-path levels and a greedy first-fit
   split of each level (the split only triggers on write-after-read
   pairs, which share a level because the DAG has no WAR edges).
2. :func:`execute_ops_batched` hands the partition to the execution core
   (:func:`repro.qr.execute.run_schedule`), which runs one wavefront per
   step: each member's kernel, one LAPACK call, in place on its
   column-major tile views.

"Batched" names the *schedule*, not a second kernel family: there is one
arithmetic per kernel kind, so ``backend="batched"`` produces factors
bit-identical to ``serial`` by construction, in any order that respects
every DAG edge (wavefronts concatenate to a legal schedule) —
``tests/test_wavefront.py`` asserts both properties.  The partition is
derived once per geometry and process (:mod:`repro.qr.schedule`); the
parallel dispatcher does not use it (it fires ops as their own
dependencies are met).

Observability: every kernel call records its own op-tagged span, as on the
serial schedule; ``batch.calls`` / ``batch.ops`` count the wavefront steps
run and the ops inside them.
"""

from __future__ import annotations

from ..tiles.matrix import TileMatrix
from ..util.validation import require
from .dag import op_dependency_graph
from .execute import run_schedule
from .ops import Op
from .reference import TileQRFactors, factor_records

__all__ = ["compute_wavefronts", "op_levels", "execute_ops_batched", "wavefront_stats"]


def op_levels(ops: list[Op], graph=None) -> list[int]:
    """Longest-path level of every op in the dependency DAG.

    Level 0 ops have no predecessors; every edge strictly increases the
    level, so the ops of one level form an antichain and any order that
    lists whole levels in sequence is a legal schedule.
    """
    g = op_dependency_graph(ops) if graph is None else graph
    succ_index, succ_task, n_deps = g.csr_lists()
    n = g.n_tasks
    level = [0] * n
    indeg = n_deps.copy()
    stack = [t for t in range(n) if indeg[t] == 0]
    seen = 0
    while stack:
        t = stack.pop()
        seen += 1
        below = level[t] + 1
        for d in succ_task[succ_index[t]:succ_index[t + 1]]:
            if below > level[d]:
                level[d] = below
            indeg[d] -= 1
            if indeg[d] == 0:
                stack.append(d)
    require(seen == n, "dependency graph has a cycle")
    return level


def compute_wavefronts(ops: list[Op], graph=None) -> list[list[int]]:
    """Partition ``ops`` into wavefronts of independent, tile-disjoint ops.

    Returns a list of wavefronts, each a list of op indices.  Guarantees
    (property-tested in ``tests/test_wavefront.py``):

    * every op index appears in exactly one wavefront;
    * no wavefront contains two ops touching (reading or writing) the
      same tile;
    * concatenating the wavefronts respects every edge of
      :func:`~repro.qr.dag.op_dependency_graph` — the result is a legal
      schedule.

    Ops of one DAG level are already mutually independent; the only
    same-level tile sharing is a V-tile read racing a later write into a
    disjoint storage region of the same tile (the WAR pairs the DAG
    deliberately has no edges for) or two updates reading one V tile.
    A greedy first-fit pass splits those into consecutive wavefronts,
    preserving op order within each level.
    """
    level = op_levels(ops, graph)
    by_level: list[list[int]] = [[] for _ in range(max(level, default=-1) + 1)]
    for idx, lvl in enumerate(level):
        by_level[lvl].append(idx)

    wavefronts: list[list[int]] = []
    for members in by_level:
        # First-fit: place each op in the earliest wavefront of this level
        # whose touched-tile set it does not intersect.
        slots: list[tuple[list[int], set]] = []
        for idx in members:
            op = ops[idx]
            touched = set(op.reads()) | set(op.writes())
            for wf, tiles in slots:
                if not (tiles & touched):
                    wf.append(idx)
                    tiles |= touched
                    break
            else:
                slots.append(([idx], touched))
        wavefronts.extend(wf for wf, _ in slots)
    return wavefronts


def wavefront_stats(ops: list[Op], wavefronts: list[list[int]] | None = None) -> dict:
    """Summary statistics of a wavefront partition (for docs and reports).

    Returns wavefront count, mean/max width, and the fraction of ops that
    share a wavefront with at least one other op of the same signature —
    the number that predicts how evenly a wavefront splits across the
    parallel backend's workers for a given tree shape.
    """
    if wavefronts is None:
        wavefronts = compute_wavefronts(ops)
    widths = [len(wf) for wf in wavefronts]
    batched_ops = 0
    for wf in wavefronts:
        groups: dict = {}
        for idx in wf:
            groups.setdefault(_signature(ops[idx]), []).append(idx)
        batched_ops += sum(len(g) for g in groups.values() if len(g) >= 2)
    n = len(ops)
    return {
        "n_ops": n,
        "n_wavefronts": len(wavefronts),
        "mean_width": (n / len(wavefronts)) if wavefronts else 0.0,
        "max_width": max(widths, default=0),
        "batched_fraction": (batched_ops / n) if n else 0.0,
    }


def _signature(op: Op) -> tuple:
    """Approximate grouping key for :func:`wavefront_stats`.

    ``m2``/``k``/``q`` pin the operand shapes for every non-ragged tile
    (ragged boundary tiles of one signature can still differ in shape).
    """
    return (op.kind, op.m2, op.k, op.q)


def execute_ops_batched(
    a: TileMatrix, ops, ib: int, *, wavefronts=None,
    fault_plan=None, checkpoint=None, skip=None, preloaded_ts=None,
) -> TileQRFactors:
    """Run an operation list (or the schedule holding it) on ``a`` (in
    place) with wavefront batching.

    Semantically identical to :func:`repro.qr.reference.execute_ops` —
    factors come out bit-identical — but executes the DAG level by level,
    one wavefront per step.  Factor records are emitted in program order, so
    :class:`~repro.qr.reference.TileQRFactors` application order is
    unchanged.

    ``wavefronts`` accepts a precomputed partition of *exactly these*
    ``ops`` (:func:`~repro.qr.backends.run_backend` passes the memoized one
    of :func:`repro.qr.schedule.schedule_for`); the default ``None``
    computes it here.  ``fault_plan`` /
    ``checkpoint`` / ``skip`` / ``preloaded_ts`` are documented on
    :func:`repro.qr.execute.run_schedule`.
    """
    held, ops = ops, getattr(ops, "ops", ops)  # a schedule keeps its factor-op table
    if wavefronts is None:
        wavefronts = compute_wavefronts(ops)
    ts = run_schedule(
        a, ops, ib, wavefronts, fault_plan=fault_plan, checkpoint=checkpoint,
        skip=skip, preloaded_ts=preloaded_ts,
    )
    return TileQRFactors(a=a, records=factor_records(held, ts.__getitem__), ib=ib)

"""The execution core: one kernel table, one step runner, one guarded driver.

Every tree shape is just a different elimination list over the same six
tile kernels (paper Sec. V-B), and every executor just a different walk of
that list.  This is the only module in :mod:`repro.qr` that turns an
:class:`~repro.qr.ops.Op` into a kernel call:

* :data:`KERNELS` maps a kind to its kernel — one arithmetic per kind.  An
  op carries its operand coordinates in argument order and its ``T`` key
  (:class:`~repro.qr.ops.Op`, derived with the schedule) — factor kernels
  take ``(*written, ib)`` and return ``T``, update kernels take
  ``(v, T, *written)`` — so no per-kind code remains and nothing is
  resolved per op.
* :func:`run_step` runs one step — the kernel of each member, in place on
  its tile views — on any *store* offering ``tile(i, j)``, ``get_t(key)``
  and ``put_t(key, t)``: :class:`LocalStore` in process,
  :class:`~repro.tiles.shared.SharedTileStore` in the parallel workers.
* :func:`run_schedule` is the single in-process driver; the SDC guard,
  checkpoint cadence, resume skip set, lane name and progress gauge are
  applied there and nowhere else.

Tiles are column-major (:mod:`repro.tiles.matrix`), so each kernel is one
LAPACK call working in place on the store — nothing is gathered, copied or
scattered around it — and a wide step is the same kernel mapped over its
members.  Every schedule respects the dependency DAG, so every path through
this module produces the same factors (``tests/test_execute_core.py``).
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..kernels._lapack import one_blas_thread
from ..obs import record as _obs_record
from ..util.validation import require
from .checksum import SDCGuard
from .ops import Op, operand_views

__all__ = ["KERNELS", "LocalStore", "run_op", "run_step", "run_schedule"]

#: ``kind -> kernel`` (the instrumented shims of :mod:`repro.kernels`).
KERNELS = {
    "GEQRT": kernels.geqrt,
    "ORMQR": kernels.ormqr,
    "TSQRT": kernels.tsqrt,
    "TSMQR": kernels.tsmqr,
    "TTQRT": kernels.ttqrt,
    "TTMQR": kernels.ttmqr,
}


class LocalStore:
    """In-process store: the tile grid of a
    :class:`~repro.tiles.matrix.TileMatrix` plus a dict of ``T`` factors
    keyed by :func:`~repro.tiles.shared.t_factor_key`.

    ``tile`` indexes the grid directly, as
    :meth:`SharedTileStore.tile <repro.tiles.shared.SharedTileStore.tile>`
    does: op coordinates come from the planner, and the bounds checks of the
    public :meth:`TileMatrix.tile <repro.tiles.matrix.TileMatrix.tile>` cost
    more per access than they are worth several times per executed op.
    """

    def __init__(self, a):
        grid = a.grid
        self.tile = lambda i, j: grid[i][j]
        self.ts: dict[tuple[str, int, int], np.ndarray] = {}
        self.get_t = self.ts.__getitem__
        self.put_t = self.ts.__setitem__


def run_op(store, op: Op, ib: int) -> None:
    """Run one op's kernel in place on ``store``.

    The views are read off ``op.operands`` and the ``T`` factor is found by
    ``op.t_key`` — both derived with the op, once per geometry — so nothing
    but the views is made per op.  A factor kernel's ``T`` is deposited with
    ``store.put_t`` so the update kernels of the same panel find it.  This
    is also what the SDC guard re-invokes to recompute a single op.
    """
    tile, views = store.tile, []
    for i, j, sub in op.operands:  # a loop: no comprehension frame per op
        views.append(tile(i, j) if sub is None else tile(i, j)[sub])
    if op.is_factor:
        store.put_t(op.t_key, KERNELS[op.kind](*views, ib))
    else:
        KERNELS[op.kind](views[0], store.get_t(op.t_key), *views[1:])


def run_step(store, ops: list[Op], members, ib: int, guard=None, on_done=None) -> None:
    """Execute one step of a schedule in place on ``store``.

    ``members`` index pairwise tile-disjoint, mutually independent ops (one
    op or a whole wavefront); each runs through :func:`run_op`
    on its own tile views, in the order given, tagged with its index for
    the kernel span an installed recorder takes.

    An armed ``guard`` snapshots a member's written regions before its
    kernel and verifies them after it, restoring and re-running a
    mismatching member through :func:`run_op`.  ``on_done(idx)`` fires only
    after *that* member verified — parallel workers raise the op's
    completion flag there, so a flag never endorses a corrupted tile.
    """
    tagged = _obs_record._RECORDER is not None
    for idx in members:
        op = ops[idx]
        if tagged:
            _obs_record.set_current_op(idx)
        if guard is None:
            run_op(store, op, ib)
        else:
            writes = list(operand_views(store, op)[1])
            snapshot = [w.copy(order="K") for w in writes]
            run_op(store, op, ib)
            guard.verify(idx, writes, snapshot, lambda: run_op(store, op, ib))
        if on_done is not None:
            on_done(idx)


def run_schedule(
    a, ops: list[Op], ib: int, wavefronts=None, *,
    fault_plan=None, checkpoint=None, skip=None, preloaded_ts=None,
) -> dict:
    """Run ``ops`` on the tile matrix ``a`` in place; return the ``T`` factors
    keyed by :func:`~repro.tiles.shared.t_factor_key`.

    ``wavefronts=None`` walks the list in program order, one op per step
    (lane ``"serial"``); a wavefront partition of *exactly these* ops walks
    it level by level, one wavefront per step (lane ``"batched"``, counted
    on ``batch.calls`` / ``batch.ops``).  Both are the same kernels on the
    same views, so the factors are bit-identical.

    ``fault_plan`` with ``faulty_sdc`` arms the checksum guard
    (:mod:`repro.qr.checksum`).  ``checkpoint`` (a bound
    :class:`~repro.qr.persist.CheckpointStore`) snapshots between steps —
    always a predecessor-closed frontier, since every DAG predecessor of a
    step ran in an earlier one.  ``skip`` holds op indices already executed
    on ``a`` (resume): their tile mutations are trusted and their ``T``
    factors come from ``preloaded_ts`` (op index -> array).  The kernels run
    on one BLAS thread (:data:`~repro.kernels._lapack.one_blas_thread`).
    """
    require(a.m >= a.n, f"tile QR requires m >= n, got {a.m} x {a.n}")
    store = LocalStore(a)
    skip = frozenset() if skip is None else frozenset(skip)
    for idx in skip.intersection(preloaded_ts or ()):
        store.put_t(ops[idx].t_key, preloaded_ts[idx])
    guard = SDCGuard(fault_plan, ops) if fault_plan is not None and fault_plan.faulty_sdc else None
    done = None
    if checkpoint is not None:
        done = np.zeros(len(ops), dtype=bool)
        done[list(skip)] = True
    batched = wavefronts is not None
    name = "batched" if batched else "serial"
    steps = wavefronts if batched else ([idx] for idx in range(len(ops)))
    # Observability (only when a recorder is installed): the kernels record
    # their own op-tagged spans; the driver names the lane and exposes
    # progress as a gauge.
    rec = _obs_record._RECORDER
    progress = [0]
    if rec is not None:
        rec.name_lane(0, name)
        rec.register_gauge(f"{name}.ops_done", lambda: progress[0])
    try:
        with one_blas_thread:
            for step in steps:
                live = [idx for idx in step if idx not in skip] if skip else step
                run_step(store, ops, live, ib, guard)
                progress[0] += len(step)
                if not live:
                    continue
                if batched and rec is not None:
                    rec.count(_obs_record.K_BATCH_CALLS)
                    rec.count(_obs_record.K_BATCH_OPS, len(live))
                if done is not None:
                    done[live] = True
                    checkpoint.note_done(len(live))
                    if checkpoint.due():
                        checkpoint.write(a, store.get_t, done)
            if done is not None:
                checkpoint.write(a, store.get_t, done)
    finally:
        if rec is not None:
            rec.unregister_gauge(f"{name}.ops_done")
            _obs_record.set_current_op(None)
    return store.ts

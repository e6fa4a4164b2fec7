"""The execution core: one kernel table, one step runner, one guarded driver.

Every tree shape is just a different elimination list over the same six
tile kernels (paper Sec. V-B), and every executor just a different walk of
that list.  This is the only module in :mod:`repro.qr` that turns an
:class:`~repro.qr.ops.Op` into a kernel call:

* :data:`KERNELS` maps a kind to its ``(scalar, stacked)`` kernel pair.  The
  views of :func:`~repro.qr.ops.operand_views` already are the argument
  lists — factor kernels take ``(*written, ib)`` and return ``T``, update
  kernels take ``(v, T, *written)`` — so no per-kind code remains.
* :func:`run_step` runs one step on any *store* offering ``tile(i, j)``,
  ``get_t(key)`` and ``put_t(key, t)``: :class:`LocalStore` in process,
  :class:`~repro.tiles.shared.SharedTileStore` in the parallel workers.
* :func:`run_schedule` is the single in-process driver; the SDC guard,
  checkpoint cadence, resume skip set, op-tagged spans, lane name and
  progress gauge are applied there and nowhere else.

Scalar and stacked kernels are bit-identical and every schedule respects
the dependency DAG, so every path through this module produces the same
factors (``tests/test_execute_core.py``).
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..kernels import batched as _bk
from ..kernels.flops import kernel_flops
from ..obs import record as _obs_record
from ..obs.adapters import KERNEL_CATEGORY
from ..tiles.shared import t_factor_key
from ..util.validation import require
from .checksum import SDCGuard
from .ops import Op, operand_views

__all__ = [
    "KERNELS", "LocalStore", "run_op", "group_by_shape", "run_step",
    "record_op_span", "run_schedule",
]

#: ``kind -> (scalar kernel, stacked kernel)``.
KERNELS = {
    "GEQRT": (kernels.geqrt, _bk.geqrt_batched),
    "ORMQR": (kernels.ormqr, _bk.ormqr_batched),
    "TSQRT": (kernels.tsqrt, _bk.tsqrt_batched),
    "TSMQR": (kernels.tsmqr, _bk.tsmqr_batched),
    "TTQRT": (kernels.ttqrt, _bk.ttqrt_batched),
    "TTMQR": (kernels.ttmqr, _bk.ttmqr_batched),
}


class LocalStore:
    """In-process store: a :class:`~repro.tiles.matrix.TileMatrix` plus a
    dict of ``T`` factors keyed by :func:`~repro.tiles.shared.t_factor_key`."""

    def __init__(self, a):
        self.tile = a.tile
        self.ts: dict[tuple[str, int, int], np.ndarray] = {}
        self.get_t = self.ts.__getitem__
        self.put_t = self.ts.__setitem__


def run_op(store, op: Op, ib: int) -> None:
    """Run one op's scalar kernel in place on ``store``.

    A factor kernel's ``T`` is deposited with ``store.put_t`` so the update
    kernels of the same panel find it.  This is also what the SDC guard
    re-invokes to recompute a single op, whichever path ran it first.
    """
    reads, writes = operand_views(store, op)
    scalar = KERNELS[op.kind][0]
    if op.is_factor:
        store.put_t(t_factor_key(op), scalar(*writes, ib))
    else:
        scalar(*reads, store.get_t(t_factor_key(op)), *writes)


def group_by_shape(store, ops: list[Op], members) -> list[list[int]]:
    """Split ``members`` into stackable groups: same kind, same view shapes.

    Every op of a group gathers into the same stack geometry (ragged
    boundary tiles fall into their own groups).  ``store`` only supplies
    tile shapes, so the parallel dispatcher groups on the parent's
    :class:`~repro.tiles.matrix.TileMatrix` what workers later run on the
    shared store.
    """
    if len(members) == 1:
        return [members]
    groups: dict[tuple, list[int]] = {}
    for idx in members:
        reads, writes = operand_views(store, ops[idx])
        key = (ops[idx].kind,) + tuple(v.shape for v in reads + writes)
        groups.setdefault(key, []).append(idx)
    return list(groups.values())


def _gather(views: list[np.ndarray]) -> np.ndarray:
    """Stack equal-shape tile views into one contiguous ``(B, m, n)`` array."""
    out = np.empty((len(views),) + views[0].shape)
    for b, v in enumerate(views):
        out[b] = v
    return out


def _run_stacked(store, ops: list[Op], members, ib: int, views) -> None:
    """One stacked kernel call over the operands of ``members``."""
    first = ops[members[0]]
    stacked = KERNELS[first.kind][1]
    operands = [[writes[p] for _, writes in views] for p in range(len(views[0][1]))]
    if first.is_factor:
        # A factor "stack" is one LAPACK call per tile, so it runs in place on
        # the views themselves: nothing to gather, nothing to scatter, and
        # only the regions the kernels own are stored to.
        for idx, t in zip(members, stacked(*operands, ib)):
            store.put_t(t_factor_key(ops[idx]), t)
        return
    written = [_gather(tiles) for tiles in operands]
    v = _gather([reads[0] for reads, _ in views])
    tstack = np.stack([store.get_t(t_factor_key(ops[idx])) for idx in members])
    stacked(v, tstack, *written)
    # Scatter whole sub-blocks back: an update kernel owns every byte of its
    # written views.
    for b, (_, writes) in enumerate(views):
        for p, w in enumerate(writes):
            w[...] = written[p][b]


def run_step(store, ops: list[Op], members, ib: int, guard=None, on_done=None) -> None:
    """Execute one step of a schedule in place on ``store``.

    ``members`` index one :func:`group_by_shape` group of pairwise
    tile-disjoint ops, so one stacked kernel call is bit-identical to
    running them one at a time: update kernels run on gathered ``(B, ...)``
    copies of their operands, factor kernels member by member in place on
    the tile views.  A 1-wide step runs the scalar kernel on the views
    directly.

    An armed ``guard`` snapshots every member's written regions before the
    call and verifies them after it, restoring and re-running a mismatching
    member alone through :func:`run_op`.  ``on_done(idx)`` fires only after
    *that* member verified — parallel workers raise the op's completion
    flag there, so a flag never endorses a corrupted tile.
    """
    wide = len(members) > 1
    views = snapshots = None
    if wide or guard is not None:
        views = [operand_views(store, ops[idx]) for idx in members]
    if guard is not None:
        snapshots = [[w.copy() for w in writes] for _, writes in views]
    if wide:
        _run_stacked(store, ops, members, ib, views)
    else:
        run_op(store, ops[members[0]], ib)
    for b, idx in enumerate(members):
        if guard is not None:
            guard.verify(
                idx, list(views[b][1]), snapshots[b],
                lambda op=ops[idx]: run_op(store, op, ib),
            )
        if on_done is not None:
            on_done(idx)


def record_op_span(rec, ops, idx: int, ib: int, start, end, lane: int, parent=None) -> None:
    """Record op ``idx`` as one kernel span over ``[start, end]`` on ``lane``,
    tagged with its index and charged its exact flop count."""
    op = ops[idx]
    rec.record_kernel(
        op.kind, KERNEL_CATEGORY[op.kind],
        kernel_flops(op.kind, op.m2, op.k, op.q, ib),
        start, end, lane, op=idx, parent=parent,
    )


def run_schedule(
    a, ops: list[Op], ib: int, wavefronts=None, *,
    fault_plan=None, checkpoint=None, skip=None, preloaded_ts=None,
) -> dict:
    """Run ``ops`` on the tile matrix ``a`` in place; return the ``T`` factors
    keyed by :func:`~repro.tiles.shared.t_factor_key`.

    ``wavefronts=None`` walks the list in program order, one scalar kernel
    per op (lane ``"serial"``); a wavefront partition of *exactly these*
    ops walks it level by level, fusing same-shape ops into stacked calls
    (lane ``"batched"``, counted on ``batch.calls`` / ``batch.ops``).

    ``fault_plan`` with ``faulty_sdc`` arms the checksum guard
    (:mod:`repro.qr.checksum`).  ``checkpoint`` (a bound
    :class:`~repro.qr.persist.CheckpointStore`) snapshots between steps —
    always a predecessor-closed frontier, since every DAG predecessor of a
    step ran in an earlier one.  ``skip`` holds op indices already executed
    on ``a`` (resume): their tile mutations are trusted and their ``T``
    factors come from ``preloaded_ts`` (op index -> array).
    """
    require(a.m >= a.n, f"tile QR requires m >= n, got {a.m} x {a.n}")
    store = LocalStore(a)
    skip = frozenset() if skip is None else frozenset(skip)
    for idx in skip.intersection(preloaded_ts or ()):
        store.put_t(t_factor_key(ops[idx]), preloaded_ts[idx])
    guard = SDCGuard(fault_plan) if fault_plan is not None and fault_plan.faulty_sdc else None
    done = None
    if checkpoint is not None:
        done = np.zeros(len(ops), dtype=bool)
        done[list(skip)] = True
    batched = wavefronts is not None
    name = "batched" if batched else "serial"
    steps = wavefronts if batched else ([idx] for idx in range(len(ops)))
    # Observability (only when a recorder is installed): tag each kernel
    # span with its op index and expose progress as a gauge.
    rec = _obs_record._RECORDER
    progress = [0]
    if rec is not None:
        rec.name_lane(0, name)
        rec.register_gauge(f"{name}.ops_done", lambda: progress[0])
    try:
        for step in steps:
            live = [idx for idx in step if idx not in skip] if skip else step
            progress[0] += len(step) - len(live)
            for members in group_by_shape(store, ops, live):
                if rec is None:
                    run_step(store, ops, members, ib, guard)
                else:
                    if len(members) == 1:
                        _obs_record.set_current_op(members[0])
                    start = rec.now()
                    run_step(store, ops, members, ib, guard)
                    if len(members) > 1:
                        # One stacked call becomes per-op spans slicing its
                        # window evenly: lane-busy time stays exact and every
                        # op has a span, so gap reports show no unmeasured
                        # time and critical-path waits stay non-negative.
                        width = (rec.now() - start) / len(members)
                        for b, idx in enumerate(members):
                            record_op_span(rec, ops, idx, ib, start + b * width,
                                           start + (b + 1) * width, 0)
                    if batched:
                        rec.count(_obs_record.K_BATCH_CALLS)
                        rec.count(_obs_record.K_BATCH_OPS, len(members))
                progress[0] += len(members)
                if done is not None:
                    done[members] = True
                    checkpoint.note_done(len(members))
                    if checkpoint.due():
                        checkpoint.write(a, store.get_t, done)
        if done is not None:
            checkpoint.write(a, store.get_t, done)
    finally:
        if rec is not None:
            rec.unregister_gauge(f"{name}.ops_done")
            _obs_record.set_current_op(None)
    return store.ts

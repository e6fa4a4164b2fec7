"""Stacked (batched) variants of the six tile kernels.

A wavefront of the tile-QR DAG contains many independent ops of the same
kind and shape (every trailing column of a panel repeats the same
``TSMQR``).  Executing the *update* kernels one Python call at a time pays
interpreter and NumPy dispatch overhead per op, per inner block.  The three
update kernels here hoist that loop into a leading batch axis: each takes
``(B, ...)`` stacks and performs one 3-D ``np.matmul`` where the scalar
kernel performs ``B`` separate 2-D calls.

The three *factor* kernels do not stack: each tile is one LAPACK call with
no NumPy inner loop left to fuse, so ``geqrt_batched`` / ``tsqrt_batched`` /
``ttqrt_batched`` are a plain loop of the scalar kernel over the slices.
They keep the ``(B, m, n)`` signature so a schedule step is "one stacked
call" for every kind; each slice is factored in place, so they equally take
a *list of tile views* — the execution core passes the views themselves and
skips the gather/scatter copies.

Bit-exactness contract
----------------------
Each ``*_batched`` kernel is **bit-identical** to mapping its scalar
counterpart over the batch (``tests/test_kernels_batched.py`` asserts
``np.array_equal`` across ib/shape sweeps, so ``backend="batched"``
reproduces ``backend="serial"`` factors exactly).  For the factor kernels
that is by construction.  For the update kernels it holds because every
reduction is expressed through ``np.matmul`` with per-slice operand layouts
matching the scalar kernels, and NumPy's stacked matmul performs the same
per-slice BLAS calls; everything else is elementwise ufuncs, which are
order-independent.  Reductions are *not* written via ``np.einsum`` or
``(x * x).sum()``, which round differently from BLAS dot products on this
platform.

If a future BLAS breaks per-slice equivalence for some shape, the
executor's documented fallback is :func:`repro.qr.verify.verify_factorization`
(see ``docs/performance.md``) — the sweep tests will localise the kernel.
"""

from __future__ import annotations

import numpy as np

from ..util.errors import ShapeError
from .geqrt import geqrt
from .tsqrt import _triu_mask, tsqrt, ttqrt

__all__ = [
    "geqrt_batched",
    "ormqr_batched",
    "tsqrt_batched",
    "tsmqr_batched",
    "ttqrt_batched",
    "ttmqr_batched",
]


def _check_stack(name: str, arr: np.ndarray, func: str) -> None:
    if arr.ndim != 3:
        raise ShapeError(f"{func}: {name} must be a (B, m, n) stack, got {arr.shape}")


def _unit_lower_batched(panel: np.ndarray, kb: int) -> np.ndarray:
    """Batched :func:`repro.kernels.geqrt._unit_lower` over ``(B, m, kb)``."""
    v = np.tril(panel, -1)
    v[:, np.arange(kb), np.arange(kb)] = 1.0
    return v


def geqrt_batched(a, ib: int) -> np.ndarray:
    """Factor each tile of ``a`` in place; return the ``(B, ib, k)`` ``T`` stack.

    ``a`` is a ``(B, m, n)`` stack or a sequence of ``B`` tile views; slice
    ``i`` of the outputs *is* ``geqrt(a[i], ib)``.
    """
    return np.stack([geqrt(tile, ib) for tile in a])


def tsqrt_batched(r, a2, ib: int) -> np.ndarray:
    """Factor ``B`` ``[r; a2]`` pairs in place; return ``(B, ib, k)`` T."""
    return np.stack([tsqrt(ri, ai, ib) for ri, ai in zip(r, a2, strict=True)])


def ttqrt_batched(r1, r2, ib: int) -> np.ndarray:
    """Triangle-on-triangle factorization of ``B`` pairs in place."""
    return np.stack([ttqrt(ri, ai, ib) for ri, ai in zip(r1, r2, strict=True)])


def ormqr_batched(
    v_tile: np.ndarray, t: np.ndarray, c: np.ndarray, trans: bool = True
) -> None:
    """Apply ``B`` GEQRT transformations to a ``(B, m, q)`` stack in place."""
    _check_stack("v_tile", v_tile, "ormqr_batched")
    _check_stack("c", c, "ormqr_batched")
    bsz, m, n = v_tile.shape
    k = min(m, n)
    ib = t.shape[1]
    if c.shape[1] != m:
        raise ShapeError(f"ormqr_batched: c has {c.shape[1]} rows, expected {m}")
    starts = list(range(0, k, ib))
    if not trans:
        starts.reverse()
    for k0 in starts:
        kb = min(ib, k - k0)
        t_blk = t[:, :kb, k0 : k0 + kb]
        v = _unit_lower_batched(v_tile[:, k0:m, k0 : k0 + kb], kb)
        csub = c[:, k0:m, :]
        tt = t_blk.transpose(0, 2, 1) if trans else t_blk
        csub -= v @ (tt @ (v.transpose(0, 2, 1) @ csub))


def tsmqr_batched(
    v2: np.ndarray,
    t: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
    trans: bool = True,
) -> None:
    """Apply ``B`` TSQRT transformations to stacked ``[c1; c2]`` in place."""
    _check_stack("v2", v2, "tsmqr_batched")
    bsz, m2, k = v2.shape
    ib = t.shape[1]
    if c1.shape[1] < k or c2.shape[1] != m2 or c1.shape[2] != c2.shape[2]:
        raise ShapeError(
            f"tsmqr_batched: c1 {c1.shape} / c2 {c2.shape} incompatible with v2 {v2.shape}"
        )
    starts = list(range(0, k, ib))
    if not trans:
        starts.reverse()
    for k0 in starts:
        kb = min(ib, k - k0)
        t_blk = t[:, :kb, k0 : k0 + kb]
        tt = t_blk.transpose(0, 2, 1) if trans else t_blk
        v = v2[:, :, k0 : k0 + kb]
        c1_blk = c1[:, k0 : k0 + kb, :]
        w = tt @ (c1_blk + v.transpose(0, 2, 1) @ c2)
        c1_blk -= w
        c2 -= v @ w


def ttmqr_batched(
    v2: np.ndarray,
    t: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
    trans: bool = True,
) -> None:
    """Apply ``B`` TTQRT transformations to stacked ``[c1; c2]`` in place."""
    _check_stack("v2", v2, "ttmqr_batched")
    bsz, m2, k = v2.shape
    ib = t.shape[1]
    if c1.shape[1] < k or c2.shape[1] != m2 or c1.shape[2] != c2.shape[2]:
        raise ShapeError(
            f"ttmqr_batched: c1 {c1.shape} / c2 {c2.shape} incompatible with v2 {v2.shape}"
        )
    starts = list(range(0, k, ib))
    if not trans:
        starts.reverse()
    for k0 in starts:
        kb = min(ib, k - k0)
        hi = min(k0 + kb, m2)
        t_blk = t[:, :kb, k0 : k0 + kb]
        tt = t_blk.transpose(0, 2, 1) if trans else t_blk
        v = np.where(_triu_mask(hi, kb, -k0), v2[:, :hi, k0 : k0 + kb], 0.0)
        c1_blk = c1[:, k0 : k0 + kb, :]
        c2_hi = c2[:, :hi, :]
        w = tt @ (c1_blk + v.transpose(0, 2, 1) @ c2_hi)
        c1_blk -= w
        c2_hi -= v @ w

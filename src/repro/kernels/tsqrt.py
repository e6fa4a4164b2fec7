"""``TSQRT``/``TTQRT``: incremental QR of two stacked tiles.

``tsqrt`` factors ``[R; A2]`` where ``R`` (``k x k``) is the already
upper-triangular pivot tile and ``A2`` is a full tile (the paper's
``dtsqrt(A(i,j), A(k,j))``); ``ttqrt`` is the triangle-on-triangle variant
used by the binary-tree reduction (``dttqrt``), where ``A2`` is itself upper
trapezoidal.

The reflector for column ``j`` has the structure ``[e_j; v2_j]``: the top
part is the ``j``-th unit vector, so only the bottom part ``v2_j`` (stored in
``A2``) is explicit.  Both factorizations are LAPACK's triangular-pentagonal
``dtpqrt`` (through SciPy) — the routine behind PLASMA's ``dtsqrt`` and
``dttqrt`` — with ``l = 0`` (rectangular ``A2``) for TS and ``l = m2``
(trapezoidal ``A2``) for TT, so ``ttqrt`` really skips the structural zeros:
it performs the cheaper flop count :func:`repro.kernels.flops.ttqrt_flops`
models, not TSQRT's count on triangular input.

In tile QR the *strictly lower* storage of ``R`` and of a TT ``A2`` holds
reflectors of earlier steps that other ops may be reading.  ``dtpqrt``
neither uses nor alters it (NaN there never reaches an output), and the
results are copied back under a mask into exactly the regions the schedule
certifier declares written (the pivot triangle; ``A2``'s upper trapezoid
for TT), so those bytes are never stored to.  :func:`tsmqr` / :func:`ttmqr`,
the updates, stay NumPy compact-WY.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtpqrt

from ..util.errors import ShapeError
from ..util.validation import check_positive_int
from .geqrt import _block_t

__all__ = ["tsqrt", "ttqrt", "tsmqr", "ttmqr"]

# Boolean upper-trapezoid masks used by the masked write-backs and by ttmqr,
# cached per (rows, cols, diag): tile QR hits the same few block shapes
# thousands of times, and rebuilding the mask (what np.triu does internally)
# dominated the setup cost.
_TRIU_MASKS: dict[tuple[int, int, int], np.ndarray] = {}


def _triu_mask(rows: int, cols: int, diag: int) -> np.ndarray:
    key = (rows, cols, diag)
    mask = _TRIU_MASKS.get(key)
    if mask is None:
        mask = ~np.tri(rows, cols, diag - 1, dtype=bool)
        mask.setflags(write=False)
        _TRIU_MASKS[key] = mask
    return mask


def tsqrt(r: np.ndarray, a2: np.ndarray, ib: int) -> np.ndarray:
    """Factor ``[r; a2]`` in place; return the ``T`` factor.

    Parameters
    ----------
    r:
        ``(k, k)`` upper-triangular pivot block; its triangle is updated to
        the new ``R`` factor (entries below the diagonal are ignored and left
        untouched, as they belong to previously computed reflectors).
    a2:
        ``(m2, k)`` tile, overwritten with the bottom parts ``V2`` of the
        reflectors.
    ib:
        Inner block size.

    Returns
    -------
    t:
        ``(ib, k)`` compact-WY factors, one triangular block per ``ib``
        columns (layout as in :func:`repro.kernels.geqrt.geqrt`).
    """
    check_positive_int(ib, "ib")
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ShapeError(f"tsqrt: r must be square, got {r.shape}")
    k = r.shape[1]
    if a2.ndim != 2 or a2.shape[1] != k:
        raise ShapeError(f"tsqrt: a2 must have {k} columns, got {a2.shape}")
    r_out, v2, t, info = dtpqrt(0, min(ib, k), r, a2)
    t = _block_t("tsqrt", t, info, ib)
    np.copyto(r, r_out, where=_triu_mask(k, k, 0))
    a2[...] = v2
    return t


def ttqrt(r1: np.ndarray, r2: np.ndarray, ib: int) -> np.ndarray:
    """Triangle-on-triangle factorization ``[r1; r2]`` (paper ``dttqrt``).

    ``r1`` is ``(k, k)`` upper triangular and ``r2`` is ``(m2, k)`` upper
    trapezoidal (``m2 <= k``; smaller only for a ragged last tile row);
    ``r1``'s triangle receives the combined ``R`` and ``r2``'s upper
    trapezoid the reflector parts ``V2``.

    Structure awareness is essential, not an optimisation: in tile QR the
    *strictly lower* storage of both arguments holds reflectors from earlier
    GEQRT/TS steps, so this kernel uses and writes only the upper
    trapezoids (reflector ``j`` has ``min(j+1, m2)`` explicit entries).
    """
    check_positive_int(ib, "ib")
    if r1.ndim != 2 or r1.shape[0] != r1.shape[1]:
        raise ShapeError(f"ttqrt: r1 must be square, got {r1.shape}")
    k = r1.shape[1]
    if r2.ndim != 2 or r2.shape[1] != k or r2.shape[0] > k:
        raise ShapeError(f"ttqrt: incompatible shapes, {r1.shape} vs {r2.shape}")
    m2 = r2.shape[0]
    r_out, v2, t, info = dtpqrt(m2, min(ib, k), r1, r2)
    t = _block_t("ttqrt", t, info, ib)
    np.copyto(r1, r_out, where=_triu_mask(k, k, 0))
    np.copyto(r2, v2, where=_triu_mask(m2, k, 0))
    return t


def tsmqr(
    v2: np.ndarray,
    t: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
    trans: bool = True,
) -> None:
    """Apply a ``tsqrt`` transformation to the stacked tiles ``[c1; c2]``.

    Corresponds to ``dtsmqr(A(i,j), A(k,j), A(i,l), A(k,l))``: the
    transformation computed from panel column ``j`` updates the two trailing
    tiles in column ``l``.  ``c1`` and ``c2`` are modified in place; ``trans``
    selects ``Q^T`` (factorization update) vs ``Q`` (used to rebuild ``Q``).

    Parameters
    ----------
    v2:
        ``(m2, k)`` reflector bottoms from :func:`tsqrt`.
    t:
        ``(ib, k)`` factor from :func:`tsqrt`.
    c1:
        Pivot-row tile, at least ``k`` rows.
    c2:
        ``(m2, q)`` second tile.
    """
    m2, k = v2.shape
    ib = t.shape[0]
    if c1.shape[0] < k:
        raise ShapeError(f"tsmqr: c1 needs >= {k} rows, got {c1.shape[0]}")
    if c2.shape[0] != m2 or c1.shape[1] != c2.shape[1]:
        raise ShapeError(
            f"tsmqr: c2 shape {c2.shape} incompatible with v2 {v2.shape} / c1 {c1.shape}"
        )
    starts = list(range(0, k, ib))
    if not trans:
        starts.reverse()
    for k0 in starts:
        kb = min(ib, k - k0)
        t_blk = t[:kb, k0 : k0 + kb]
        tt = t_blk.T if trans else t_blk
        v = v2[:, k0 : k0 + kb]
        c1_blk = c1[k0 : k0 + kb, :]
        w = tt @ (c1_blk + v.T @ c2)
        c1_blk -= w
        c2 -= v @ w


def ttmqr(
    v2: np.ndarray,
    t: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
    trans: bool = True,
) -> None:
    """Apply a ``ttqrt`` transformation (paper ``dttmqr``).

    ``v2`` is the tile slice whose *upper trapezoid* holds the TT reflector
    bottoms written by :func:`ttqrt`; as there, the strictly lower storage
    belongs to other reflectors and is masked out rather than read.  ``c1``
    (pivot row tile, >= k rows) and ``c2`` (``m2`` rows) are updated in
    place; ``trans`` selects ``Q^T`` vs ``Q``.
    """
    m2, k = v2.shape
    ib = t.shape[0]
    if c1.shape[0] < k:
        raise ShapeError(f"ttmqr: c1 needs >= {k} rows, got {c1.shape[0]}")
    if c2.shape[0] != m2 or c1.shape[1] != c2.shape[1]:
        raise ShapeError(
            f"ttmqr: c2 shape {c2.shape} incompatible with v2 {v2.shape} / c1 {c1.shape}"
        )
    starts = list(range(0, k, ib))
    if not trans:
        starts.reverse()
    for k0 in starts:
        kb = min(ib, k - k0)
        hi = min(k0 + kb, m2)
        t_blk = t[:kb, k0 : k0 + kb]
        tt = t_blk.T if trans else t_blk
        # Element (r, jj) of the block is a valid V2 entry iff r <= k0 + jj.
        v = np.where(_triu_mask(hi, kb, -k0), v2[:hi, k0 : k0 + kb], 0.0)
        c1_blk = c1[k0 : k0 + kb, :]
        c2_hi = c2[:hi, :]
        w = tt @ (c1_blk + v.T @ c2_hi)
        c1_blk -= w
        c2_hi -= v @ w

"""``TSQRT``/``TTQRT`` and their updates ``TSMQR``/``TTMQR``.

``tsqrt`` factors ``[R; A2]`` where ``R`` (``k x k``) is the already
upper-triangular pivot tile and ``A2`` is a full tile (the paper's
``dtsqrt(A(i,j), A(k,j))``); ``ttqrt`` is the triangle-on-triangle variant
used by the binary-tree reduction (``dttqrt``), where ``A2`` is itself upper
trapezoidal.  ``tsmqr``/``ttmqr`` apply those transformations to a pair of
trailing tiles.

The reflector for column ``j`` has the structure ``[e_j; v2_j]``: the top
part is the ``j``-th unit vector, so only the bottom part ``v2_j`` (stored in
``A2``) is explicit.  All four kernels are single calls of LAPACK's
triangular-pentagonal routines through SciPy — ``dtpqrt`` to factor and
``dtpmqrt`` to apply, the routines behind PLASMA's ``dtsqrt``/``dttqrt`` and
``dtsmqr``/``dttmqr`` — with ``l = 0`` (rectangular ``A2``) for TS and
``l = m2`` (trapezoidal ``A2``) for TT, so the TT kernels really skip the
structural zeros: they perform the cheaper flop counts
:func:`repro.kernels.flops.ttqrt_flops` / ``ttmqr_flops`` model.

In tile QR the *strictly lower* storage of ``R`` and of a TT ``A2`` holds
reflectors of earlier steps that other ops may be reading.  Neither LAPACK
routine uses or alters it (NaN there never reaches an output).  On
Fortran-contiguous operands they run in place, so those bytes are never
stored to; on any other operand they run on a copy (see
:mod:`repro.kernels.geqrt`) and the results are copied back under a mask
into exactly the regions the schedule certifier declares written (the pivot
triangle; ``A2``'s upper trapezoid for TT; the whole of an update kernel's
``c1[:k]`` and ``c2``).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtpmqrt, dtpqrt

from ..util.errors import ShapeError
from ..util.validation import check_positive_int
from .geqrt import _block_t, _check_info, _lapack_t

__all__ = ["tsqrt", "ttqrt", "tsmqr", "ttmqr"]

# Boolean upper-trapezoid masks for the copy path's write-backs, cached per
# (rows, cols): tile QR hits the same few block shapes over and over.
_TRIU_MASKS: dict[tuple[int, int], np.ndarray] = {}


def _triu_mask(rows: int, cols: int) -> np.ndarray:
    mask = _TRIU_MASKS.get((rows, cols))
    if mask is None:
        mask = ~np.tri(rows, cols, -1, dtype=bool)
        mask.setflags(write=False)
        _TRIU_MASKS[(rows, cols)] = mask
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
    r_out, v2, t, info = dtpqrt(0, min(ib, k), r, a2, overwrite_a=1, overwrite_b=1)
    t = _block_t("tsqrt", t, info, ib)
    if r_out is not r:
        np.copyto(r, r_out, where=_triu_mask(k, k))
    if v2 is not a2:
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
    r_out, v2, t, info = dtpqrt(m2, min(ib, k), r1, r2, overwrite_a=1, overwrite_b=1)
    t = _block_t("ttqrt", t, info, ib)
    if r_out is not r1:
        np.copyto(r1, r_out, where=_triu_mask(k, k))
    if v2 is not r2:
        np.copyto(r2, v2, where=_triu_mask(m2, k))
    return t


def _tpmqrt(name: str, l: int, v2, t, c1, c2, trans: bool) -> None:
    """One ``dtpmqrt`` on ``[c1[:k]; c2]``; an update kernel owns every byte
    of both blocks, so the copy path stores them back whole."""
    m2, k = v2.shape
    if c1.shape[0] < k:
        raise ShapeError(f"{name}: c1 needs >= {k} rows, got {c1.shape[0]}")
    if c2.shape[0] != m2 or c1.shape[1] != c2.shape[1]:
        raise ShapeError(
            f"{name}: c2 shape {c2.shape} incompatible with v2 {v2.shape} / c1 {c1.shape}"
        )
    top = c1[:k]
    a, b, info = dtpmqrt(
        l, v2, _lapack_t(t, k), top, c2, trans=b"T" if trans else b"N",
        overwrite_a=1, overwrite_b=1,
    )
    _check_info(name, info)
    if a is not top:
        top[...] = a
    if b is not c2:
        c2[...] = b


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
        Pivot-row tile, at least ``k`` rows (only the first ``k`` change).
    c2:
        ``(m2, q)`` second tile.
    """
    _tpmqrt("tsmqr", 0, v2, t, c1, c2, trans)


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
    belongs to other reflectors and is never read.  ``c1`` (pivot row tile,
    >= k rows) and ``c2`` (``m2`` rows) are updated in place; ``trans``
    selects ``Q^T`` vs ``Q``.
    """
    _tpmqrt("ttmqr", v2.shape[0], v2, t, c1, c2, trans)

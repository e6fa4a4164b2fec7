"""``GEQRT``: blocked QR factorization of a single tile.

Corresponds to the paper's ``dgeqrt(A(i,j))``: factor a tile, leaving the
R factor in the upper triangle and the Householder reflectors (unit lower
trapezoid) below the diagonal, plus the compact-WY ``T`` factors needed to
apply the transformation to trailing tiles (``dormqr``).

The factorization *is* LAPACK's ``dgeqrt`` (through SciPy), the routine
PLASMA's core kernel of the same name wraps: same reflector storage, same
``(ib, k)`` block-``T`` layout, same sign convention, and reflectors that
are generated with rescaling (no overflow or underflow of the column norm).
:func:`ormqr`, the update, stays NumPy compact-WY matmuls.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgeqrt

from ..util.errors import ShapeError
from ..util.validation import check_positive_int

__all__ = ["geqrt", "ormqr"]


def _block_t(name: str, t: np.ndarray, info: int, ib: int) -> np.ndarray:
    """LAPACK's ``(min(ib, k), k)`` ``T`` as a C-order ``(ib, k)`` array
    (zero rows below ``k`` when ``k < ib``); a nonzero ``info`` raises."""
    if info != 0:
        raise ShapeError(f"{name}: LAPACK rejected argument {-info} (info={info})")
    out = np.zeros((ib, t.shape[1]))
    out[: t.shape[0]] = t
    return out


def geqrt(a: np.ndarray, ib: int) -> np.ndarray:
    """Factor tile ``a`` in place; return the ``T`` factor.

    Parameters
    ----------
    a:
        ``(m, n)`` float64 tile, overwritten: ``triu(a)`` becomes ``R`` and
        the strict lower trapezoid stores the reflectors ``V`` (implicit unit
        diagonal).
    ib:
        Inner block size (paper: 48).  Reflectors are accumulated ``ib`` at a
        time into triangular ``T`` blocks.

    Returns
    -------
    t:
        ``(ib, k)`` array with ``k = min(m, n)``; columns ``[k0, k0+kb)``
        hold the ``kb x kb`` upper-triangular ``T`` of the block starting at
        column ``k0`` (LAPACK ``dgeqrt`` layout).
    """
    check_positive_int(ib, "ib")
    if a.ndim != 2:
        raise ShapeError(f"geqrt expects a 2-D tile, got ndim={a.ndim}")
    # LAPACK factors a Fortran-order copy; GEQRT owns the whole tile, so all
    # of it is written back.
    out, t, info = dgeqrt(min(ib, *a.shape), a)
    t = _block_t("geqrt", t, info, ib)
    a[...] = out
    return t


def ormqr(v_tile: np.ndarray, t: np.ndarray, c: np.ndarray, trans: bool = True) -> None:
    """Apply the ``geqrt`` transformation to tile ``c`` in place.

    Corresponds to the paper's ``dormqr(A(i,j), A(i,l))``: ``c`` becomes
    ``Q^T c`` (``trans=True``, the factorization-time update) or ``Q c``
    (``trans=False``, used when reconstructing ``Q``).

    Parameters
    ----------
    v_tile:
        The tile previously factored by :func:`geqrt` (reflectors below the
        diagonal).
    t:
        The ``(ib, k)`` factor returned by :func:`geqrt`.
    c:
        ``(m, q)`` tile with ``m == v_tile.shape[0]``; overwritten.
    """
    m, n = v_tile.shape
    k = min(m, n)
    ib = t.shape[0]
    if c.shape[0] != m:
        raise ShapeError(f"ormqr: c has {c.shape[0]} rows, expected {m}")
    if t.shape[1] != k:
        raise ShapeError(f"ormqr: t has {t.shape[1]} columns, expected {k}")
    starts = list(range(0, k, ib))
    if not trans:
        starts.reverse()
    for k0 in starts:
        kb = min(ib, k - k0)
        t_blk = t[:kb, k0 : k0 + kb]
        v = _unit_lower(v_tile[k0:m, k0 : k0 + kb], kb)
        csub = c[k0:m, :]
        # Q = B_1 B_2 ...; Q^T c applies blocks forward with T^T, Q c applies
        # them in reverse with T.
        tt = t_blk.T if trans else t_blk
        csub -= v @ (tt @ (v.T @ csub))


def _unit_lower(panel: np.ndarray, kb: int) -> np.ndarray:
    """Materialise the unit-lower-trapezoid ``V`` from factored storage."""
    v = np.tril(panel, -1)
    v[np.arange(kb), np.arange(kb)] = 1.0
    return v

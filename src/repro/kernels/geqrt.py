"""``GEQRT``/``ORMQR``: blocked QR of a single tile and its trailing update.

Corresponds to the paper's ``dgeqrt(A(i,j))`` / ``dormqr(A(i,j), A(i,l))``:
factor a tile, leaving the R factor in the upper triangle and the
Householder reflectors (unit lower trapezoid) below the diagonal, plus the
compact-WY ``T`` factors needed to apply the transformation to trailing
tiles.

Both are single LAPACK calls through SciPy — ``dgeqrt`` and ``dgemqrt``, the
routines PLASMA's core kernels of the same names wrap: same reflector
storage, same ``(ib, k)`` block-``T`` layout, same sign convention, and
reflectors generated with rescaling (no overflow or underflow of the column
norm).

In place or by copy
-------------------
LAPACK works directly on an operand that is Fortran-contiguous float64 —
which every tile the :mod:`repro.tiles` layer allocates is, and every ``T``
these kernels return.  Any other operand (a C-order array, a ragged
``[:k, :k]`` sub-view, a row block of a dense matrix) is copied to Fortran
order by the wrapper; the kernel detects that (the array LAPACK hands back
is then not the one passed in) and stores the result back into exactly the
region the kernel owns.  Both paths run the same LAPACK routine on the same
values and leading dimension, so they agree bit for bit; the copy is only
slower.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgemqrt, dgeqrt

from ..util.errors import ShapeError
from ..util.validation import check_positive_int

__all__ = ["geqrt", "ormqr"]


def _check_info(name: str, info: int) -> None:
    if info != 0:
        raise ShapeError(f"{name}: LAPACK rejected argument {-info} (info={info})")


def _block_t(name: str, t: np.ndarray, info: int, ib: int) -> np.ndarray:
    """LAPACK's Fortran-order ``(min(ib, k), k)`` ``T`` as an ``(ib, k)``
    array (zero rows below ``k`` when ``k < ib``); a nonzero ``info`` raises."""
    _check_info(name, info)
    if t.shape[0] == ib:
        return t
    out = np.zeros((ib, t.shape[1]), order="F")
    out[: t.shape[0]] = t
    return out


def _lapack_t(t: np.ndarray, k: int) -> np.ndarray:
    """The ``(min(ib, k), k)`` block LAPACK expects of an ``(ib, k)`` ``T``."""
    return t if t.shape[0] <= k else t[:k]


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
        Fortran-order ``(ib, k)`` array with ``k = min(m, n)``; columns
        ``[k0, k0+kb)`` hold the ``kb x kb`` upper-triangular ``T`` of the
        block starting at column ``k0`` (LAPACK ``dgeqrt`` layout).
    """
    check_positive_int(ib, "ib")
    if a.ndim != 2:
        raise ShapeError(f"geqrt expects a 2-D tile, got ndim={a.ndim}")
    out, t, info = dgeqrt(min(ib, *a.shape), a, overwrite_a=1)
    t = _block_t("geqrt", t, info, ib)
    if out is not a:  # LAPACK factored a copy; GEQRT owns the whole tile
        a[...] = out
    return t


def ormqr(v_tile: np.ndarray, t: np.ndarray, c: np.ndarray, trans: bool = True) -> None:
    """Apply the ``geqrt`` transformation to tile ``c`` in place.

    Corresponds to the paper's ``dormqr(A(i,j), A(i,l))``: ``c`` becomes
    ``Q^T c`` (``trans=True``, the factorization-time update) or ``Q c``
    (``trans=False``, used when reconstructing ``Q``).  Only the strictly
    lower trapezoid of ``v_tile`` is read: the ``R`` stored on and above its
    diagonal may be rewritten concurrently by a TS/TT kernel.

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
    if c.shape[0] != m:
        raise ShapeError(f"ormqr: c has {c.shape[0]} rows, expected {m}")
    if t.shape[1] != k:
        raise ShapeError(f"ormqr: t has {t.shape[1]} columns, expected {k}")
    out, info = dgemqrt(
        v_tile[:, :k], _lapack_t(t, k), c, trans=b"T" if trans else b"N", overwrite_c=1
    )
    _check_info("ormqr", info)
    if out is not c:
        c[...] = out

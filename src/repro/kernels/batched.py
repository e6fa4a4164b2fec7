"""The six tile kernels mapped over a batch.

A wavefront of the tile-QR DAG contains many independent ops of the same
kind and shape (every trailing column of a panel repeats the same
``TSMQR``).  Each kernel is one LAPACK call with no NumPy inner loop left to
fuse, so a "stacked" kernel is nothing more than the scalar kernel of
:mod:`repro.kernels` called once per slice, in place on that slice: there is
one arithmetic per kind, and slice ``i`` of every output *is* the scalar
kernel's result on slice ``i`` — bit for bit, by construction.

Each ``*_batched`` function takes ``(B, m, n)`` stacks or, equally, sequences
of ``B`` tile views.  The slices of a C-order stack are C-order arrays, so
they take the kernels' copy path (:mod:`repro.kernels.geqrt`); a list of
Fortran-contiguous tile views runs in place.  The execution core
(:mod:`repro.qr.execute`) does not come through here — it maps the scalar
kernels over a step's views itself; these entry points serve the per-kernel
probes of ``bench/layers.py`` and direct callers.
"""

from __future__ import annotations

import numpy as np

from .geqrt import geqrt, ormqr
from .tsqrt import tsmqr, tsqrt, ttmqr, ttqrt

__all__ = [
    "geqrt_batched",
    "ormqr_batched",
    "tsqrt_batched",
    "tsmqr_batched",
    "ttqrt_batched",
    "ttmqr_batched",
]


def geqrt_batched(a, ib: int) -> np.ndarray:
    """Factor each tile of ``a`` in place; return the ``(B, ib, k)`` ``T`` stack."""
    return np.stack([geqrt(tile, ib) for tile in a])


def tsqrt_batched(r, a2, ib: int) -> np.ndarray:
    """Factor ``B`` ``[r; a2]`` pairs in place; return ``(B, ib, k)`` T."""
    return np.stack([tsqrt(ri, ai, ib) for ri, ai in zip(r, a2, strict=True)])


def ttqrt_batched(r1, r2, ib: int) -> np.ndarray:
    """Triangle-on-triangle factorization of ``B`` pairs in place."""
    return np.stack([ttqrt(ri, ai, ib) for ri, ai in zip(r1, r2, strict=True)])


def ormqr_batched(v_tile, t, c, trans: bool = True) -> None:
    """Apply ``B`` GEQRT transformations to the ``B`` tiles of ``c`` in place."""
    for vi, ti, ci in zip(v_tile, t, c, strict=True):
        ormqr(vi, ti, ci, trans)


def tsmqr_batched(v2, t, c1, c2, trans: bool = True) -> None:
    """Apply ``B`` TSQRT transformations to ``B`` ``[c1; c2]`` pairs in place."""
    for vi, ti, c1i, c2i in zip(v2, t, c1, c2, strict=True):
        tsmqr(vi, ti, c1i, c2i, trans)


def ttmqr_batched(v2, t, c1, c2, trans: bool = True) -> None:
    """Apply ``B`` TTQRT transformations to ``B`` ``[c1; c2]`` pairs in place."""
    for vi, ti, c1i, c2i in zip(v2, t, c1, c2, strict=True):
        ttmqr(vi, ti, c1i, c2i, trans)

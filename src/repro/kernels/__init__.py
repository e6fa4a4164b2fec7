"""Tile QR computational kernels (paper Section V-B) and flop counts.

The six kernels mirror PLASMA's core BLAS set:

======== =============================================================
GEQRT    QR of a tile; R in the upper triangle, reflectors below.
ORMQR    Apply a GEQRT transformation to a trailing tile.
TSQRT    Incremental QR of [triangular R; square tile].
TSMQR    Apply a TSQRT transformation to a pair of trailing tiles.
TTQRT    Incremental QR of [triangular R; triangular R] (binary tree).
TTMQR    Apply a TTQRT transformation to a pair of trailing tiles.
======== =============================================================

Each is one LAPACK call through SciPy — ``dgeqrt``/``dgemqrt`` for
GEQRT/ORMQR, ``dtpqrt``/``dtpmqrt`` with ``l = 0`` for TSQRT/TSMQR and
``l = m2`` for TTQRT/TTMQR, the routines PLASMA's kernels of the same names
wrap.  They (and ``dtrtrs``, for ``solve``) come from SciPy's f2py module
``_flapack`` through :mod:`repro.kernels._lapack`, which does not run
``scipy.linalg``'s package ``__init__`` — its array-API imports cost a
fresh process ~0.25 s and ~18 MiB.  SciPy stays a hard dependency, and the
Fortran functions are the very objects ``scipy.linalg.lapack`` hands out.
On Fortran-contiguous float64 operands — the column-major tiles of
:mod:`repro.tiles` and the ``(ib, k)`` ``T`` factors the factor kernels
return — LAPACK works in place; any other operand (C-order, strided, a
ragged sub-view) is copied in, and the result stored back into exactly the
region the kernel owns.  Same contract, same bits, slower
(:mod:`repro.kernels.geqrt` has the rule).

Observability: the six kernels exported here are thin shims over the real
implementations.  When a recorder is installed (:mod:`repro.obs`) each
invocation is timed into a :class:`~repro.obs.record.Span` on the calling
thread's lane and charged with its exact :mod:`~repro.kernels.flops`
count, so *every* in-process backend (serial reference, PULSAR threads)
reports identical per-kernel evidence with no per-backend code.  With no
recorder the shim is one global load and one branch — tracing off costs
nothing measurable.
"""

from functools import wraps as _wraps

from ..obs import record as _obs_record
from ..obs.adapters import KERNEL_CATEGORY as _KERNEL_CATEGORY
from .flops import (
    geqrt_flops,
    kernel_flops,
    ormqr_flops,
    qr_useful_flops,
    tile_qr_total_flops,
    tsmqr_flops,
    tsqrt_flops,
    ttmqr_flops,
    ttqrt_flops,
)
from .geqrt import geqrt as _geqrt, ormqr as _ormqr
from .tsqrt import (
    tsmqr as _tsmqr,
    tsqrt as _tsqrt,
    ttmqr as _ttmqr,
    ttqrt as _ttqrt,
)


def _instrumented(kind, flops_of, fn):
    """Wrap ``fn`` so active recorders see a span + flop counters per call.

    ``flops_of`` maps the call's positional arguments to the same flop
    count :func:`repro.kernels.flops.kernel_flops` assigns the matching
    operation-list entry (the tests assert exact equality).
    """
    cat = _KERNEL_CATEGORY[kind]

    @_wraps(fn)
    def wrapper(*args, **kw):
        rec = _obs_record._RECORDER
        if rec is None:  # fast path: tracing disabled
            return fn(*args, **kw)
        start = rec.now()
        out = fn(*args, **kw)
        rec.record_kernel(
            kind, cat, flops_of(*args), start, rec.now(),
            _obs_record.current_lane(), op=_obs_record.current_op(),
        )
        return out

    return wrapper


geqrt = _instrumented("GEQRT", lambda a, ib: geqrt_flops(a.shape[0], a.shape[1], ib), _geqrt)
ormqr = _instrumented(
    "ORMQR",
    lambda v, t, c: ormqr_flops(v.shape[0], min(v.shape), c.shape[1], t.shape[0]),
    _ormqr,
)
tsqrt = _instrumented(
    "TSQRT", lambda r, a2, ib: tsqrt_flops(r.shape[0], a2.shape[0], ib), _tsqrt
)
tsmqr = _instrumented(
    "TSMQR",
    lambda v2, t, c1, c2: tsmqr_flops(v2.shape[1], v2.shape[0], c1.shape[1], t.shape[0]),
    _tsmqr,
)
ttqrt = _instrumented("TTQRT", lambda r1, r2, ib: ttqrt_flops(r1.shape[0], ib), _ttqrt)
ttmqr = _instrumented(
    "TTMQR",
    lambda v2, t, c1, c2: ttmqr_flops(v2.shape[1], c1.shape[1], t.shape[0]),
    _ttmqr,
)

__all__ = [
    "geqrt",
    "ormqr",
    "tsqrt",
    "tsmqr",
    "ttqrt",
    "ttmqr",
    "geqrt_flops",
    "ormqr_flops",
    "tsqrt_flops",
    "tsmqr_flops",
    "ttqrt_flops",
    "ttmqr_flops",
    "kernel_flops",
    "qr_useful_flops",
    "tile_qr_total_flops",
]

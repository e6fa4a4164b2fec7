"""Serial reference executor for tile QR — the numerical ground truth.

Executes an operation list (:mod:`repro.qr.ops`) directly on a
:class:`~repro.tiles.TileMatrix`, one kernel at a time — the execution
core (:mod:`repro.qr.execute`) walked in program order — recording the
compact-WY ``T`` factors so the implicit ``Q`` can later be applied.  Every
other backend (the threaded PULSAR runtime, the simulator's functional
checks) is validated against this executor: given the same operation list
they must produce *bit-identical* factors, since the kernels are
deterministic and the sequential order is a legal schedule of the DAG.

Observability comes for free: the factorization runs the instrumented
kernel shims of :mod:`repro.kernels`, so an installed recorder
(:mod:`repro.obs`) sees one span per kernel on lane 0 in schedule order,
with exact per-kernel flop counters.  Applying ``Q`` makes one apply-kernel
call per record: the bare kernel when no recorder is installed, its shim
(and so the same span and flop count) when one is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from .. import kernels
from ..kernels._lapack import dtrtrs, one_blas_thread
from ..obs import record as _obs_record
from ..tiles.layout import TILE_ORDER
from ..tiles.matrix import TileMatrix
from ..util.errors import ConfigurationError, ShapeError
from ..util.validation import check_finite
from .execute import run_schedule
from .ops import Op

__all__ = ["FactorRecord", "TileQRFactors", "factor_records", "execute_ops"]


class FactorRecord(NamedTuple):
    """One stored panel transformation (factor kernel + its ``T``).

    The reflector vectors themselves stay inside the factored tile matrix
    (below-diagonal storage), exactly as in PLASMA; only ``T`` and the shape
    metadata need to be kept on the side.  A tuple, because every result
    makes one per factor op.
    """

    kind: str  # GEQRT | TSQRT | TTQRT
    i: int
    k2: int
    j: int
    t: np.ndarray
    m2: int
    k: int


@dataclass
class TileQRFactors:
    """The complete implicit QR factorization of a tile matrix.

    Attributes
    ----------
    a:
        The factored :class:`TileMatrix`: R in/above the diagonal tiles'
        upper triangles, Householder reflectors elsewhere.
    records:
        Panel transformations in application order (``Q^T = product of the
        recorded transforms applied forward``).
    ib:
        Inner block size used throughout.

    Applying ``Q`` or ``Q^T`` lays the operand out once and makes one
    apply-kernel call per record on it (:meth:`_apply`); nothing about the
    records is kept between calls.
    """

    a: TileMatrix
    records: list[FactorRecord] = field(default_factory=list)
    ib: int = 48

    @property
    def m(self) -> int:
        return self.a.m

    @property
    def n(self) -> int:
        return self.a.n

    def r_factor(self) -> np.ndarray:
        """The dense ``n x n`` upper-triangular R."""
        return self.a.upper_triangular()

    # -- applying the implicit Q ------------------------------------------

    def apply_qt(self, c: np.ndarray) -> np.ndarray:
        """Return ``Q^T @ c`` for ``c`` of shape ``(m, q)`` or ``(m,)``."""
        return self._operate(c, "c", self.m, lambda c: self._apply(self._load(c), True, self.m))

    def apply_q(self, c: np.ndarray) -> np.ndarray:
        """Return ``Q @ c`` for ``c`` of shape ``(m, q)`` or ``(m,)``."""
        return self._operate(c, "c", self.m, lambda c: self._apply(self._load(c), False, self.m))

    def q_thin(self) -> np.ndarray:
        """Materialise the thin ``(m, n)`` orthonormal factor ``Q``: the
        identity is written straight into the operand buffer."""
        n, nb = self.n, self.a.nb
        buf = np.zeros((self.a.mt, n, nb))
        j = np.arange(n)
        buf[j // nb, j, j % nb] = 1.0
        return self._apply(buf, False, self.m)

    def solve_ls(self, b: np.ndarray) -> np.ndarray:
        """Least-squares solution of ``min_x ||A x - b||_2``.

        This is the paper's motivating application (Section I): apply
        ``Q^T`` to ``b`` with one apply-kernel call per record and
        back-substitute against R with one ``dtrtrs``.  A NaN/Inf in ``b`` is a
        :class:`~repro.util.errors.ConfigurationError` naming the entry; one
        in R or ``Q^T b`` raises :class:`ValueError` without a scan of R: one
        off the diagonal reaches ``x`` (``inf * 0`` is NaN), so the checks
        are R's ``n`` diagonal entries and the ``n x q`` result — which also
        catches a finite but badly scaled R whose back-substitution
        overflows.
        """
        return self._operate(b, "b", self.n, self._solve)

    def _operate(self, c: object, name: str, rows_out: int, body) -> np.ndarray:
        """``body`` on operand ``c`` — one coercion for every entry point:
        a real ``(m, q)`` or ``(m,)`` array, or a :class:`ConfigurationError`
        (complex) / :class:`ShapeError` naming ``name``; an ``(m, 0)`` one
        gives a ``(rows_out, 0)`` result, a 1-D one a 1-D result."""
        arr = np.asarray(c)
        if np.iscomplexobj(arr):
            raise ConfigurationError(f"{name} must be real, got dtype {arr.dtype}")
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim not in (1, 2) or arr.shape[0] != self.m:
            raise ShapeError(f"{name} must be ({self.m}, q) or ({self.m},), got {arr.shape}")
        if arr.ndim == 1:
            return body(arr[:, None])[:, 0]
        return body(arr) if arr.shape[1] else np.zeros((rows_out, 0))

    def _load(self, c: np.ndarray) -> np.ndarray:
        """``c`` laid out as one ``(mt, q, nb)`` buffer whose ``[i].T`` is
        tile row ``i``'s block, column-major as LAPACK updates it in place:
        one strided copy for the full tile rows, one more for a ragged last."""
        nb, q = self.a.nb, c.shape[1]
        full, rest = divmod(self.m, nb)
        buf = np.empty((self.a.mt, q, nb))
        buf[:full].transpose(0, 2, 1)[...] = c[: full * nb].reshape(full, nb, q)
        if rest:
            buf[full, :, :rest] = c[full * nb :].T
        return buf

    def _apply(self, buf: np.ndarray, trans: bool, rows: int) -> np.ndarray:
        """``Q^T`` / ``Q`` applied to the laid-out operand ``buf`` in place,
        one apply-kernel call per record on its tile-row blocks (the
        arguments the factorization's updates take); returns its first
        ``rows`` rows as a Fortran-order ``(rows, q)`` array, on one BLAS
        thread."""
        grid, nb = self.a.grid, self.a.nb
        blocks = list(buf.transpose(0, 2, 1))
        last = self.m - (len(blocks) - 1) * nb
        if last != nb:  # a ragged last tile row: LAPACK copies it in and out
            blocks[-1] = blocks[-1][:last]
        ormqr, tsmqr, ttmqr = kernels.ormqr, kernels.tsmqr, kernels.ttmqr
        if _obs_record._RECORDER is None:  # the bare kernels the shims wrap
            ormqr, tsmqr, ttmqr = ormqr.__wrapped__, tsmqr.__wrapped__, ttmqr.__wrapped__
        with one_blas_thread:
            for rec in self.records if trans else reversed(self.records):
                if rec.kind == "GEQRT":
                    ormqr(grid[rec.i][rec.j], rec.t, blocks[rec.i], trans=trans)
                elif rec.kind == "TSQRT":
                    tsmqr(grid[rec.k2][rec.j], rec.t, blocks[rec.i], blocks[rec.k2],
                          trans=trans)
                else:  # TTQRT
                    ttmqr(grid[rec.k2][rec.j][: rec.m2, : rec.k], rec.t, blocks[rec.i],
                          blocks[rec.k2][: rec.m2], trans=trans)
        q = buf.shape[1]
        full, rest = divmod(rows, nb)
        out = np.empty((rows, q), order=TILE_ORDER)
        out.T[:, : full * nb].reshape(q, full, nb)[...] = buf[:full].transpose(1, 0, 2)
        if rest:
            out.T[:, full * nb :] = buf[full, :, :rest]
        return out

    def _solve(self, b: np.ndarray) -> np.ndarray:
        check_finite(b, "b")
        layout, grid, nb, n = self.a.layout, self.a.grid, self.a.nb, self.n
        # R's tiles on and above the diagonal, row-major and never zeroed:
        # LAPACK reads only the upper triangle.  ``r.T`` is the Fortran-order
        # lower triangle that ``scipy.linalg.solve_triangular`` hands
        # ``dtrtrs`` for a C-order R, so x is bit-equal to that dense route.
        r = np.empty((n, n))
        for j in range(layout.nt):
            cols = layout.col_span(j)
            for i in range(j + 1):
                rows = slice(i * nb, min((i + 1) * nb, n))
                r[rows, cols] = grid[i][j][: rows.stop - rows.start]
        diag = np.diagonal(r)
        if not np.isfinite(diag).all():
            k = int(np.argmin(np.isfinite(diag)))
            raise ValueError(f"R has a non-finite diagonal entry {diag[k]} at ({k}, {k})")
        with one_blas_thread:  # one region; the apply's own nests inside it
            y = self._apply(self._load(b), True, n)
            x, info = dtrtrs(r.T, y, lower=1, trans=1, overwrite_b=1)
        if info > 0:
            raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
        if not np.isfinite(x).all():
            raise ValueError("the least-squares solution is not finite: R or Q^T b "
                             "holds a NaN/Inf, or the back-substitution overflowed")
        return x


def factor_ops(ops: list[Op]) -> tuple:
    """The factor ops of ``ops``, in program order."""
    return tuple(op for op in ops if op.is_factor)


def factor_records(ops, get_t) -> list[FactorRecord]:
    """The record list of a finished run: one entry per factor op of ``ops``
    — an operation list, filtered here (:func:`factor_ops`), or the
    :class:`~repro.qr.schedule.Schedule` that holds one and keeps that
    table.

    ``get_t`` maps an op's ``t_key`` to its ``T`` factor.  Records come out
    in program order whatever schedule produced the factors, so every
    backend (and a resumed run) hands :class:`TileQRFactors` the same
    application order.
    """
    table = ops.factor_ops() if hasattr(ops, "factor_ops") else factor_ops(ops)
    return [FactorRecord(op.kind, op.i, op.k2, op.j, get_t(op.t_key), op.m2, op.k)
            for op in table]


def execute_ops(
    a: TileMatrix,
    ops,
    ib: int,
    *,
    fault_plan=None,
    checkpoint=None,
    skip=None,
    preloaded_ts=None,
) -> TileQRFactors:
    """Run an operation list serially on ``a`` (modified in place).

    Returns the :class:`TileQRFactors` wrapping ``a`` and the recorded
    transformations.  ``ops`` must be in a sequentially valid order, e.g.
    straight from :func:`repro.qr.ops.expand_plans` — or the schedule
    holding such a list (see :func:`factor_records`).  This is
    :func:`repro.qr.execute.run_schedule` in program order, one op per
    step; ``fault_plan`` / ``checkpoint`` / ``skip`` /
    ``preloaded_ts`` are documented there.
    """
    ts = run_schedule(
        a, getattr(ops, "ops", ops), ib, fault_plan=fault_plan, checkpoint=checkpoint,
        skip=skip, preloaded_ts=preloaded_ts,
    )
    return TileQRFactors(a=a, records=factor_records(ops, ts.__getitem__), ib=ib)

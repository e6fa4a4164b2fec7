"""Serial reference executor for tile QR — the numerical ground truth.

Executes an operation list (:mod:`repro.qr.ops`) directly on a
:class:`~repro.tiles.TileMatrix`, one kernel at a time — the execution
core (:mod:`repro.qr.execute`) walked in program order — recording the
compact-WY ``T`` factors so the implicit ``Q`` can later be applied.  Every
other backend (the threaded PULSAR runtime, the simulator's functional
checks) is validated against this executor: given the same operation list
they must produce *bit-identical* factors, since the kernels are
deterministic and the sequential order is a legal schedule of the DAG.

Observability comes for free: the kernels imported from
:mod:`repro.kernels` are instrumented shims, so running under an installed
recorder (:mod:`repro.obs`) yields one span per kernel on lane 0 in
schedule order, with exact per-kernel flop counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .. import kernels
from ..tiles.layout import TILE_ORDER
from ..tiles.matrix import TileMatrix
from ..tiles.shared import t_factor_key
from ..util.errors import ShapeError
from .execute import run_schedule
from .ops import Op

__all__ = ["FactorRecord", "TileQRFactors", "factor_records", "execute_ops"]


@dataclass(frozen=True)
class FactorRecord:
    """One stored panel transformation (factor kernel + its ``T``).

    The reflector vectors themselves stay inside the factored tile matrix
    (below-diagonal storage), exactly as in PLASMA; only ``T`` and the shape
    metadata need to be kept on the side.
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
        """Return ``Q^T @ c`` for a dense ``(m, q)`` array ``c``."""
        return self._apply(c, trans=True)

    def apply_q(self, c: np.ndarray) -> np.ndarray:
        """Return ``Q @ c`` for a dense ``(m, q)`` array ``c``."""
        return self._apply(c, trans=False)

    def q_thin(self) -> np.ndarray:
        """Materialise the thin ``(m, n)`` orthonormal factor ``Q``."""
        c = np.zeros((self.m, self.n))
        c[: self.n, : self.n] = np.eye(self.n)
        return self.apply_q(c)

    def solve_ls(self, b: np.ndarray) -> np.ndarray:
        """Least-squares solution of ``min_x ||A x - b||_2``.

        This is the paper's motivating application (Section I): apply
        ``Q^T`` to ``b`` and back-substitute against R.
        """
        b = np.asarray(b, dtype=np.float64)
        squeeze = b.ndim == 1
        if squeeze:
            b = b[:, None]
        if b.shape[0] != self.m:
            raise ShapeError(f"b has {b.shape[0]} rows, expected {self.m}")
        y = self.apply_qt(b)[: self.n, :]
        x = scipy.linalg.solve_triangular(self.r_factor(), y, lower=False)
        return x[:, 0] if squeeze else x

    def _apply(self, c: np.ndarray, trans: bool) -> np.ndarray:
        c = np.asarray(c, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != self.m:
            raise ShapeError(f"c must be ({self.m}, q), got {c.shape}")
        layout = self.a.layout
        # One column-major array per tile row — one copy in here, one copy out
        # below — so every record's kernel runs in place like a factorization
        # update, instead of copying a row slice of ``c`` in and out per record.
        blocks = [
            np.array(c[layout.row_span(i)], order=TILE_ORDER) for i in range(layout.mt)
        ]
        records = self.records if trans else list(reversed(self.records))
        for rec in records:
            if rec.kind == "GEQRT":
                kernels.ormqr(self.a.tile(rec.i, rec.j), rec.t, blocks[rec.i], trans=trans)
            elif rec.kind == "TSQRT":
                v2 = self.a.tile(rec.k2, rec.j)
                kernels.tsmqr(v2, rec.t, blocks[rec.i], blocks[rec.k2], trans=trans)
            else:  # TTQRT
                v2 = self.a.tile(rec.k2, rec.j)[: rec.m2, : rec.k]
                c2 = blocks[rec.k2][: rec.m2, :]
                kernels.ttmqr(v2, rec.t, blocks[rec.i], c2, trans=trans)
        return np.concatenate(blocks)


def factor_ops(ops: list[Op]) -> tuple:
    """``(op, T key)`` per factor op of ``ops``, in program order."""
    return tuple((op, t_factor_key(op)) for op in ops if op.is_factor)


def factor_records(ops, get_t) -> list[FactorRecord]:
    """The record list of a finished run: one entry per factor op of ``ops``
    — an operation list, filtered here (:func:`factor_ops`), or the
    :class:`~repro.qr.schedule.Schedule` (or session plan entry) that holds
    one and keeps that table.

    ``get_t`` maps a :func:`~repro.tiles.shared.t_factor_key` to that op's
    ``T`` factor.  Records come out in program order whatever schedule
    produced the factors, so every backend (and a resumed run) hands
    :class:`TileQRFactors` the same application order.
    """
    table = ops.factor_ops() if hasattr(ops, "factor_ops") else factor_ops(ops)
    return [FactorRecord(op.kind, op.i, op.k2, op.j, get_t(key), op.m2, op.k)
            for op, key in table]


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

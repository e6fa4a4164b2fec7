"""Kernel-level operation lists for a tile QR factorization.

A :class:`PanelPlan` (tree layer) says *which tiles meet*; this module
expands plans into the full, sequentially valid list of kernel operations —
the pseudocode of the paper's Figure 5 — annotated with tile shapes and the
tiles each op reads/writes, so the same list drives

* the execution core (:mod:`repro.qr.execute`) behind the serial, batched
  and parallel backends,
* the task-DAG builder for the discrete-event simulator
  (:mod:`repro.qr.dag`), and
* flop accounting (:func:`repro.kernels.flops.tile_qr_total_flops`).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

from ..tiles.layout import TileLayout
from ..tiles.shared import t_factor_key
from ..trees.plan import PanelPlan

__all__ = ["Op", "FACTOR_KINDS", "UPDATE_KINDS", "expand_plans", "operand_views"]

#: Kernels that compute new reflectors (panel work).
FACTOR_KINDS = ("GEQRT", "TSQRT", "TTQRT")
#: Kernels that apply reflectors to trailing tiles (update work).
UPDATE_KINDS = ("ORMQR", "TSMQR", "TTMQR")
_KINDS = FACTOR_KINDS + UPDATE_KINDS


@dataclass(frozen=True)
class Op:
    """One tile-kernel invocation.

    Attributes
    ----------
    kind:
        One of ``GEQRT ORMQR TSQRT TSMQR TTQRT TTMQR``.
    i:
        Pivot tile row.
    k2:
        Second tile row for TS/TT kernels, ``-1`` otherwise.
    j:
        Panel (tile-column) index of the reflectors.
    l:
        Trailing column being updated for update kernels, ``-1`` otherwise.
    m2:
        Rows of the tile the reflectors live in (pivot tile for
        GEQRT/ORMQR, second tile for TS/TT kernels).
    k:
        Number of reflector columns (panel width).
    q:
        Trailing-update width (``0`` for factor kernels).
    level, domain:
        Tree placement carried over from the :class:`Elimination` for trace
        colouring and thread mapping.
    operands:
        The kernel's tile operands in argument order, reads first: one
        ``(i, j, sub)`` per view, ``sub`` the index of a ragged sub-block of
        tile ``(i, j)`` or ``None`` for the whole tile (:func:`operand_views`).
    t_key:
        The ``T`` factor the op produces or applies
        (:func:`~repro.tiles.shared.t_factor_key`).
    is_factor:
        Whether the kind computes reflectors (:data:`FACTOR_KINDS`).

    The last three are facts of the geometry, derived once when the op is
    made, and take no part in equality or hashing.  An op made with the
    ``layout`` (:func:`expand_plans`) slices only a tile larger than its
    block; one made without slices every block the kind names.
    """

    kind: str
    i: int
    k2: int
    j: int
    l: int
    m2: int
    k: int
    q: int
    level: int = 0
    domain: int = 0
    layout: InitVar[TileLayout | None] = None
    operands: tuple | None = field(default=None, init=False, compare=False, repr=False)
    t_key: tuple | None = field(default=None, init=False, compare=False, repr=False)
    is_factor: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self, layout):
        if self.kind not in _KINDS:
            return  # not a tile kernel: whoever runs it says so
        object.__setattr__(self, "operands", _operands(self, layout))
        object.__setattr__(self, "t_key", t_factor_key(self))
        object.__setattr__(self, "is_factor", self.kind in FACTOR_KINDS)

    def reads(self) -> tuple[tuple[int, int], ...]:
        """Tiles read (but not written) by this op — the V/T sources."""
        if self.kind == "ORMQR":
            return ((self.i, self.j),)
        if self.kind in ("TSMQR", "TTMQR"):
            return ((self.k2, self.j),)
        return ()

    def writes(self) -> tuple[tuple[int, int], ...]:
        """Tiles mutated by this op."""
        if self.kind == "GEQRT":
            return ((self.i, self.j),)
        if self.kind == "ORMQR":
            return ((self.i, self.l),)
        if self.kind in ("TSQRT", "TTQRT"):
            return ((self.i, self.j), (self.k2, self.j))
        return ((self.i, self.l), (self.k2, self.l))  # TSMQR / TTMQR

    def describe(self) -> str:
        """Compact human-readable form, e.g. ``TSQRT(3,4;j=1)``."""
        parts = [str(self.i)]
        if self.k2 >= 0:
            parts.append(str(self.k2))
        tail = f";j={self.j}"
        if self.l >= 0:
            tail += f",l={self.l}"
        return f"{self.kind}({','.join(parts)}{tail})"


def _operands(op: Op, layout: TileLayout | None) -> tuple:
    """``op.operands``: what :func:`operand_views` returns, as coordinates.

    A TS/TT op works on the ``k x k`` pivot block, a TT op on the ``m2``
    leading rows of its second tile too; with the ``layout`` a block that
    is the whole tile takes no slice.
    """
    i, k2, j, l, m2, k = op.i, op.k2, op.j, op.l, op.m2, op.k

    def block(ti, tj, rows, cols):
        if layout is not None and layout.tile_shape(ti, tj) == (rows, cols):
            return (ti, tj, None)
        return (ti, tj, (slice(None, rows), slice(None, cols)))

    if op.kind == "GEQRT":
        return ((i, j, None),)
    if op.kind == "ORMQR":
        return ((i, j, None), (i, l, None))
    if op.kind == "TSQRT":
        return (block(i, j, k, k), (k2, j, None))
    if op.kind == "TSMQR":
        return ((k2, j, None), (i, l, None), (k2, l, None))
    if op.kind == "TTQRT":
        return (block(i, j, k, k), block(k2, j, m2, k))
    # TTMQR
    q = layout.tile_cols(l) if layout is not None else None
    return (block(k2, j, m2, k), (i, l, None), block(k2, l, m2, q))


def operand_views(a, op: Op):
    """Per-op operand views: ``(inputs_read, inouts_written)`` tile sub-blocks.

    ``a`` is anything with a ``tile(i, j) -> ndarray`` accessor (a
    :class:`~repro.tiles.matrix.TileMatrix` or a
    :class:`~repro.tiles.shared.SharedTileStore`); the views are read off
    ``op.operands``, as :func:`repro.qr.execute.run_op` reads them.  They are
    the kernels' argument lists (:data:`repro.qr.execute.KERNELS`: factor
    kernels take ``(*written, ib)``, update kernels ``(*read, T, *written)``),
    and the *written* ones cover exactly the storage regions the op's
    kernel mutates — the unit the SDC guard (:mod:`repro.qr.checksum`)
    snapshots, checksums, and corrupts.  On column-major tiles a full-tile
    view is what LAPACK works on in place; a ragged ``[:k, :k]`` /
    ``[:m2, :]`` sub-view is not contiguous and takes the kernels' copy
    path (:mod:`repro.kernels.geqrt`).
    """
    if op.operands is None:
        raise ValueError(f"unknown op kind {op.kind!r}")
    views = tuple(a.tile(i, j) if sub is None else a.tile(i, j)[sub]
                  for i, j, sub in op.operands)
    reads = 0 if op.is_factor else 1
    return views[:reads], views[reads:]


def expand_plans(layout: TileLayout, plans: list[PanelPlan]) -> list[Op]:
    """Expand panel plans into the full sequential operation list.

    The returned order is valid for serial execution: for each panel, every
    GEQRT (with its row of ORMQR updates) precedes the eliminations, and
    each elimination's updates directly follow its factor kernel — the loop
    nest of the paper's Figure 5 generalised to any tree.
    """
    ops: list[Op] = []
    nt = layout.nt
    for plan in plans:
        j = plan.j
        kcols = layout.tile_cols(j)
        for i in plan.geqrt_rows:
            mi = layout.tile_rows(i)
            ops.append(Op("GEQRT", i, -1, j, -1, m2=mi, k=min(mi, kcols), q=0, layout=layout))
            for col in range(j + 1, nt):
                ops.append(
                    Op("ORMQR", i, -1, j, col, m2=mi, k=min(mi, kcols), q=layout.tile_cols(col),
                       layout=layout)
                )
        for e in plan.eliminations:
            # TS consumes the full second tile; TT only its (trapezoidal)
            # R part, which has at most kcols rows.
            m2 = layout.tile_rows(e.row)
            if e.kind == "TT":
                m2 = min(m2, kcols)
            fac = "TSQRT" if e.kind == "TS" else "TTQRT"
            upd = "TSMQR" if e.kind == "TS" else "TTMQR"
            ops.append(
                Op(fac, e.piv, e.row, j, -1, m2=m2, k=kcols, q=0, level=e.level, domain=e.domain,
                   layout=layout)
            )
            for col in range(j + 1, nt):
                ops.append(
                    Op(upd, e.piv, e.row, j, col, m2=m2, k=kcols, q=layout.tile_cols(col),
                       level=e.level, domain=e.domain, layout=layout)
                )
    return ops

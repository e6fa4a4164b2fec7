"""Tile-major matrix storage.

The tile algorithm stores each ``nb x nb`` tile contiguously ("cache
friendly", paper Section V-A).  :class:`TileMatrix` keeps one owned float64
array per tile, column-major (:data:`~repro.tiles.layout.TILE_ORDER`) as in
PLASMA, so the LAPACK-backed kernels factor and update tiles in place with
no copy; conversions to and from the dense layout are explicit, mirroring
the layout-translation step real tile libraries perform.  Every constructor
here (:meth:`~TileMatrix.from_dense`, :meth:`~TileMatrix.zeros`,
:meth:`~TileMatrix.copy`, :meth:`~TileMatrix.set_tile`) yields tiles in that
order; a pre-built grid handed to ``TileMatrix(...)`` is adopted as is — a
C-order tile there is correct, merely on the kernels' slower copy path.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..util.errors import ShapeError
from ..util.validation import as_f64_matrix, require
from .layout import TILE_ORDER, TileLayout

__all__ = ["TileMatrix", "full_tiles"]


def full_tiles(a: np.ndarray, nb: int) -> np.ndarray:
    """The full ``nb x nb`` tiles of dense ``a`` as one ``(mt_f, nt_f, nb, nb)``
    view whose ``[i, j]`` is tile ``(i, j)`` transposed: assigned to a C-order
    block it lays every tile out contiguously in :data:`TILE_ORDER`."""
    mt_f, nt_f = a.shape[0] // nb, a.shape[1] // nb
    return a[: mt_f * nb, : nt_f * nb].reshape(mt_f, nb, nt_f, nb).transpose(0, 2, 3, 1)


class TileMatrix:
    """An ``m x n`` float64 matrix stored as a grid of contiguous tiles.

    Parameters
    ----------
    layout:
        Tile geometry.
    tiles:
        Optional pre-built tile grid (row-major nested lists).  When omitted
        the matrix is zero-initialised.
    """

    def __init__(self, layout: TileLayout, tiles: list[list[np.ndarray]] | None = None):
        self.layout = layout
        if tiles is None:
            tiles = [
                [np.zeros(layout.tile_shape(i, j), order=TILE_ORDER) for j in range(layout.nt)]
                for i in range(layout.mt)
            ]
        else:
            require(len(tiles) == layout.mt, "tile grid has wrong number of rows")
            widths = [layout.tile_cols(j) for j in range(layout.nt)]
            for i, row in enumerate(tiles):
                require(len(row) == layout.nt, "tile grid has wrong number of columns")
                rows = layout.tile_rows(i)
                for j, t in enumerate(row):
                    if t.shape != (rows, widths[j]):
                        raise ShapeError(
                            f"tile ({i},{j}) has shape {t.shape}, "
                            f"expected {(rows, widths[j])}"
                        )
        self._tiles = tiles

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, a: np.ndarray, nb: int) -> "TileMatrix":
        """Copy a dense array into tile-major storage.

        The full ``nb x nb`` tiles are filled by one strided copy into a
        C-order ``(mt_f, nt_f, nb, nb)`` block whose ``[i, j].T`` views are
        the tiles, contiguous in :data:`TILE_ORDER`; a ragged last tile row
        or column is copied tile by tile.  No tile shares memory with ``a``.
        """
        return cls._from_validated(as_f64_matrix(a), nb)

    @classmethod
    def _from_validated(cls, a: np.ndarray, nb: int) -> "TileMatrix":
        """:meth:`from_dense` of what :func:`as_f64_matrix` returned (the run
        envelope validates before it plans, and only once)."""
        m, n = a.shape
        layout = TileLayout(m, n, nb)
        mt_f, nt_f = m // nb, n // nb
        block = np.empty((mt_f, nt_f, nb, nb))
        block[...] = full_tiles(a, nb)

        def ragged(i: int, j: int) -> np.ndarray:
            # Note: an explicit copy, never asfortranarray — a slice of the
            # input that already is column-major contiguous would alias the
            # caller's array, letting the factorization mutate it.
            return np.array(
                a[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb], order=TILE_ORDER, copy=True
            )

        tiles = [
            [block[i, j].T if i < mt_f and j < nt_f else ragged(i, j) for j in range(layout.nt)]
            for i in range(layout.mt)
        ]
        return cls._adopt(layout, tiles)

    @classmethod
    def _adopt(cls, layout: TileLayout, tiles: list[list[np.ndarray]]) -> "TileMatrix":
        """``TileMatrix(layout, tiles)`` without the shape checks, for a grid
        built from ``layout`` itself (:meth:`from_dense`, a shared segment's
        views) — the checks are for grids from outside."""
        self = cls.__new__(cls)
        self.layout, self._tiles = layout, tiles
        return self

    @classmethod
    def zeros(cls, m: int, n: int, nb: int) -> "TileMatrix":
        """A zero matrix in tile-major storage."""
        return cls(TileLayout(m, n, nb))

    # -- element access ----------------------------------------------------

    @property
    def m(self) -> int:
        return self.layout.m

    @property
    def n(self) -> int:
        return self.layout.n

    @property
    def nb(self) -> int:
        return self.layout.nb

    @property
    def mt(self) -> int:
        return self.layout.mt

    @property
    def nt(self) -> int:
        return self.layout.nt

    @property
    def grid(self) -> list[list[np.ndarray]]:
        """The tile grid itself (row-major nested lists, not a copy):
        ``grid[i][j]`` is :meth:`tile` without the bounds checks, for the
        execution core's per-op accesses."""
        return self._tiles

    def tile(self, i: int, j: int) -> np.ndarray:
        """The (mutable) tile at tile coordinates ``(i, j)``, bounds-checked."""
        self.layout._check_i(i)
        self.layout._check_j(j)
        return self._tiles[i][j]

    def set_tile(self, i: int, j: int, value: np.ndarray) -> None:
        """Replace tile ``(i, j)``; the value is copied into owned storage."""
        expected = self.layout.tile_shape(i, j)
        value = np.asarray(value, dtype=np.float64)
        if value.shape != expected:
            raise ShapeError(f"tile ({i},{j}) must have shape {expected}, got {value.shape}")
        self._tiles[i][j] = np.array(value, order=TILE_ORDER, copy=True)

    def iter_tiles(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(i, j, tile)`` in row-major order."""
        for i in range(self.mt):
            for j in range(self.nt):
                yield i, j, self._tiles[i][j]

    # -- conversions and math ----------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Assemble the dense ``m x n`` array (copies), one tile row per
        ``concatenate`` straight into the result."""
        out = np.empty((self.m, self.n))
        nb = self.nb
        for i, row in enumerate(self._tiles):
            np.concatenate(row, axis=1, out=out[i * nb : (i + 1) * nb])
        return out

    def copy(self) -> "TileMatrix":
        """Deep copy (each tile buffer is duplicated)."""
        return TileMatrix(
            self.layout, [[t.copy(order=TILE_ORDER) for t in row] for row in self._tiles]
        )

    def norm_fro(self) -> float:
        """Frobenius norm computed tile-by-tile (no dense assembly)."""
        acc = 0.0
        for _, _, t in self.iter_tiles():
            acc += float(np.sum(t * t))
        return float(np.sqrt(acc))

    def upper_triangular(self) -> np.ndarray:
        """Dense upper-triangular ``n x n`` part — the R factor after tile QR.

        Only meaningful once the factorization has completed; tiles strictly
        below the diagonal are ignored and the strict lower triangle of
        diagonal tiles (which stores Householder vectors) is zeroed.
        """
        r = np.zeros((self.n, self.n))
        for j in range(self.nt):
            cs = self.layout.col_span(j)
            for i in range(min(j + 1, self.mt)):
                rs_rows = self.layout.tile_rows(i)
                dst = slice(i * self.nb, i * self.nb + rs_rows)
                if dst.start >= self.n:
                    continue
                dst = slice(dst.start, min(dst.stop, self.n))
                block = self._tiles[i][j][: dst.stop - dst.start, :]
                r[dst, cs] = np.triu(block) if i == j else block
        return r

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TileMatrix(m={self.m}, n={self.n}, nb={self.nb}, mt={self.mt}, nt={self.nt})"

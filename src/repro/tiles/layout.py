"""Tile-grid index arithmetic.

A tile layout partitions an ``m x n`` matrix into ``nb x nb`` square tiles
(the paper's tile algorithm, Section V-A); the last tile row/column may be
smaller when ``nb`` does not divide ``m``/``n``.  This module contains the
pure index math so the storage class and the schedulers share one source of
truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..util.errors import ConfigurationError
from ..util.validation import check_positive_int

__all__ = ["TileLayout", "TILE_ORDER"]

#: Memory order of every tile (and every ``T`` factor) this package
#: allocates: column-major, the layout LAPACK works on in place.  The tile
#: kernels accept any array, but one that is not contiguous in this order is
#: copied in and out on every call (:mod:`repro.kernels.geqrt`), so tile
#: storage is created only through :class:`~repro.tiles.matrix.TileMatrix`
#: and :class:`~repro.tiles.shared.SharedTileStore`, which apply it.
TILE_ORDER = "F"


@dataclass(frozen=True)
class TileLayout:
    """Geometry of a tiled ``m x n`` matrix with tile size ``nb``.

    Attributes
    ----------
    m, n:
        Global matrix dimensions.
    nb:
        Tile size (paper: 192 or 240).
    """

    m: int
    n: int
    nb: int

    def __post_init__(self) -> None:
        check_positive_int(self.m, "m")
        check_positive_int(self.n, "n")
        check_positive_int(self.nb, "nb")

    @property
    def mt(self) -> int:
        """Number of tile rows (paper notation ``mt``)."""
        return -(-self.m // self.nb)

    @property
    def nt(self) -> int:
        """Number of tile columns (paper notation ``nt``)."""
        return -(-self.n // self.nb)

    def tile_rows(self, i: int) -> int:
        """Row count of tiles in tile-row ``i`` (smaller for the last row)."""
        self._check_i(i)
        return min(self.nb, self.m - i * self.nb)

    def tile_cols(self, j: int) -> int:
        """Column count of tiles in tile-column ``j``."""
        self._check_j(j)
        return min(self.nb, self.n - j * self.nb)

    def tile_shape(self, i: int, j: int) -> tuple[int, int]:
        """Shape of tile ``(i, j)``."""
        return (self.tile_rows(i), self.tile_cols(j))

    def row_span(self, i: int) -> slice:
        """Global row slice covered by tile-row ``i``."""
        self._check_i(i)
        return slice(i * self.nb, i * self.nb + self.tile_rows(i))

    def col_span(self, j: int) -> slice:
        """Global column slice covered by tile-column ``j``."""
        self._check_j(j)
        return slice(j * self.nb, j * self.nb + self.tile_cols(j))

    def tiles(self) -> list[tuple[int, int]]:
        """All tile coordinates in row-major order."""
        return [(i, j) for i in range(self.mt) for j in range(self.nt)]

    def nbytes(self) -> int:
        """Total payload bytes of the float64 matrix (used for memory accounting)."""
        return self.m * self.n * 8

    # Hot path (several calls per executed op): the message is only
    # formatted when the check fails.
    def _check_i(self, i: int) -> None:
        if not 0 <= i < self.mt:
            raise ConfigurationError(f"tile row {i} out of range [0, {self.mt})")

    def _check_j(self, j: int) -> None:
        if not 0 <= j < self.nt:
            raise ConfigurationError(f"tile column {j} out of range [0, {self.nt})")

"""Result collection for VSA-based factorizations.

On a real machine the factored tiles and ``T`` factors simply stay resident
on the nodes that produced them; a separate gather would follow if a single
image were needed.  :class:`ResultStore` plays that role inside one process:
VDPs deposit their final outputs here (thread-safe), and
:func:`assemble_factors` rebuilds a :class:`~repro.qr.reference.TileQRFactors`
identical to what the serial reference executor produces — enabling
bit-exact cross-backend comparison in the tests.
"""

from __future__ import annotations

import threading

import numpy as np

from ..tiles.layout import TileLayout
from ..tiles.matrix import TileMatrix
from ..util.errors import VSAError
from .ops import Op
from .reference import TileQRFactors, factor_records

__all__ = ["ResultStore", "assemble_factors"]


class ResultStore:
    """Thread-safe sink for factored tiles and ``T`` factors."""

    def __init__(self, layout: TileLayout):
        self.layout = layout
        self._lock = threading.Lock()
        self.tiles: dict[tuple[int, int], np.ndarray] = {}
        self.ts: dict[tuple[str, int, int], np.ndarray] = {}

    def put_tile(self, i: int, j: int, tile: np.ndarray) -> None:
        """Deposit the final contents of tile ``(i, j)`` (exactly once)."""
        with self._lock:
            if (i, j) in self.tiles:
                raise VSAError(f"tile ({i},{j}) collected twice")
            self.tiles[(i, j)] = tile

    def put_t(self, key: tuple[str, int, int], t: np.ndarray) -> None:
        """Deposit a ``T`` factor under ``('G', i, j)`` / ``('E', row, j)``."""
        with self._lock:
            if key in self.ts:
                raise VSAError(f"T factor {key} collected twice")
            self.ts[key] = t

    def missing_tiles(self) -> list[tuple[int, int]]:
        """Tile coordinates of the factorization output not yet collected."""
        layout = self.layout
        # Lower trapezoid (reflector storage) plus the strictly-upper R rows.
        expected = {
            (i, j) for j in range(layout.nt) for i in range(layout.mt) if i >= j
        } | {(i, j) for j in range(layout.nt) for i in range(min(j, layout.mt))}
        return sorted(expected - set(self.tiles))


def assemble_factors(store: ResultStore, ops: list[Op], ib: int) -> TileQRFactors:
    """Rebuild :class:`TileQRFactors` from collected pieces.

    ``ops`` must be the canonical operation list the factorization was built
    from; the factor-op subsequence defines the record order, which matches
    the serial reference executor exactly.
    """
    missing = store.missing_tiles()
    if missing:
        raise VSAError(f"factorization incomplete; missing tiles: {missing[:8]}...")
    layout = store.layout
    grid = [
        [store.tiles[(i, j)] for j in range(layout.nt)]
        for i in range(layout.mt)
    ]
    a = TileMatrix(layout, grid)
    try:
        records = factor_records(ops, store.ts.__getitem__)
    except KeyError as exc:
        raise VSAError(f"missing T factor {exc.args[0]}") from None
    return TileQRFactors(a=a, records=records, ib=ib)

"""Fixture: tile-grid allocations that bypass the tiles layer's memory order."""

import numpy as np

from repro.tiles.layout import TileLayout

layout = TileLayout(16, 8, 8)


def zero_grid():
    # No order at all: NumPy's default is C, the kernels' copy path.
    return [[np.zeros(layout.tile_shape(i, j)) for j in range(layout.nt)]
            for i in range(layout.mt)]


def scratch_tile(i, j):
    shape = layout.tile_shape(i, j)
    return np.empty(shape)  # the shape travelled through a name


def literal_order(i, j):
    # A spelled-out order is a second copy of the convention, not the convention.
    return np.full(layout.tile_shape(i, j), 1.0, order="F")

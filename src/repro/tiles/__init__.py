"""Tile-major matrix storage and generators (the tile-algorithm substrate)."""

from .generate import graded_conditioned, least_squares_problem, random_dense, random_tall_skinny
from .layout import TILE_ORDER, TileLayout
from .matrix import TileMatrix
from .shared import SharedTileStore

__all__ = [
    "TILE_ORDER",
    "TileLayout",
    "TileMatrix",
    "SharedTileStore",
    "random_dense",
    "random_tall_skinny",
    "graded_conditioned",
    "least_squares_problem",
]

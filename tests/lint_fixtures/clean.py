"""Fixture: near-miss patterns that must NOT be flagged by any rule."""

import os


def save(path, data):
    # The full atomic-write recipe: temp file, fsync, replace.
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def count_dots() -> int:
    # str.count on a literal receiver is not a Recorder emit.
    return "a.b.c".count(".")


def collect(item, acc=None):
    # The canonical mutable-default workaround.
    if acc is None:
        acc = []
    acc.append(item)
    return acc


def attach(name):
    # SharedMemory without create=True (attach) needs no unlink here.
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


def narrow(fn):
    try:
        return fn()
    except ValueError:
        return None


def tiles(layout, ib, k):
    # Tile-shaped allocations carry the tiles layer's order; arrays that are
    # not tile-shaped are none of the tile-order rule's business.
    import numpy as np

    from repro.tiles.layout import TILE_ORDER

    tile = np.zeros(layout.tile_shape(0, 0), order=TILE_ORDER)
    t_factor = np.zeros((ib, k))
    rows = np.empty(layout.tile_shape(0, 0)[0])
    return tile, t_factor, rows

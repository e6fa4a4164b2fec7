"""Fixture: an executor under qr/ deriving a segment's offset tables per call."""

from repro.tiles.shared import SharedTileStore, _segment_plan


def attach(name, layout, ops, ib):
    # The tables are a pure function of (layout, ops, ib): handing the store
    # the op list makes it walk that list again on every attach, where the
    # schedule that holds the list derives them once.
    tables = _segment_plan(layout, ops, ib)
    return SharedTileStore.attach(name, layout, ops, ib), tables

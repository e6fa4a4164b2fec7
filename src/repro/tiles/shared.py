"""Shared-memory tile storage for the process-parallel backend.

A :class:`SharedTileStore` places every tile of a :class:`TileMatrix`, one
slot per compact-WY ``T`` factor the operation list will produce, and one
completion-flag byte per operation inside a single
``multiprocessing.shared_memory`` segment — one job, one segment.  Worker
processes attach to it once, by name, and from then on read and mutate
tiles in place through NumPy views: no array ever crosses a pipe, only
small operation indices do.

Tiles and ``T`` slots are column-major views
(:data:`~repro.tiles.layout.TILE_ORDER`), like the owned tiles of a
:class:`TileMatrix`, so worker kernels run LAPACK in place on the segment.
The segment layout (offset of every tile, ``T`` slot and the flag array) is
a pure function of the tile geometry and the operation list, so the parent
and every worker compute identical offset tables independently; only the
segment *name* travels to the workers.
"""

from __future__ import annotations

import os
import threading
import weakref
from multiprocessing import shared_memory

import numpy as np

from ..util.errors import ConfigurationError
from .layout import TILE_ORDER, TileLayout
from .matrix import TileMatrix

__all__ = ["SharedTileStore", "t_factor_key", "attach_untracked"]


def attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker registration.

    The attaching process must not adopt the segment in the (shared)
    resource tracker — only the creator owns it, and concurrent
    register/unregister from several workers corrupts the tracker's
    cache.  Python < 3.13 lacks ``SharedMemory(track=False)``, so
    registration is suppressed for the duration of the attach.
    """
    from multiprocessing import resource_tracker

    orig_register = resource_tracker.register

    def _skip_shm(name_: str, rtype: str) -> None:
        if rtype != "shared_memory":
            orig_register(name_, rtype)

    resource_tracker.register = _skip_shm
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig_register


def t_factor_key(op) -> tuple[str, int, int]:
    """The ``T``-store key an op produces (factor kinds) or consumes (updates).

    ``("G", i, j)`` for GEQRT and the ORMQRs applying it, ``("E", k2, j)``
    for TSQRT/TTQRT and their TSMQR/TTMQR updates — each key is produced by
    exactly one factor kernel per factorization.
    """
    if op.kind in ("GEQRT", "ORMQR"):
        return ("G", op.i, op.j)
    if op.kind in ("TSQRT", "TTQRT", "TSMQR", "TTMQR"):
        return ("E", op.k2, op.j)
    raise ConfigurationError(f"{op.kind} is not a tile QR kernel")


def _segment_plan(
    layout: TileLayout, ops: list, ib: int
) -> tuple[dict[tuple[int, int], tuple[int, tuple[int, int]]], dict[tuple, tuple[int, tuple[int, int]]], int]:
    """Deterministic offset tables: tiles, then ``T`` slots, then op flags.

    Returns ``(tile_index, t_index, flags_offset)``: each index maps a key
    to ``(offset_in_doubles, shape)``; ``flags_offset`` is the *byte* offset
    (64-byte aligned, past the last ``T`` slot) of the ``len(ops)``
    completion-flag bytes that end the segment.
    """
    off = 0
    tile_index: dict[tuple[int, int], tuple[int, tuple[int, int]]] = {}
    for i in range(layout.mt):
        for j in range(layout.nt):
            shape = layout.tile_shape(i, j)
            tile_index[(i, j)] = (off, shape)
            off += shape[0] * shape[1]
    t_index: dict[tuple, tuple[int, tuple[int, int]]] = {}
    for op in ops:
        if not op.is_factor:
            continue
        key = t_factor_key(op)
        if key in t_index:
            raise ConfigurationError(f"duplicate T factor key {key} in operation list")
        t_index[key] = (off, (ib, op.k))
        off += ib * op.k
    return tile_index, t_index, -(-off * 8 // 64) * 64


#: Every store this process has open.  A forked worker inherits its parent's
#: mappings along with this set, and drops them before it serves anything
#: (:func:`_close_open_stores`): the segments are the parent's to keep or
#: unlink, and a mapping held by an idle worker would pin an unlinked one.
_OPEN: "weakref.WeakSet[SharedTileStore]" = weakref.WeakSet()

#: Held while something a forked worker must drop is made *and* listed — a
#: segment mapped and added to :data:`_OPEN` here, a worker's pipe in
#: :mod:`repro.qr.parallel` — and taken by every ``fork`` of this process
#: (the hooks below), so no child is ever forked between the two steps.
_FORK_LOCK = threading.Lock()

if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(before=_FORK_LOCK.acquire,
                        after_in_parent=_FORK_LOCK.release,
                        after_in_child=_FORK_LOCK.release)


def _close_open_stores() -> None:
    """Close every store open in this process (its own mappings only)."""
    for store in list(_OPEN):
        try:
            store.close()
        except BufferError:  # a view taken before the fork still exports it
            pass


class SharedTileStore:
    """One job's shared-memory footprint: tiles, ``T`` slots, op flags.

    Create it in the parent with :meth:`create` (copies the matrix in),
    attach from workers with :meth:`attach`.  Only the creator may
    :meth:`unlink`; every process must :meth:`close` when done.

    :attr:`flags` is the ``uint8[len(ops)]`` completion ledger of the
    parallel backend — its enforced idempotency: a worker sets
    ``flags[idx]`` after op ``idx``'s tile mutations and never runs an op
    whose flag is up.  The layout is a pure function of ``(layout, ops,
    ib)`` (:func:`_segment_plan`), so one store fits every matrix factored
    under the same plan: a one-shot run creates and destroys one per call,
    while a :class:`~repro.qr.session.QRSession` keeps one per cached plan
    and copies each new matrix in with :meth:`load`, so pool workers that
    already attached to the segment never re-attach.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        layout: TileLayout,
        ib: int,
        plan: tuple,
        n_ops: int,
        *,
        owner: bool,
    ):
        self._shm = shm
        self._owner = owner
        self.layout = layout
        self.ib = ib
        tile_index, t_index, flags_off = plan  # this geometry's _segment_plan
        if shm.size < flags_off + n_ops:
            raise ConfigurationError(
                f"shared segment holds {shm.size} bytes, layout needs {flags_off + n_ops}"
            )
        buf = shm.buf
        self._tiles = [
            [
                np.ndarray(
                    tile_index[(i, j)][1], dtype=np.float64, buffer=buf,
                    offset=tile_index[(i, j)][0] * 8, order=TILE_ORDER,
                )
                for j in range(layout.nt)
            ]
            for i in range(layout.mt)
        ]
        self._ts = {
            key: np.ndarray(
                shape, dtype=np.float64, buffer=buf, offset=off * 8, order=TILE_ORDER
            )
            for key, (off, shape) in t_index.items()
        }
        #: One completion byte per op (a view like the tiles: drop every
        #: reference taken from here before :meth:`close`).
        self.flags = np.ndarray((n_ops,), dtype=np.uint8, buffer=buf, offset=flags_off)
        _OPEN.add(self)

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, a: TileMatrix, ops: list, ib: int) -> "SharedTileStore":
        """Allocate a segment sized for ``a`` + ``T`` slots + flags, copy
        ``a`` in and clear the flags."""
        plan = _segment_plan(a.layout, ops, ib)
        size = plan[2] + len(ops)
        with _FORK_LOCK:
            store = cls(shared_memory.SharedMemory(create=True, size=max(size, 1)),
                        a.layout, ib, plan, len(ops), owner=True)
        store.load(a)
        return store

    @classmethod
    def attach(cls, name: str, layout: TileLayout, ops: list, ib: int) -> "SharedTileStore":
        """Attach to an existing segment from a worker process (untracked,
        see :func:`attach_untracked`)."""
        plan = _segment_plan(layout, ops, ib)
        with _FORK_LOCK:
            return cls(attach_untracked(name), layout, ib, plan, len(ops), owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def load(self, a: TileMatrix) -> None:
        """Copy ``a``'s tiles into the segment and clear every completion flag."""
        for i, j, tile in a.iter_tiles():
            self._tiles[i][j][...] = tile
        self.flags[:] = 0

    def close(self) -> None:
        """Release this process's mapping (views become invalid)."""
        _OPEN.discard(self)
        self._tiles = []
        self._ts = {}
        self.flags = None
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (creator only; call after :meth:`close`)."""
        if self._owner:
            self._shm.unlink()

    def destroy(self) -> None:
        """:meth:`close` + :meth:`unlink`: the creator's way out."""
        self.close()
        self.unlink()

    # -- data access -------------------------------------------------------

    def tile(self, i: int, j: int) -> np.ndarray:
        """Mutable shared view of tile ``(i, j)``."""
        return self._tiles[i][j]

    def t_factor(self, key: tuple) -> np.ndarray:
        """Mutable shared view of the ``T`` slot for a factor key."""
        return self._ts[key]

    #: With :meth:`tile` and :meth:`put_t`, the store protocol of the
    #: execution core (:mod:`repro.qr.execute`).
    get_t = t_factor

    def put_t(self, key: tuple, t: np.ndarray) -> None:
        """Copy a freshly computed ``T`` factor into its shared slot."""
        self._ts[key][...] = t

    def extract_matrix(self) -> TileMatrix:
        """Copy the tile grid out into an ordinary (owned) TileMatrix."""
        return TileMatrix(self.layout, self._tiles).copy()

    def extract_ts(self) -> dict[tuple, np.ndarray]:
        """Copy every ``T`` factor out of the segment."""
        return {key: t.copy(order=TILE_ORDER) for key, t in self._ts.items()}

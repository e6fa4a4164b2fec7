"""Shared-memory tile storage for the process-parallel backend.

A :class:`SharedTileStore` places every tile of a :class:`TileMatrix` —
plus one slot per compact-WY ``T`` factor the operation list will produce —
inside a single ``multiprocessing.shared_memory`` segment.  Worker processes
attach to the segment once, by name, and from then on read and mutate tiles
in place through NumPy views: no array ever crosses a pipe, only small
operation indices do.

Tiles and ``T`` slots are column-major views
(:data:`~repro.tiles.layout.TILE_ORDER`), like the owned tiles of a
:class:`TileMatrix`, so worker kernels run LAPACK in place on the segment.
The segment layout (offset of every tile and ``T`` slot) is a pure function
of the tile geometry and the operation list, so the parent and every worker
compute identical offset tables independently; only the segment *name*
travels to the workers.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

from ..util.errors import ConfigurationError
from .layout import TILE_ORDER, TileLayout
from .matrix import TileMatrix

__all__ = ["SharedTileStore", "SharedArena", "t_factor_key", "attach_untracked"]


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
    """Deterministic offset tables: tiles first, then ``T`` slots.

    Returns ``(tile_index, t_index, total_doubles)`` where each index maps a
    key to ``(offset_in_doubles, shape)``.
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
    return tile_index, t_index, off


class SharedTileStore:
    """Tile and ``T``-factor storage inside one shared-memory segment.

    Create it in the parent with :meth:`create` (copies the matrix in),
    attach from workers with :meth:`attach`.  Only the creator may
    :meth:`unlink`; every process must :meth:`close` when done.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        layout: TileLayout,
        ops: list,
        ib: int,
        *,
        owner: bool,
    ):
        self._shm = shm
        self._owner = owner
        self.layout = layout
        self.ib = ib
        tile_index, t_index, total = _segment_plan(layout, ops, ib)
        require_bytes = total * 8
        if shm.size < require_bytes:
            raise ConfigurationError(
                f"shared segment holds {shm.size} bytes, layout needs {require_bytes}"
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

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, a: TileMatrix, ops: list, ib: int) -> "SharedTileStore":
        """Allocate a segment sized for ``a`` + ``T`` slots and copy ``a`` in."""
        _, _, total = _segment_plan(a.layout, ops, ib)
        shm = shared_memory.SharedMemory(create=True, size=max(total, 1) * 8)
        store = cls(shm, a.layout, ops, ib, owner=True)
        for i, j, tile in a.iter_tiles():
            store.tile(i, j)[...] = tile
        return store

    @classmethod
    def attach(cls, name: str, layout: TileLayout, ops: list, ib: int) -> "SharedTileStore":
        """Attach to an existing segment from a worker process (untracked,
        see :func:`attach_untracked`)."""
        return cls(attach_untracked(name), layout, ops, ib, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        """Release this process's mapping (views become invalid)."""
        self._tiles = []
        self._ts = {}
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (creator only; call after :meth:`close`)."""
        if self._owner:
            self._shm.unlink()

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
        grid = [
            [self._tiles[i][j].copy(order=TILE_ORDER) for j in range(self.layout.nt)]
            for i in range(self.layout.mt)
        ]
        return TileMatrix(self.layout, grid)

    def extract_ts(self) -> dict[tuple, np.ndarray]:
        """Copy every ``T`` factor out of the segment."""
        return {key: t.copy(order=TILE_ORDER) for key, t in self._ts.items()}


class SharedArena:
    """One job's shared-memory footprint: tile store + completion-flag segment.

    The flag segment holds one byte per op — the enforced-idempotency
    ledger of the parallel backend, zeroed at creation; workers set
    ``flags[idx]`` after op ``idx``'s tile mutations.  The segment layout
    is a pure function of ``(layout, ops, ib)`` (:func:`_segment_plan`), so
    an arena fits every matrix factored under the same plan: a one-shot
    run creates and destroys one per call, while a
    :class:`~repro.qr.session.QRSession` keeps one per cached plan and
    copies each new matrix in with :meth:`load`, so pool workers that
    already attached to the segment never re-attach.
    """

    def __init__(self, store: SharedTileStore, flags: shared_memory.SharedMemory):
        self.store = store
        self.flags = flags

    @classmethod
    def create(cls, a: TileMatrix, ops: list, ib: int) -> "SharedArena":
        store = SharedTileStore.create(a, ops, ib)
        try:
            flags = shared_memory.SharedMemory(create=True, size=max(len(ops), 1))
        except OSError:
            store.close()
            store.unlink()
            raise
        flags.buf[: len(flags.buf)] = bytes(len(flags.buf))
        return cls(store, flags)

    def load(self, a: TileMatrix) -> None:
        """Copy ``a``'s tiles into the arena and clear all completion flags."""
        for i, j, tile in a.iter_tiles():
            self.store.tile(i, j)[...] = tile
        n = len(self.flags.buf)
        self.flags.buf[:n] = bytes(n)

    def destroy(self) -> None:
        self.store.close()
        self.store.unlink()
        self.flags.close()
        self.flags.unlink()

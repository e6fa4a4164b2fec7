"""Shared-memory tile storage for the process-parallel backend.

A :class:`SharedTileStore` places every tile of a :class:`TileMatrix`, one
slot per compact-WY ``T`` factor the operation list will produce, one
completion-flag byte per operation and one pause byte inside a single
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

The completion flag is the only hand-off between two workers: one raises
``flags[idx]`` after op ``idx``'s tile writes (:meth:`SharedTileStore.publish`),
another reads it before a successor's tile reads
(:meth:`SharedTileStore.ready`).  Both sides go through :func:`fence`, which
makes the store a release and the load an acquire on every CPU.
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

__all__ = ["SharedTileStore", "t_factor_key", "attach_untracked", "fence"]


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


_FENCE_LOCK = threading.Lock()


def fence() -> None:
    """Keep this process's memory accesses before the call before those
    after it, as other CPUs see them.

    x86 orders stores with stores and loads with loads by itself; aarch64
    does not, and pure Python has no barrier instruction — but a lock has.
    One uncontended acquire-release keeps earlier accesses above its
    release and later ones below its acquire, which still lets the two meet
    in between; the release of a first cycle followed by the acquire of a
    second closes that window (a store-release and a later load-acquire are
    ordered), at some 0.1 us for both.
    """
    with _FENCE_LOCK:
        pass
    with _FENCE_LOCK:
        pass


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
    completion-flag bytes; the pause byte after them ends the segment.
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
    """One job's shared-memory footprint: tiles, ``T`` slots, op flags and
    the pause byte.

    Create it in the parent with :meth:`create` (copies the matrix in),
    attach from workers with :meth:`attach`.  Only the creator may
    :meth:`unlink`; every process must :meth:`close` when done.

    :attr:`flags` is the ``uint8[len(ops)]`` completion ledger of the
    parallel backend — its enforced idempotency: a worker sets
    ``flags[idx]`` after op ``idx``'s tile mutations (:meth:`publish`), never
    runs an op whose flag is up, and fires one only when the flags of its
    predecessors are (:meth:`ready`).  :attr:`pause` is one byte the parent
    raises when a checkpoint falls due: workers read it before each op and
    park.  The layout is a pure function of ``(layout, ops,
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
        if shm.size < flags_off + n_ops + 1:
            raise ConfigurationError(
                f"shared segment holds {shm.size} bytes, layout needs {flags_off + n_ops + 1}"
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
        #: The pause byte (a one-element view, after the flags).
        self.pause = np.ndarray((1,), dtype=np.uint8, buffer=buf, offset=flags_off + n_ops)
        _OPEN.add(self)

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, a: TileMatrix, ops: list, ib: int) -> "SharedTileStore":
        """Allocate a segment sized for ``a`` + ``T`` slots + flags + the
        pause byte, copy ``a`` in and clear flags and pause."""
        plan = _segment_plan(a.layout, ops, ib)
        size = plan[2] + len(ops) + 1
        with _FORK_LOCK:
            store = cls(shared_memory.SharedMemory(create=True, size=size),
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
        """Copy ``a``'s tiles into the segment and clear every completion
        flag and the pause byte."""
        for i, j, tile in a.iter_tiles():
            self._tiles[i][j][...] = tile
        self.flags[:] = 0
        self.pause[0] = 0

    def close(self) -> None:
        """Release this process's mapping (views become invalid)."""
        _OPEN.discard(self)
        self._tiles = []
        self._ts = {}
        self.flags = self.pause = None
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (creator only; call after :meth:`close`)."""
        if self._owner:
            self._shm.unlink()

    def destroy(self) -> None:
        """:meth:`close` + :meth:`unlink`: the creator's way out."""
        self.close()
        self.unlink()

    # -- the hand-off between workers --------------------------------------

    def publish(self, idx: int) -> None:
        """Raise op ``idx``'s completion flag, after its tile writes."""
        fence()  # release: the tile and T writes above are visible before the flag is
        self.flags[idx] = 1

    def ready(self, waits) -> bool:
        """Whether every op of ``waits`` has published; if so, what those ops
        wrote may be read."""
        flags = self.flags
        for idx in waits:
            if not flags[idx]:
                return False
        fence()  # acquire: the tile reads below see what was written before the flags
        return True

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

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

import mmap
import os
import threading
import weakref
from multiprocessing import shared_memory

import numpy as np

from ..util.errors import ConfigurationError, ShapeError
from .layout import TILE_ORDER, TileLayout
from .matrix import TileMatrix, full_tiles

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


def _tables(layout: TileLayout, ops, ib: int) -> tuple[tuple, int]:
    """``(offset tables, op count)`` for ``ops``: an operation list, whose
    tables are derived here, or the :class:`~repro.qr.schedule.Schedule`
    holding one, which derives them once."""
    memo = getattr(ops, "segment_plan", None)
    if memo is not None:
        return memo(), len(ops.ops)
    return _segment_plan(layout, ops, ib), len(ops)


#: Held while a segment is mapped *and* kept out of forks (``MADV_DONTFORK``,
#: :class:`SharedTileStore`), and while a worker's pipe is made and listed in
#: :mod:`repro.qr.parallel` — and taken by every ``fork`` of this process (the
#: hooks below), so no child is ever forked between the two steps.
_FORK_LOCK = threading.Lock()

if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(before=_FORK_LOCK.acquire,
                        after_in_parent=_FORK_LOCK.release,
                        after_in_child=_FORK_LOCK.release)


class SharedTileStore:
    """One job's shared-memory footprint: tiles, ``T`` slots, op flags and
    the pause byte.

    Create it in the parent with :meth:`create`, attach from workers with
    :meth:`attach`.  Only the creator may :meth:`unlink`; every process must
    :meth:`close` when done.

    The *name* and the *mapping* have separate lives.  :meth:`unlink` removes
    the name, which is what workers attach by and what ``/dev/shm`` lists.
    The mapping is this process's own ``mmap``, and every view a store hands
    out — tiles, ``T`` slots, flags, whatever is sliced from them — is built
    on one *root* array made over it for this store, so the root lives
    exactly as long as anybody can read these pages: :meth:`close` drops the
    store's hold, a one-shot result (:meth:`matrix`, :meth:`t_factor`) keeps
    the root for as long as one of its arrays is around, and once the root is
    dead (:meth:`spare`) the mapping may be laid out again for the next run
    under the same plan (:meth:`recycle`).  No child forked later
    inherits a mapping made here (``MADV_DONTFORK``): a worker attaches the
    segment it serves by name, and any other child must not touch a store,
    or a result that is one, of its parent.

    :attr:`flags` is the ``uint8[len(ops)]`` completion ledger of the
    parallel backend — its enforced idempotency: a worker sets
    ``flags[idx]`` after op ``idx``'s tile mutations (:meth:`publish`), never
    runs an op whose flag is up, and fires one only when the flags of its
    predecessors are (:meth:`ready`).  :attr:`pause` is one byte the parent
    raises when a checkpoint falls due: workers read it before each op and
    park.  The layout is a pure function of ``(layout, ops,
    ib)`` (:func:`_segment_plan`), so one store fits every matrix factored
    under the same plan: a one-shot run unlinks its segment before it returns
    and leaves the mapping to the next one (:mod:`repro.qr.parallel`), while a
    :class:`~repro.qr.session.QRSession` keeps one per cached plan; either way
    each new matrix is copied in with :meth:`load` and pool workers that
    already attached to the segment never re-attach.  Every
    :meth:`load` bumps :attr:`generation`: a result made of this segment's
    views is good for as long as the count it remembers is the current one.
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
        buf: mmap.mmap | None = None,
    ):
        self._shm = shm  # kept for the name and for unlink()
        self._owner = owner
        self.layout = layout
        self.ib = ib
        tile_index, t_index, flags_off = plan  # this geometry's _segment_plan
        if shm.size < flags_off + n_ops + 1:
            raise ConfigurationError(
                f"shared segment holds {shm.size} bytes, layout needs {flags_off + n_ops + 1}"
            )
        #: Whether the mapping came from an earlier run (:meth:`recycle`).
        self.recycled = buf is not None
        if buf is None:
            # Our own mapping, not ``shm.buf``: ``SharedMemory.close`` raises
            # while a view is alive, this one is collected after the last of
            # them.  The caller holds _FORK_LOCK until it is out of forks.
            buf = mmap.mmap(shm._fd, shm.size)
            if hasattr(mmap, "MADV_DONTFORK"):  # pragma: no branch - Linux
                buf.madvise(mmap.MADV_DONTFORK)
            shm.close()
        self._map = buf
        # This store's root: the base of every view below and of every view
        # of one, so it is alive exactly while someone can read the pages.
        self._root = root = np.frombuffer(buf, dtype=np.uint8)
        self._tiles = [
            [
                np.ndarray(
                    tile_index[(i, j)][1], dtype=np.float64, buffer=root,
                    offset=tile_index[(i, j)][0] * 8, order=TILE_ORDER,
                )
                for j in range(layout.nt)
            ]
            for i in range(layout.mt)
        ]
        self._ts = {
            key: np.ndarray(
                shape, dtype=np.float64, buffer=root, offset=off * 8, order=TILE_ORDER
            )
            for key, (off, shape) in t_index.items()
        }
        #: One completion byte per op (a view like the tiles).
        self.flags = np.ndarray((n_ops,), dtype=np.uint8, buffer=root, offset=flags_off)
        #: The pause byte (a one-element view, after the flags).
        self.pause = np.ndarray((1,), dtype=np.uint8, buffer=root, offset=flags_off + n_ops)
        #: Times :meth:`load` ran, the run that loaded last (the run envelope
        #: notes it) and what that load and later ``extract_*`` calls copied.
        self.generation, self.run_id, self.bytes_in, self.bytes_out = 0, None, 0, 0
        # The skeleton of every result over this segment, built once each: the
        # validated grid of views (:meth:`matrix`) and, kept here by the first
        # run that finishes (:mod:`repro.qr.parallel`), the factors around it.
        self._matrix = self.factors = None

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, a: TileMatrix | np.ndarray, ops, ib: int) -> "SharedTileStore":
        """Allocate a segment sized for ``a`` + ``T`` slots + flags + the
        pause byte, copy ``a`` in (:meth:`load`) and clear flags and pause.
        ``ops`` is the operation list or the schedule that holds it
        (:func:`_tables`); a dense ``a`` needs the latter, for its layout.

        The pages are reserved here: a ``/dev/shm`` too small raises
        ``OSError`` (``ENOSPC``), which callers turn into the serial fallback,
        where ``ftruncate`` alone would let the first store die of ``SIGBUS``.
        """
        layout = a.layout if isinstance(a, TileMatrix) else ops.layout
        plan, n_ops = _tables(layout, ops, ib)
        size = plan[2] + n_ops + 1
        with _FORK_LOCK:
            shm = shared_memory.SharedMemory(create=True, size=size)
            try:
                os.posix_fallocate(shm._fd, 0, size)
                store = cls(shm, layout, ib, plan, n_ops, owner=True)
            except BaseException:
                shm.close()
                shm.unlink()
                raise
        store.load(a)
        return store

    @classmethod
    def recycle(cls, a: TileMatrix | np.ndarray, ops, ib: int, shm, buf) -> "SharedTileStore":
        """:meth:`create` without allocating or mapping anything: new views
        over the handle and mapping a finished run under the same ``ops`` and
        ``ib`` left (:meth:`spare`, its root dead), then :meth:`load`."""
        store = cls(shm, ops.layout, ib, *_tables(ops.layout, ops, ib), owner=False, buf=buf)
        store.load(a)
        return store

    @classmethod
    def attach(cls, name: str, layout: TileLayout, ops, ib: int) -> "SharedTileStore":
        """Attach to an existing segment from a worker process (untracked,
        see :func:`attach_untracked`); ``ops`` as for :meth:`create`."""
        plan, n_ops = _tables(layout, ops, ib)
        with _FORK_LOCK:
            return cls(attach_untracked(name), layout, ib, plan, n_ops, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def load(self, a: TileMatrix | np.ndarray) -> None:
        """Copy ``a`` in and clear every completion flag and the pause byte.

        A :class:`TileMatrix` is copied tile by tile; a dense float64
        ``(m, n)`` array is tiled on the way, in the single pass of
        :meth:`TileMatrix.from_dense`: one strided copy into the full tiles
        (:func:`_segment_plan` lays them out row-major, ``nb * n`` doubles
        per full tile row), a ragged last row or column tile by tile.
        """
        if isinstance(a, TileMatrix):
            for i, j, tile in a.iter_tiles():
                self._tiles[i][j][...] = tile
        else:
            lay, nb = self.layout, self.layout.nb
            if a.shape != (lay.m, lay.n):
                raise ShapeError(f"segment holds a {lay.m} x {lay.n} matrix, got {a.shape}")
            mt_f, nt_f = lay.m // nb, lay.n // nb
            full = np.ndarray(
                (mt_f, nt_f, nb, nb), dtype=np.float64, buffer=self._root,
                strides=(8 * nb * lay.n, 8 * nb * nb, 8 * nb, 8),
            )
            full[...] = full_tiles(a, nb)
            for i in range(lay.mt):
                for j in range(nt_f if i < mt_f else 0, lay.nt):
                    self._tiles[i][j][...] = a[lay.row_span(i), lay.col_span(j)]
        self.flags[:] = 0
        self.pause[0] = 0
        self.generation += 1
        self.bytes_in, self.bytes_out = 8 * self.layout.m * self.layout.n, 0

    def close(self) -> None:
        """Drop this store's views and its hold on the mapping, which goes
        with the last view taken from it (:meth:`matrix`, :meth:`t_factor`)."""
        self._tiles = []
        self._ts = {}
        self.flags = self.pause = self._map = self._root = self._matrix = self.factors = None

    def spare(self) -> tuple:
        """``(handle, mapping, weakref(root))``: what :meth:`recycle` needs,
        once the reference is dead — nobody holds a view of these pages."""
        return self._shm, self._map, weakref.ref(self._root)

    def unlink(self) -> None:
        """Remove the segment's name (creator only).  Its pages live on in
        whatever still maps them."""
        if self._owner:
            self._owner = False  # once: a second call, by whoever, is a no-op
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

    def matrix(self) -> TileMatrix:
        """The tile grid as a :class:`TileMatrix` of views: what the segment
        holds, under the interface everything outside the pool works on —
        one object per store, shape-checked once."""
        if self._matrix is None:
            self._matrix = TileMatrix(self.layout, self._tiles)
        return self._matrix

    def extract_matrix(self) -> TileMatrix:
        """Copy the tile grid out into an ordinary (owned) TileMatrix."""
        self.bytes_out += 8 * self.layout.m * self.layout.n
        return self.matrix().copy()

    def extract_ts(self) -> dict[tuple, np.ndarray]:
        """Copy every ``T`` factor out of the segment."""
        self.bytes_out += sum(t.nbytes for t in self._ts.values())
        return {key: t.copy(order=TILE_ORDER) for key, t in self._ts.items()}

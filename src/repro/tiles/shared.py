"""Shared-memory tile storage for the process-parallel backend.

A :class:`SharedTileStore` places every tile of a :class:`TileMatrix`, one
slot per compact-WY ``T`` factor the operation list will produce, one
completion-flag byte per operation and one pause byte inside a single
anonymous shared segment — an ``os.memfd_create`` file, one job, one
segment.  It has no name in any file system: the parent holds its
descriptor, hands a copy to each worker over the worker's own socket, and
the worker maps it once and closes the copy; from then on both read and
mutate tiles in place through NumPy views: no array ever crosses a pipe,
only small operation indices do.  The pages go when the last process that
maps or holds them lets go, so no crash can leak one.

Tiles and ``T`` slots are column-major views
(:data:`~repro.tiles.layout.TILE_ORDER`), like the owned tiles of a
:class:`TileMatrix`, so worker kernels run LAPACK in place on the segment.
The segment layout (offset of every tile, ``T`` slot and the flag array) is
a pure function of the tile geometry and the operation list, so the parent
and every worker compute identical offset tables independently; only the
segment's descriptor and its string id (:attr:`SharedTileStore.name`)
travel to the workers.

The completion flag is the only hand-off between two workers: one raises
``flags[idx]`` after op ``idx``'s tile writes (:meth:`SharedTileStore.publish`),
another reads it before a successor's tile reads
(:meth:`SharedTileStore.ready`).  Both sides go through :func:`fence`, which
makes the store a release and the load an acquire on every CPU.
"""

from __future__ import annotations

import ctypes
import errno
import mmap
import os
import threading
import weakref

import numpy as np

from ..util.errors import ConfigurationError, ShapeError
from .layout import TILE_ORDER, TileLayout
from .matrix import TileMatrix, full_tiles

__all__ = ["SharedTileStore", "t_factor_key", "descriptor", "fence"]


_FENCE_LOCK = threading.Lock()
_acquire, _release = _FENCE_LOCK.acquire, _FENCE_LOCK.release


def fence() -> None:
    """Keep this process's memory accesses before the call before those
    after it, as other CPUs see them.

    x86 orders stores with stores and loads with loads by itself; aarch64
    does not, and pure Python has no barrier instruction — but a lock has.
    One uncontended acquire-release keeps earlier accesses above its
    release and later ones below its acquire, which still lets the two meet
    in between; the release of a first cycle followed by the acquire of a
    second closes that window (a store-release and a later load-acquire are
    ordered).  The two cycles call the lock's bound methods, which costs
    less than two ``with`` blocks: 0.16 us against 0.33 us on a 2-vCPU x86
    VM.
    """
    _acquire()
    _release()
    _acquire()
    _release()


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
        key = op.t_key
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
#: :class:`SharedTileStore`), while a segment descriptor is made and listed
#: in :data:`_HELD` or closed and delisted, and while a worker's pipe is made
#: and listed in :mod:`repro.qr.parallel` — and taken by every ``fork`` of
#: this process (the hooks below), so no child is ever forked between two
#: such steps.
_FORK_LOCK = threading.Lock()

#: Segment id -> the descriptor this process holds for it: what a worker
#: that does not map the segment yet is sent (:func:`descriptor`).  A
#: forked child closes every one first thing (:func:`_after_fork_in_child`):
#: a copy left in a long-lived child would keep the pages after their last
#: user is gone.
_HELD: dict[str, int] = {}


def descriptor(name: str) -> int | None:
    """The descriptor this process holds for segment ``name``, or ``None``
    once the creator has let go of it (:meth:`SharedTileStore.unlink`)."""
    return _HELD.get(name)


def _after_fork_in_child() -> None:
    """No segment descriptor of the parent's belongs to a forked child: its
    workers are sent theirs, any other child has no business with them."""
    for fd in _HELD.values():
        os.close(fd)
    _HELD.clear()
    _FORK_LOCK.release()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(before=_FORK_LOCK.acquire,
                        after_in_parent=_FORK_LOCK.release,
                        after_in_child=_after_fork_in_child)


_LIBC = ctypes.CDLL(None, use_errno=True)
_LIBC.mmap.restype = ctypes.c_void_p
_LIBC.mmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int, ctypes.c_int,
                       ctypes.c_int, ctypes.c_long)
_LIBC.munmap.restype = _LIBC.madvise.restype = ctypes.c_int
_LIBC.munmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t)
_LIBC.madvise.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
_MAP_FAILED = ctypes.c_void_p(-1).value


def _map(fd: int, size: int):
    """This process's own shared mapping of ``size`` bytes of segment ``fd``,
    kept out of forks (``MADV_DONTFORK``): a ``ctypes`` array over the
    pages, unmapped when the last object over it goes.  The caller holds
    :data:`_FORK_LOCK` until it is out of forks.

    Not ``mmap.mmap``: that keeps a duplicate of ``fd`` for as long as the
    mapping lives, a descriptor every later fork would inherit and that
    would keep the pages past their last user.  This mapping holds none.
    """
    addr = _LIBC.mmap(None, size, mmap.PROT_READ | mmap.PROT_WRITE, mmap.MAP_SHARED, fd, 0)
    if addr == _MAP_FAILED:
        err = ctypes.get_errno()
        raise OSError(err, os.strerror(err))
    if hasattr(mmap, "MADV_DONTFORK"):  # pragma: no branch - Linux
        _LIBC.madvise(addr, size, mmap.MADV_DONTFORK)
    buf = (ctypes.c_char * size).from_address(addr)
    weakref.finalize(buf, _LIBC.munmap, addr, size).atexit = False
    return buf


class SharedTileStore:
    """One job's shared-memory footprint: tiles, ``T`` slots, op flags and
    the pause byte.

    Create it in the parent with :meth:`create`, attach from workers with
    :meth:`attach`.  Only the creator holds a descriptor, until
    :meth:`unlink`; every process must :meth:`close` when done.

    The *descriptor* and the *mapping* have separate lives.  The creator's
    descriptor is what a worker that does not map the segment yet is sent
    (:func:`descriptor`); :meth:`unlink` closes it, after which nobody new
    can map the segment.  No file system ever lists it.
    The mapping is this process's own ``mmap``, and every view a store hands
    out — tiles, ``T`` slots, flags, whatever is sliced from them — is built
    on one *root* array made over it for this store, so the root lives
    exactly as long as anybody can read these pages: :meth:`close` drops the
    store's hold, and a result (:meth:`matrix`, :attr:`records`) keeps the
    root for as long as one of its arrays is around.  No child forked later
    inherits a mapping made here (``MADV_DONTFORK``) or a descriptor held
    here: a worker maps the segment it serves from the descriptor it is
    sent, and any other child must not touch a store, or a result that is
    one, of its parent.

    :attr:`flags` is the ``uint8[len(ops)]`` completion ledger of the
    parallel backend — its enforced idempotency: a worker sets
    ``flags[idx]`` after op ``idx``'s tile mutations (:meth:`publish`), never
    runs an op whose flag is up, and fires one only when the flags of its
    predecessors are (:meth:`ready`).  :attr:`pause` is one byte the parent
    raises when a checkpoint falls due: workers read it before each op and
    park.  The layout is a pure function of ``(layout, ops,
    ib)`` (:func:`_segment_plan`), so one store fits every matrix factored
    under the same plan: :mod:`repro.qr.parallel` keeps the segments of
    finished runs, descriptor and views included, and loads the next
    matrix into one with :meth:`load` once nobody holds the result made of
    it; pool workers that already map the segment never map it again.
    """

    def __init__(
        self,
        name: str,
        buf,
        layout: TileLayout,
        ib: int,
        plan: tuple,
        n_ops: int,
        *,
        owner: bool,
    ):
        #: The segment's id: the ``memfd`` name ``/proc/<pid>/maps`` shows,
        #: and the key of the job headers and the pool's ``known`` lists.
        self.name = name
        self._owner = owner
        self.layout = layout
        self.ib = ib
        tile_index, t_index, flags_off = plan  # this geometry's _segment_plan
        if len(buf) < flags_off + n_ops + 1:
            raise ConfigurationError(
                f"shared segment holds {len(buf)} bytes, layout needs {flags_off + n_ops + 1}"
            )
        self._map = buf
        # This store's root: the base of every view below and of every view
        # of one, so it is alive exactly while someone can read the pages.
        self._root = root = np.frombuffer(buf, dtype=np.uint8)

        def view(off: int, shape: tuple) -> np.ndarray:
            return np.ndarray(shape, dtype=np.float64, buffer=root, offset=off * 8,
                              order=TILE_ORDER)

        # The full tiles are ``[i, j].T`` of one C-order block over them (the
        # block :meth:`load` copies into), the full-width ``T`` slots ``[s].T``
        # of another: an index and a transpose each, where a view of its own
        # costs a buffer export.  Ragged ones get a view of their own.
        nb = layout.nb
        mt_f, nt_f = layout.m // nb, layout.n // nb
        self._full = np.ndarray(
            (mt_f, nt_f, nb, nb), dtype=np.float64, buffer=root,
            strides=(8 * nb * layout.n, 8 * nb * nb, 8 * nb, 8),
        )
        self._tiles = [
            [
                self._full[i, j].T if i < mt_f and j < nt_f else view(*tile_index[(i, j)])
                for j in range(layout.nt)
            ]
            for i in range(layout.mt)
        ]
        start, size = layout.m * layout.n, ib * nb  # the T region; one full slot
        slots = np.ndarray(((flags_off // 8 - start) // size, nb, ib), dtype=np.float64,
                           buffer=root, offset=start * 8)
        self._ts = {
            key: slots[(off - start) // size].T
            if shape[1] == nb and (off - start) % size == 0 else view(off, shape)
            for key, (off, shape) in t_index.items()
        }
        #: One completion byte per op (a view like the tiles).
        self.flags = np.ndarray((n_ops,), dtype=np.uint8, buffer=root, offset=flags_off)
        #: The pause byte (a one-element view, after the flags).
        self.pause = np.ndarray((1,), dtype=np.uint8, buffer=root, offset=flags_off + n_ops)
        #: Bytes the last :meth:`load` copied in.
        self.bytes_in = 0
        # The skeleton of every result over this segment, built once each: the
        # validated grid of views (:meth:`matrix`) and, kept here by the first
        # run that finishes (:mod:`repro.qr.parallel`), the factor records.
        self._matrix = self.records = None

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, a: TileMatrix | np.ndarray, ops, ib: int) -> "SharedTileStore":
        """Allocate a segment sized for ``a`` + ``T`` slots + flags + the
        pause byte, copy ``a`` in (:meth:`load`) and clear flags and pause.
        ``ops`` is the operation list or the schedule that holds it
        (:func:`_tables`); a dense ``a`` needs the latter, for its layout.

        The pages are reserved here: memory too short to hold them raises
        ``OSError`` (``ENOSPC``), which callers turn into the serial fallback,
        where ``ftruncate`` alone would let the first store die of ``SIGBUS``.
        So does a platform without ``os.memfd_create``.
        """
        if not hasattr(os, "memfd_create"):
            raise OSError(errno.ENOSYS, "os.memfd_create is unavailable on this platform")
        layout = a.layout if isinstance(a, TileMatrix) else ops.layout
        plan, n_ops = _tables(layout, ops, ib)
        size = plan[2] + n_ops + 1
        name = f"psm_{os.urandom(8).hex()}"
        with _FORK_LOCK:
            fd = _HELD[name] = os.memfd_create(name, os.MFD_CLOEXEC)
            try:
                os.ftruncate(fd, size)
                os.posix_fallocate(fd, 0, size)
                store = cls(name, _map(fd, size), layout, ib, plan, n_ops, owner=True)
            except BaseException:
                del _HELD[name]
                os.close(fd)
                raise
        store.load(a)
        return store

    @classmethod
    def attach(cls, name: str, fd: int, layout: TileLayout, ops, ib: int) -> "SharedTileStore":
        """Map segment ``name`` from a descriptor of it — a worker's, as it
        was sent (:mod:`repro.qr.parallel`) — and close the descriptor;
        ``ops`` as for :meth:`create`."""
        plan, n_ops = _tables(layout, ops, ib)
        try:
            with _FORK_LOCK:
                return cls(name, _map(fd, os.fstat(fd).st_size), layout, ib, plan,
                           n_ops, owner=False)
        finally:
            os.close(fd)

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
            mt_f, nt_f = self._full.shape[:2]
            self._full[...] = full_tiles(a, nb)
            for i in range(lay.mt):
                for j in range(nt_f if i < mt_f else 0, lay.nt):
                    self._tiles[i][j][...] = a[lay.row_span(i), lay.col_span(j)]
        self.flags[:] = 0
        self.pause[0] = 0
        self.bytes_in = 8 * self.layout.m * self.layout.n

    def close(self) -> None:
        """Drop this store's views and its hold on the mapping, which goes
        with the last view taken from it (:meth:`matrix`, :meth:`t_factor`)."""
        self._tiles = []
        self._ts = {}
        self.flags = self.pause = self._map = self._root = self._full = None
        self._matrix = self.records = None

    def unlink(self) -> None:
        """Close the creator's descriptor (creator only): nobody new can map
        the segment.  Its pages live on in whatever still maps them."""
        if self._owner:
            self._owner = False  # once: a second call, by whoever, is a no-op
            with _FORK_LOCK:
                fd = _HELD.pop(self.name, None)
                if fd is not None:  # None in a child forked since: closed there
                    os.close(fd)

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
        one object per store, its grid laid out from the layout here."""
        if self._matrix is None:
            self._matrix = TileMatrix._adopt(self.layout, self._tiles)
        return self._matrix

"""Save, load, checkpoint, and resume factorizations.

A :class:`~repro.qr.reference.TileQRFactors` is an implicit object (tiles +
``T`` factors + record list); persisting it lets a tall-and-skinny panel be
factored once and its ``Q``/``R`` reused across runs — the standard
workflow when the same design matrix serves many right-hand sides.

There is one archive format (``.npz``, no pickling, so archives are
portable and safe to load): a snapshot of the completed-op frontier — a
done mask over the op list, the current tiles and the ``T`` factors of
completed factor ops.  ``qr_factor(..., checkpoint=)`` writes them
incrementally and uncompressed (:class:`CheckpointStore`); a run killed
mid-DAG resumes from the latest one, skipping completed ops, bit-exact with
an uninterrupted run (``docs/robustness.md``, "Checkpoint/resume").  A
saved factorization (:func:`save_factorization`) is a *finished*
checkpoint, compressed.  So :func:`load_factorization` and
:func:`resume_factorization` each accept both; only an unfinished snapshot
is refused by the former.

Writes are crash-safe: the archive is assembled in a temporary file in the
destination directory, fsynced, and atomically renamed over the target with
``os.replace`` — a process killed mid-write leaves the previous archive (if
any) intact and never a half-written one.  Reads are defensive: every
archive carries a whole-archive BLAKE2b digest, and :func:`_read_archive`
rejects truncated, bit-flipped, or otherwise malformed files with a
:class:`~repro.util.errors.ConfigurationError` instead of a raw
numpy/zlib/KeyError.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
import zipfile
import zlib
from typing import NamedTuple

import numpy as np

from ..obs import context as _obs_context
from ..obs import record as _obs_record
from ..obs.record import K_CKPT_BYTES, K_CKPT_WRITES, K_RESUME_SKIPPED
from ..tiles.layout import TILE_ORDER
from ..tiles.matrix import TileMatrix
from ..trees.plan import TreeKind
from ..util.errors import ConfigurationError, ReproError
from ..util.validation import as_f64_matrix, require
from .api import QRFactorization, _run
from .backends import require_capability
from .reference import TileQRFactors, factor_records
from .schedule import Schedule, schedule_for

__all__ = [
    "save_factorization",
    "load_factorization",
    "CheckpointStore",
    "as_checkpoint_store",
    "resume_factorization",
]

#: Version 2 added the ``__format__`` marker and the whole-archive digest.
_FORMAT_VERSION = 2
_FMT_CHECKPOINT = "qr-checkpoint"


# -- hardened archive I/O -----------------------------------------------------


def _archive_digest(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """BLAKE2b digest over every entry's name, dtype, shape, and bytes.

    Stored inside the archive as ``__digest__`` and re-derived on load:
    any truncation or bit flip in the compressed stream either breaks
    decompression (caught as a read error) or changes some entry's bytes
    (caught here).  The digest entry itself is excluded from its own hash.
    """
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(arrays):
        if name == "__digest__":
            continue
        arr = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return np.frombuffer(h.digest(), dtype=np.uint8)


def _atomic_write_npz(final: str, arrays: dict[str, np.ndarray], *,
                      compressed: bool) -> int:
    """Write an ``.npz`` atomically (temp file + fsync + ``os.replace``).

    Returns the byte size of the written archive.  Writes through an
    *open file object*: ``savez`` would append ``.npz`` to a temporary
    path string, breaking the later rename.  Same-directory temp file so
    ``os.replace`` stays within one filesystem (atomic).
    """
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(final) or ".",
        prefix=os.path.basename(final) + ".",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            (np.savez_compressed if compressed else np.savez)(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        nbytes = os.path.getsize(tmp)
        os.replace(tmp, final)
        return nbytes
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_archive(path: str | os.PathLike, what: str) -> dict[str, np.ndarray]:
    """Load and integrity-check an archive; all entries materialised.

    Raises :class:`ConfigurationError` (never a raw numpy/zip/KeyError)
    for anything that is not a well-formed, digest-verified archive of
    format ``what`` at a supported version.  ``FileNotFoundError`` passes
    through untouched — a missing file is a caller bug, not corruption.
    """
    try:
        with np.load(path) as data:
            arrays = {name: np.array(data[name]) for name in data.files}
    except FileNotFoundError:
        raise
    except (OSError, ValueError, KeyError, EOFError,
            zipfile.BadZipFile, zlib.error) as exc:
        raise ConfigurationError(
            f"{os.fspath(path)!r} is not a readable {what} archive "
            f"(truncated or corrupt): {type(exc).__name__}: {exc}"
        ) from exc
    for required in ("__format__", "__meta__", "__digest__"):
        if required not in arrays:
            raise ConfigurationError(
                f"{os.fspath(path)!r} is missing the {required!r} entry — "
                f"not a format version {_FORMAT_VERSION} {what} archive"
            )
    fmt = str(arrays["__format__"][0])
    if fmt != what:
        raise ConfigurationError(
            f"{os.fspath(path)!r} holds a {fmt!r} archive, expected {what!r}"
        )
    version = int(arrays["__meta__"][0])
    if version != _FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported {what} format version {version} in "
            f"{os.fspath(path)!r} (this build reads version {_FORMAT_VERSION})"
        )
    if not np.array_equal(_archive_digest(arrays), arrays["__digest__"]):
        raise ConfigurationError(
            f"{os.fspath(path)!r} failed its integrity check "
            "(truncated or tampered archive)"
        )
    return arrays


# -- the one archive: assembly and validated read ------------------------------


def _head(tm, ib: int, tree: str, h: int, shifted: bool, n_ops: int,
          run_id: str | None) -> dict[str, np.ndarray]:
    """The geometry entries of an archive of ``tm``'s shape and the run id
    that wrote it (empty outside a run; a resume names it as its parent)."""
    return {
        "__meta__": np.array([_FORMAT_VERSION, tm.m, tm.n, tm.nb, ib, h, int(shifted),
                              n_ops], dtype=np.int64),
        "__tree__": np.array([tree], dtype="U16"),
        "__run__": np.array([run_id or ""], dtype="U64"),
    }


def _archive_arrays(head, done, a, ts) -> dict[str, np.ndarray]:
    """The archive of one frontier, digest included: ``done`` is the uint8
    done mask over the op list, ``a`` the dense tiles, ``ts`` maps an op
    index to its ``T`` factor.  The ``T`` factors go into two flat entries
    (index + concatenated data): ``np.savez`` pays per-entry zip overhead,
    so one entry per ``T`` factor would dominate the write cost."""
    t_idxs = sorted(ts)
    t_index = np.zeros((len(t_idxs), 4), dtype=np.int64)
    chunks = []
    offset = 0
    for row, idx in enumerate(t_idxs):
        t = ts[idx]
        t_index[row] = (idx, t.shape[0], t.shape[1], offset)
        chunks.append(t.ravel())
        offset += t.size
    arrays = {
        "__format__": np.array([_FMT_CHECKPOINT], dtype="U32"),
        **head,
        "__done__": done,
        "__a__": a,
        "__t_index__": t_index,
        "__t_data__": (
            np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.float64)
        ),
    }
    arrays["__digest__"] = _archive_digest(arrays)
    return arrays


class _Snapshot(NamedTuple):
    """A validated archive; ``ts`` maps an op index to its ``T`` factor."""

    tree: TreeKind
    h: int
    shifted: bool
    entry: Schedule  # holds the geometry: ``layout``, ``ib``, ``ops``
    a: np.ndarray
    skip: frozenset
    ts: dict
    run_id: str | None


def _read_snapshot(path: str | os.PathLike) -> _Snapshot:
    """:func:`_read_archive`, then the payload against the planner: its op
    count, the done mask's and the tiles' shapes, a ``T`` per done factor op."""
    data = _read_archive(path, _FMT_CHECKPOINT)
    m, n, nb, ib, h, shifted, n_ops = (int(x) for x in data["__meta__"][1:])
    tree = TreeKind.coerce(str(data["__tree__"][0]))
    entry = schedule_for(tree, m, n, nb, ib, h, bool(shifted))
    ops = entry.ops
    if len(ops) != n_ops:
        raise ConfigurationError(
            f"{os.fspath(path)!r} records {n_ops} ops but the planner "
            f"produced {len(ops)} for the same geometry — archive written "
            "by an incompatible build"
        )
    done = data["__done__"].astype(bool)
    if done.shape != (n_ops,):
        raise ConfigurationError(
            f"{os.fspath(path)!r} has a malformed done mask "
            f"(shape {done.shape}, expected ({n_ops},))"
        )
    try:
        a_snap = as_f64_matrix(data["__a__"], "snapshot")
        if a_snap.shape != (m, n):
            raise ValueError(
                f"snapshot shape {a_snap.shape}, geometry says ({m}, {n})"
            )
        skip = frozenset(int(i) for i in np.flatnonzero(done))
        t_index, t_data = data["__t_index__"], data["__t_data__"]
        ts = {}
        for row in t_index:
            idx, rows, cols, offset = (int(x) for x in row)
            ts[idx] = np.array(
                t_data[offset:offset + rows * cols].reshape(rows, cols),
                order=TILE_ORDER,
            )
        missing = {i for i in skip if ops[i].is_factor} - ts.keys()
        if missing:
            raise KeyError(f"T factors for completed ops {sorted(missing)[:5]}")
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(
            f"{os.fspath(path)!r} is internally inconsistent: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    # Empty (or absent) for archives written outside a run or by older builds.
    run_id = str(data["__run__"][0]) if "__run__" in data else ""
    return _Snapshot(tree, h, bool(shifted), entry, a_snap, skip, ts, run_id or None)


# -- whole-factorization save/load --------------------------------------------


def save_factorization(path: str | os.PathLike, f: QRFactorization) -> None:
    """Write ``f`` to ``path`` as the archive a finished checkpointed run
    leaves (every op done), compressed and atomically.

    Mirrors NumPy's path handling: ``.npz`` is appended when missing.  The
    data goes to a temporary file first and only an ``os.replace`` makes it
    visible under the final name, so a crash mid-save cannot corrupt or
    truncate an existing archive.
    """
    factors = f._factors
    a, ops = factors.a, f._ops
    # Records come in program order: one per factor op of the op list.
    factor_idx = (idx for idx, op in enumerate(ops) if op.is_factor)
    arrays = _archive_arrays(
        _head(a, factors.ib, f.tree.value, f.h, f.shifted, len(ops), f.run_id),
        np.ones(len(ops), dtype=np.uint8),
        a.to_dense(),
        {idx: rec.t for idx, rec in zip(factor_idx, factors.records)},
    )
    final = os.fspath(path)
    if not final.endswith(".npz"):
        final += ".npz"  # match np.savez path normalisation
    _atomic_write_npz(final, arrays, compressed=True)


def load_factorization(path: str | os.PathLike) -> QRFactorization:
    """Load a finished archive: a :func:`save_factorization` one or the
    checkpoint a completed ``qr_factor(..., checkpoint=)`` run left.

    Validates the format marker, version, whole-archive digest and the
    geometry's op list before touching any payload; truncated or tampered
    archives raise a :class:`~repro.util.errors.ConfigurationError`, and so
    does an unfinished snapshot — :func:`resume_factorization` finishes it.
    """
    snap = _read_snapshot(path)
    ops = snap.entry.ops
    if len(snap.skip) != len(ops):
        raise ConfigurationError(
            f"{os.fspath(path)!r} is an unfinished checkpoint "
            f"({len(snap.skip)} of {len(ops)} ops done); "
            "finish it with resume_factorization"
        )
    ts = {ops[idx].t_key: t for idx, t in snap.ts.items()}
    ib = snap.entry.ib
    factors = TileQRFactors(
        TileMatrix._from_validated(snap.a, snap.entry.layout.nb),
        factor_records(snap.entry, ts.__getitem__), ib,
    )
    return QRFactorization(
        factors, snap.tree, backend="loaded", ops=ops, ib=ib,
        run_id=snap.run_id, h=snap.h, shifted=snap.shifted,
    )


# -- incremental checkpoints --------------------------------------------------


class CheckpointStore:
    """Incremental mid-run checkpoint writer for :func:`~repro.qr.api.qr_factor`.

    Stages the input tiles at :meth:`bind` time, then on every
    :meth:`write` restages only the tiles dirtied by newly completed ops
    (plus their ``T`` factors) and atomically replaces the archive at
    ``path`` — same temp-file/fsync/``os.replace`` discipline as
    :func:`save_factorization`, so a kill at any instant leaves either the
    previous snapshot or the new one, never a torn file.

    Parameters
    ----------
    path:
        Destination archive.  Overwritten on every snapshot.
    every_ops, every_s:
        Snapshot cadence: a write happens when either ``every_ops``
        operations completed since the last one or ``every_s`` seconds
        elapsed, whichever comes first (checked between schedule steps;
        the parallel dispatcher additionally quiesces in-flight work
        before writing so the snapshot is a consistent frontier).
    on_write:
        Optional callable invoked as ``on_write(writes_so_far)`` right
        after each snapshot becomes visible — the chaos tests use it to
        kill the process at a known-good instant.

    One store instance serves one run: ``qr_factor`` calls :meth:`bind`
    with the resolved geometry before execution starts.
    """

    def __init__(self, path: str | os.PathLike, *, every_ops: int = 256,
                 every_s: float = 5.0, on_write=None):
        require(every_ops >= 1, f"every_ops must be >= 1, got {every_ops}")
        require(every_s > 0.0, f"every_s must be > 0, got {every_s}")
        self.path = os.fspath(path)
        self.every_ops = int(every_ops)
        self.every_s = float(every_s)
        self.on_write = on_write
        #: Snapshots written so far / total archive bytes written.
        self.writes = 0
        self.bytes_written = 0
        self._ops = None

    def bind(self, tm, ops, ib: int, tree_kind: str, h: int,
             shifted: bool) -> None:
        """Attach this store to one run's geometry and pristine tiles."""
        self._ops = ops
        self._head = _head(tm, ib, tree_kind, h, shifted, len(ops),
                           _obs_context.current_run_id())
        # One dense staging buffer instead of one archive entry per tile:
        # ``np.savez`` pays per-entry zip overhead, so hundreds of small
        # entries would dominate the write cost (measured ~30ms vs ~3ms on
        # the smoke benchmark).  Dirty tiles are copied into their spans.
        self._layout = tm.layout
        self._a = tm.to_dense()
        self._staged_ts: dict[int, np.ndarray] = {}
        self._pending_done = None
        self._written_mask = np.zeros(len(ops), dtype=bool)
        self._ops_since = 0
        self._last_write = time.monotonic()

    def note_done(self, k: int = 1) -> None:
        """Record that ``k`` more operations completed since the last write."""
        self._ops_since += k

    def due(self) -> bool:
        """Is a snapshot due under the ``every_ops`` / ``every_s`` cadence?"""
        return (self._ops_since >= self.every_ops
                or time.monotonic() - self._last_write >= self.every_s)

    def capture(self, tiles, t_lookup, done_mask) -> None:
        """Stage the current frontier: ``done_mask`` + dirty tiles.

        ``tiles`` is anything with ``tile(i, j)`` (the
        :class:`~repro.tiles.matrix.TileMatrix` or the parallel backend's
        shared-memory store); ``t_lookup`` maps an op's ``t_key`` to the
        completed op's ``T`` array.  Only tiles dirtied by ops completed since the last
        snapshot are re-copied, so steady-state capture cost tracks the op
        rate, not the matrix size.

        Capture must run while the tiles are quiescent (no concurrent
        kernel mutating them), but it is only memcpys into parent-owned
        buffers — the parallel dispatcher resumes dispatching right after
        and lets the expensive serialization (:meth:`flush`) overlap with
        worker execution.
        """
        if self._ops is None:  # pragma: no cover - defensive
            raise ReproError("CheckpointStore.capture before bind()")
        done_mask = np.asarray(done_mask, dtype=bool)
        newly = np.flatnonzero(done_mask & ~self._written_mask)
        dirty: set[tuple[int, int]] = set()
        for idx in newly:
            op = self._ops[idx]
            dirty.update(op.writes())
            if op.is_factor:
                self._staged_ts[int(idx)] = np.array(t_lookup(op.t_key))
        layout = self._layout
        for i, j in dirty:
            self._a[layout.row_span(i), layout.col_span(j)] = tiles.tile(i, j)
        self._pending_done = done_mask.astype(np.uint8)
        self._written_mask |= done_mask
        self._ops_since = 0
        self._last_write = time.monotonic()

    def flush(self) -> None:
        """Serialize the last :meth:`capture` and atomically replace the archive."""
        if getattr(self, "_pending_done", None) is None:
            return
        done_mask = self._pending_done
        self._pending_done = None
        arrays = _archive_arrays(self._head, done_mask, self._a, self._staged_ts)
        rec = _obs_record._RECORDER
        if rec is not None:
            with rec.span("ckpt.write", "checkpoint", ops_done=int(done_mask.sum())):
                nbytes = _atomic_write_npz(self.path, arrays, compressed=False)
        else:
            nbytes = _atomic_write_npz(self.path, arrays, compressed=False)
        self.writes += 1
        self.bytes_written += nbytes
        if rec is not None:
            rec.count(K_CKPT_WRITES)
            rec.count(K_CKPT_BYTES, nbytes)
            rec.event(
                "ckpt.write", ops_done=int(done_mask.sum()), bytes=nbytes,
                path=self.path,
            )
        if self.on_write is not None:
            self.on_write(self.writes)

    def write(self, tiles, t_lookup, done_mask) -> None:
        """:meth:`capture` + :meth:`flush` in one call (the serial paths)."""
        self.capture(tiles, t_lookup, done_mask)
        self.flush()


def as_checkpoint_store(obj) -> CheckpointStore:
    """Coerce ``qr_factor``'s ``checkpoint=`` argument to a store."""
    if isinstance(obj, CheckpointStore):
        return obj
    if isinstance(obj, (str, os.PathLike)):
        return CheckpointStore(obj)
    raise ConfigurationError(
        f"checkpoint must be a path or CheckpointStore, got {type(obj).__name__}"
    )


def resume_factorization(
    path: str | os.PathLike,
    *,
    backend: str = "serial",
    n_procs: int | None = None,
    policy: str = "lazy",
    batch: int | str | None = None,
    fault_plan=None,
    on_failure: str = "raise",
    checkpoint=None,
) -> QRFactorization:
    """Finish a factorization from a :class:`CheckpointStore` snapshot.

    Takes the op list of the archived geometry from the schedule memo
    (:func:`repro.qr.schedule.schedule_for`; the planners are
    deterministic), restores the snapshot tiles and the ``T`` factors of
    completed ops, and executes only the remaining ops — the result is
    bit-exact with the uninterrupted run, because the checkpointed done
    set is predecessor-closed and every kernel is deterministic.  The
    number of skipped ops lands on the result's ``ops_skipped`` attribute
    and the ``resume.ops_skipped`` counter.

    ``backend`` is ``"serial"``, ``"batched"``, or ``"parallel"`` (with
    ``n_procs`` / ``policy`` / ``batch`` as on :func:`~repro.qr.api.qr_factor`,
    validated the same way on every backend; ``batch="wavefront"`` is a
    synonym of the default) — the resume backend need not match the
    original run's.  Pass
    ``checkpoint=`` (a path or store, typically the same ``path``) to keep
    checkpointing the resumed run; ``on_failure="fallback"`` degrades a
    failing resume to the serial executor, still skipping the restored ops
    and still snapshotting, so the archive ends complete.  After the
    archive is read and validated here, the run itself is the envelope
    :func:`~repro.qr.api.qr_factor` uses (``repro.qr.api._run``), called
    with the restored frontier and the archived run as parent.
    """
    require_capability(backend, "resume")
    snap = _read_snapshot(path)
    # The resumed run is a *new* run whose causal parent is the run that
    # wrote the snapshot.
    rec = _obs_record._RECORDER
    if rec is not None:
        rec.count(K_RESUME_SKIPPED, len(snap.skip))
        rec.event(
            "resume", path=os.fspath(path), ops_skipped=len(snap.skip),
            parent_run=snap.run_id,
        )
    return _run(
        snap.a, snap.entry.layout, lambda: snap.entry, snap.entry.ib, snap.tree, snap.h,
        snap.shifted,
        backend, policy=policy, fault_plan=fault_plan, on_failure=on_failure,
        checkpoint=checkpoint, skip=snap.skip, preloaded_ts=snap.ts,
        parent_run_id=snap.run_id,
        n_procs=n_procs, batch=batch,
    )

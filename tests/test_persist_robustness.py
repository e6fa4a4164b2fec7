"""Hardened archive I/O: digests, truncation, tampering, torn writes."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.obs import recording
from repro.qr import (
    CheckpointStore,
    load_factorization,
    resume_factorization,
    save_factorization,
)
from repro.qr.api import qr_factor
from repro.qr.persist import _archive_digest
from repro.tiles import random_dense
from repro.util import ConfigurationError

KW = dict(nb=8, ib=4, tree="hier", h=3)


@pytest.fixture
def saved(tmp_path, small_matrix):
    """A factorization archive plus the factorization that produced it."""
    f = qr_factor(small_matrix, **KW)
    path = tmp_path / "f.npz"
    save_factorization(path, f)
    return path, f


@pytest.fixture
def checkpointed(tmp_path, small_matrix):
    """A completed-run checkpoint archive plus the clean factorization."""
    path = tmp_path / "c.npz"
    f = qr_factor(small_matrix, **KW, checkpoint=path)
    return path, f


def _arrays(path) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {k: np.array(data[k]) for k in data.files}


def _rewrite(path, arrays: dict[str, np.ndarray]) -> None:
    """Write ``arrays`` back under a freshly derived digest."""
    arrays = {k: v for k, v in arrays.items() if k != "__digest__"}
    arrays["__digest__"] = _archive_digest(arrays)
    np.savez(path, **arrays)


def _kernel_counters(f) -> dict[str, float]:
    return {k: v for k, v in f.counters.items() if k.startswith(("ops.", "flops."))}


def _same_factors(f, g) -> None:
    np.testing.assert_array_equal(f.R, g.R)
    probe = np.linspace(-1.0, 1.0, f.shape[0])
    np.testing.assert_array_equal(f.qt_matmul(probe), g.qt_matmul(probe))


class TestFactorizationArchive:
    def test_round_trip_is_bit_exact(self, saved, small_matrix):
        path, f = saved
        g = load_factorization(path)
        np.testing.assert_array_equal(f.R, g.R)
        np.testing.assert_array_equal(f.q_thin(), g.q_thin())

    def test_truncated_archive_rejected(self, saved):
        path, _ = saved
        raw = path.read_bytes()
        for keep in (len(raw) // 2, len(raw) - 7):
            path.write_bytes(raw[:keep])
            with pytest.raises(ConfigurationError, match="truncated|corrupt"):
                load_factorization(path)

    def test_bit_flipped_archive_rejected(self, saved):
        path, _ = saved
        raw = bytearray(path.read_bytes())
        # Flip one bit somewhere in the payload region (past the zip
        # headers): either decompression breaks or the digest catches it.
        raw[len(raw) // 2] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigurationError):
            load_factorization(path)

    def test_wrong_format_marker_rejected(self, saved):
        """The per-tile archive format of earlier builds is retired: its
        marker is refused with the typed error, by both readers."""
        path, _ = saved
        arrays = _arrays(path)
        arrays["__format__"] = np.array(["qr-factorization"], dtype="U32")
        _rewrite(path, arrays)
        for reader in (load_factorization, resume_factorization):
            with pytest.raises(ConfigurationError, match="qr-factorization"):
                reader(path)

    def test_legacy_archive_without_marker_rejected(self, tmp_path):
        path = tmp_path / "old.npz"
        np.savez(
            path,
            __meta__=np.array([1, 40, 24, 8, 4]),
            __tree__=np.array(["hier"]),
        )
        with pytest.raises(ConfigurationError, match="format version"):
            load_factorization(path)

    def test_missing_file_is_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_factorization(tmp_path / "nope.npz")

    def test_non_archive_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip file at all")
        with pytest.raises(ConfigurationError, match="not a readable"):
            load_factorization(path)


class TestCheckpointArchive:
    def test_tampered_payload_rejected(self, checkpointed):
        path, _ = checkpointed
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigurationError):
            resume_factorization(path)

    def test_truncated_checkpoint_rejected(self, checkpointed):
        path, _ = checkpointed
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 3])
        with pytest.raises(ConfigurationError, match="truncated|corrupt"):
            resume_factorization(path)

    def test_kill_mid_write_leaves_previous_snapshot(
        self, tmp_path, small_matrix, monkeypatch
    ):
        """A crash inside the serialize-and-replace window must leave the
        previous archive intact and loadable (atomic-write discipline)."""
        import repro.qr.persist as persist

        clean = qr_factor(small_matrix, **KW)
        path = tmp_path / "c.npz"
        ck = CheckpointStore(path, every_ops=10)
        # First snapshot lands normally...
        real_replace = os.replace
        calls = []

        def dying_replace(src, dst):
            calls.append(dst)
            if len(calls) >= 2:
                raise OSError("simulated crash mid-replace")
            return real_replace(src, dst)

        monkeypatch.setattr(persist.os, "replace", dying_replace)
        with pytest.raises(OSError, match="simulated crash"):
            qr_factor(small_matrix, **KW, checkpoint=ck)
        monkeypatch.setattr(persist.os, "replace", real_replace)
        # ...and the interrupted second write left it untouched: the
        # archive still verifies and resumes to the right bits.
        f = resume_factorization(path)
        assert f.ops_skipped >= 1
        np.testing.assert_array_equal(clean.R, f.R)
        # No temp-file litter either: the failed write cleaned up after itself.
        assert [p.name for p in tmp_path.iterdir()] == ["c.npz"]

    def test_geometry_mismatch_rejected(self, checkpointed):
        path, _ = checkpointed
        arrays = _arrays(path)
        arrays["__meta__"][-1] += 1  # claim one more op than the planner makes
        _rewrite(path, arrays)
        with pytest.raises(ConfigurationError, match="ops"):
            resume_factorization(path)


GEOMETRIES = [(40, 24), (37, 21)]  # even and ragged under nb=8
TREES = ["flat", "binary", "hier", "greedy"]


class TestOneArchiveFormat:
    """A saved factorization is a finished checkpoint: each reader takes both."""

    @pytest.mark.parametrize("shape", GEOMETRIES, ids=["40x24", "37x21"])
    @pytest.mark.parametrize("tree", TREES)
    def test_round_trips_are_bit_exact(self, tmp_path, tree, shape):
        a = random_dense(*shape, seed=81)
        ck = tmp_path / "run.ckpt.npz"
        f = qr_factor(a, **dict(KW, tree=tree), checkpoint=ck)
        save_factorization(tmp_path / "f.npz", f)
        loaded_ckpt = load_factorization(ck)
        _same_factors(f, loaded_ckpt)
        _same_factors(f, load_factorization(tmp_path / "f.npz"))
        resumed = resume_factorization(tmp_path / "f.npz")
        assert resumed.ops_skipped == f.counters["ops.total"]
        _same_factors(f, resumed)
        assert resumed.parent_run_id == f.run_id
        assert loaded_ckpt.backend == "loaded"
        assert (loaded_ckpt.h, loaded_ckpt.shifted) == (f.h, f.shifted)

    @pytest.mark.parametrize("h", [3, "auto"])
    def test_load_save_load_is_bit_exact(self, tmp_path, small_matrix, h):
        f = qr_factor(small_matrix, **dict(KW, h=h))
        assert isinstance(f.h, int)  # "auto" is resolved before planning
        save_factorization(tmp_path / "a.npz", f)
        g = load_factorization(tmp_path / "a.npz")
        save_factorization(tmp_path / "b.npz", g)
        _same_factors(f, load_factorization(tmp_path / "b.npz"))
        first, second = _arrays(tmp_path / "a.npz"), _arrays(tmp_path / "b.npz")
        assert first.keys() == second.keys()
        for name in first:
            np.testing.assert_array_equal(first[name], second[name])

    def test_unfinished_snapshot_only_resumes(self, tmp_path, small_matrix):
        path = tmp_path / "run.ckpt.npz"

        class Abort(Exception):
            pass

        def abort(writes):
            raise Abort

        with pytest.raises(Abort):
            qr_factor(small_matrix, **KW,
                      checkpoint=CheckpointStore(path, every_ops=5, on_write=abort))
        with pytest.raises(ConfigurationError, match="resume_factorization"):
            load_factorization(path)
        _same_factors(qr_factor(small_matrix, **KW), resume_factorization(path))

    def test_loaded_counters_are_the_originals(self, tmp_path, small_matrix):
        f = qr_factor(small_matrix, **KW)
        save_factorization(tmp_path / "f.npz", f)
        assert _kernel_counters(load_factorization(tmp_path / "f.npz")) == _kernel_counters(f)

    def test_saving_is_not_a_checkpoint_write(self, tmp_path, small_matrix):
        f = qr_factor(small_matrix, **KW)
        with recording() as rec:
            save_factorization(tmp_path / "f.npz", f)
        assert not [k for k in rec.counters if k.startswith("ckpt.")]
        assert not [e for e in rec.events.snapshot() if e.type.startswith("ckpt.")]

    def test_saved_archive_is_compressed_and_checkpoints_are_not(
        self, tmp_path, small_matrix
    ):
        import zipfile

        f = qr_factor(small_matrix, **KW, checkpoint=tmp_path / "c.npz")
        save_factorization(tmp_path / "f.npz", f)
        with zipfile.ZipFile(tmp_path / "f.npz") as saved:
            assert {i.compress_type for i in saved.infolist()} == {zipfile.ZIP_DEFLATED}
        with zipfile.ZipFile(tmp_path / "c.npz") as ckpt:
            assert {i.compress_type for i in ckpt.infolist()} == {zipfile.ZIP_STORED}

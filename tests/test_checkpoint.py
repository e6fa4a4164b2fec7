"""Mid-run checkpoint/resume: bit-exactness across aborts and backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.qr import CheckpointStore, resume_factorization
from repro.qr.api import qr_factor
from repro.qr.ops import expand_plans
from repro.qr.reference import execute_ops
from repro.tiles import TileMatrix
from repro.trees import plan_all_panels
from repro.util import ConfigurationError

KW = dict(nb=8, ib=4, tree="hier", h=3)


class Abort(Exception):
    """Raised from ``on_write`` to kill a run at a known-good instant."""


def _abort_after(n_writes: int):
    def on_write(writes: int) -> None:
        if writes >= n_writes:
            raise Abort

    return on_write


def _interrupted_checkpoint(tmp_path, a, *, backend, every_ops=10, **extra):
    """Run until the first snapshot lands, then abort; return the archive."""
    path = tmp_path / "run.ckpt.npz"
    ck = CheckpointStore(path, every_ops=every_ops, on_write=_abort_after(1))
    with pytest.raises(Abort):
        qr_factor(a, **KW, backend=backend, checkpoint=ck, **extra)
    assert path.exists()
    return path


class TestCheckpointResume:
    @pytest.mark.parametrize(
        "backend,extra",
        [
            ("serial", {}),
            ("batched", {}),
            ("parallel", {"n_procs": 2}),
            ("parallel", {"n_procs": 2, "batch": "wavefront"}),
        ],
        ids=["serial", "batched", "parallel", "parallel-wavefront"],
    )
    def test_aborted_run_resumes_bit_exact(self, tmp_path, small_matrix, backend, extra):
        clean = qr_factor(small_matrix, **KW)
        path = _interrupted_checkpoint(
            tmp_path, small_matrix, backend=backend, **extra
        )
        f = resume_factorization(path, backend=backend, **{
            k: v for k, v in extra.items() if k != "batch"
        })
        assert f.ops_skipped >= 1
        np.testing.assert_array_equal(clean.R, f.R)

    def test_resume_backend_need_not_match_original(self, tmp_path, small_matrix):
        clean = qr_factor(small_matrix, **KW)
        path = _interrupted_checkpoint(tmp_path, small_matrix, backend="serial")
        for backend, extra in (
            ("batched", {}),
            ("parallel", {"n_procs": 2}),
        ):
            f = resume_factorization(path, backend=backend, **extra)
            assert f.ops_skipped >= 1
            np.testing.assert_array_equal(clean.R, f.R)

    def test_checkpointed_run_is_bit_exact_with_plain(self, tmp_path, small_matrix):
        clean = qr_factor(small_matrix, **KW)
        ck = CheckpointStore(tmp_path / "c.npz", every_ops=7)
        f = qr_factor(small_matrix, **KW, checkpoint=ck)
        assert ck.writes >= 2 and ck.bytes_written > 0
        np.testing.assert_array_equal(clean.R, f.R)

    def test_resume_from_completed_run_skips_everything(self, tmp_path, small_matrix):
        clean = qr_factor(small_matrix, **KW, checkpoint=tmp_path / "c.npz")
        f = resume_factorization(tmp_path / "c.npz")
        assert f.ops_skipped == int(round(clean.counters["ops.total"]))
        np.testing.assert_array_equal(clean.R, f.R)

    def test_resumed_run_keeps_checkpointing(self, tmp_path, small_matrix):
        clean = qr_factor(small_matrix, **KW)
        path = _interrupted_checkpoint(tmp_path, small_matrix, backend="serial")
        skipped_first = resume_factorization(path).ops_skipped
        # Resume *with* continued checkpointing, abort again mid-way, and
        # resume once more: the frontier must have advanced.
        ck = CheckpointStore(path, every_ops=10, on_write=_abort_after(2))
        with pytest.raises(Abort):
            resume_factorization(path, checkpoint=ck)
        f = resume_factorization(path)
        assert f.ops_skipped > skipped_first
        np.testing.assert_array_equal(clean.R, f.R)

    def test_every_prefix_frontier_resumes_bit_exact(self, tmp_path, small_matrix):
        """Sweep abort points: any predecessor-closed frontier must resume
        to the same bits (the acceptance sweep, serial for speed)."""
        clean = qr_factor(small_matrix, **KW)
        n_ops = int(round(clean.counters["ops.total"]))
        for every in (1, n_ops // 4, n_ops // 2, n_ops - 1):
            path = _interrupted_checkpoint(
                tmp_path, small_matrix, backend="serial", every_ops=max(1, every)
            )
            f = resume_factorization(path)
            assert f.ops_skipped >= 1
            np.testing.assert_array_equal(clean.R, f.R)
            path.unlink()

    def test_checkpoint_counters_and_stats(self, tmp_path, small_matrix):
        from repro.obs import recording
        from repro.obs.record import (
            K_CKPT_BYTES,
            K_CKPT_WRITES,
            K_RESUME_SKIPPED,
        )

        path = _interrupted_checkpoint(tmp_path, small_matrix, backend="serial")
        with recording() as rec:
            f = resume_factorization(path)
        assert rec.counters.get(K_RESUME_SKIPPED, 0) == f.ops_skipped >= 1
        with recording() as rec:
            qr_factor(small_matrix, **KW, checkpoint=tmp_path / "c2.npz")
        assert rec.counters.get(K_CKPT_WRITES, 0) >= 1
        assert rec.counters.get(K_CKPT_BYTES, 0) > 0

    def test_checkpoint_path_coercion_and_validation(self, tmp_path, small_matrix):
        # A bare path is coerced to a CheckpointStore with defaults.
        f = qr_factor(small_matrix, **KW, checkpoint=str(tmp_path / "c.npz"))
        assert (tmp_path / "c.npz").exists()
        np.testing.assert_array_equal(
            qr_factor(small_matrix, **KW).R, f.R
        )
        with pytest.raises(ConfigurationError, match="checkpoint"):
            qr_factor(small_matrix, **KW, checkpoint=42)
        with pytest.raises(ConfigurationError, match="pulsar"):
            qr_factor(
                small_matrix, **KW, backend="pulsar", n_nodes=2,
                workers_per_node=2, checkpoint=str(tmp_path / "c.npz"),
            )
        with pytest.raises(ConfigurationError, match="every_ops"):
            CheckpointStore(tmp_path / "c.npz", every_ops=0)
        with pytest.raises(ConfigurationError, match="every_s"):
            CheckpointStore(tmp_path / "c.npz", every_s=0.0)

    def test_resume_rejects_bad_backend(self, tmp_path, small_matrix):
        path = _interrupted_checkpoint(tmp_path, small_matrix, backend="serial")
        with pytest.raises(ConfigurationError, match="pulsar"):
            resume_factorization(path, backend="pulsar")

    def test_checkpoint_under_sdc_faults(self, tmp_path, small_matrix):
        """Checkpoint + SDC guard compose: flips are repaired before the
        frontier is snapshotted, so the resumed bits stay clean."""
        from repro.faults import FaultPlan

        clean = qr_factor(small_matrix, **KW)
        plan = FaultPlan(seed=17, flip_rate=0.25)
        path = tmp_path / "c.npz"
        ck = CheckpointStore(path, every_ops=10, on_write=_abort_after(1))
        with pytest.raises(Abort):
            qr_factor(small_matrix, **KW, fault_plan=plan, checkpoint=ck)
        f = resume_factorization(path, fault_plan=plan)
        assert f.ops_skipped >= 1
        np.testing.assert_array_equal(clean.R, f.R)


class TestTileMemoryOrder:
    """An archive holds dense, order-free bytes: it neither records nor
    depends on the memory order of the tiles it was staged from, and a
    resume always rebuilds column-major tiles."""

    def _interrupt(self, tmp_path, tm, name):
        """Serial run on ``tm`` aborted when the first snapshot lands."""
        ops = expand_plans(tm.layout, plan_all_panels("hier", tm.mt, tm.nt, h=KW["h"]))
        ck = CheckpointStore(tmp_path / name, every_ops=10, on_write=_abort_after(1))
        ck.bind(tm, ops, KW["ib"], "hier", KW["h"], True)
        with pytest.raises(Abort):
            execute_ops(tm, ops, KW["ib"], checkpoint=ck)
        return tmp_path / name

    @staticmethod
    def _c_order(tm):
        grid = [[np.ascontiguousarray(t) for t in row] for row in tm.grid]
        assert not grid[0][0].flags.f_contiguous
        return TileMatrix(tm.layout, grid)  # a pre-built grid is adopted as is

    def test_digest_is_independent_of_tile_memory_order(self, tmp_path, small_tiles):
        path_f = self._interrupt(tmp_path, small_tiles.copy(), "f.npz")
        path_c = self._interrupt(tmp_path, self._c_order(small_tiles), "c.npz")
        with np.load(path_f) as f, np.load(path_c) as c:
            assert sorted(f.files) == sorted(c.files)
            assert 0 < f["__done__"].sum() < f["__done__"].size
            for name in f.files:  # digest included: same entries, same bytes
                np.testing.assert_array_equal(f[name], c[name])

    @pytest.mark.parametrize(
        "backend,extra",
        [("serial", {}), ("batched", {}), ("parallel", {"n_procs": 2})],
        ids=["serial", "batched", "parallel"],
    )
    def test_archive_from_c_order_tiles_resumes_bit_exact(
        self, tmp_path, small_matrix, small_tiles, backend, extra
    ):
        clean = qr_factor(small_matrix, **KW, backend=backend, **extra)
        path = self._interrupt(tmp_path, self._c_order(small_tiles), "c.npz")
        f = resume_factorization(path, backend=backend, **extra)
        assert f.ops_skipped >= 1
        assert all(t.flags.f_contiguous for _, _, t in f._factors.a.iter_tiles())
        assert all(rec.t.flags.f_contiguous for rec in f._factors.records)
        np.testing.assert_array_equal(clean.R, f.R)
        for got, want in zip(f._factors.records, clean._factors.records):
            np.testing.assert_array_equal(got.t, want.t)

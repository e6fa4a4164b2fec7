"""Integration tests: the process-parallel shared-memory backend.

As with the pulsar backend, the key property is *bit-exactness* against the
serial reference executor: the dependency graph totally orders every tile's
mutations, so any legal parallel schedule must reproduce the serial factors
exactly — divergence indicates a dependency or shared-storage bug, not
floating-point noise.
"""

from __future__ import annotations

import copy
import multiprocessing as mp
import os
import pickle

import numpy as np
import pytest

from repro import lstsq, qr_factor
from repro.qr.dag import op_dependency_graph
from repro.qr.ops import Op, expand_plans
from repro.qr.parallel import execute_ops_parallel
from repro.tiles import SharedTileStore, TileMatrix, random_dense
from repro.tiles.shared import descriptor, t_factor_key
from repro.trees import plan_all_panels
from repro.util import ParallelExecutionError

TREES = ("flat", "binary", "hier", "greedy")


def bit_equal_factors(a: np.ndarray, tree: str, nb=8, ib=4, h=3, **kw) -> None:
    ser = qr_factor(a, nb=nb, ib=ib, tree=tree, h=h, backend="serial")
    par = qr_factor(a, nb=nb, ib=ib, tree=tree, h=h, backend="parallel", **kw)
    np.testing.assert_array_equal(ser.R, par.R)
    probe = np.linspace(0.0, 1.0, a.shape[0])
    np.testing.assert_array_equal(ser.qt_matmul(probe), par.qt_matmul(probe))


@pytest.mark.parametrize("tree", TREES)
class TestBitExactness:
    def test_two_procs(self, tree, small_matrix):
        bit_equal_factors(small_matrix, tree, n_procs=2)

    def test_ragged(self, tree):
        a = random_dense(37, 21, seed=17)
        bit_equal_factors(a, tree, n_procs=2)


class TestPolicies:
    @pytest.mark.parametrize("policy", ["lazy", "aggressive"])
    def test_policy_does_not_change_result(self, policy, small_matrix):
        bit_equal_factors(small_matrix, "hier", n_procs=2, policy=policy)

    def test_explicit_batch(self, small_matrix):
        bit_equal_factors(small_matrix, "hier", n_procs=2, batch=3)


class TestLstsq:
    def test_matches_serial(self, small_matrix):
        b = small_matrix @ np.arange(small_matrix.shape[1], dtype=float)
        x_ser = lstsq(small_matrix, b, nb=8, ib=4, tree="hier", h=3)
        x_par = lstsq(
            small_matrix, b, nb=8, ib=4, tree="hier", h=3,
            backend="parallel", n_procs=2,
        )
        np.testing.assert_array_equal(x_ser, x_par)


class TestFallback:
    def test_single_proc_falls_back_to_serial(self, small_matrix):
        ser = qr_factor(small_matrix, nb=8, ib=4, tree="hier", h=3)
        par = qr_factor(
            small_matrix, nb=8, ib=4, tree="hier", h=3,
            backend="parallel", n_procs=1,
        )
        assert par.stats.mode == "serial-fallback"
        assert par.stats.fallback_reason == "n_procs=1"
        np.testing.assert_array_equal(ser.R, par.R)

    def test_shared_memory_unavailable_falls_back(self, small_matrix, monkeypatch):
        import repro.tiles.shared as shared_mod

        def broken_create(*args, **kw):
            raise OSError("no /dev/shm")

        monkeypatch.setattr(shared_mod.SharedTileStore, "create", broken_create)
        ser = qr_factor(small_matrix, nb=8, ib=4, tree="hier", h=3)
        par = qr_factor(
            small_matrix, nb=8, ib=4, tree="hier", h=3,
            backend="parallel", n_procs=2,
        )
        assert par.stats.mode == "serial-fallback"
        assert "shared memory unavailable" in par.stats.fallback_reason
        np.testing.assert_array_equal(ser.R, par.R)


class TestStats:
    def test_observability_fields(self, small_matrix):
        par = qr_factor(
            small_matrix, nb=8, ib=4, tree="hier", h=3,
            backend="parallel", n_procs=2,
        )
        st = par.stats
        assert st.mode == "parallel"
        assert st.n_procs == 2
        assert st.tasks_per_s > 0.0
        assert st.dispatch_overhead >= 0.0
        assert sum(st.per_worker_ops.values()) == st.n_ops
        fracs = st.busy_fractions()
        assert set(fracs) == {0, 1}
        assert all(0.0 <= f <= 1.0 for f in fracs.values())


class TestFailureHandling:
    def _ops(self, tm: TileMatrix, tree="hier", h=3):
        plans = plan_all_panels(tree, tm.mt, tm.nt, h=h)
        return expand_plans(tm.layout, plans)

    def test_worker_error_raises(self, small_tiles):
        ops = self._ops(small_tiles)
        # An op the kernel switch cannot execute: the worker reports the
        # failure and the dispatcher must raise instead of hanging.
        ops.append(Op("BOGUS", 0, -1, 0, 1, m2=8, k=8, q=8))
        with pytest.raises(ParallelExecutionError, match="BOGUS"):
            execute_ops_parallel(small_tiles, ops, 4, n_procs=2, timeout_s=30.0)

    @pytest.mark.skipif(
        mp.get_start_method() != "fork",
        reason="monkeypatched kernel reaches workers via fork inheritance only",
    )
    def test_worker_death_raises_not_hangs(self, small_tiles, monkeypatch):
        import repro.qr.execute as core_mod

        def die(store, op, ib):
            os._exit(13)

        monkeypatch.setattr(core_mod, "run_op", die)
        ops = self._ops(small_tiles)
        with pytest.raises(ParallelExecutionError, match="died|unreachable"):
            execute_ops_parallel(small_tiles, ops, 4, n_procs=2, timeout_s=30.0)


class TestSharedTileStore:
    def test_roundtrip_and_attach(self, small_tiles):
        ops = expand_plans(
            small_tiles.layout, plan_all_panels("hier", small_tiles.mt, small_tiles.nt, h=3)
        )
        store = SharedTileStore.create(small_tiles, ops, 4)
        try:
            np.testing.assert_array_equal(store.tile(1, 0), small_tiles.tile(1, 0))
            store.tile(1, 0)[0, 0] = 42.0
            # A second mapping of the same segment, made from a copy of the
            # creator's descriptor, sees the mutation; attach closes the copy.
            fd = os.dup(descriptor(store.name))
            other = SharedTileStore.attach(store.name, fd, small_tiles.layout, ops, 4)
            assert other.tile(1, 0)[0, 0] == 42.0
            with pytest.raises(OSError):
                os.fstat(fd)
            other.close()
            out = copy.deepcopy(store.matrix())
            assert out.tile(1, 0)[0, 0] == 42.0
            # A copy of the views: mutating the store no longer changes `out`.
            store.tile(1, 0)[0, 0] = 7.0
            assert out.tile(1, 0)[0, 0] == 42.0
        finally:
            store.close()
            store.unlink()

    def test_tiles_and_t_slots_are_column_major(self, small_tiles):
        """``create`` / ``attach`` views and the copies a pickled or copied
        result makes of them are all Fortran-contiguous, whatever order the
        source tiles have — so worker kernels run LAPACK in place on the
        segment."""
        ops = expand_plans(
            small_tiles.layout, plan_all_panels("hier", small_tiles.mt, small_tiles.nt, h=3)
        )
        c_grid = TileMatrix(
            small_tiles.layout,
            [[np.ascontiguousarray(t) for t in row] for row in small_tiles.grid],
        )
        store = SharedTileStore.create(c_grid, ops, 4)
        try:
            other = SharedTileStore.attach(store.name, os.dup(descriptor(store.name)),
                                           small_tiles.layout, ops, 4)
            keys = [t_factor_key(op) for op in ops if op.is_factor]
            store.put_t(keys[0], np.arange(4.0 * ops[0].k).reshape(4, ops[0].k))
            for view in (store, other):
                for i, j, want in small_tiles.iter_tiles():
                    assert view.tile(i, j).flags.f_contiguous
                    np.testing.assert_array_equal(view.tile(i, j), want)
                assert all(view.get_t(key).flags.f_contiguous for key in keys)
            assert other.get_t(keys[0])[1, 2] == ops[0].k + 2.0
            other.close()
            copied = pickle.loads(pickle.dumps(store.matrix()))
            assert all(t.flags.f_contiguous for _, _, t in copied.iter_tiles())
            assert all(copy.deepcopy(store.get_t(key)).flags.f_contiguous for key in keys)
        finally:
            store.close()
            store.unlink()

    @pytest.mark.parametrize("m,n,nb,ib", [(64, 24, 8, 4), (77, 21, 8, 3), (40, 36, 16, 16)],
                             ids=["full", "ragged", "ragged_k_lt_ib"])
    def test_every_view_hangs_off_the_root_and_owns_its_bytes(self, m, n, nb, ib):
        """Full tiles and full-width ``T`` slots are ``.T`` of two blocks,
        ragged ones views of their own: all of them have the store's root as
        base (the spare rule's liveness test) and no two share a byte."""
        a = np.random.default_rng(m).standard_normal((m, n))
        tm = TileMatrix.from_dense(a, nb)
        layout = tm.layout
        ops = expand_plans(layout, plan_all_panels("hier", layout.mt, layout.nt, h=2))
        store = SharedTileStore.create(tm, ops, ib)
        try:
            views = [store.tile(i, j) for i in range(layout.mt) for j in range(layout.nt)]
            views += [store.get_t(op.t_key) for op in ops if op.is_factor]
            for x, view in enumerate(views):
                assert view.base is store._root and view.flags.f_contiguous
                view[...] = x
            assert [view.min() for view in views] == [view.max() for view in views] == list(
                range(len(views)))
            for i in range(layout.mt):
                for j in range(layout.nt):
                    assert store.tile(i, j).shape == layout.tile_shape(i, j)
            for op in ops:
                if op.is_factor:
                    assert store.get_t(op.t_key).shape == (ib, op.k)
            store.load(a)  # a dense input goes through the full-tile block
            np.testing.assert_array_equal(store.matrix().to_dense(), a)
        finally:
            store.destroy()

    def test_input_matrix_not_mutated(self, small_matrix):
        before = small_matrix.copy()
        qr_factor(small_matrix, nb=8, ib=4, tree="hier", h=3, backend="parallel", n_procs=2)
        np.testing.assert_array_equal(small_matrix, before)


class TestDependencyGraph:
    def test_acyclic_and_rooted(self, small_tiles):
        ops = expand_plans(
            small_tiles.layout, plan_all_panels("hier", small_tiles.mt, small_tiles.nt, h=3)
        )
        g = op_dependency_graph(ops)
        assert g.n_tasks == len(ops)
        assert (g.n_deps == 0).any()  # at least one source task
        g.critical_path()  # raises SimulationError on a cycle

    def test_serial_order_is_legal_schedule(self, small_tiles):
        # Every edge must point forward in the expanded (serial) op order.
        ops = expand_plans(
            small_tiles.layout, plan_all_panels("binary", small_tiles.mt, small_tiles.nt)
        )
        g = op_dependency_graph(ops)
        for src in range(g.n_tasks):
            for e in range(g.succ_index[src], g.succ_index[src + 1]):
                assert g.succ_task[e] > src

"""Integration tests: the 3D VSA on the threaded PULSAR runtime.

The key property is *bit-exactness* against the serial reference executor:
the VSA performs the same kernels on the same tiles in the same per-tile
order, so any divergence indicates a routing or synchronisation bug, not
floating-point noise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import qr_factor
from repro.qr import assemble_factors, build_qr_vsa, expand_plans
from repro.tiles import TileMatrix, random_dense
from repro.trees import plan_all_panels
from repro.util import ConfigurationError

TREES = ("flat", "binary", "hier", "greedy")


def bit_equal_factors(a: np.ndarray, tree: str, nb=8, ib=4, h=3, **run_kw) -> None:
    ser = qr_factor(a, nb=nb, ib=ib, tree=tree, h=h, backend="serial")
    pul = qr_factor(a, nb=nb, ib=ib, tree=tree, h=h, backend="pulsar", **run_kw)
    np.testing.assert_array_equal(ser.R, pul.R)
    # Q application must agree bit-for-bit as well (same records, same Ts).
    probe = np.linspace(0.0, 1.0, a.shape[0])
    np.testing.assert_array_equal(ser.qt_matmul(probe), pul.qt_matmul(probe))


@pytest.mark.parametrize("tree", TREES)
class TestBitExactness:
    def test_single_node_two_workers(self, tree, small_matrix):
        bit_equal_factors(small_matrix, tree, n_nodes=1, workers_per_node=2)

    def test_two_nodes(self, tree, small_matrix):
        bit_equal_factors(small_matrix, tree, n_nodes=2, workers_per_node=2)

    def test_ragged(self, tree):
        a = random_dense(37, 21, seed=17)
        bit_equal_factors(a, tree, n_nodes=2, workers_per_node=1)


class TestPolicies:
    @pytest.mark.parametrize("policy", ["lazy", "aggressive"])
    def test_policy_does_not_change_result(self, policy, small_matrix):
        bit_equal_factors(small_matrix, "hier", n_nodes=2, workers_per_node=2, policy=policy)


class TestArrayStructure:
    def make(self, tree: str, m=40, n=24, nb=8, h=3, workers=4):
        a = TileMatrix.from_dense(random_dense(m, n, seed=1), nb)
        plans = plan_all_panels(tree, a.mt, a.nt, h=h)
        return build_qr_vsa(a, plans, ib=4, total_workers=workers), a

    def test_vdp_counts(self):
        arr, a = self.make("flat")  # mt=5, nt=3
        # flat: one domain VDP per (panel, column): sum_j (nt - j) = 6,
        # no binary VDPs.
        assert arr.n_vdps == 6

    def test_hier_has_binary_vdps(self):
        arr, _ = self.make("hier")
        kinds = {t[0] for t in arr.vsa.vdps}
        assert kinds == {0, 1}

    def test_mapping_covers_all_vdps(self):
        arr, _ = self.make("binary", workers=3)
        assert set(arr.mapping) == set(arr.vsa.vdps)
        assert all(0 <= w < 3 for w in arr.mapping.values())

    def test_rejects_wide_matrix(self):
        a = TileMatrix.from_dense(random_dense(8, 16, seed=0), 8)
        plans = plan_all_panels("flat", a.mt, a.nt)
        with pytest.raises(ConfigurationError):
            build_qr_vsa(a, plans, ib=4)

    def test_input_not_mutated(self):
        a0 = random_dense(24, 16, seed=3)
        a = TileMatrix.from_dense(a0, 8)
        plans = plan_all_panels("hier", a.mt, a.nt, h=2)
        arr = build_qr_vsa(a, plans, ib=4, total_workers=2)
        arr.run(deadlock_timeout=30)
        np.testing.assert_array_equal(a.to_dense(), a0)

    def test_collector_complete_after_run(self):
        arr, _ = self.make("hier")
        arr.run(deadlock_timeout=30)
        assert arr.store.missing_tiles() == []

    def test_run_divisibility_check(self):
        arr, _ = self.make("flat", workers=4)
        with pytest.raises(ConfigurationError):
            arr.run(n_nodes=3)  # 4 workers not divisible by 3 nodes


@pytest.mark.parametrize("m,n", [(40, 24), (37, 21), (64, 16), (96, 40), (32, 8)])
class TestFlatTreeIsFigure9:
    """The flat tree of the 3D array is the paper's Figure 9 domino QR.

    Figure 9 creates one VDP per (panel ``i``, column ``j >= i``) and
    streams the ``mt - i`` tiles below the diagonal through each; these
    closed forms pin that shape on the one builder (nb 8, ib 4, 6 workers),
    ragged and single-panel geometries included.
    """

    def make(self, m, n):
        a0 = random_dense(m, n, seed=62)
        tm = TileMatrix.from_dense(a0, 8)
        plans = plan_all_panels("flat", tm.mt, tm.nt)
        return a0, tm, build_qr_vsa(tm, plans, ib=4, total_workers=6)

    def test_one_vdp_per_panel_column(self, m, n):
        _, tm, arr = self.make(m, n)
        nt = tm.nt
        assert arr.n_vdps == nt * (nt + 1) // 2
        assert {(i, j) for _kind, i, _d, j in arr.vsa.vdps} == {
            (i, j) for i in range(nt) for j in range(i, nt)
        }

    def test_counter_is_tiles_streaming_through(self, m, n):
        _, tm, arr = self.make(m, n)
        for (_kind, i, _d, _j), vdp in arr.vsa.vdps.items():
            assert vdp.counter == tm.mt - i

    def test_firings_and_factors(self, m, n):
        a0, tm, arr = self.make(m, n)
        stats = arr.run(deadlock_timeout=30)
        mt, nt = tm.mt, tm.nt
        assert stats.firings == sum((nt - i) * (mt - i) for i in range(nt))
        plans = plan_all_panels("flat", mt, nt)
        fac = assemble_factors(arr.store, expand_plans(tm.layout, plans), 4)
        ser = qr_factor(a0, nb=8, ib=4, tree="flat")
        np.testing.assert_array_equal(ser.R, fac.r_factor())


class TestMessageTraffic:
    def test_single_node_sends_nothing(self, small_matrix):
        f = qr_factor(
            small_matrix, nb=8, ib=4, tree="hier", h=3, backend="pulsar",
            n_nodes=1, workers_per_node=4,
        )
        assert f.stats.messages_sent == 0

    def test_more_nodes_more_messages(self, small_matrix):
        msgs = []
        for nodes in (2, 4):
            f = qr_factor(
                small_matrix, nb=8, ib=4, tree="hier", h=3, backend="pulsar",
                n_nodes=nodes, workers_per_node=1,
            )
            msgs.append(f.stats.messages_sent)
            assert f.stats.stray_messages == 0
        assert msgs[1] > msgs[0] > 0


class TestApiValidation:
    def test_unknown_backend(self, small_matrix):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            qr_factor(small_matrix, nb=8, ib=4, backend="quantum")

    def test_wide_matrix_rejected(self):
        with pytest.raises(ConfigurationError):
            qr_factor(random_dense(8, 16, seed=0), nb=8, ib=4)

    def test_bad_blocking_rejected(self, small_matrix):
        with pytest.raises(ConfigurationError):
            qr_factor(small_matrix, nb=8, ib=3)

    def test_tile_matrix_input(self, small_matrix):
        tm = TileMatrix.from_dense(small_matrix, 8)
        f = qr_factor(tm, ib=4, tree="hier", h=3)
        assert f.residuals(small_matrix)["factorization"] < 1e-13

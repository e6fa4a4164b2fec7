"""Tests for the virtual-time VSA executor (runtime-in-the-loop DES)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dessim.vsasim import simulate_vsa
from repro.machine import kraken
from repro.pulsar import VDP, VSA, Packet
from repro.qr import assemble_factors, build_qr_vsa, expand_plans, qr_factor
from repro.qr.costs import make_qr_cost_fn
from repro.tiles import TileMatrix, random_dense
from repro.trees import plan_all_panels
from repro.util import DeadlockError

MACH = kraken()


def build_chain(n: int, cost: float):
    """source -> relay -> ... -> sink, all unit-cost firings."""
    vsa = VSA()
    vsa.add_vdp(VDP((0,), 1, lambda v: v.write(0, Packet.of(1)), n_out=1))
    for s in range(1, n - 1):
        vsa.add_vdp(VDP((s,), 1, lambda v: v.write(0, v.read(0)), n_in=1, n_out=1))
    vsa.add_vdp(VDP((n - 1,), 1, lambda v: v.read(0), n_in=1))
    for s in range(n - 1):
        vsa.connect((s,), 0, (s + 1,), 0, 64)
    return vsa


class TestVirtualTimeSemantics:
    def test_serial_chain_makespan(self):
        mach = MACH.with_overrides(task_overhead_s=0.0)
        res = simulate_vsa(
            build_chain(5, 1.0),
            mapping=lambda t: t[0] % 2,
            machine=mach,
            total_workers=2,
            cost_fn=lambda v: 1.0,
        )
        assert res.firings == 5
        # Same-node pushes arrive at firing end: 5 sequential firings.
        assert res.makespan == pytest.approx(5.0)

    def test_task_overhead_charged(self):
        mach = MACH.with_overrides(task_overhead_s=0.5)
        res = simulate_vsa(
            build_chain(4, 1.0),
            mapping=lambda t: 0,
            machine=mach,
            total_workers=1,
            cost_fn=lambda v: 1.0,
        )
        assert res.makespan == pytest.approx(6.0)

    def test_cross_node_pays_wire_time(self):
        mach = MACH.with_overrides(task_overhead_s=0.0)
        workers = mach.workers_per_node
        local = simulate_vsa(
            build_chain(3, 1.0),
            mapping=lambda t: 0,
            machine=mach,
            total_workers=workers,
            cost_fn=lambda v: 1.0,
        )
        # Middle VDP on the second node: both hops cross the wire.
        remote = simulate_vsa(
            build_chain(3, 1.0),
            mapping=lambda t: workers if t[0] == 1 else 0,
            machine=mach,
            total_workers=2 * workers,
            cost_fn=lambda v: 1.0,
        )
        assert remote.messages == 2
        assert remote.makespan > local.makespan
        assert remote.makespan == pytest.approx(
            local.makespan + 2 * mach.wire_seconds(64), rel=1e-6
        )

    def test_forward_stamps_at_start(self):
        """By-pass relays release packets before their firing completes."""
        mach = MACH.with_overrides(task_overhead_s=0.0)

        def relay_forward(v):
            v.forward(0, 0)

        def relay_slow(v):
            v.write(0, v.read(0))

        def build(relay):
            vsa = VSA()
            vsa.add_vdp(VDP((0,), 1, lambda v: v.write(0, Packet.of(1)), n_out=1))
            vsa.add_vdp(VDP((1,), 1, relay, n_in=1, n_out=1))
            vsa.add_vdp(VDP((2,), 1, lambda v: v.read(0), n_in=1))
            vsa.connect((0,), 0, (1,), 0, 64)
            vsa.connect((1,), 0, (2,), 0, 64)
            return vsa

        kw = dict(mapping=lambda t: t[0], machine=mach, total_workers=3,
                  cost_fn=lambda v: 1.0)
        with_bypass = simulate_vsa(build(relay_forward), **kw)
        without = simulate_vsa(build(relay_slow), **kw)
        # With by-pass the sink overlaps the relay's compute.
        assert with_bypass.makespan < without.makespan
        assert with_bypass.makespan == pytest.approx(2.0 + mach.forward_overhead_s)
        assert without.makespan == pytest.approx(3.0)

    def test_deadlock_detected(self):
        vsa = VSA()
        vsa.add_vdp(VDP((0,), 1, lambda v: v.read(0), n_in=1, n_out=1))
        vsa.add_vdp(VDP((1,), 1, lambda v: v.read(0), n_in=1, n_out=1))
        vsa.connect((0,), 0, (1,), 0, 64)
        vsa.connect((1,), 0, (0,), 0, 64)
        with pytest.raises(DeadlockError):
            simulate_vsa(
                vsa, mapping=lambda t: 0, machine=MACH, total_workers=1,
                cost_fn=lambda v: 1.0,
            )

    def test_busy_and_utilization(self):
        res = simulate_vsa(
            build_chain(4, 1.0),
            mapping=lambda t: 0,
            machine=MACH.with_overrides(task_overhead_s=0.0),
            total_workers=1,
            cost_fn=lambda v: 1.0,
        )
        assert res.utilization(1) == pytest.approx(1.0)


class TestQRUnderVirtualTime:
    """Run the real 3D QR array in virtual time: numerics AND timing."""

    def run_qr(self, tree: str, workers=8, policy="lazy", m=48, machine=MACH):
        a0 = random_dense(m, 24, seed=60)
        tm = TileMatrix.from_dense(a0, 8)
        plans = plan_all_panels(tree, tm.mt, tm.nt, h=3)
        arr = build_qr_vsa(tm, plans, ib=4, total_workers=workers)
        cost = make_qr_cost_fn(tm.layout, machine, 4)
        res = simulate_vsa(
            arr.vsa,
            mapping=arr.mapping,
            machine=machine,
            total_workers=workers,
            cost_fn=cost,
            policy=policy,
        )
        ops = expand_plans(tm.layout, plans)
        factors = assemble_factors(arr.store, ops, 4)
        return a0, res, factors

    @pytest.mark.parametrize("tree", ["flat", "binary", "hier"])
    def test_factors_bit_identical_to_serial(self, tree):
        a0, res, factors = self.run_qr(tree)
        ser = qr_factor(a0, nb=8, ib=4, tree=tree, h=3)
        np.testing.assert_array_equal(ser.R, factors.r_factor())
        assert res.makespan > 0.0

    def test_flat_slower_than_hier_in_virtual_time(self):
        """On a genuinely tall panel stack the flat tree's serial panel
        chain dominates; the hierarchical tree pipelines past it.

        Runtime overheads are zeroed so the 8x8 test tiles sit in the same
        kernel-bound regime as the paper's 192x192 production tiles (where
        a kernel is ~1000x the per-firing overhead).
        """
        mach = MACH.with_overrides(
            task_overhead_s=0.0, forward_overhead_s=1e-12, latency_s=1e-12,
            message_overhead_s=0.0,
        )
        _, flat, _ = self.run_qr("flat", workers=64, m=384, machine=mach)
        _, hier, _ = self.run_qr("hier", workers=64, m=384, machine=mach)
        assert hier.makespan < flat.makespan

    def test_policies_same_numerics(self):
        _, _, f_lazy = self.run_qr("hier", policy="lazy")
        _, _, f_aggr = self.run_qr("hier", policy="aggressive")
        np.testing.assert_array_equal(f_lazy.r_factor(), f_aggr.r_factor())

    def test_trace_recording(self):
        a0 = random_dense(24, 16, seed=61)
        tm = TileMatrix.from_dense(a0, 8)
        plans = plan_all_panels("hier", tm.mt, tm.nt, h=2)
        arr = build_qr_vsa(tm, plans, ib=4, total_workers=4)
        res = simulate_vsa(
            arr.vsa,
            mapping=arr.mapping,
            machine=MACH,
            total_workers=4,
            cost_fn=make_qr_cost_fn(tm.layout, MACH, 4),
            record_trace=True,
        )
        assert res.trace is not None and len(res.trace) == res.firings
        # Trace intervals on one worker never overlap.
        by_worker: dict[int, list[tuple[float, float]]] = {}
        for w, s, e, _tup in res.trace:
            by_worker.setdefault(w, []).append((s, e))
        for spans in by_worker.values():
            spans.sort()
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2 + 1e-12


class TestDominoUnderVirtualTime:
    def test_domino_virtual_run(self):
        """Figure 9's domino QR is the 3D array's flat tree, in virtual time too."""
        a0 = random_dense(40, 24, seed=62)
        tm = TileMatrix.from_dense(a0, 8)
        plans = plan_all_panels("flat", tm.mt, tm.nt)
        arr = build_qr_vsa(tm, plans, ib=4, total_workers=6)
        res = simulate_vsa(
            arr.vsa,
            mapping=arr.mapping,
            machine=MACH,
            total_workers=6,
            cost_fn=make_qr_cost_fn(tm.layout, MACH, 4),
        )
        factors = assemble_factors(arr.store, expand_plans(tm.layout, plans), 4)
        ser = qr_factor(a0, nb=8, ib=4, tree="flat")
        np.testing.assert_array_equal(ser.R, factors.r_factor())
        assert res.firings == sum((tm.nt - i) * (tm.mt - i) for i in range(tm.nt))
        assert res.makespan > 0

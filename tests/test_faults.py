"""Fault injection and fault-tolerant execution across the backends."""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time

import numpy as np
import pytest

from repro.faults import FaultPlan, Watchdog
from repro.netsim import Fabric
from repro.pulsar import PRT, PRTConfig, VDP, VSA, Packet
from repro.qr.api import qr_factor
from repro.qr.ops import expand_plans
from repro.qr.parallel import execute_ops_parallel
from repro.trees.plan import plan_all_panels
from repro.util import (
    ChannelClosedError,
    ChannelDisabledError,
    ConfigurationError,
    DeadlockError,
    ParallelExecutionError,
    RetryExhaustedError,
    WatchdogTimeout,
)


class TestFaultPlan:
    def test_deterministic_and_picklable(self):
        plan = FaultPlan(seed=9, drop_rate=0.3, duplicate_rate=0.2, delay_rate=0.1)
        events = [(s, d, t, n) for s in (0, 1) for d in (0, 1) for t in (0, 5) for n in range(16)]
        first = [(plan.drop(*e), plan.duplicate(*e), plan.delay(*e)) for e in events]
        clone = pickle.loads(pickle.dumps(plan))
        assert first == [(clone.drop(*e), clone.duplicate(*e), clone.delay(*e)) for e in events]

    def test_rates_are_roughly_honoured(self):
        plan = FaultPlan(seed=1, drop_rate=0.25)
        n = 4000
        hits = sum(plan.drop(0, 1, 0, k) for k in range(n))
        assert 0.20 < hits / n < 0.30

    def test_decisions_independent_across_seeds(self):
        a = FaultPlan(seed=1, drop_rate=0.5)
        b = FaultPlan(seed=2, drop_rate=0.5)
        da = [a.drop(0, 1, 0, k) for k in range(64)]
        db = [b.drop(0, 1, 0, k) for k in range(64)]
        assert da != db

    def test_identity_plan_fast_paths(self):
        plan = FaultPlan()
        assert not plan.faulty_fabric and not plan.faulty_workers
        assert FaultPlan(delay_rate=0.1).faulty_fabric
        assert FaultPlan(crash_workers={0: 3}).faulty_workers

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(drop_rate=1.0)
        with pytest.raises(ConfigurationError):
            FaultPlan(duplicate_rate=-0.1)
        with pytest.raises(ConfigurationError):
            FaultPlan(crash_workers={-1: 0})

    def test_worker_crash_generation_zero_only(self):
        plan = FaultPlan(crash_workers={2: 5})
        assert plan.worker_crash(2, 0, 5)
        assert not plan.worker_crash(2, 1, 5)  # respawned incarnations run clean
        assert not plan.worker_crash(2, 0, 4)
        assert not plan.worker_crash(1, 0, 5)


class TestFabricFaults:
    def _counts(self, plan, sends=200):
        fab = Fabric(2, fault_plan=plan)
        for k in range(sends):
            fab.isend(0, 1, 3, float(k))
        return fab

    def test_drops_lose_messages_but_complete_sends(self):
        fab = Fabric(2, fault_plan=FaultPlan(seed=4, drop_rate=0.3))
        reqs = [fab.isend(0, 1, 0, k) for k in range(100)]
        assert all(r.test() for r in reqs)  # sender cannot tell
        assert fab.dropped_messages > 0
        delivered = len(fab.drain(1))
        assert delivered == 100 - fab.dropped_messages

    def test_duplicates_arrive_twice(self):
        fab = self._counts(FaultPlan(seed=4, duplicate_rate=0.2))
        assert fab.duplicated_messages > 0
        # Duplicates sit in the delayed queue until enough polls elapse.
        got = []
        for _ in range(5000):
            got.extend(fab.drain(1))
        assert len(got) == 200 + fab.duplicated_messages

    def test_delays_break_fifo_order(self):
        fab = self._counts(FaultPlan(seed=6, delay_rate=0.4, delay_ticks=32.0))
        assert fab.delayed_messages > 0
        got = []
        for _ in range(5000):
            got.extend(fab.drain(1))
        payloads = [m.payload for m in got]
        assert len(payloads) == 200
        assert payloads != sorted(payloads)  # reordering actually happened

    def test_identity_plan_takes_fast_path(self):
        fab = Fabric(2, fault_plan=FaultPlan())
        assert fab._plan is None  # no hashing on the send path
        fab.isend(0, 1, 0, "x")
        assert fab.poll(1).payload == "x"


def _cross_node_pipeline(results):
    """(0,) on node 0 -> (1,) on node 1, five packets."""

    def src(vdp):
        vdp.write(0, Packet.of(float(vdp.firing_index)))

    def sink(vdp):
        results.append(vdp.read(0).data)

    vsa = VSA()
    vsa.add_vdp(VDP((0,), 5, src, n_out=1))
    vsa.add_vdp(VDP((1,), 5, sink, n_in=1))
    vsa.connect((0,), 0, (1,), 0, 64)
    return vsa


class TestPulsarReliability:
    def test_lossy_fabric_delivers_everything(self):
        results: list = []
        vsa = _cross_node_pipeline(results)
        cfg = PRTConfig(
            n_nodes=2, workers_per_node=1,
            fault_plan=FaultPlan(seed=3, drop_rate=0.25, duplicate_rate=0.2, delay_rate=0.2),
            deadlock_timeout=30.0,
        )
        stats = PRT(vsa, cfg, mapping=lambda t: t[0]).run()
        assert results == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert stats.reliable
        assert stats.retransmits >= stats.faults_dropped > 0

    def test_reliable_protocol_without_faults(self):
        results: list = []
        vsa = _cross_node_pipeline(results)
        cfg = PRTConfig(n_nodes=2, workers_per_node=1, reliable=True, deadlock_timeout=30.0)
        stats = PRT(vsa, cfg, mapping=lambda t: t[0]).run()
        assert results == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert stats.reliable and stats.retransmits == 0

    def test_clean_run_stays_unreliable_by_default(self):
        results: list = []
        vsa = _cross_node_pipeline(results)
        stats = PRT(
            vsa, PRTConfig(n_nodes=2, workers_per_node=1, deadlock_timeout=30.0),
            mapping=lambda t: t[0],
        ).run()
        assert not stats.reliable
        assert results == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_retry_budget_exhaustion_raises(self):
        results: list = []
        vsa = _cross_node_pipeline(results)
        cfg = PRTConfig(
            n_nodes=2, workers_per_node=1,
            fault_plan=FaultPlan(seed=0, drop_rate=0.999),
            retry_timeout=0.01, retry_backoff_cap=0.02, max_retries=3,
            deadlock_timeout=30.0,
        )
        with pytest.raises(RetryExhaustedError):
            PRT(vsa, cfg, mapping=lambda t: t[0]).run()

    def test_qr_bit_identical_under_packet_loss(self, small_matrix):
        clean = qr_factor(small_matrix, nb=8, ib=4, tree="hier", h=3)
        f = qr_factor(
            small_matrix, nb=8, ib=4, tree="hier", h=3,
            backend="pulsar", n_nodes=2, workers_per_node=2,
            fault_plan=FaultPlan(seed=7, drop_rate=0.08, duplicate_rate=0.05, delay_rate=0.05),
        )
        assert f.stats.reliable and f.stats.faults_dropped > 0
        np.testing.assert_array_equal(clean.R, f.R)


def _qr_ops(tm):
    plans = plan_all_panels("hier", tm.mt, tm.nt, h=3)
    return expand_plans(tm.layout, plans)


class TestParallelRecovery:
    def test_worker_crash_recovers_bit_identical(self, small_matrix, small_tiles):
        clean = qr_factor(small_matrix, nb=8, ib=4, tree="hier", h=3)
        ops = _qr_ops(small_tiles)
        plan = FaultPlan(seed=5, crash_workers={0: 2, 1: 4})
        factors, stats = execute_ops_parallel(
            small_tiles, ops, 4, n_procs=3, fault_plan=plan, timeout_s=60.0
        )
        assert stats.workers_died == 2
        assert stats.workers_respawned == 2
        assert stats.ops_redispatched >= 0
        np.testing.assert_array_equal(clean.R, factors.r_factor())

    def test_crash_without_respawn_survives_on_remaining_workers(
        self, small_matrix, small_tiles
    ):
        clean = qr_factor(small_matrix, nb=8, ib=4, tree="hier", h=3)
        ops = _qr_ops(small_tiles)
        plan = FaultPlan(seed=5, crash_workers={0: 1})
        factors, stats = execute_ops_parallel(
            small_tiles, ops, 4, n_procs=3, fault_plan=plan,
            respawn=False, timeout_s=60.0,
        )
        assert stats.workers_died == 1 and stats.workers_respawned == 0
        np.testing.assert_array_equal(clean.R, factors.r_factor())

    @pytest.mark.skipif(
        mp.get_start_method() != "fork",
        reason="monkeypatched kernel reaches workers via fork inheritance only",
    )
    def test_all_workers_dying_exhausts_retries(self, small_tiles, monkeypatch):
        import repro.qr.execute as core_mod

        def die(store, op, ib):
            os._exit(13)

        monkeypatch.setattr(core_mod, "run_op", die)
        ops = _qr_ops(small_tiles)
        with pytest.raises(ParallelExecutionError, match="died"):
            execute_ops_parallel(small_tiles, ops, 4, n_procs=2, timeout_s=60.0)

    @pytest.mark.skipif(
        mp.get_start_method() != "fork",
        reason="monkeypatched kernel reaches workers via fork inheritance only",
    )
    def test_hung_worker_trips_watchdog(self, small_tiles, monkeypatch):
        import repro.qr.execute as core_mod

        def hang(store, op, ib):
            time.sleep(60.0)

        monkeypatch.setattr(core_mod, "run_op", hang)
        ops = _qr_ops(small_tiles)
        t0 = time.perf_counter()
        with pytest.raises(WatchdogTimeout, match="parallel dispatcher"):
            execute_ops_parallel(small_tiles, ops, 4, n_procs=2, timeout_s=1.5)
        assert time.perf_counter() - t0 < 30.0  # raised, never hung


class TestWatchdog:
    def test_progress_resets_clock(self):
        wd = Watchdog(0.2, what="unit")
        wd.note_progress(1)
        time.sleep(0.15)
        wd.note_progress(2)
        time.sleep(0.15)
        wd.check()  # progressed 0.15s ago: under the 0.2s limit
        assert not wd.expired()

    def test_stall_raises_with_report(self):
        wd = Watchdog(0.05, what="unit", report=lambda: "the-diagnosis")
        wd.note_progress(1)
        time.sleep(0.12)
        with pytest.raises(WatchdogTimeout, match=r"(?s)unit.*the-diagnosis") as exc:
            wd.check()
        assert "no progress" in str(exc.value)

    def test_unchanged_value_does_not_reset(self):
        wd = Watchdog(0.1, what="unit")
        wd.note_progress(7)
        time.sleep(0.12)
        wd.note_progress(7)  # same value: not progress
        assert wd.expired()


class TestFallbackDegradation:
    def test_fallback_returns_serial_result_with_reason(self, small_matrix, monkeypatch):
        import repro.qr.parallel as parallel_mod

        def boom(*a, **kw):
            raise ParallelExecutionError("injected backend failure")

        monkeypatch.setattr(parallel_mod, "execute_ops_parallel", boom)
        clean = qr_factor(small_matrix, nb=8, ib=4, tree="hier", h=3)
        f = qr_factor(
            small_matrix, nb=8, ib=4, tree="hier", h=3,
            backend="parallel", n_procs=2, on_failure="fallback",
        )
        assert f.stats.mode == "serial-fallback"
        assert "injected backend failure" in f.stats.fallback_reason
        np.testing.assert_array_equal(clean.R, f.R)

    def test_fallback_records_counter_and_span_in_trace(
        self, small_matrix, monkeypatch, tmp_path
    ):
        import json

        import repro.qr.parallel as parallel_mod

        def boom(*a, **kw):
            raise ParallelExecutionError("traced failure")

        monkeypatch.setattr(parallel_mod, "execute_ops_parallel", boom)
        trace = tmp_path / "fallback.json"
        f = qr_factor(
            small_matrix, nb=8, ib=4, tree="hier", h=3,
            backend="parallel", n_procs=2, on_failure="fallback",
            trace=str(trace),
        )
        assert f.counters["fallback.serial"] == 1.0
        doc = json.loads(trace.read_text())
        spans = [e for e in doc["traceEvents"] if e.get("name") == "fallback"]
        assert spans and "traced failure" in spans[0]["args"]["reason"]

    def test_raise_mode_propagates(self, small_matrix, monkeypatch):
        import repro.qr.parallel as parallel_mod

        def boom(*a, **kw):
            raise ParallelExecutionError("injected backend failure")

        monkeypatch.setattr(parallel_mod, "execute_ops_parallel", boom)
        with pytest.raises(ParallelExecutionError, match="injected"):
            qr_factor(
                small_matrix, nb=8, ib=4, tree="hier", h=3,
                backend="parallel", n_procs=2,
            )

    def test_configuration_errors_never_fall_back(self, small_matrix):
        with pytest.raises(ConfigurationError):
            qr_factor(
                small_matrix, nb=8, ib=4, tree="hier", h=3,
                backend="parallel", policy="bogus", on_failure="fallback",
            )

    def test_on_failure_validated(self, small_matrix):
        with pytest.raises(ConfigurationError, match="on_failure"):
            qr_factor(small_matrix, nb=8, ib=4, on_failure="retry")


class TestChannelLifecycleUnderRuntime:
    def test_pop_from_disabled_channel_raises(self):
        def src(vdp):
            vdp.write(0, Packet.of(1.0))

        def sink(vdp):
            vdp.disable_input(0)
            vdp.read(0)

        vsa = VSA()
        vsa.add_vdp(VDP((0,), 1, src, n_out=1))
        vsa.add_vdp(VDP((1,), 1, sink, n_in=1))
        vsa.connect((0,), 0, (1,), 0, 64)
        with pytest.raises(ChannelDisabledError):
            vsa.run(deadlock_timeout=15.0)

    def test_push_to_destroyed_channel_raises(self):
        def src(vdp):
            vdp.write(0, Packet.of(float(vdp.firing_index)))

        def sink(vdp):
            vdp.read(0)
            vdp.destroy_input(0)

        vsa = VSA()
        vsa.add_vdp(VDP((0,), 2, src, n_out=1))
        vsa.add_vdp(VDP((1,), 1, sink, n_in=1))
        vsa.connect((0,), 0, (1,), 0, 64)
        # One worker, lazy policy: src fires, sink reads + destroys, then
        # src's second write lands on the destroyed channel.
        with pytest.raises(ChannelClosedError):
            vsa.run(workers_per_node=1, policy="lazy", deadlock_timeout=15.0)

    def test_concurrent_toggling_completes_or_raises_never_hangs(self):
        results: list = []

        def src(vdp):
            vdp.write(0, Packet.of(float(vdp.firing_index)))

        def sink(vdp):
            results.append(vdp.read(0).data)

        vsa = VSA()
        vsa.add_vdp(VDP((0,), 40, src, n_out=1))
        vsa.add_vdp(VDP((1,), 40, sink, n_in=1))
        ch = vsa.connect((0,), 0, (1,), 0, 64)
        stop = threading.Event()

        def toggler():
            while not stop.is_set():
                ch.disable()
                time.sleep(0.0005)
                ch.enable()
                time.sleep(0.0005)
            ch.enable()

        th = threading.Thread(target=toggler, daemon=True)
        th.start()
        t0 = time.perf_counter()
        try:
            vsa.run(workers_per_node=2, deadlock_timeout=20.0)
            assert len(results) == 40  # survived every toggle window
        except ChannelDisabledError:
            pass  # a pop landed in a disabled window: the defined failure mode
        finally:
            stop.set()
            th.join(timeout=5.0)
        assert time.perf_counter() - t0 < 60.0

    def test_destroy_while_runtime_fires_completes_or_raises(self):
        results: list = []

        def src(vdp):
            vdp.write(0, Packet.of(float(vdp.firing_index)))

        def sink(vdp):
            results.append(vdp.read(0).data)

        vsa = VSA()
        vsa.add_vdp(VDP((0,), 30, src, n_out=1))
        vsa.add_vdp(VDP((1,), 30, sink, n_in=1))
        ch = vsa.connect((0,), 0, (1,), 0, 64)

        killer = threading.Timer(0.01, ch.destroy)
        killer.start()
        try:
            vsa.run(workers_per_node=2, deadlock_timeout=3.0)
        except (ChannelClosedError, ChannelDisabledError, DeadlockError):
            # Push/pop hit the destroyed channel, or the destroy stranded
            # queued packets and the deadlock detector fired: every defined
            # failure mode is a timed error, never a hang.
            pass
        finally:
            killer.cancel()


class TestChaosOverheadDisabled:
    def test_no_plan_means_no_fault_state(self, small_matrix):
        f = qr_factor(
            small_matrix, nb=8, ib=4, tree="hier", h=3,
            backend="pulsar", n_nodes=2, workers_per_node=2,
        )
        st = f.stats
        assert not st.reliable
        assert st.retransmits == st.dup_suppressed == 0
        assert st.faults_dropped == st.faults_duplicated == st.faults_delayed == 0


class TestSilentDataCorruption:
    """Bit-flip injection + ABFT checksum detection (docs/robustness.md)."""

    def test_flip_schedule_deterministic_and_op_keyed(self):
        plan = FaultPlan(seed=21, flip_rate=0.3)
        clone = pickle.loads(pickle.dumps(plan))
        decisions = [plan.flip(i) for i in range(200)]
        assert decisions == [clone.flip(i) for i in range(200)]
        assert 0.15 < sum(decisions) / 200 < 0.45
        # Attempts past flip_attempts are never corrupted (re-execution of
        # a flipped op must be able to produce the clean answer).
        assert not any(plan.flip(i, attempt=1) for i in range(200))

    def test_flip_mask_has_exactly_flip_bits_set(self):
        plan = FaultPlan(seed=3, flip_rate=0.9, flip_bits=5)
        for idx in range(32):
            assert bin(plan.flip_mask(idx, 0)).count("1") == 5

    def test_sdc_validation(self):
        with pytest.raises(ConfigurationError, match="flip_rate"):
            FaultPlan(flip_rate=1.5)
        with pytest.raises(ConfigurationError, match="flip_rate"):
            FaultPlan(flip_rate=-0.1)
        with pytest.raises(ConfigurationError, match="flip_bits"):
            FaultPlan(flip_rate=0.1, flip_bits=0)
        with pytest.raises(ConfigurationError, match="flip_bits"):
            FaultPlan(flip_rate=0.1, flip_bits=65)
        with pytest.raises(ConfigurationError, match="flip_attempts"):
            FaultPlan(flip_rate=0.1, flip_attempts=0)

    def test_tile_checksum_catches_single_bit_flip_in_tiny_values(self):
        from repro.qr.checksum import checksums_match, tile_checksum

        # Bit-pattern (uint64) column sums: a flip in an element of
        # magnitude 1e-300 next to values of magnitude 1e10 still changes
        # the checksum — a float column sum would round it away.
        tile = np.full((8, 8), 1e10)
        tile[3, 4] = 1e-300
        before = tile_checksum(tile)
        buf = np.array([tile[3, 4]])
        buf.view(np.uint64)[0] ^= np.uint64(1)
        tile[3, 4] = buf[0]
        assert not checksums_match(tile_checksum(tile), before)

    @pytest.mark.parametrize("backend", ["serial", "batched"])
    def test_every_flip_detected_and_repaired(self, small_matrix, backend):
        from repro.obs import recording
        from repro.obs.record import (
            K_SDC_DETECTED,
            K_SDC_INJECTED,
            K_SDC_RECOVERED,
        )

        clean = qr_factor(small_matrix, nb=8, ib=4, tree="hier", h=3)
        plan = FaultPlan(seed=17, flip_rate=0.25)
        with recording() as rec:
            f = qr_factor(
                small_matrix, nb=8, ib=4, tree="hier", h=3,
                backend=backend, fault_plan=plan,
            )
        inj = rec.counters.get(K_SDC_INJECTED, 0)
        det = rec.counters.get(K_SDC_DETECTED, 0)
        rcv = rec.counters.get(K_SDC_RECOVERED, 0)
        assert inj > 0, "flip_rate=0.25 injected nothing — test is vacuous"
        assert det == inj == rcv
        np.testing.assert_array_equal(clean.R, f.R)

    @pytest.mark.parametrize("batch", [None, "wavefront"])
    def test_parallel_flips_detected_across_dispatch_modes(
        self, small_matrix, batch
    ):
        clean = qr_factor(small_matrix, nb=8, ib=4, tree="hier", h=3)
        plan = FaultPlan(seed=17, flip_rate=0.25)
        f = qr_factor(
            small_matrix, nb=8, ib=4, tree="hier", h=3,
            backend="parallel", n_procs=2, batch=batch, fault_plan=plan,
        )
        assert f.stats.sdc_injected > 0
        assert f.stats.sdc_detected == f.stats.sdc_injected
        assert f.stats.sdc_recovered == f.stats.sdc_injected
        np.testing.assert_array_equal(clean.R, f.R)

    def test_flip_counts_identical_across_backends(self, small_matrix):
        """The flip schedule is keyed by op index alone, so every backend
        corrupts — and must repair — exactly the same operations."""
        from repro.obs import recording
        from repro.obs.record import K_SDC_INJECTED

        plan = FaultPlan(seed=29, flip_rate=0.2)
        counts = {}
        for backend in ("serial", "batched"):
            with recording() as rec:
                qr_factor(
                    small_matrix, nb=8, ib=4, tree="hier", h=3,
                    backend=backend, fault_plan=plan,
                )
            counts[backend] = rec.counters.get(K_SDC_INJECTED, 0)
        f = qr_factor(
            small_matrix, nb=8, ib=4, tree="hier", h=3,
            backend="parallel", n_procs=2, fault_plan=plan,
        )
        counts["parallel"] = f.stats.sdc_injected
        assert counts["serial"] > 0
        assert len(set(counts.values())) == 1, counts

    def test_persistent_corruption_escalates(self, small_matrix):
        from repro.util import SilentCorruptionError

        # flip_attempts=3 corrupts every allowed re-execution, so the
        # guard's re-execute-and-compare loop can never converge and must
        # escalate instead of looping or silently accepting bad data.
        plan = FaultPlan(seed=17, flip_rate=0.25, flip_attempts=3)
        with pytest.raises(SilentCorruptionError, match="recomputation"):
            qr_factor(
                small_matrix, nb=8, ib=4, tree="hier", h=3, fault_plan=plan,
            )

    def test_on_failure_fallback_preserves_input(self, small_matrix):
        # Escalation with on_failure="fallback" must not leave the caller
        # with half-factored tiles: the fallback refactors from pristine
        # input (without the fault plan) and still matches the clean run.
        clean = qr_factor(small_matrix, nb=8, ib=4, tree="hier", h=3)
        plan = FaultPlan(seed=17, flip_rate=0.25, flip_attempts=3)
        f = qr_factor(
            small_matrix, nb=8, ib=4, tree="hier", h=3,
            fault_plan=plan, on_failure="fallback",
        )
        np.testing.assert_array_equal(clean.R, f.R)

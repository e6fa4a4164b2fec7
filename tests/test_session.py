"""Integration tests: persistent QRSession (a worker pool of its own).

The session must be an invisible optimisation: every ``session.factor``
call returns factors bit-identical to a fresh one-shot ``qr_factor`` —
warm pool or cold, crashed workers or not.  On top of that invariant these
tests pin the session-specific bookkeeping: plan hit/miss accounting on the
process memo (a geometry the memo evicts loses its plan, never a result or a
segment),
generation tags surviving across calls (so a generation-0 ``FaultPlan``
cannot re-kill a respawned pool worker), and the ``pool.*`` / ``plan.*``
observability counters.  A Hypothesis state machine then factors on two
geometries, kills idle workers, clears the memo, reads and drops old results
and closes, in any order: every result it holds reads as its serial twin.
"""

from __future__ import annotations

import functools
import gc
import multiprocessing as mp
import os
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import FaultPlan, QRSession, qr_factor
from repro.qr.parallel import shutdown_workers
from repro.qr.schedule import schedule_for
from repro.qr.session import WorkerPool
from repro.tiles import random_dense
import repro.qr.parallel as parallel_mod
from repro.util import ConfigurationError

KW = dict(nb=8, ib=4, tree="hier", h=3)


def plan_counts(sess):
    h = sess.health()["plan_cache"]
    return h["hits"], h["misses"]


class TestPlanCache:
    """A session keeps no plans of its own: it counts, per geometry, whether
    it has factored it before (``health()["plan_cache"]``), and takes every
    schedule from the process memo, whose LRU decides what stays derived."""

    def test_hit_miss_accounting(self):
        with QRSession(n_procs=2) as sess:
            a = random_dense(40, 24, seed=0)
            b = random_dense(40, 24, seed=1)
            sess.factor(a, **KW)
            assert plan_counts(sess) == (0, 1)
            sess.factor(b, **KW)  # same geometry: hit
            assert plan_counts(sess) == (1, 1)
            sess.factor(a, nb=8, ib=4, tree="binary")  # new key: miss
            assert plan_counts(sess) == (1, 2)
            assert set(sess.health()["plan_cache"]) == {"hits", "misses"}

    def test_auto_h_shares_entry_with_explicit_h(self):
        # h="auto" resolves before the session counts the key, so it counts
        # as the integer it resolves to.
        from repro.machine import kraken
        from repro.trees import choose_domain_size

        a = random_dense(40, 24, seed=0)
        with QRSession(n_procs=2) as sess:
            resolved = choose_domain_size(
                5, machine=kraken(), nb=8, ib=4, workers=sess.n_procs
            )
            sess.factor(a, nb=8, ib=4, tree="hier", h=resolved)
            sess.factor(a, nb=8, ib=4, tree="hier", h="auto")
            assert plan_counts(sess) == (1, 1)

    def test_eviction_leaves_results_and_segments_alone(self):
        """The memo dropping a geometry drops a plan, never a result or a
        segment; the session's next call on it derives the plan again, counts
        a hit, and — on a new op list — loads a fresh segment."""
        with QRSession(n_procs=2) as sess:
            a = random_dense(40, 24, seed=0)
            hier = sess.factor(a, **KW)
            flat = sess.factor(a, nb=8, ib=4, tree="flat")
            schedule_for.cache_clear()  # evicts both geometries
            # Segments are the process's: both stay free for their op lists.
            assert len(parallel_mod._FREE) == 2
            np.testing.assert_array_equal(hier.R, qr_factor(a, **KW).R)
            np.testing.assert_array_equal(flat.R, qr_factor(a, nb=8, ib=4, tree="flat").R)
            del hier
            schedule_for.cache_clear()
            again = sess.factor(a, **KW)
            assert not again.stats.segment_recycled and plan_counts(sess) == (1, 2)
            np.testing.assert_array_equal(again.R, qr_factor(a, **KW).R)

    def test_lru_order(self):
        """A session pins nothing: a geometry it factored leaves the memo
        after ``CAPACITY`` other geometries, as anybody's would."""
        from repro.qr.schedule import CAPACITY

        a = random_dense(40, 24, seed=0)
        with QRSession(n_procs=2) as sess:
            sess.factor(a, **KW)
            key = next(iter(sess._factored))
            first = schedule_for(*key)
            for h in range(1, CAPACITY + 1):  # CAPACITY others, one-shot
                qr_factor(a, nb=8, ib=4, tree="hier", h=h, shifted=False)
            assert schedule_for(*key) is not first
            assert sess.factor(a, **KW).stats.mode == "parallel"
            assert plan_counts(sess) == (1, 1)


class TestBitExactness:
    def test_warm_pool_matches_fresh_spawn(self, small_matrix):
        ser = qr_factor(small_matrix, **KW)
        one = qr_factor(small_matrix, **KW, backend="parallel", n_procs=2)
        shutdown_workers()  # the session's workers are then the only ones
        other = random_dense(40, 24, seed=9)
        with QRSession(n_procs=2) as sess:
            cold = sess.factor(other, **KW)  # forks the pool, warms the plan
            warm = sess.factor(small_matrix, **KW)  # kept across the next factor
            wf = sess.factor(small_matrix, **KW, batch="wavefront")
        np.testing.assert_array_equal(qr_factor(other, **KW).R, cold.R)
        for f in (one, warm, wf):
            np.testing.assert_array_equal(ser.R, f.R)
        probe = np.linspace(0.0, 1.0, small_matrix.shape[0])
        np.testing.assert_array_equal(ser.qt_matmul(probe), warm.qt_matmul(probe))
        assert warm.stats.mode == "parallel"
        # Warm call reuses live workers: no process spawn in the lease.
        assert warm.stats.spawn_s < one.stats.spawn_s

    def test_serial_and_batched_backends(self, small_matrix):
        ser = qr_factor(small_matrix, **KW)
        with QRSession(n_procs=2) as sess:
            f_ser = sess.factor(small_matrix, **KW, backend="serial")
            f_bat = sess.factor(small_matrix, **KW, backend="batched")
            np.testing.assert_array_equal(ser.R, f_ser.R)
            np.testing.assert_array_equal(ser.R, f_bat.R)
            # serial derives the plan (miss), batched reuses it (hit) and
            # only then derives wavefronts once.
            assert plan_counts(sess) == (1, 1)

    def test_n_procs_1_falls_back(self, small_matrix):
        ser = qr_factor(small_matrix, **KW)
        with QRSession(n_procs=1) as sess:
            assert sess.pool is None
            f = sess.factor(small_matrix, **KW)
            assert f.stats.mode == "serial-fallback"
            np.testing.assert_array_equal(ser.R, f.R)


    def test_tiny_job_leaves_no_stale_attach_echo(self):
        """A 3-op job (16 x 8, one panel) can complete before the second
        leased worker's attach echo is read; the dispatcher must collect it
        before handing the pool back, or the next call reads it as its own
        and rejects the stale run id (about one session in five did)."""
        a = random_dense(16, 8, seed=3)
        kw = dict(nb=8, ib=4, tree="flat")
        ref = qr_factor(a, **kw)
        for _ in range(20):
            with QRSession(n_procs=2) as sess:
                for _ in range(3):
                    assert np.array_equal(sess.factor(a, **kw).R, ref.R)


class TestChaos:
    def test_worker_killed_between_calls(self, small_matrix):
        ser = qr_factor(small_matrix, **KW)
        with QRSession(n_procs=2) as sess:
            f1 = sess.factor(small_matrix, **KW)  # kept across the next factor
            gen_before = dict(sess.pool.generations)
            sess.pool.procs[0].terminate()
            sess.pool.procs[0].join()
            f2 = sess.factor(small_matrix, **KW)  # lease respawns rank 0
            np.testing.assert_array_equal(ser.R, f1.R)
            np.testing.assert_array_equal(ser.R, f2.R)
            assert sess.pool.generations[0] == gen_before[0] + 1
            assert sess.pool.generations[1] == gen_before[1]
            assert sess.pool.alive_count() == 2

    def test_fault_plan_crash_and_generation_persistence(self, small_matrix):
        ser = qr_factor(small_matrix, **KW)
        plan = FaultPlan(crash_workers={0: 0})
        with QRSession(n_procs=2) as sess:
            f1 = sess.factor(small_matrix, **KW, fault_plan=plan)
            assert f1.stats.workers_died == 1
            assert f1.stats.workers_respawned == 1
            assert f1.stats.mode == "parallel"
            np.testing.assert_array_equal(ser.R, f1.R)
            # Rank 0 is now generation 1; the same plan kills generation 0
            # only, so the next call must run clean.
            assert sess.pool.generations[0] == 1
            f2 = sess.factor(small_matrix, **KW, fault_plan=plan)
            assert f2.stats.workers_died == 0
            np.testing.assert_array_equal(ser.R, f2.R)


class TestValidation:
    def test_pulsar_backend_rejected(self, small_matrix):
        with QRSession(n_procs=2) as sess:
            with pytest.raises(ConfigurationError, match="session="):
                sess.factor(small_matrix, **KW, backend="pulsar")

    def test_n_procs_mismatch_rejected(self, small_matrix):
        with QRSession(n_procs=2) as sess:
            with pytest.raises(ConfigurationError, match="n_procs"):
                qr_factor(
                    small_matrix, **KW, backend="parallel", n_procs=3, session=sess
                )
            # The session's own n_procs is fine to restate.
            qr_factor(small_matrix, **KW, backend="parallel", n_procs=2, session=sess)

    def test_closed_session_rejected(self, small_matrix):
        sess = QRSession(n_procs=2)
        sess.close()
        sess.close()  # idempotent
        with pytest.raises(ConfigurationError, match="closed"):
            sess.factor(small_matrix, **KW)

    def test_pool_size_validated(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(0)
        with pytest.raises(ConfigurationError):
            QRSession(n_procs=0)
        with pytest.raises(TypeError):
            QRSession(n_procs=2, plan_cache_size=8)  # plans are the process memo's


class TestObservability:
    def test_pool_and_plan_counters(self, small_matrix, tmp_path):
        with QRSession(n_procs=2) as sess:
            cold = sess.factor(small_matrix, **KW, trace=str(tmp_path / "c.json"))
            warm = sess.factor(small_matrix, **KW, trace=str(tmp_path / "w.json"))
        assert cold.counters["plan.misses"] == 1
        assert cold.counters["pool.leases"] == 1
        assert cold.counters["pool.spawns"] == 2
        assert "pool.reused" not in warm.counters or warm.counters["pool.reused"] == 2
        assert warm.counters["plan.hits"] == 1
        assert warm.counters["pool.leases"] == 1
        assert warm.counters.get("pool.spawns", 0) == 0
        assert warm.counters["pool.reused"] == 2

    def test_traces_validate(self, small_matrix, tmp_path):
        from repro.obs.validate import validate_chrome_trace

        paths = [tmp_path / "cold.json", tmp_path / "warm.json"]
        with QRSession(n_procs=2) as sess:
            for path in paths:
                sess.factor(small_matrix, **KW, trace=str(path))
        for path in paths:
            validate_chrome_trace(path)


# -- a session under arbitrary sequences of calls ------------------------------------

GEOMETRIES = {"hier": ((90, 25), dict(nb=12, ib=4, tree="hier", h=2)),
              "flat": ((40, 24), dict(nb=8, ib=4, tree="flat"))}


@functools.lru_cache(maxsize=None)
def _case(geometry, seed):
    """An input of the geometry and its serial factorization."""
    shape, kw = GEOMETRIES[geometry]
    a = np.random.default_rng(seed).standard_normal(shape)
    return a, qr_factor(a, **kw)


def _segments():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


class SessionMachine(RuleBasedStateMachine):
    """The memo can drop a geometry between any two calls (``evict``), so a
    call may run on a plan derived again.  Every result the machine holds
    reads as its serial twin, whatever came after it: no call loads a
    segment whose result is alive."""

    def __init__(self):
        super().__init__()
        self.shm_before = _segments()
        self.sess = QRSession(n_procs=2)
        self.results = []  # [result, geometry, seed]
        self.generations = {}
        self.closed = False

    @rule(geometry=st.sampled_from(sorted(GEOMETRIES)), seed=st.integers(0, 2))
    def factor(self, geometry, seed):
        a, ref = _case(geometry, seed)
        if self.closed:
            with pytest.raises(ConfigurationError, match="closed"):
                self.sess.factor(a, **GEOMETRIES[geometry][1])
            return
        f = self.sess.factor(a, **GEOMETRIES[geometry][1])
        assert f.stats.mode == "parallel"
        assert np.array_equal(f.R, ref.R)
        self.results.append([f, geometry, seed])

    @precondition(lambda self: not self.closed)
    @rule(rank=st.sampled_from([0, 1]))
    def kill_an_idle_worker(self, rank):
        proc = self.sess.pool.procs.get(rank)
        if proc is not None and proc.is_alive():  # forked by the first factor
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=5.0)

    @rule()
    def evict(self):
        """What other callers pushing ``CAPACITY`` geometries through the
        memo do to this session's."""
        schedule_for.cache_clear()

    @precondition(lambda self: self.results)
    @rule(data=st.data())
    def touch_an_older_result(self, data):
        f, geometry, seed = data.draw(st.sampled_from(self.results))
        a, ref = _case(geometry, seed)
        probe = np.linspace(0.0, 1.0, a.shape[0])
        assert np.array_equal(f.qt_matmul(probe), ref.qt_matmul(probe))

    @precondition(lambda self: self.results)
    @rule(data=st.data())
    def drop_a_result(self, data):
        """Its segment is free for the next call on its geometry."""
        self.results.pop(data.draw(st.integers(0, len(self.results) - 1)))

    @precondition(lambda self: not self.closed)
    @rule()
    def close(self):
        workers = list(self.sess.pool.procs.values())
        self.sess.close()
        self.closed = True
        assert not any(p.is_alive() for p in workers) and mp.active_children() == []

    @invariant()
    def held_results_read_as_their_serial_twins(self):
        for f, geometry, seed in self.results:
            assert np.array_equal(f.R, _case(geometry, seed)[1].R)

    @invariant()
    def generations_never_go_back(self):
        if not self.closed:
            now = dict(self.sess.pool.generations)
            assert all(now.get(rank, -1) >= g for rank, g in self.generations.items())
            self.generations = now

    def teardown(self):
        if not self.closed:
            self.close()
        # The held results map their segments, and Hypothesis keeps the
        # machine (and so them) in reference cycles: drop and collect them
        # here, or the mappings outlive the test.
        self.results.clear()
        gc.collect()
        assert _segments() <= self.shm_before, "leaked shared-memory segment"


def test_a_session_under_factor_kill_evict_touch_and_close(no_new_shm):
    run_state_machine_as_test(SessionMachine, settings=settings(
        max_examples=25, stateful_step_count=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow]))

"""Integration tests: QRSession, a tally over ``qr_factor``.

A session owns no workers: every ``session.factor`` call leases the pool
the process keeps for every parallel call, and returns factors
bit-identical to a one-shot ``qr_factor`` — warm pool or cold, crashed
workers or not.  On top of that invariant these tests pin the session's
bookkeeping: its hit/miss tally of geometries over the process memo (a
geometry the memo evicts loses its plan, never a result or a segment), its
``n_procs`` rule, one pool shared with one-shot calls, a ``FaultPlan`` that
meets fresh generation-0 workers on every call, and the ``pool.*``
observability counters.  A Hypothesis state machine then factors on two
geometries, kills idle workers, clears the memo, reads and drops old results
and closes, in any order: every result it holds reads as its serial twin.
"""

from __future__ import annotations

import functools
import gc
import inspect
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
        shutdown_workers()  # the session's cold call forks the pool again
        other = random_dense(40, 24, seed=9)
        with QRSession(n_procs=2) as sess:
            cold = sess.factor(other, **KW)  # forks the pool, warms the plan
            forked = {r: p.pid for r, p in parallel_mod._KEPT.procs.items()}
            warm = sess.factor(small_matrix, **KW)  # kept across the next factor
            leased = {r: p.pid for r, p in parallel_mod._KEPT.procs.items()}
            wf = sess.factor(small_matrix, **KW, batch="wavefront")
        np.testing.assert_array_equal(qr_factor(other, **KW).R, cold.R)
        for f in (one, warm, wf):
            np.testing.assert_array_equal(ser.R, f.R)
        probe = np.linspace(0.0, 1.0, small_matrix.shape[0])
        np.testing.assert_array_equal(ser.qt_matmul(probe), warm.qt_matmul(probe))
        assert warm.stats.mode == "parallel"
        # Warm call reuses live workers: no process spawn in the lease.  (Not
        # told by ``spawn_s``: a parent that loses its CPU inside the lease
        # reads milliseconds there, as long as a fork.)
        assert len(forked) == 2 and leased == forked

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
            assert sess.health()["pool"] is None
            f = sess.factor(small_matrix, **KW)
            assert f.stats.mode == "serial-fallback"
            np.testing.assert_array_equal(ser.R, f.R)
        assert parallel_mod._KEPT.procs == {}  # nothing was forked


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


class TestOnePool:
    """A session leases the pool the process keeps, as a one-shot call does."""

    def test_a_one_shot_and_a_session_call_share_two_workers(self, small_matrix):
        ser = qr_factor(small_matrix, **KW)
        one = qr_factor(small_matrix, **KW, backend="parallel", n_procs=2)
        with QRSession(n_procs=2) as sess:
            warm = sess.factor(small_matrix, **KW)
            assert len(mp.active_children()) == 2
            assert sorted(sess.health()["pool"]["generations"].items()) == [(0, 0), (1, 0)]
        assert warm.stats.spawn_s < one.stats.spawn_s  # leased, not forked
        for f in (one, warm):
            np.testing.assert_array_equal(ser.R, f.R)
        assert len(mp.active_children()) == 2  # close() ends no worker

    def test_qr_factor_knows_nothing_of_sessions(self):
        assert "session" not in inspect.signature(qr_factor).parameters


class TestChaos:
    def test_worker_killed_between_calls(self, small_matrix):
        ser = qr_factor(small_matrix, **KW)
        pool = parallel_mod._KEPT
        with QRSession(n_procs=2) as sess:
            f1 = sess.factor(small_matrix, **KW)  # kept across the next factor
            gen_before = dict(pool.generations)
            pool.procs[0].terminate()
            pool.procs[0].join()
            f2 = sess.factor(small_matrix, **KW)  # lease respawns rank 0
            np.testing.assert_array_equal(ser.R, f1.R)
            np.testing.assert_array_equal(ser.R, f2.R)
            assert pool.generations[0] == gen_before[0] + 1
            assert pool.generations[1] == gen_before[1]
            assert sess.health()["pool"]["alive"] == 2

    def test_fault_plan_crash_and_generation_persistence(self, small_matrix):
        """Generations do not persist past a fault-plan call: it runs on
        fresh workers and leaves none, so the next clean call forks
        generation 0 again."""
        ser = qr_factor(small_matrix, **KW)
        plan = FaultPlan(crash_workers={0: 0})
        with QRSession(n_procs=2) as sess:
            sess.factor(small_matrix, **KW)  # kept workers the plan must not meet
            f1 = sess.factor(small_matrix, **KW, fault_plan=plan)
            assert (f1.stats.workers_died, f1.stats.workers_respawned) == (1, 1)
            assert f1.stats.mode == "parallel"
            np.testing.assert_array_equal(ser.R, f1.R)
            assert mp.active_children() == [] and parallel_mod._KEPT.generations == {}
            f2 = sess.factor(small_matrix, **KW)
            assert sess.health()["pool"]["generations"] == {0: 0, 1: 0}
            np.testing.assert_array_equal(ser.R, f2.R)

    def test_every_fault_plan_call_injects_what_it_says(self, small_matrix):
        ser = qr_factor(small_matrix, **KW)
        plan = FaultPlan(crash_workers={0: 0})
        with QRSession(n_procs=2) as sess:
            for _ in range(2):
                f = sess.factor(small_matrix, **KW, fault_plan=plan)
                assert (f.stats.workers_died, f.stats.workers_respawned) == (1, 1)
                np.testing.assert_array_equal(ser.R, f.R)


class TestValidation:
    def test_pulsar_backend_rejected(self, small_matrix):
        """Only with a conflicting ``n_procs``: a session owns no runtime, so
        a pulsar call runs and is tallied like any other."""
        pulsar = dict(KW, backend="pulsar", n_nodes=2, workers_per_node=2)
        with QRSession(n_procs=2) as sess:
            with pytest.raises(ConfigurationError, match="n_procs=3 conflicts"):
                sess.factor(small_matrix, **pulsar, n_procs=3)
            assert plan_counts(sess) == (0, 0)
            f = sess.factor(small_matrix, **pulsar)
            assert f.backend == "pulsar" and sess.last_run_id == f.run_id
            np.testing.assert_array_equal(qr_factor(small_matrix, **KW).R, f.R)
            sess.factor(small_matrix, **KW)  # the same geometry on another backend
            assert plan_counts(sess) == (1, 1)

    def test_n_procs_mismatch_rejected(self, small_matrix):
        with QRSession(n_procs=2) as sess:
            for backend in ("serial", "parallel"):
                for bad in (3, 1, "x"):
                    with pytest.raises(ConfigurationError, match="conflicts with the session"):
                        sess.factor(small_matrix, **KW, backend=backend, n_procs=bad)
                # The session's own n_procs is fine to restate.
                f = sess.factor(small_matrix, **KW, backend=backend, n_procs=2)
            assert plan_counts(sess) == (1, 1)
        assert f.stats.n_procs == 2

    def test_closed_session_rejected(self, small_matrix):
        sess = QRSession(n_procs=2)
        sess.close()
        sess.close()  # idempotent
        with pytest.raises(ConfigurationError, match="closed"):
            sess.factor(small_matrix, **KW)

    def test_pool_size_validated(self):
        for bad in (0, -3, "x"):
            with pytest.raises(ConfigurationError):
                QRSession(n_procs=bad)
        with pytest.raises(TypeError):
            QRSession(n_procs=2, plan_cache_size=8)  # plans are the process memo's


class TestObservability:
    def test_pool_and_plan_counters(self, small_matrix, tmp_path):
        """The pool's counters record the lease; the session's tally is
        ``health()`` alone."""
        with QRSession(n_procs=2) as sess:
            cold = sess.factor(small_matrix, **KW, trace=str(tmp_path / "c.json"))
            assert plan_counts(sess) == (0, 1)
            warm = sess.factor(small_matrix, **KW, trace=str(tmp_path / "w.json"))
            assert plan_counts(sess) == (1, 1)
        assert not [k for f in (cold, warm) for k in f.counters if k.startswith("plan.")]
        assert cold.counters["pool.leases"] == 1
        assert cold.counters["pool.spawns"] == 2
        assert cold.counters.get("pool.reused", 0) == 0
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
        proc = parallel_mod._KEPT.procs.get(rank)
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
        """Ends the session, not the process's workers."""
        alive = [p for p in parallel_mod._KEPT.procs.values() if p.is_alive()]
        self.sess.close()
        self.closed = True
        assert all(p.is_alive() for p in alive)

    @invariant()
    def held_results_read_as_their_serial_twins(self):
        for f, geometry, seed in self.results:
            assert np.array_equal(f.R, _case(geometry, seed)[1].R)

    @invariant()
    def generations_never_go_back(self):
        if not self.closed:
            now = dict(parallel_mod._KEPT.generations)
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

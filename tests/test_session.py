"""Integration tests: persistent QRSession (worker pool + plan cache).

The session must be an invisible optimisation: every ``session.factor``
call returns factors bit-identical to a fresh one-shot ``qr_factor`` —
warm pool or cold, crashed workers or not.  On top of that invariant these
tests pin the session-specific bookkeeping: plan-cache hit/miss/eviction
accounting (eviction must destroy the cached shared-memory arena),
generation tags surviving across calls (so a generation-0 ``FaultPlan``
cannot re-kill a respawned pool worker), and the ``pool.*`` / ``plan.*``
observability counters.  A Hypothesis state machine then factors on two
geometries, kills idle workers, evicts, reads old results and closes, in any
order.
"""

from __future__ import annotations

import functools
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
from repro.qr.session import PlanCache, WorkerPool
from repro.tiles import random_dense
from repro.util import ConfigurationError, StaleResultError

KW = dict(nb=8, ib=4, tree="hier", h=3)


class TestPlanCache:
    def test_hit_miss_accounting(self):
        with QRSession(n_procs=2, plan_cache_size=4) as sess:
            a = random_dense(40, 24, seed=0)
            b = random_dense(40, 24, seed=1)
            sess.factor(a, **KW)
            assert (sess.plan_cache.stats.hits, sess.plan_cache.stats.misses) == (0, 1)
            sess.factor(b, **KW)  # same geometry: hit
            assert (sess.plan_cache.stats.hits, sess.plan_cache.stats.misses) == (1, 1)
            sess.factor(a, nb=8, ib=4, tree="binary")  # new key: miss
            assert sess.plan_cache.stats.misses == 2
            assert len(sess.plan_cache) == 2

    def test_auto_h_shares_entry_with_explicit_h(self):
        # h="auto" resolves before the cache lookup, so it keys the same
        # entry as the integer it resolves to.
        from repro.machine import kraken
        from repro.trees import choose_domain_size

        a = random_dense(40, 24, seed=0)
        with QRSession(n_procs=2) as sess:
            resolved = choose_domain_size(
                5, machine=kraken(), nb=8, ib=4, workers=sess.n_procs
            )
            sess.factor(a, nb=8, ib=4, tree="hier", h=resolved)
            sess.factor(a, nb=8, ib=4, tree="hier", h="auto")
            assert sess.plan_cache.stats.hits == 1

    def test_eviction_destroys_arena(self):
        with QRSession(n_procs=2, plan_cache_size=1) as sess:
            a = random_dense(40, 24, seed=0)
            sess.factor(a, **KW)
            entry = next(iter(sess.plan_cache._entries.values()))
            arena = entry._arena
            assert arena is not None
            name = arena.name
            sess.factor(a, nb=8, ib=4, tree="flat")  # evicts the hier entry
            assert sess.plan_cache.stats.evictions == 1
            assert len(sess.plan_cache) == 1
            assert entry._arena is None  # close() ran
            from repro.tiles.shared import attach_untracked

            with pytest.raises(OSError):
                attach_untracked(name)  # segment unlinked with the entry

    def test_lru_order(self):
        from repro.trees import TreeKind

        # Keys are schedule_for's arguments: (tree, m, n, nb, ib, h, shifted).
        a, b, c = ((TreeKind.HIER, 40, 24, 8, 4, h, True) for h in (1, 2, 3))
        cache = PlanCache(maxsize=2)
        for key in (a, b):
            cache.lookup(key)
        cache.lookup(a)  # refresh a
        cache.lookup(c)  # evicts b, not a
        assert a in cache._entries and c in cache._entries
        assert b not in cache._entries


class TestBitExactness:
    def test_warm_pool_matches_fresh_spawn(self, small_matrix):
        ser = qr_factor(small_matrix, **KW)
        one = qr_factor(small_matrix, **KW, backend="parallel", n_procs=2)
        shutdown_workers()  # the session's workers are then the only ones
        with QRSession(n_procs=2) as sess:
            sess.factor(random_dense(40, 24, seed=9), **KW)  # warm the plan
            warm = sess.factor(small_matrix, **KW).detach()  # kept across the next factor
            wf = sess.factor(small_matrix, **KW, batch="wavefront")
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
            assert sess.plan_cache.stats.hits == 1

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
            f1 = sess.factor(small_matrix, **KW).detach()  # kept across the next factor
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
            QRSession(n_procs=2, plan_cache_size=0)


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

        path = tmp_path / "session.json"
        with QRSession(n_procs=2) as sess:
            sess.factor(small_matrix, **KW, trace=str(path))
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
    """One cache slot (``plan_cache_size=1``), so switching geometry evicts.
    A result goes stale exactly when its segment is loaded again: a later
    ``factor`` on its geometry with no eviction in between."""

    def __init__(self):
        super().__init__()
        self.shm_before = _segments()
        self.sess = QRSession(n_procs=2, plan_cache_size=1)
        self.slot = None  # (geometry, segment number) the cache holds
        self.segments = 0
        self.results = []  # [result, geometry, seed, segment number, stale]
        self.generations = {}
        self.closed = False

    @rule(geometry=st.sampled_from(sorted(GEOMETRIES)), seed=st.integers(0, 2))
    def factor(self, geometry, seed):
        a, ref = _case(geometry, seed)
        if self.closed:
            with pytest.raises(ConfigurationError, match="closed"):
                self.sess.factor(a, **GEOMETRIES[geometry][1])
            return
        if self.slot is None or self.slot[0] != geometry:
            self.segments += 1
            self.slot = (geometry, self.segments)
        f = self.sess.factor(a, **GEOMETRIES[geometry][1])
        assert f.stats.mode == "parallel"
        assert np.array_equal(f.R, ref.R)
        for held in self.results:
            held[4] = held[4] or held[3] == self.slot[1]
        self.results.append([f, geometry, seed, self.slot[1], False])

    @precondition(lambda self: not self.closed)
    @rule(rank=st.sampled_from([0, 1]))
    def kill_an_idle_worker(self, rank):
        proc = self.sess.pool.procs.get(rank)
        if proc is not None and proc.is_alive():  # forked by the first factor
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=5.0)

    @precondition(lambda self: self.results)
    @rule(data=st.data())
    def touch_an_older_result(self, data):
        f, geometry, seed, _, stale = data.draw(st.sampled_from(self.results))
        a, ref = _case(geometry, seed)
        probe = np.linspace(0.0, 1.0, a.shape[0])
        if stale:
            with pytest.raises(StaleResultError):
                f.qt_matmul(probe)
        else:
            assert np.array_equal(f.qt_matmul(probe), ref.qt_matmul(probe))

    @precondition(lambda self: not self.closed)
    @rule()
    def close(self):
        workers = list(self.sess.pool.procs.values())
        self.sess.close()
        self.closed = True
        assert not any(p.is_alive() for p in workers) and mp.active_children() == []

    @invariant()
    def results_read_or_raise_as_their_segment_says(self):
        for f, geometry, seed, _, stale in self.results:
            if stale:
                with pytest.raises(StaleResultError):
                    f.R
            else:
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
        assert _segments() <= self.shm_before, "leaked shared-memory segment"


def test_a_session_under_factor_kill_evict_touch_and_close(no_new_shm):
    run_state_machine_as_test(SessionMachine, settings=settings(
        max_examples=25, stateful_step_count=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow]))

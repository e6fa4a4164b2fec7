"""The kept worker pool behind one-shot ``backend="parallel"`` calls.

Workers are forked once per process, not once per call: a repeat one-shot
call leases the workers the previous one left idle, sends them a header
without an op list, and loads its input into a free segment whose result
is gone (or makes a fresh one while those results are alive).  What makes
workers keepable is checked here too — an idle worker maps only the last
``SPARE_SEGMENTS`` segments it served, holds no descriptor but its own pipe
end (no segment descriptor: it closes the one it is sent once it has mapped
it), and dies with its parent however the parent dies — together with the
cases where a job must *not* run on kept workers (fault plans) or leave any
(a failed job, a worker's death), and what a death means on a reused
segment.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from multiprocessing import resource_tracker
from multiprocessing.connection import Connection

import numpy as np
import pytest

import repro.qr.execute as core_mod
import repro.qr.parallel as parallel_mod
from repro import qr_factor
from repro.faults import FaultPlan
from repro.qr.ops import expand_plans
from repro.qr.parallel import execute_ops_parallel, shutdown_workers
from repro.qr.schedule import Schedule, schedule_for
from repro.tiles import TileMatrix
from repro.trees import TreeKind, plan_all_panels
from repro.util import ParallelExecutionError, WatchdogTimeout
from tests.conftest import segment_descriptors

pytestmark = [
    pytest.mark.usefixtures("no_new_shm"),
    pytest.mark.skipif(mp.get_start_method() != "fork",
                       reason="descriptor inheritance is a property of fork"),
]

GEOMETRY = dict(nb=12, ib=4, tree="hier", h=2)
OTHER = dict(nb=16, ib=8, tree="flat")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(parallel_mod.__file__)))


@pytest.fixture(scope="module")
def matrix():
    return np.random.default_rng(19).standard_normal((90, 25))


@pytest.fixture(scope="module")
def serial(matrix):
    return qr_factor(matrix, **GEOMETRY)


def one_shot(a, n_procs=2, **kw):
    return qr_factor(a, **{**GEOMETRY, **kw}, backend="parallel", n_procs=n_procs)


def worker_pids():
    return {p.name: p.pid for p in mp.active_children() if p.name.startswith("qr-pool-")}


def mapped_segments(pid):
    with open(f"/proc/{pid}/maps") as fh:
        return [line for line in fh if "psm_" in line]


def assert_only_spares_mapped(procs, but_not=()):
    """An idle worker maps the last segments it served and nothing else: at
    most ``SPARE_SEGMENTS`` (a worker evicts before it echoes its attach, so
    nothing is pending when a call has returned), and holds a descriptor of
    none."""
    for p in procs:
        lines = mapped_segments(p.pid)
        assert len(lines) <= parallel_mod.SPARE_SEGMENTS, f"{p.name} maps {lines}"
        assert all("(deleted)" in line for line in lines), f"{p.name} maps {lines}"
        assert not any(name in line for name in but_not for line in lines)
        assert segment_descriptors(p.pid) == [], f"{p.name} holds a segment descriptor"


def records(f):
    return [(r.kind, r.i, r.k2, r.j, r.m2, r.k, r.t.tobytes()) for r in f._factors.records]


def same_factors(f, ref):
    return np.array_equal(f.R, ref.R) and records(f) == records(ref)


@pytest.fixture
def sent_headers(monkeypatch):
    """Every job header that goes down a worker pipe, as sent."""
    headers = []
    raw_send = Connection.send

    def send(self, obj):
        if isinstance(obj, tuple) and obj and obj[0] == "job":
            headers.append(obj)
        return raw_send(self, obj)

    monkeypatch.setattr(Connection, "send", send)
    return headers


class TestReuse:
    def test_repeat_call_forks_nothing(self, matrix, serial, tmp_path):
        first = one_shot(matrix, trace=str(tmp_path / "1.json"))
        pids = worker_pids()
        second = one_shot(matrix, trace=str(tmp_path / "2.json"))
        assert sorted(pids) == ["qr-pool-0g0", "qr-pool-1g0"]
        assert worker_pids() == pids
        assert first.counters["pool.spawns"] == 2
        assert second.counters.get("pool.spawns", 0) == 0
        assert second.counters["pool.reused"] == 2
        assert [sum(e.type == "pool.spawn" for e in f.recorder.events.snapshot())
                for f in (first, second)] == [2, 0]
        assert same_factors(first, serial) and same_factors(second, serial)
        # Two small pipe messages against two forks (some 20 ms): the best of
        # three, because a write that wakes a worker can cost the writer its CPU.
        assert min(one_shot(matrix).stats.spawn_s for _ in range(3)) < 0.005

    def test_pool_grows_to_the_largest_n_procs(self, matrix, serial, tmp_path):
        one_shot(matrix)
        two = worker_pids()
        three = one_shot(matrix, n_procs=3, trace=str(tmp_path / "3.json"))
        grown = worker_pids()
        assert len(grown) == 3 and two.items() <= grown.items()
        assert (three.counters["pool.spawns"], three.counters["pool.reused"]) == (1, 2)
        back = one_shot(matrix, trace=str(tmp_path / "2.json"))
        assert worker_pids() == grown  # rank 2 sits the job out, alive
        assert back.counters.get("pool.spawns", 0) == 0
        assert back.stats.n_procs == 2 and sorted(back.stats.per_worker_ops) == [0, 1]
        assert sum(back.stats.per_worker_ops.values()) == back.stats.n_ops
        assert same_factors(three, serial) and same_factors(back, serial)

    def test_header_carries_the_op_list_once_per_geometry(self, matrix, serial, sent_headers):
        one_shot(matrix)
        assert sent_headers == []  # spawned: the header rode in the fork
        held = one_shot(matrix)  # on the spare: the workers map it
        assert [(h[2] is None, h[3] is None) for h in sent_headers] == [(True, True)] * 2
        del sent_headers[:]
        one_shot(matrix)  # ``held`` is in the way: a new segment under the list they hold
        assert [(h[2] is None, h[3] is None) for h in sent_headers] == [(False, True)] * 2
        del sent_headers[:], held
        ref_other = qr_factor(matrix, **OTHER)
        assert np.array_equal(one_shot(matrix, **OTHER).R, ref_other.R)
        assert [h[3] is None for h in sent_headers] == [False, False]
        del sent_headers[:]
        # Back: the workers hold OTHER's list now, and this geometry's with
        # the attachment they kept.
        assert same_factors(one_shot(matrix), serial)
        assert same_factors(one_shot(matrix), serial)
        assert [(h[2] is None, h[3] is None) for h in sent_headers] == [(True, True)] * 4

    def test_a_session_alternating_two_geometries_sends_slim_headers(self, matrix, serial,
                                                                    sent_headers):
        from repro import QRSession

        ref_other = qr_factor(matrix, **OTHER)
        with QRSession(n_procs=2) as sess:
            for call in range(6):
                kw, ref = (GEOMETRY, serial) if call % 2 == 0 else (OTHER, ref_other)
                del sent_headers[:]
                assert np.array_equal(sess.factor(matrix, **kw).R, ref.R)
                # Cold on the first geometry: the header rode in the fork.  Cold on
                # the second: layout and op list.  From then on the workers map
                # both segments and hold each one's schedule with it.
                slim = [(h[2] is None, h[3] is None) for h in sent_headers]
                assert slim == [[], [(False, False)] * 2][call] if call < 2 else [(True, True)] * 2

    def test_a_rank_dead_at_its_header_counts_as_spawned(self, matrix, serial, wire,
                                                         monkeypatch, tmp_path):
        """Alive at the check, dead at the send: the rank is respawned, and
        the lease summary, the counters and the run's message count say so."""
        from repro import QRSession

        sent, received = wire
        armed, summaries = [], []
        raw_send_job, raw_lease = parallel_mod.WorkerPool._send_job, parallel_mod.WorkerPool.lease

        def send_job(pool, rank):
            if rank == 1 and armed:
                armed.clear()
                pool.procs[rank].kill()
                pool.procs[rank].join()
                raise BrokenPipeError
            return raw_send_job(pool, rank)

        monkeypatch.setattr(parallel_mod.WorkerPool, "_send_job", send_job)
        monkeypatch.setattr(parallel_mod.WorkerPool, "lease", lambda pool, k, job: (
            summaries.append(raw_lease(pool, k, job)) or summaries[-1]))
        with QRSession(n_procs=2) as sess:
            sess.factor(matrix, **GEOMETRY)
            del sent[:], received[:], summaries[:]
            armed.append(True)
            f = sess.factor(matrix, **GEOMETRY, trace=str(tmp_path / "t.json"))
            assert f.stats.pipe_messages == len(sent) + len(received)
            assert parallel_mod._KEPT.generations == {0: 0, 1: 1}
        assert summaries == [{"n_procs": 2, "spawned": 1, "reused": 1}]
        assert (f.counters["pool.spawns"], f.counters["pool.reused"]) == (1, 1)
        assert f.stats.workers_died == 0 and same_factors(f, serial)

    def test_equal_but_not_identical_op_list_is_sent_in_full(self, matrix, serial, sent_headers):
        tm = TileMatrix.from_dense(matrix, 12)
        ops = schedule_for(TreeKind.coerce("hier"), 90, 25, 12, 4, 2, True).ops
        fresh = expand_plans(tm.layout, plan_all_panels("hier", tm.mt, tm.nt, h=2))
        assert fresh == ops and fresh is not ops
        execute_ops_parallel(tm, ops, 4, n_procs=2)
        execute_ops_parallel(tm, ops, 4, n_procs=2)
        assert [h[3] is None for h in sent_headers] == [True, True]
        del sent_headers[:]
        factors, _ = execute_ops_parallel(tm, fresh, 4, n_procs=2)
        assert [h[3] is fresh for h in sent_headers] == [True, True]
        assert np.array_equal(factors.r_factor(), serial.R)

    def test_shutdown_workers_is_idempotent(self, matrix, serial):
        shutdown_workers()  # nothing to end yet
        one_shot(matrix)
        assert worker_pids()
        shutdown_workers()
        shutdown_workers()
        assert mp.active_children() == []
        assert same_factors(one_shot(matrix), serial)

    def test_concurrent_one_shot_calls_take_turns(self, matrix, serial):
        results, errors = [], []

        def call():
            try:
                for _ in range(3):
                    results.append(one_shot(matrix))
            except BaseException as exc:  # surfaced below, in the test's thread
                errors.append(exc)

        threads = [threading.Thread(target=call) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads) and not errors
        assert len(results) == 9 and all(same_factors(f, serial) for f in results)
        assert len(worker_pids()) == 2
        # The first call forked its workers while the other threads were
        # creating their segments: none of those mappings went along, and of
        # the segments they served since they kept the last few.
        assert_only_spares_mapped(parallel_mod._KEPT.procs.values())

    def test_no_worker_is_forked_between_a_mapping_and_its_listing(self, matrix, monkeypatch):
        """A segment another thread (a session, a second caller) has made
        but not yet listed must not go along with a fork: the worker could
        not close a descriptor it was never told about, and would pin the
        segment for as long as it idles."""
        import repro.tiles.shared as shared_mod

        tm = TileMatrix.from_dense(matrix, 12)
        ops = schedule_for(TreeKind.coerce("hier"), 90, 25, 12, 4, 2, True).ops
        mapped, stores, threads = threading.Event(), [], []
        raw_create = os.memfd_create
        raw_spawn = parallel_mod.WorkerPool.spawn

        def slow_create(*args):
            fd = raw_create(*args)
            mapped.set()
            time.sleep(0.1)  # made, not listed yet
            return fd

        def spawn(pool, rank):
            if not threads:  # the first fork finds the other thread in between
                with monkeypatch.context() as m:
                    m.setattr(shared_mod.os, "memfd_create", slow_create)
                    threads.append(threading.Thread(
                        target=lambda: stores.append(shared_mod.SharedTileStore.create(tm, ops, 4))))
                    threads[0].start()
                    assert mapped.wait(5.0)
            raw_spawn(pool, rank)

        monkeypatch.setattr(parallel_mod.WorkerPool, "spawn", spawn)
        one_shot(matrix)
        threads[0].join(timeout=10)
        assert len(stores) == 1
        assert_only_spares_mapped(parallel_mod._KEPT.procs.values(), but_not=[stores[0].name])
        stores[0].destroy()


class TestFaultsGetTheirOwnWorkers:
    def test_clean_crash_clean(self, matrix, serial):
        one_shot(matrix)
        kept = worker_pids()
        crash = one_shot(matrix, fault_plan=FaultPlan(crash_workers={0: 0}))
        assert (crash.stats.workers_died, crash.stats.workers_respawned) == (1, 1)
        assert mp.active_children() == []
        clean = one_shot(matrix)
        after = worker_pids()
        assert sorted(after) == ["qr-pool-0g0", "qr-pool-1g0"]
        assert not set(after.values()) & set(kept.values())
        assert same_factors(crash, serial) and same_factors(clean, serial)

    def test_bit_flips_leave_no_worker(self, matrix, serial):
        one_shot(matrix)
        flips = one_shot(matrix, fault_plan=FaultPlan(seed=17, flip_rate=0.3))
        assert flips.stats.sdc_injected > 0 and same_factors(flips, serial)
        assert mp.active_children() == []

    def test_a_death_in_a_clean_job_ends_the_pool(self, matrix, serial, tmp_path, monkeypatch):
        """Not injected: the first worker to run an op dies of its own accord."""
        marker = tmp_path / "died"
        raw_run_op = core_mod.run_op

        def run_op(store, op, ib):
            try:
                marker.touch(exist_ok=False)
            except FileExistsError:
                return raw_run_op(store, op, ib)
            os._exit(3)

        monkeypatch.setattr(core_mod, "run_op", run_op)
        f = one_shot(matrix)
        assert (f.stats.workers_died, f.stats.workers_respawned) == (1, 1)
        assert same_factors(f, serial)
        assert mp.active_children() == []

    @pytest.mark.parametrize("late", ["dies", "stays silent"])
    def test_a_rank_late_with_its_echo_after_the_last_op(self, matrix, serial, monkeypatch, late):
        """Rank 1 has nothing to do and is slow to attach: rank 0 books every
        op first, and the job still waits for rank 1's echo.  A death there
        loses nothing — no heir, no error, the factors come back; silence is
        the watchdog's, with every op booked."""
        sched = schedule_for(TreeKind.coerce("hier"), 90, 25, 12, 4, 2, True)
        everything = sched.assignment(1, "lazy")[0]
        raw_attach = parallel_mod.SharedTileStore.attach

        def attach(*args):
            if mp.current_process().name.startswith("qr-pool-1"):
                time.sleep(0.5)
                if late == "dies":
                    os._exit(3)
                time.sleep(60.0)
            return raw_attach(*args)

        monkeypatch.setattr(parallel_mod.SharedTileStore, "attach", staticmethod(attach))
        injected = Schedule(None, sched.ops, 4, sched.layout)
        injected._assignments[2, "lazy"] = (everything, ())
        tm = TileMatrix.from_dense(matrix, 12)
        n = len(sched.ops)
        if late == "dies":
            factors, stats = execute_ops_parallel(tm, injected, 4, n_procs=2)
            assert np.array_equal(factors.r_factor(), serial.R)
            assert (stats.workers_died, stats.workers_respawned, stats.ops_redispatched) == (1, 0, 0)
            assert stats.per_worker_ops == {0: n, 1: 0}
        else:
            with pytest.raises(WatchdogTimeout, match=f"{n}/{n} ops reported"):
                execute_ops_parallel(tm, injected, 4, n_procs=2, timeout_s=1.0)
        assert mp.active_children() == []  # a death ends the kept pool, a timeout resets it

    def test_an_idle_death_is_respawned_at_the_next_lease(self, matrix, serial, tmp_path):
        one_shot(matrix)
        kept = worker_pids()
        os.kill(kept["qr-pool-1g0"], signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while parallel_mod._KEPT.alive_count() == 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        f = one_shot(matrix, trace=str(tmp_path / "t.json"))
        assert (f.counters["pool.spawns"], f.counters["pool.reused"]) == (1, 1)
        assert f.stats.workers_died == 0 and same_factors(f, serial)
        after = worker_pids()
        assert after["qr-pool-0g0"] == kept["qr-pool-0g0"] and "qr-pool-1g1" in after


class TestDeathOnASegmentWithoutAName:
    """Segments are anonymous and the parent keeps the descriptor of every
    free one: a rank that is not there to serve a reused segment is forked
    and sent it like any other, one that dies while serving it is respawned,
    and only with respawns off do the survivors adopt its ops."""

    @pytest.fixture
    def kill_after_lease(self, monkeypatch):
        """Ranks to ``SIGKILL`` the moment the next lease has gone out — with
        ops slow enough that none of them is through its share by then."""
        victims = []
        raw_lease, raw_run_op = parallel_mod.WorkerPool.lease, core_mod.run_op
        monkeypatch.setattr(core_mod, "run_op",
                            lambda *args: time.sleep(0.001) or raw_run_op(*args))

        def lease(pool, k, job):
            out = raw_lease(pool, k, job)
            while victims:
                os.kill(pool.procs[victims.pop()].pid, signal.SIGKILL)
            return out

        monkeypatch.setattr(parallel_mod.WorkerPool, "lease", lease)
        return victims

    def test_an_idle_death_is_respawned_on_the_reused_segment(self, matrix, serial, tmp_path):
        one_shot(matrix)
        assert one_shot(matrix).stats.segment_recycled
        kept = worker_pids()
        os.kill(kept["qr-pool-0g0"], signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while parallel_mod._KEPT.alive_count() == 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        f = one_shot(matrix, trace=str(tmp_path / "t.json"))
        assert f.stats.segment_recycled and f.stats.workers_died == 0
        assert (f.counters["pool.spawns"], f.counters["pool.reused"]) == (1, 1)
        assert same_factors(f, serial) and "qr-pool-0g1" in worker_pids()

    def test_a_death_mid_job_is_respawned_not_adopted(self, matrix, serial, kill_after_lease):
        one_shot(matrix)
        kill_after_lease.append(1)
        f = one_shot(matrix)
        assert f.stats.mode == "parallel" and f.stats.segment_recycled
        assert (f.stats.workers_died, f.stats.workers_respawned) == (1, 1)
        assert same_factors(f, serial)
        ops = f.stats.per_worker_ops
        assert ops[0] + ops[1] == f.stats.n_ops and f.stats.ops_redispatched > 0
        assert mp.active_children() == []  # a death ends the kept pool
        del f
        clean = one_shot(matrix)
        assert clean.stats.segment_recycled and clean.stats.workers_died == 0
        assert same_factors(clean, serial) and len(worker_pids()) == 2

    def test_a_death_mid_job_is_adopted_not_respawned(self, matrix, serial, kill_after_lease):
        """... when respawns are off, on a reused segment as on a new one."""
        tm = TileMatrix.from_dense(matrix, 12)
        sched = schedule_for(TreeKind.coerce("hier"), 90, 25, 12, 4, 2, True)
        execute_ops_parallel(tm, sched, 4, n_procs=2)
        kill_after_lease.append(1)
        factors, stats = execute_ops_parallel(tm, sched, 4, n_procs=2, respawn=False)
        assert stats.mode == "parallel" and stats.segment_recycled
        assert (stats.workers_died, stats.workers_respawned) == (1, 0)
        assert np.array_equal(factors.r_factor(), serial.R)
        ops = stats.per_worker_ops
        assert ops[0] + ops[1] == stats.n_ops and ops[0] >= stats.ops_redispatched > 0
        assert mp.active_children() == []

    def test_every_rank_dead_is_the_typed_error_or_the_fallback(self, matrix, serial,
                                                                kill_after_lease, monkeypatch):
        """Every rank killed, and every replacement too: the respawn budget
        is spent, no rank is left, and the reused segment goes with the run."""
        raw_spawn = parallel_mod.WorkerPool.spawn

        def spawn(pool, rank, share=None):
            raw_spawn(pool, rank, share)
            if share is not None:  # a replacement, mid-job
                os.kill(pool.procs[rank].pid, signal.SIGKILL)

        monkeypatch.setattr(parallel_mod.WorkerPool, "spawn", spawn)
        one_shot(matrix)
        kill_after_lease.extend([0, 1])
        # Rule 5 of repro.qr.protocol: whichever death comes last ends the run.
        with pytest.raises(ParallelExecutionError, match="no workers remain|retries exhausted"):
            one_shot(matrix)
        assert mp.active_children() == [] and parallel_mod._FREE == []
        one_shot(matrix)
        kill_after_lease.extend([0, 1])
        f = one_shot(matrix, on_failure="fallback")
        assert f.stats.mode == "serial-fallback" and same_factors(f, serial)
        assert same_factors(one_shot(matrix), serial)


class TestFailedJobResets:
    def _ops(self, tm):
        return expand_plans(tm.layout, plan_all_panels("hier", tm.mt, tm.nt, h=3))

    def test_all_dead_without_respawn_then_success(self, small_matrix, small_tiles):
        ops = self._ops(small_tiles)
        execute_ops_parallel(small_tiles, ops, 4, n_procs=2)
        with pytest.raises(ParallelExecutionError, match="no workers remain"):
            execute_ops_parallel(
                small_tiles, ops, 4, n_procs=2, respawn=False, timeout_s=30.0,
                fault_plan=FaultPlan(crash_workers={0: 0, 1: 0}),
            )
        assert mp.active_children() == []
        factors, stats = execute_ops_parallel(small_tiles, ops, 4, n_procs=2)
        assert stats.workers_died == 0
        ref = qr_factor(small_matrix, nb=8, ib=4, tree="hier", h=3)
        np.testing.assert_array_equal(ref.R, factors.r_factor())

    def test_watchdog_timeout_then_success(self, small_matrix, small_tiles, monkeypatch):
        ops = self._ops(small_tiles)
        with monkeypatch.context() as patch:
            patch.setattr(core_mod, "run_op", lambda store, op, ib: time.sleep(60.0))
            with pytest.raises(WatchdogTimeout, match="parallel dispatcher"):
                execute_ops_parallel(small_tiles, ops, 4, n_procs=2, timeout_s=1.0)
        assert mp.active_children() == []  # reset: the sleepers are gone
        factors, _ = execute_ops_parallel(small_tiles, ops, 4, n_procs=2)
        ref = qr_factor(small_matrix, nb=8, ib=4, tree="hier", h=3)
        np.testing.assert_array_equal(ref.R, factors.r_factor())


def _inodes(pid, fds=None):
    """Inode-bearing link targets (``pipe:[n]``, ``socket:[n]``) of a process's
    descriptors — all of them, or just ``fds``."""
    targets = set()
    for fd in os.listdir(f"/proc/{pid}/fd") if fds is None else fds:
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:  # closed since the listing
            continue
        if target.startswith(("pipe:", "socket:")):
            targets.add(target)
    return targets


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
class TestWorkersOwnOnlyTheirOwn:
    def test_idle_worker_maps_no_segment_and_holds_no_foreign_descriptor(self, matrix):
        from repro import QRSession

        with QRSession(n_procs=2) as sess:  # a sibling's pipe end is foreign too
            sess.factor(matrix, **GEOMETRY)
            one_shot(matrix, n_procs=3)  # grows the pool: rank 2 forked after the others
            one_shot(matrix, n_procs=3)
            me = os.getpid()
            # Segments are anonymous: no resource tracker was started, so
            # there is no tracker pipe for a worker to inherit.
            assert resource_tracker._resource_tracker._pid is None
            pool = parallel_mod._KEPT
            pipes = _inodes(me, [c.fileno() for c in pool.conns.values()])
            assert len(pipes) == 3
            workers = list(pool.procs.values())
            assert len(workers) == 3 and len(mp.active_children()) == 3
            for p in workers:
                held = _inodes(p.pid)
                # A socketpair's two ends have distinct inodes: a parent-side
                # one in a worker is an inherited copy, its own or a sibling's.
                assert not held & pipes, f"{p.name} holds a parent-side pipe end"
                # The descriptor a worker is sent goes once it has mapped it.
                assert segment_descriptors(p.pid) == [], f"{p.name} holds a segment descriptor"
            kept = list(parallel_mod._KEPT.procs.values())
            assert_only_spares_mapped(kept)
            assert any(mapped_segments(p.pid) for p in kept)
            shutdown_workers()
            assert not any(p.is_alive() for p in kept)
            assert mapped_segments(me) == []  # no result is held: no free segment is left


CHILD_PRELUDE = """
    import multiprocessing as mp, os, signal
    import numpy as np
    from repro import QRSession, qr_factor
    a = np.random.default_rng(0).standard_normal((90, 25))
    kw = dict(nb=12, ib=4, tree="hier", h=2)
"""


def _run_child(code, timeout, **streams):
    """Run ``CHILD_PRELUDE`` + ``code`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(CHILD_PRELUDE) + textwrap.dedent(code)],
        env=env, timeout=timeout, text=True, **(streams or dict(capture_output=True)),
    )


class TestKeptPoolSmoke:
    def test_repeat_forks_nothing_crash_meets_fresh_workers_traces_validate(self, tmp_path):
        """Two one-shot calls and a crash-plan call in one fresh process: the
        repeat call forks nothing, the fault plan meets fresh generation-0
        workers and leaves none, every factor is serial's, a later call keeps
        its two workers, no resource tracker was started (so stopping it the
        way ``bench/__main__.py`` does returns at once), and the three traces
        validate."""
        from repro.obs.validate import main as validate

        traces = [tmp_path / f"kept_{name}.json" for name in ("first", "repeat", "crash")]
        done = _run_child(f"""
            from multiprocessing import resource_tracker
            from repro.faults import FaultPlan
            first_t, repeat_t, crash_t = {[str(t) for t in traces]!r}
            a = np.random.default_rng(0).standard_normal((320, 64))
            kw = dict(nb=16, ib=8, tree="hier", h=2)
            ref = qr_factor(a, **kw)
            kw.update(backend="parallel", n_procs=2)
            first = qr_factor(a, **kw, trace=first_t)
            repeat = qr_factor(a, **kw, trace=repeat_t)
            assert first.counters["pool.spawns"] == 2, first.counters
            assert repeat.counters.get("pool.spawns", 0) == 0, repeat.counters
            assert repeat.counters["pool.reused"] == 2, repeat.counters
            crash = qr_factor(a, **kw, trace=crash_t,
                              fault_plan=FaultPlan(crash_workers={{0: 3}}))
            assert (crash.stats.workers_died, crash.stats.workers_respawned) == (1, 1)
            assert mp.active_children() == [], "a fault-plan job left workers"
            for f in (first, repeat, crash):
                assert np.array_equal(ref.R, f.R)
            again = qr_factor(a, **kw)
            assert np.array_equal(ref.R, again.R) and len(mp.active_children()) == 2
            assert resource_tracker._resource_tracker._pid is None, "a tracker was started"
            resource_tracker._resource_tracker._stop()
            print("ok")
        """, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["ok"]
        assert [validate([str(t)]) for t in traces] == [0, 0, 0]


class TestOversubscribedPoolSmoke:
    def test_twice_as_many_workers_as_cpus_neither_starve_nor_sleep(self, tmp_path):
        """Workers fire on completion flags and wait by spinning briefly, then
        napping; with more workers than CPUs a waiter that never yields starves
        the very worker whose flag it waits on, and a lost wake-up leaves
        everybody asleep.  Either would hang the child, hence its timeout:
        twenty warm session calls and five one-shot calls on the burst
        geometry, one crash that a survivor must adopt (``respawn=False``) and
        one checkpointed call — factors equal to serial's, traces valid,
        ``/dev/shm`` left clean."""
        from repro.obs.validate import main as validate

        traces = [tmp_path / f"over_{name}.json" for name in ("session", "oneshot", "checkpoint")]
        done = _run_child(f"""
            from repro.faults import FaultPlan
            from repro.qr.parallel import default_n_procs, execute_ops_parallel, shutdown_workers
            from repro.qr.schedule import schedule_for
            from repro.tiles import TileMatrix
            from repro.trees import TreeKind
            session_t, oneshot_t, checkpoint_t = {[str(t) for t in traces]!r}
            before = set(os.listdir("/dev/shm"))
            k = 2 * default_n_procs()
            a = np.random.default_rng(0).standard_normal((512, 128))
            kw = dict(nb=32, ib=16, tree="hier", h=2)
            ref = qr_factor(a, **kw)
            with QRSession(n_procs=k) as sess:
                for i in range(20):
                    f = sess.factor(a, **kw, trace=session_t if i == 19 else None)
                    assert np.array_equal(ref.R, f.R), f"warm session call {{i}}"
            for i in range(5):
                f = qr_factor(a, **kw, backend="parallel", n_procs=k,
                              trace=oneshot_t if i == 4 else None)
                assert np.array_equal(ref.R, f.R), f"one-shot call {{i}}"
            ckpt = qr_factor(a, **kw, backend="parallel", n_procs=k,
                             checkpoint={str(tmp_path / "over.ckpt.npz")!r}, trace=checkpoint_t)
            assert np.array_equal(ref.R, ckpt.R)
            sched = schedule_for(TreeKind.HIER, 512, 128, 32, 16, 2, True)
            factors, stats = execute_ops_parallel(
                TileMatrix.from_dense(a, 32), sched, 16, n_procs=k, respawn=False,
                timeout_s=30.0, fault_plan=FaultPlan(crash_workers={{1: 3}}))
            assert np.array_equal(ref.R, factors.r_factor())
            assert (stats.workers_died, stats.workers_respawned) == (1, 0), stats
            assert stats.ops_redispatched > 0
            shutdown_workers()
            left = set(os.listdir("/dev/shm")) - before
            assert not left, f"leaked shared-memory segments: {{left}}"
            print("ok")
        """, timeout=90)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["ok"]
        assert [validate([str(t)]) for t in traces] == [0, 0, 0]


@pytest.fixture
def cpus():
    """Narrow this process's own mask to at most its first two CPUs for one
    test, so a two-worker job has at least one worker per CPU wherever the
    suite runs; every worker of the test is forked under it.  Returns them
    in the order the pool binds ranks to them."""
    mask, restore = os.sched_getaffinity(0), os.sched_setaffinity
    narrowed = sorted(mask)[:2]
    shutdown_workers()
    restore(0, narrowed)
    yield narrowed
    shutdown_workers()
    restore(0, mask)


class TestBinding:
    """A job with at least one worker per CPU of the caller's mask binds
    every worker to one of them: rank ``k`` on ``cpus[k % len(cpus)]`` — at
    lease, after a death and when the pool grows.  A job with fewer workers
    than CPUs leaves them unbound, and the caller itself is never bound."""

    def test_two_workers_run_on_two_cpus(self, cpus, matrix, serial):
        if len(cpus) < 2:
            pytest.skip("needs two usable CPUs")
        f = one_shot(matrix)
        pids = worker_pids()
        bound = [os.sched_getaffinity(pids[f"qr-pool-{k}g0"]) for k in (0, 1)]
        assert bound == [{cpus[0]}, {cpus[1]}]
        assert os.sched_getaffinity(0) == set(cpus), "the caller was bound"
        assert f.stats.mode == "parallel" and same_factors(f, serial)

    def test_a_job_with_fewer_workers_than_cpus_binds_none(self):
        """The rule as a forked worker applies it: under a mask of ``n`` CPUs
        a worker of a job on fewer than ``n`` workers keeps the mask."""
        done = _run_child("""
            from repro.qr.parallel import _bind_to_cpu
            cpus = sorted(os.sched_getaffinity(0))
            for n_workers, rank, want in ((len(cpus) - 1, 0, set(cpus)),
                                          (len(cpus), 1, {cpus[1 % len(cpus)]}),
                                          (len(cpus) + 1, len(cpus), {cpus[0]})):
                pid = os.fork()
                if pid == 0:
                    _bind_to_cpu(rank, n_workers)
                    os._exit(0 if os.sched_getaffinity(0) == want else 1)
                assert os.waitpid(pid, 0)[1] == 0, (n_workers, rank, want)
            assert os.sched_getaffinity(0) == set(cpus), "the caller was bound"
            print("ok")
        """, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["ok"]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 3, reason="needs three usable CPUs")
    def test_two_workers_on_more_cpus_float(self, matrix, serial):
        shutdown_workers()
        f = one_shot(matrix)
        assert f.stats.mode == "parallel" and same_factors(f, serial)
        assert all(os.sched_getaffinity(pid) == os.sched_getaffinity(0)
                   for pid in worker_pids().values())

    def test_a_grown_pool_wraps_around_the_callers_cpus(self):
        """In a child whose mask is at most two CPUs, a pool grown from two
        workers to four binds rank ``k`` to ``cpus[k % len(cpus)]``."""
        done = _run_child("""
            cpus = sorted(os.sched_getaffinity(0))[-2:]
            os.sched_setaffinity(0, cpus)
            ref = qr_factor(a, **kw)
            for k in (2, 4):
                f = qr_factor(a, **kw, backend="parallel", n_procs=k)
                assert f.stats.mode == "parallel" and np.array_equal(ref.R, f.R)
            workers = {p.name: p.pid for p in mp.active_children()}
            assert sorted(workers) == [f"qr-pool-{k}g0" for k in range(4)], workers
            for k in range(4):
                got = os.sched_getaffinity(workers[f"qr-pool-{k}g0"])
                assert got == {cpus[k % len(cpus)]}, (k, got, cpus)
            assert os.sched_getaffinity(0) == set(cpus), "the caller was bound"
            print("ok")
        """, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["ok"]

    def test_a_replacement_takes_its_ranks_cpu(self, cpus, matrix, serial, tmp_path,
                                               monkeypatch):
        """A crash-plan job's replacement of rank 0 (generation 1) serves its
        share on rank 0's CPU; every worker's mask is read as it starts to
        serve, since a fault-plan job leaves no worker behind."""
        serve = parallel_mod._serve_job

        def spy(*args, **kw):
            name = mp.current_process().name
            (tmp_path / name).write_text(" ".join(map(str, sorted(os.sched_getaffinity(0)))))
            return serve(*args, **kw)

        monkeypatch.setattr(parallel_mod, "_serve_job", spy)
        crash = one_shot(matrix, fault_plan=FaultPlan(crash_workers={0: 0}))
        assert (crash.stats.workers_died, crash.stats.workers_respawned) == (1, 1)
        assert same_factors(crash, serial)
        seen = {p.name: {int(c) for c in p.read_text().split()} for p in tmp_path.iterdir()}
        assert seen == {"qr-pool-0g0": {cpus[0]}, "qr-pool-0g1": {cpus[0]},
                        "qr-pool-1g0": {cpus[1 % len(cpus)]}}

    def test_a_one_cpu_caller_gets_both_workers_on_its_cpu(self, tmp_path):
        """Under a mask of one CPU both ranks wrap onto it — each worker sets
        it, the caller sets nothing — and neither starves the other."""
        log = tmp_path / "affinity.log"
        done = _run_child(f"""
            cpu = sorted(os.sched_getaffinity(0))[-1]
            os.sched_setaffinity(0, {{cpu}})
            real = os.sched_setaffinity

            def logged(pid, mask):
                with open({str(log)!r}, "a") as fh:
                    fh.write(f"{{os.getpid()}} {{pid}} {{sorted(mask)}}\\n")
                real(pid, mask)

            os.sched_setaffinity = logged
            ref = qr_factor(a, **kw)
            f = qr_factor(a, **kw, backend="parallel", n_procs=2)
            assert f.stats.mode == "parallel" and np.array_equal(ref.R, f.R)
            assert np.array_equal(ref.solve(a[:, 0]), f.solve(a[:, 0]))
            workers = [p.pid for p in mp.active_children()]
            assert len(workers) == 2 and all(os.sched_getaffinity(w) == {{cpu}} for w in workers)
            with open({str(log)!r}) as fh:
                calls = sorted(fh.read().split("\\n")[:-1])
            assert calls == sorted(f"{{w}} 0 [{{cpu}}]" for w in workers), calls
            assert os.sched_getaffinity(0) == {{cpu}}
            print("ok")
        """, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["ok"]

    def test_a_refused_bind_leaves_the_worker_unbound(self, cpus, matrix, serial,
                                                      tmp_path, monkeypatch):
        """``sched_setaffinity`` refusing (patched before the fork) is no
        error and no fallback: the call runs on workers with the caller's
        mask."""
        tried = tmp_path / "tried"

        def refuse(pid, mask):
            with open(tried, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        f = one_shot(matrix)
        assert f.stats.mode == "parallel" and same_factors(f, serial)
        pids = sorted(worker_pids().values())
        assert sorted(int(p) for p in tried.read_text().split()) == pids
        assert all(os.sched_getaffinity(p) == set(cpus) for p in pids)


class TestOneBlasThread:
    def test_every_backend_matches_a_pinned_child(self, monkeypatch):
        """OpenBLAS rounds tile kernels differently under one thread and under
        two (at ``nb=64`` here).  The kernels run on one thread whatever the
        caller set — in the caller around a schedule, a ``Q`` apply and a
        solve, and in every pool worker — so under ``OPENBLAS_NUM_THREADS=2``
        every backend's ``R`` and ``solve(b)`` are the bytes of a child run
        with it set to 1."""
        code = """
            import hashlib
            b = np.random.default_rng(0).standard_normal((256, 128))
            rhs = np.random.default_rng(1).standard_normal(256)
            g = dict(nb=64, ib=32, tree="hier", h=2)
            for backend in ("serial", "batched", "parallel"):
                f = qr_factor(b, backend=backend, n_procs=2, **g)
                assert backend != "parallel" or f.stats.mode == "parallel"
                print(hashlib.sha1(f.R.tobytes() + f.solve(rhs).tobytes()).hexdigest())
        """
        runs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            done = _run_child(code, timeout=60)
            assert done.returncode == 0, done.stderr
            runs[threads] = done.stdout.split()
        assert len(runs["1"]) == 3 and len(set(runs["1"])) == 1
        assert runs["2"] == runs["1"]


class TestParentGoesAway:
    def test_resource_tracker_stops_while_workers_are_kept(self):
        """What ``bench/__main__.py`` does on its way out returns at once with
        workers kept: no segment has a name, so no tracker was ever started."""
        done = _run_child("""
            from multiprocessing import resource_tracker
            qr_factor(a, backend="parallel", n_procs=2, **kw)
            assert len(mp.active_children()) == 2
            assert resource_tracker._resource_tracker._pid is None
            resource_tracker._resource_tracker._stop()
            print("stopped")
        """, timeout=10)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["stopped"]

    @pytest.mark.parametrize("owner", ["kept", "session"])
    def test_sigkilled_parent_leaves_no_worker(self, owner, tmp_path):
        factor = {
            "kept": 'qr_factor(a, backend="parallel", n_procs=2, **kw)',
            "session": "sess = QRSession(n_procs=2); sess.factor(a, **kw)",
        }[owner]
        pid_file = tmp_path / "pids"
        shm_before = sorted(os.listdir("/dev/shm"))
        # Output goes to a file: a surviving worker would hold a captured
        # pipe open and turn the failure into a hang.
        done = _run_child(f"""
            {factor}
            with open({str(pid_file)!r}, "w") as fh:
                print(*[p.pid for p in mp.active_children()], file=fh)
            os.kill(os.getpid(), signal.SIGKILL)
        """, timeout=60, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        assert done.returncode == -signal.SIGKILL
        pids = [int(p) for p in pid_file.read_text().split()]
        assert len(pids) == 2
        try:
            deadline = time.monotonic() + 5.0
            while (any(os.path.exists(f"/proc/{pid}") for pid in pids)
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert [pid for pid in pids if os.path.exists(f"/proc/{pid}")] == []
            # Nobody was left to unlink a name, and none was left behind.
            assert sorted(os.listdir("/dev/shm")) == shm_before
        finally:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_forked_child_gets_workers_of_its_own(self, matrix, serial):
        one_shot(matrix)
        kept = worker_pids()
        pid = os.fork()
        if pid == 0:  # the child: nothing inherited is its to lease
            code = 1
            try:
                procs = parallel_mod._KEPT.procs
                ok = not procs and same_factors(one_shot(matrix), serial)
                mine = {p.pid for p in procs.values()}
                shutdown_workers()
                code = 0 if ok and len(mine) == 2 and not mine & set(kept.values()) else 2
            finally:
                os._exit(code)
        assert os.waitpid(pid, 0)[1] == 0
        assert worker_pids() == kept
        assert same_factors(one_shot(matrix), serial) and worker_pids() == kept

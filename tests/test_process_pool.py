"""The kept worker pool behind one-shot ``backend="parallel"`` calls.

Workers are forked once per process, not once per call: a repeat one-shot
call leases the workers the previous one left idle, sends them a header
without an op list, and loads its input into the segment the previous one
left mapped (or makes a fresh one while that one's result is alive).  What
makes workers keepable is checked here too — an idle worker maps only the
last ``SPARE_SEGMENTS`` unlinked segments it served, holds no descriptor but
its own, and dies with its parent however
the parent dies — together with the cases where a job must *not* run on
kept workers (fault plans) or leave any (a failed job, a worker's death),
and what a death means on a segment nobody can attach any more.
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
from repro.qr.schedule import schedule_for
from repro.tiles import TileMatrix
from repro.trees import TreeKind, plan_all_panels
from repro.util import ParallelExecutionError, WatchdogTimeout

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
    most ``SPARE_SEGMENTS``, each without a name (a worker evicts before it
    echoes its attach, so nothing is pending when a call has returned)."""
    for p in procs:
        lines = mapped_segments(p.pid)
        assert len(lines) <= parallel_mod.SPARE_SEGMENTS, f"{p.name} maps {lines}"
        assert all("(deleted)" in line for line in lines), f"{p.name} maps {lines}"
        assert not any(name in line for name in but_not for line in lines)


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
        assert first.recorder.events.totals()["pool.spawn"] == 2
        assert "pool.spawn" not in second.recorder.events.totals()
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
        """A segment another thread (a session, a second caller) has mapped
        but not yet listed must not go along with a fork: the worker could
        not close a mapping it was never told about, and would pin the
        segment for as long as it idles."""
        import repro.tiles.shared as shared_mod

        tm = TileMatrix.from_dense(matrix, 12)
        ops = schedule_for(TreeKind.coerce("hier"), 90, 25, 12, 4, 2, True).ops
        mapped, stores, threads = threading.Event(), [], []
        raw_shm = shared_mod.shared_memory.SharedMemory
        raw_spawn = parallel_mod.WorkerPool.spawn

        def slow_map(*args, **kw):
            shm = raw_shm(*args, **kw)
            mapped.set()
            time.sleep(0.1)  # mapped, not listed yet
            return shm

        def spawn(pool, rank):
            if not threads:  # the first fork finds the other thread in between
                with monkeypatch.context() as m:
                    m.setattr(shared_mod.shared_memory, "SharedMemory", slow_map)
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
    """A recycled segment has no name a replacement could attach by: a rank
    that is not there to serve it sends the job to a fresh segment, and one
    that dies while serving it leaves its ops to the survivors."""

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

    def test_an_idle_death_sends_the_next_call_to_a_fresh_segment(self, matrix, serial):
        one_shot(matrix)
        assert one_shot(matrix).stats.segment_recycled
        kept = worker_pids()
        os.kill(kept["qr-pool-0g0"], signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while parallel_mod._KEPT.alive_count() == 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        f = one_shot(matrix)
        assert not f.stats.segment_recycled and f.stats.workers_died == 0
        assert same_factors(f, serial) and "qr-pool-0g1" in worker_pids()
        del f
        assert one_shot(matrix).stats.segment_recycled  # both ranks map that one

    def test_a_death_mid_job_is_adopted_not_respawned(self, matrix, serial, kill_after_lease):
        one_shot(matrix)
        kill_after_lease.append(1)
        f = one_shot(matrix)
        assert f.stats.mode == "parallel" and f.stats.segment_recycled
        assert (f.stats.workers_died, f.stats.workers_respawned) == (1, 0)
        assert same_factors(f, serial)
        ops = f.stats.per_worker_ops
        assert ops[0] + ops[1] == f.stats.n_ops and ops[0] >= f.stats.ops_redispatched > 0
        assert mp.active_children() == [] and parallel_mod._KEPT.spares == []
        del f
        clean = one_shot(matrix)
        assert not clean.stats.segment_recycled and clean.stats.workers_died == 0
        assert same_factors(clean, serial) and len(worker_pids()) == 2

    def test_every_rank_dead_is_the_typed_error_or_the_fallback(self, matrix, serial,
                                                                kill_after_lease):
        one_shot(matrix)
        kill_after_lease.extend([0, 1])
        with pytest.raises(ParallelExecutionError, match="no workers remain"):
            one_shot(matrix)
        assert mp.active_children() == [] and parallel_mod._KEPT.spares == []
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

        with QRSession(n_procs=2) as sess:  # another pool's pipes are foreign too
            sess.factor(matrix, **GEOMETRY)
            one_shot(matrix, n_procs=3)
            one_shot(matrix, n_procs=3)
            me = os.getpid()
            tracker = _inodes(me, [resource_tracker._resource_tracker._fd])
            assert len(tracker) == 1
            pools = (parallel_mod._KEPT, sess.pool)
            pipes = _inodes(me, [c.fileno() for pool in pools for c in pool.conns.values()])
            assert len(pipes) == 5
            workers = [p for pool in pools for p in pool.procs.values()]
            assert len(workers) == 5
            for p in workers:
                held = _inodes(p.pid)
                assert not held & tracker, f"{p.name} holds the tracker's pipe"
                # A socketpair's two ends have distinct inodes: a parent-side
                # one in a worker is an inherited copy, its own or a sibling's.
                assert not held & pipes, f"{p.name} holds a parent-side pipe end"
            kept = list(parallel_mod._KEPT.procs.values())
            assert_only_spares_mapped(kept)
            assert any(mapped_segments(p.pid) for p in kept)
            shutdown_workers()
            assert not any(p.is_alive() for p in kept)
            assert len(mapped_segments(me)) == 1  # the session's arena: no spare is left


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


class TestParentGoesAway:
    def test_resource_tracker_stops_while_workers_are_kept(self):
        """What ``bench/__main__.py`` does on its way out: the tracker exits
        only when the last copy of its pipe's write end is closed."""
        done = _run_child("""
            from multiprocessing import resource_tracker
            qr_factor(a, backend="parallel", n_procs=2, **kw)
            assert len(mp.active_children()) == 2
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

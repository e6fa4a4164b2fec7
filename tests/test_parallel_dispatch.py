"""One way to run, one worker lifecycle in the process backend.

``execute_ops_parallel`` has a single path — workers fire their share of the
schedule on completion flags, the parent listens — and a single worker
lifecycle (:class:`repro.qr.parallel.WorkerPool`; every run leases the one
pool the process keeps).  Three groups of checks:

* every ``batch`` value — including the kept ``"wavefront"`` spelling of
  the default — under both policies, clean and under worker crashes and bit
  flips, yields the serial factors bit for bit;
* a one-shot run leaves no ``/dev/shm`` segment behind whether it succeeds,
  fails, or times out — and no child process once ``shutdown_workers()``
  has run — and degrades to the serial fallback without ever leasing the
  pool;
* structurally, the deleted fork and the deleted dispatcher cannot grow back
  unnoticed.
"""

from __future__ import annotations

import ast
import inspect
import multiprocessing as mp
import pathlib
import time

import numpy as np
import pytest

import repro.qr.execute as core_mod
import repro.qr.parallel as parallel_mod
from repro import qr_factor
from repro.faults import FaultPlan
from repro.qr.ops import expand_plans
from repro.qr.parallel import execute_ops_parallel, shutdown_workers
from repro.trees import plan_all_panels
from repro.util import ParallelExecutionError, WatchdogTimeout

# Ragged on both edges: 90 = 7*12 + 6 rows, 25 = 2*12 + 1 columns.
GEOMETRY = dict(nb=12, ib=4, tree="hier", h=2)
FAULTS = {
    "clean": None,
    "crash": FaultPlan(crash_workers={0: 0}),
    "flips": FaultPlan(seed=17, flip_rate=0.3),
}

needs_fork = pytest.mark.skipif(
    mp.get_start_method() != "fork",
    reason="monkeypatched kernel reaches workers via fork inheritance only",
)


@pytest.fixture(scope="module")
def ragged():
    a = np.random.default_rng(5).standard_normal((90, 25))
    return a, qr_factor(a, **GEOMETRY)


def _records(f):
    return [(r.kind, r.i, r.k2, r.j, r.m2, r.k, r.t.tobytes()) for r in f._factors.records]


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("policy", ["lazy", "aggressive"])
@pytest.mark.parametrize("batch", [1, 3, 32, 10**6, None, "wavefront"])
def test_every_batch_value_gives_the_serial_factors(ragged, batch, policy, fault):
    a, ser = ragged
    par = qr_factor(
        a, **GEOMETRY, backend="parallel", n_procs=2,
        batch=batch, policy=policy, fault_plan=FAULTS[fault],
    )
    st = par.stats
    assert st.mode == "parallel"
    assert isinstance(st.batch, int) and st.batch >= 1
    assert st.batch == (batch if isinstance(batch, int) else parallel_mod._auto_batch(st.n_ops, 2))
    np.testing.assert_array_equal(ser.R, par.R)
    assert _records(par) == _records(ser)
    if fault == "crash":
        assert (st.workers_died, st.workers_respawned) == (1, 1)
    if fault == "flips":
        assert st.sdc_injected > 0
        assert st.sdc_detected == st.sdc_recovered == st.sdc_injected


class TestOneShotLifecycle:
    """A one-shot run takes its segment down with it; its workers go with
    ``shutdown_workers()``."""

    @pytest.fixture(autouse=True)
    def _nothing_left_behind(self, no_new_shm):
        yield
        shutdown_workers()
        assert mp.active_children() == []

    def _ops(self, tm):
        return expand_plans(tm.layout, plan_all_panels("hier", tm.mt, tm.nt, h=3))

    def test_success(self, small_matrix, small_tiles):
        factors, stats = execute_ops_parallel(small_tiles, self._ops(small_tiles), 4, n_procs=2)
        assert stats.mode == "parallel"
        np.testing.assert_array_equal(
            qr_factor(small_matrix, nb=8, ib=4, tree="hier", h=3).R, factors.r_factor()
        )

    def test_all_workers_dead_without_respawn(self, small_tiles):
        plan = FaultPlan(crash_workers={0: 0, 1: 0})
        with pytest.raises(ParallelExecutionError, match="no workers remain; respawn disabled"):
            execute_ops_parallel(
                small_tiles, self._ops(small_tiles), 4, n_procs=2,
                fault_plan=plan, respawn=False, timeout_s=30.0,
            )

    @needs_fork
    def test_watchdog_timeout(self, small_tiles, monkeypatch):
        monkeypatch.setattr(core_mod, "run_op", lambda store, op, ib: time.sleep(60.0))
        with pytest.raises(WatchdogTimeout, match="parallel dispatcher"):
            execute_ops_parallel(
                small_tiles, self._ops(small_tiles), 4, n_procs=2, timeout_s=1.0
            )

    @pytest.mark.parametrize("why", ["n_procs=1", "shared memory unavailable"])
    def test_degrades_without_constructing_a_pool(self, small_matrix, monkeypatch, why):
        import repro.tiles.shared as shared_mod

        def no_pool(*args):
            raise AssertionError("a degraded run must not lease the pool")

        def no_shm(*args, **kw):
            raise OSError("no /dev/shm")

        monkeypatch.setattr(parallel_mod.WorkerPool, "lease", no_pool)
        if why != "n_procs=1":
            monkeypatch.setattr(shared_mod.SharedTileStore, "create", no_shm)
        par = qr_factor(
            small_matrix, nb=8, ib=4, tree="hier", h=3,
            backend="parallel", n_procs=1 if why == "n_procs=1" else 2,
        )
        assert par.stats.mode == "serial-fallback"
        assert par.stats.fallback_reason.startswith(why)
        assert isinstance(par.stats.batch, int)
        np.testing.assert_array_equal(
            qr_factor(small_matrix, nb=8, ib=4, tree="hier", h=3).R, par.R
        )


class TestNoSecondPath:
    """The slice-dispatch fork, the one-shot spawn path and the per-op
    dispatcher stay deleted."""

    TREE = ast.parse(pathlib.Path(parallel_mod.__file__).read_text())

    def _code_strings(self):
        """String constants of ``parallel.py`` that are not docstrings."""
        docstrings = set()
        for node in ast.walk(self.TREE):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                body = node.body
                if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                    docstrings.add(id(body[0].value))
        return [
            node.value for node in ast.walk(self.TREE)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings
        ]

    def test_no_stack_message_and_no_wavefront_branch(self):
        strings = self._code_strings()
        assert "stack" not in strings and "wavefront" not in strings
        names = {n.id for n in ast.walk(self.TREE) if isinstance(n, ast.Name)}
        names |= {n.arg for n in ast.walk(self.TREE) if isinstance(n, ast.arg)}
        names |= {n.attr for n in ast.walk(self.TREE) if isinstance(n, ast.Attribute)}
        assert not [n for n in names if "wavefront" in n or n.startswith("group")]

    def test_signatures(self):
        assert "wavefronts" not in inspect.signature(execute_ops_parallel).parameters
        assert not hasattr(core_mod, "group_by_shape")

    def test_no_dispatcher_and_one_site_that_hands_out_ops(self):
        """The parent keeps no dependency counts and no ready pool, and op
        indices reach a worker from one place: its share in the lease (and,
        after a death, the adopt message built from the shares)."""
        names = {n.id for n in ast.walk(self.TREE) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(self.TREE) if isinstance(n, ast.Attribute)}
        assert not names & {"deps_left", "_ReadyPool", "heapq", "heappush", "heappop",
                            "csr_lists", "succ_task", "n_deps"}
        defs = {n.name for n in ast.walk(self.TREE) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        assert "dispatch" not in defs and "_ReadyPool" not in defs
        # No pool of ready ops: nothing called ``ready`` is pushed to or popped from.
        assert not [
            n for n in ast.walk(self.TREE)
            if isinstance(n, ast.Attribute) and n.attr in ("push", "pop", "append")
            and isinstance(n.value, ast.Name) and n.value.id == "ready"
        ]
        (run,) = [n for n in ast.walk(self.TREE)
                  if isinstance(n, ast.FunctionDef) and n.name == "execute_ops_parallel"]
        calls = [n for n in ast.walk(run) if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Attribute)]
        assert len([c for c in calls if c.func.attr == "lease"]) == 1
        sends = [c.args[0] for c in calls if c.func.attr == "send"]
        tagged = sorted(a.elts[0].value for a in sends if isinstance(a, ast.Tuple))
        # The only messages the parent builds per job, ``endjob`` the one terminator.
        assert tagged == ["adopt", "endjob", "resume"]
        assert [a for a in sends if not isinstance(a, ast.Tuple)] == []

    def test_pool_privacy_is_decided_once(self):
        """There is one pool, so nothing is private: the module builds one
        ``WorkerPool``, ``execute_ops_parallel`` takes no pool and names the
        kept one once, and decides once whether a job needs fresh workers."""
        built = [n for n in ast.walk(self.TREE) if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Name) and n.func.id == "WorkerPool"]
        assert len(built) == 1
        assert "pool" not in inspect.signature(execute_ops_parallel).parameters
        (run,) = [n for n in ast.walk(self.TREE)
                  if isinstance(n, ast.FunctionDef) and n.name == "execute_ops_parallel"]
        assert len([n for n in ast.walk(run) if isinstance(n, ast.Name) and n.id == "_KEPT"]) == 1
        fresh = [t for n in ast.walk(run) if isinstance(n, ast.Assign)
                 for t in n.targets if isinstance(t, ast.Name) and t.id == "fresh"]
        assert len(fresh) == 1

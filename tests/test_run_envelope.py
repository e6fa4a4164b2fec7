"""One shared segment per job, one envelope per run.

* a degraded run (``on_failure="fallback"``) finishes its checkpoint: the
  archive it leaves resumes with every op skipped, from ``qr_factor`` and
  from ``resume_factorization``, whether the backend failed before the
  first snapshot or after several;
* the four telemetry targets behave alike: a missing parent directory is
  created, an unwritable one raises ``ConfigurationError`` before the
  backend is entered, and a failing run leaves an old trace file alone;
* a job lives in exactly one shared-memory segment — tiles, ``T`` slots and
  completion flags — in a one-shot run and across a session's calls;
* structurally, the merged copies cannot grow back unnoticed, and the
  frozen public signatures stay what ``bench/`` and the floor tests call.
"""

from __future__ import annotations

import ast
import inspect
import os
import pathlib

import numpy as np
import pytest

import repro
import repro.qr.api as api_mod
import repro.qr.parallel as parallel_mod
from repro import QRSession, qr_factor
from repro.faults import FaultPlan
from repro.obs.validate import validate_run_telemetry
from repro.qr import resume_factorization
from repro.qr.persist import CheckpointStore
from repro.qr.schedule import schedule_for
from repro.qr.wavefront import execute_ops_batched
from repro.tiles import TileMatrix
from repro.tiles.shared import SharedTileStore, _segment_plan
from repro.trees.plan import TreeKind
from repro.util import ConfigurationError, ReproError

SRC = pathlib.Path(repro.__file__).parent
GEOMETRY = dict(nb=32, ib=16, tree="hier", h=2)
N_OPS = 32  # 256 x 64 under GEOMETRY
BACKENDS = [("serial", {}), ("batched", {}), ("parallel", {"n_procs": 2})]
BACKEND_IDS = [b for b, _ in BACKENDS]
#: Flips exactly op 17, on every execution the guard allows: whichever
#: schedule runs it, the backend fails there with 17 of 32 ops behind it.
FATAL = FaultPlan(seed=3, flip_rate=0.06, flip_attempts=3)


@pytest.fixture(scope="module")
def matrix():
    a = np.random.default_rng(0).standard_normal((256, 64))
    ref = qr_factor(a, **GEOMETRY)
    assert ref.counters["ops.total"] == N_OPS
    assert [i for i in range(N_OPS) if FATAL.flip(i, 0)] == [17]
    return a, ref


def _same_factors(f, ref):
    np.testing.assert_array_equal(f.R, ref.R)
    for got, want in zip(f._factors.records, ref._factors.records, strict=True):
        np.testing.assert_array_equal(got.t, want.t)


# -- (1) degraded runs finish their checkpoint ---------------------------------


@pytest.mark.parametrize("every_ops", [3, 10**6], ids=["after-several", "before-first"])
@pytest.mark.parametrize("backend,extra", BACKENDS, ids=BACKEND_IDS)
def test_degraded_run_leaves_a_complete_archive(matrix, tmp_path, backend, extra, every_ops):
    a, ref = matrix
    ck = CheckpointStore(tmp_path / "ck.npz", every_ops=every_ops, every_s=3600.0)
    f = qr_factor(a, **GEOMETRY, backend=backend, **extra, fault_plan=FATAL,
                  on_failure="fallback", checkpoint=ck)
    assert f.stats.mode == "serial-fallback" and "op 17" in f.stats.fallback_reason
    _same_factors(f, ref)
    done = resume_factorization(ck.path)
    assert done.ops_skipped == N_OPS
    _same_factors(done, ref)


@pytest.mark.parametrize("backend,extra", BACKENDS, ids=BACKEND_IDS)
def test_degraded_resume_leaves_a_complete_archive(matrix, tmp_path, backend, extra):
    a, ref = matrix
    mid = CheckpointStore(tmp_path / "mid.npz", every_ops=3, every_s=3600.0)
    with pytest.raises(ReproError):
        qr_factor(a, **GEOMETRY, backend=backend, **extra, fault_plan=FATAL, checkpoint=mid)
    assert mid.writes >= 2  # died mid-run, several snapshots in
    out = tmp_path / "out.npz"
    f = resume_factorization(mid.path, backend=backend, **extra, fault_plan=FATAL,
                             on_failure="fallback", checkpoint=out)
    assert 0 < f.ops_skipped < N_OPS
    assert f.stats.mode == "serial-fallback" and "resume failed" in f.stats.fallback_reason
    _same_factors(f, ref)
    assert resume_factorization(out).ops_skipped == N_OPS


# -- (2) telemetry targets ------------------------------------------------------

TARGETS = ["trace", "metrics", "events", "registry"]


@pytest.fixture
def backend_spy(monkeypatch):
    calls = []

    def spy(*args, **kw):
        calls.append(args[0])
        return real(*args, **kw)

    real = api_mod.run_backend
    monkeypatch.setattr(api_mod, "run_backend", spy)
    return calls


@pytest.mark.parametrize("backend,extra", [BACKENDS[0], BACKENDS[2]], ids=["serial", "parallel"])
def test_targets_create_a_missing_parent_directory(matrix, tmp_path, backend, extra):
    a, ref = matrix
    paths = {kw: tmp_path / "new" / kw / f"{kw}.out" for kw in TARGETS}
    f = qr_factor(a, **GEOMETRY, backend=backend, **extra, **paths)
    _same_factors(f, ref)
    assert all(p.stat().st_size > 0 for p in paths.values())
    validate_run_telemetry(paths["trace"], events=paths["events"])


@pytest.mark.parametrize("keyword", TARGETS)
@pytest.mark.parametrize("backend,extra", [BACKENDS[0], BACKENDS[2]], ids=["serial", "parallel"])
def test_unwritable_target_fails_before_the_backend(
        matrix, tmp_path, backend_spy, no_new_shm, backend, extra, keyword):
    a, _ = matrix
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory")
    for target in (blocker / "t.out", tmp_path):  # parent is a file; target is a directory
        with pytest.raises(ConfigurationError, match=f"{keyword}="):
            qr_factor(a, **GEOMETRY, backend=backend, **extra, **{keyword: target})
    assert backend_spy == []
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("backend,extra", [BACKENDS[0], BACKENDS[2]], ids=["serial", "parallel"])
def test_failing_run_leaves_an_old_trace_intact(matrix, tmp_path, backend, extra):
    a, _ = matrix
    trace = tmp_path / "t.json"
    trace.write_text("the previous run's trace")
    with pytest.raises(ReproError):
        qr_factor(a, **GEOMETRY, backend=backend, **extra, fault_plan=FATAL, trace=trace)
    assert trace.read_text() == "the previous run's trace"


# -- (3) one segment per job -----------------------------------------------------


def _store(a):
    tm = TileMatrix.from_dense(a, GEOMETRY["nb"])
    ops = schedule_for(TreeKind.HIER, 256, 64, 32, 16, 2, True).ops
    return tm, ops, SharedTileStore.create(tm, ops, GEOMETRY["ib"])


def test_flags_live_in_the_store_segment(matrix, no_new_shm):
    tm, ops, store = _store(matrix[0])
    try:
        assert _segment_plan(tm.layout, ops, 16)[2] % 64 == 0
        assert store.flags.shape == (len(ops),) and not store.flags.any()
        store.flags[3] = 1
        other = SharedTileStore.attach(store.name, tm.layout, ops, 16)
        assert other.flags[3] == 1 and other.flags.sum() == 1
        other.flags[5] = 1
        assert store.flags[5] == 1
        other.close()  # no BufferError: close() drops the flag view with the tile views
        # The flag bytes overlap neither a tile nor a T slot.
        store.flags[:] = 255
        for i, j, tile in tm.iter_tiles():
            np.testing.assert_array_equal(store.tile(i, j), tile)
        assert all(not t.any() for t in store.extract_ts().values())
        store.load(tm)
        assert not store.flags.any()
    finally:
        store.close()
        store.unlink()


def _new_segments(before):
    return set(os.listdir("/dev/shm")) - before


def test_one_shot_parallel_run_creates_one_segment(matrix, tmp_path, no_new_shm):
    a, ref = matrix
    seen = []
    ck = CheckpointStore(tmp_path / "ck.npz", every_ops=4,
                         on_write=lambda n: seen.append(_new_segments(no_new_shm)))
    f = qr_factor(a, **GEOMETRY, backend="parallel", n_procs=2, checkpoint=ck)
    assert f.stats.mode == "parallel"
    _same_factors(f, ref)
    assert len(seen) >= 2 and all(len(s) == 1 for s in seen) and len(set.union(*seen)) == 1


def test_session_keeps_one_segment_per_plan(matrix, tmp_path, no_new_shm):
    a, ref = matrix
    seen = []
    flips = FaultPlan(seed=17, flip_rate=0.3)
    with QRSession(n_procs=2) as sess:
        for call in range(2):
            ck = CheckpointStore(tmp_path / f"ck{call}.npz", every_ops=4,
                                 on_write=lambda n: seen.append(_new_segments(no_new_shm)))
            f = sess.factor(a, **GEOMETRY, checkpoint=ck, fault_plan=flips)
            _same_factors(f, ref)
            assert f.stats.sdc_injected > 0
            assert f.stats.sdc_detected == f.stats.sdc_recovered == f.stats.sdc_injected
        (entry,) = sess.plan_cache._entries.values()
        assert set.union(*seen) == {entry._arena.name} and all(len(s) == 1 for s in seen)


def test_job_header_names_one_segment(matrix, monkeypatch):
    headers = []
    lease = parallel_mod.WorkerPool.lease
    monkeypatch.setattr(parallel_mod.WorkerPool, "lease",
                        lambda self, k, job: headers.append(job) or lease(self, k, job))
    f = qr_factor(matrix[0], **GEOMETRY, backend="parallel", n_procs=2)
    (job,) = headers
    tag, shm_name, layout, ops, ib, fault_plan, run_id, *how_to_fire = job
    assert (tag, ib, fault_plan, run_id) == ("job", 16, None, f.run_id)
    assert isinstance(shm_name, str) and len(ops) == N_OPS


# -- (4) structure -----------------------------------------------------------------


def _trees(root: pathlib.Path):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text())


def _calls(tree, name):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name:
                yield node


def test_no_shared_arena_and_one_create_site():
    assert [p for p in SRC.rglob("*.py") if "SharedArena" in p.read_text()] == []
    creates = [
        (path.relative_to(SRC).as_posix(), call.lineno)
        for path, tree in _trees(SRC)
        for call in _calls(tree, "SharedMemory")
        if any(kw.arg == "create" and getattr(kw.value, "value", None) is True
               for kw in call.keywords)
    ]
    assert [p for p, _ in creates] == ["tiles/shared.py"]


def test_one_way_into_run_backend():
    callers = {
        path.name: len(list(_calls(tree, "run_backend")))
        for path, tree in _trees(SRC / "qr") if path.name != "backends.py"
    }
    assert {k: v for k, v in callers.items() if v} == {"api.py": 1}
    assert "from .backends import serial_fallback" not in (SRC / "qr" / "parallel.py").read_text()
    assert parallel_mod.serial_fallback is api_mod.serial_fallback


def test_certifier_cli_has_one_home():
    assert "certify" not in (SRC / "obs" / "validate.py").read_text()


def test_retired_options_stay_retired():
    from repro.analysis.races import certify_schedule, self_check
    from repro.dessim import simulate_vsa
    from repro.obs.monitor import render_dashboard
    from repro.obs.registry import anomaly_flags, build_record
    from repro.obs.sampler import MetricsSampler
    from repro.tiles.layout import TileLayout
    from repro.util.formatting import format_table

    retired = [
        (certify_schedule, "max_violations"), (self_check, "max_edges"),
        (anomaly_flags, "window"), (anomaly_flags, "wall_factor"),
        (render_dashboard, "n_events"), (simulate_vsa, "preload_available_at"),
        (parallel_mod.execute_ops_parallel, "max_redispatch"),
        (MetricsSampler.__init__, "rate_keys"), (build_record, "written"),
        (format_table, "min_width"), (TileLayout.nbytes, "dtype_size"),
    ]
    left = [(f.__qualname__, p) for f, p in retired if p in inspect.signature(f).parameters]
    assert left == []
    assert parallel_mod.MAX_REDISPATCH == 2


# -- (5) frozen signatures -----------------------------------------------------------


def _params(f):
    return [
        (name, p.kind.name, None if p.default is inspect.Parameter.empty else p.default)
        for name, p in inspect.signature(f).parameters.items() if name != "self"
    ]


def _kw(**defaults):
    return [(name, "KEYWORD_ONLY", default) for name, default in defaults.items()]


def _pos(*names):
    return [(name, "POSITIONAL_OR_KEYWORD", None) for name in names]


def test_public_signatures_are_unchanged():
    assert _params(qr_factor) == _pos("a") + _kw(
        nb=128, ib=32, tree=TreeKind.HIER, h=6, shifted=True, backend="serial",
        n_nodes=1, workers_per_node=1, policy="lazy", seed=None, n_procs=None,
        batch=None, trace=None, metrics=None, events=None, registry=None,
        fault_plan=None, on_failure="raise", checkpoint=None, session=None,
        verify_schedule=False,
    )
    assert _params(resume_factorization) == _pos("path") + _kw(
        backend="serial", n_procs=None, policy="lazy", batch=None,
        fault_plan=None, on_failure="raise", checkpoint=None,
    )
    assert _params(QRSession.__init__) == _kw(n_procs=None, plan_cache_size=8)
    assert _params(SharedTileStore.create) == _pos("a", "ops", "ib")
    assert _params(SharedTileStore.attach) == _pos("name", "layout", "ops", "ib")
    assert _params(SharedTileStore.close) == _params(SharedTileStore.unlink) == []
    assert _params(execute_ops_batched) == _pos("a", "ops", "ib") + _kw(
        wavefronts=None, fault_plan=None, checkpoint=None, skip=None, preloaded_ts=None,
    )

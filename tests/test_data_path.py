"""The data path of the process backend: one copy in, none out.

A dense input is tiled straight into the job's shared segment (the fresh one
of a one-shot call, the entry's arena of a session) in the one pass
``TileMatrix.from_dense`` makes; a result *is* that segment — a one-shot
call's, whose name is gone before the call returns and whose pages go with
the result, and a session's, good until the next ``factor`` on its geometry
loads the segment again (then every accessor raises ``StaleResultError``;
``detach()`` is the owned copy that stays).  Checked here: the tiling itself,
what the parent copies per call (spies and the run's own counts), how long
name, mapping and result live, when a later one-shot call may lay a mapping
out again (never while anything reads it), what a worker forked later
inherits, and what happens when ``/dev/shm`` is full.
"""

from __future__ import annotations

import copy
import errno
import gc
import multiprocessing as mp
import os
import pickle
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.qr.execute as core_mod
import repro.qr.parallel as parallel_mod
import repro.tiles.shared as shared_mod
from repro import QRSession, qr_factor
from repro.qr.parallel import execute_ops_parallel, shutdown_workers
from repro.qr.schedule import Schedule, schedule_for
from repro.tiles import TileMatrix
from repro.tiles.layout import TileLayout
from repro.tiles.shared import SharedTileStore, t_factor_key
from repro.trees import TreeKind
from repro.faults import FaultPlan
from repro.qr import CheckpointStore, resume_factorization, save_factorization
from repro.util import ParallelExecutionError, StaleResultError, WatchdogTimeout
from repro.util.validation import as_f64_matrix

pytestmark = pytest.mark.usefixtures("no_new_shm")

GEOMETRY = dict(nb=12, ib=4, tree="hier", h=2)
M, N = 90, 25  # ragged in both directions under nb=12


@pytest.fixture(scope="module")
def matrix():
    return np.random.default_rng(21).standard_normal((M, N))


@pytest.fixture(scope="module")
def serial(matrix):
    return qr_factor(matrix, **GEOMETRY)


def one_shot(a, **kw):
    return qr_factor(a, **{**GEOMETRY, **kw}, backend="parallel", n_procs=2)


def same_factors(f, ref):
    """``R``, every factored tile and every ``T``, bit for bit."""
    fa, ra = f._factors, ref._factors
    return (
        np.array_equal(f.R, ref.R)
        and all(np.array_equal(t, ra.a.tile(i, j)) for i, j, t in fa.a.iter_tiles())
        and len(fa.records) == len(ra.records)
        and all(np.array_equal(x.t, y.t) for x, y in zip(fa.records, ra.records))
    )


def shm_names():
    return set(os.listdir("/dev/shm"))


def mapped_segments(pid="self"):
    """The ``maps`` lines of ``pid`` that name a shared-memory segment."""
    with open(f"/proc/{pid}/maps") as fh:
        return [line for line in fh if "psm_" in line]


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc")


# -- tiling into a segment is from_dense ----------------------------------------


def _as_input(a, kind):
    if kind == "F":
        return np.asfortranarray(a)
    if kind == "strided":
        wide = np.zeros((2 * a.shape[0], 3 * a.shape[1]))
        wide[::2, ::3] = a
        return wide[::2, ::3]
    if kind == "float32":
        return a.astype(np.float32)
    if kind == "int":
        return np.rint(100 * a).astype(np.int64)
    return np.ascontiguousarray(a)


INPUT_KINDS = ["C", "F", "strided", "float32", "int"]


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 40), n=st.integers(1, 40), nb=st.integers(1, 13),
       kind=st.sampled_from(INPUT_KINDS), seed=st.integers(0, 2**16))
def test_tiling_into_a_segment_equals_from_dense(m, n, nb, kind, seed):
    x = _as_input(np.random.default_rng(seed).standard_normal((m, n)), kind)
    ref = TileMatrix.from_dense(x, nb)
    # No ops: a segment of tiles, no T slot, no flag, the pause byte.
    store = SharedTileStore.create(as_f64_matrix(x), Schedule(None, [], 1, TileLayout(m, n, nb)), 1)
    try:
        tm = store.matrix()
        assert tm.layout == ref.layout
        for i, j, tile in tm.iter_tiles():
            assert tile.flags.f_contiguous and not tile.flags.owndata
            assert tile.tobytes(order="A") == ref.tile(i, j).tobytes(order="A")
        del tm, tile
    finally:
        store.destroy()


@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_callers_array_is_untouched_and_factors_are_serial(matrix, kind):
    # An F-order input is where from_dense guards against aliasing: a full
    # tile's slice of it already is a TILE_ORDER-contiguous array.
    x = _as_input(matrix, kind)
    kept = x.copy()
    ref = qr_factor(x, **GEOMETRY)
    f = one_shot(x)
    with QRSession(n_procs=2) as sess:
        cold, warm = sess.factor(x, **GEOMETRY).detach(), sess.factor(x, **GEOMETRY)
    assert np.array_equal(x, kept) and x.dtype == kept.dtype
    assert all(same_factors(g, ref) for g in (f, cold, warm))


# -- what the parent copies per call --------------------------------------------


@pytest.fixture
def traffic(monkeypatch):
    """Bytes the parent copies into and out of a segment, and every call of a
    function the dense path no longer goes through (``extract_matrix`` is a
    ``TileMatrix.copy`` of the views; that one is the copy-out, counted there)."""
    seen = dict(bytes_in=0, bytes_out=0, loads=[], calls=[])
    extracting = []

    def nbytes(x):
        if isinstance(x, TileMatrix):
            return sum(t.nbytes for _, _, t in x.iter_tiles())
        return sum(t.nbytes for t in x.values()) if isinstance(x, dict) else x.nbytes

    raw_load = SharedTileStore.load

    def load(self, a):
        seen["loads"].append(type(a).__name__)
        seen["bytes_in"] += nbytes(a)
        return raw_load(self, a)

    def counted_out(name):
        raw = getattr(SharedTileStore, name)

        def method(self):
            seen["calls"].append(name)
            extracting.append(name)
            out = raw(self)
            extracting.pop()
            seen["bytes_out"] += nbytes(out)
            return out
        return method

    def counted(owner, name, wrap=lambda f: f):
        raw = getattr(owner, name)
        raw = getattr(raw, "__func__", raw)

        def method(*args, **kw):
            if not extracting:
                seen["calls"].append(name)
            return raw(*args, **kw)
        return wrap(method)

    monkeypatch.setattr(SharedTileStore, "load", load)
    monkeypatch.setattr(SharedTileStore, "extract_matrix", counted_out("extract_matrix"))
    monkeypatch.setattr(SharedTileStore, "extract_ts", counted_out("extract_ts"))
    monkeypatch.setattr(TileMatrix, "from_dense", counted(TileMatrix, "from_dense", classmethod))
    monkeypatch.setattr(TileMatrix, "copy", counted(TileMatrix, "copy"))
    return seen


def t_bytes(f):
    return sum(r.t.nbytes for r in f._factors.records)


def test_one_shot_copies_one_matrix_in_and_nothing_out(matrix, serial, traffic):
    for _ in range(2):  # first call and repeat call alike
        traffic.update(bytes_in=0, bytes_out=0, loads=[], calls=[])
        f = one_shot(matrix)
        assert f.stats.mode == "parallel" and same_factors(f, serial)
        assert traffic["loads"] == ["ndarray"] and traffic["calls"] == []
        assert (traffic["bytes_in"], traffic["bytes_out"]) == (matrix.nbytes, 0)
        assert not any(t.flags.owndata for _, _, t in f._factors.a.iter_tiles())


def test_session_copies_one_matrix_in_and_the_factors_out(matrix, serial, traffic):
    """... out only when asked: the call moves one matrix in and nothing out,
    ``detach()`` what every call used to copy — by the spies and by the
    run's own counts."""
    with QRSession(n_procs=2) as sess:
        for call in ("cold", "warm", "warm"):
            traffic.update(bytes_in=0, bytes_out=0, loads=[], calls=[])
            f = sess.factor(matrix, **GEOMETRY)
            assert f.stats.mode == "parallel" and same_factors(f, serial), call
            assert traffic["loads"] == ["ndarray"] and traffic["calls"] == [], call
            assert (traffic["bytes_in"], traffic["bytes_out"]) == (matrix.nbytes, 0), call
            assert (f.stats.bytes_in, f.stats.bytes_out) == (matrix.nbytes, 0), call
            assert f.stats.pipe_messages <= 8, call
            # The result is the session's segment, not a copy of it.
            (entry,) = sess.plan_cache._entries.values()
            arena = entry._arena
            assert all(np.shares_memory(t, arena.tile(i, j))
                       for i, j, t in f._factors.a.iter_tiles()), call
            assert all(np.shares_memory(r.t, arena.t_factor(t_factor_key(r)))
                       for r in f._factors.records), call
            owned = f.detach()
            assert traffic["calls"] == ["extract_ts", "extract_matrix"], call
            assert traffic["bytes_out"] == matrix.nbytes + t_bytes(f) == f.stats.bytes_out, call
            assert same_factors(owned, serial) and owned.detach() is owned, call
            assert all(t.flags.owndata for _, _, t in owned._factors.a.iter_tiles())
            assert all(r.t.flags.owndata for r in owned._factors.records)


# -- how long a session result lives ---------------------------------------------


def accessors(f, a):
    """Every way to the data of a result."""
    b = np.ones(a.shape[0])
    return [lambda: f.R, lambda: f.solve(b), lambda: f.q_matmul(b), lambda: f.qt_matmul(b),
            f.q_thin, lambda: f.residuals(a), f.detach, lambda: pickle.dumps(f),
            lambda: copy.deepcopy(f), lambda: save_factorization(os.devnull, f)]


def test_the_next_factor_on_its_geometry_makes_a_result_stale(matrix, serial, tmp_path):
    other = 3.0 - 2.0 * matrix  # other values everywhere: nothing recycled reads as right
    elsewhere = dict(GEOMETRY, tree="flat")
    with QRSession(n_procs=2) as sess:
        f = sess.factor(matrix, **GEOMETRY)
        kept = f.detach()
        sess.factor(matrix, **elsewhere)  # another geometry, another segment
        sess.factor(matrix, **GEOMETRY, backend="serial")  # nothing of the pool's
        assert same_factors(f, serial) and f.shape == (M, N)
        g = sess.factor(other, **GEOMETRY)
        for read in accessors(f, matrix):
            with pytest.raises(StaleResultError) as err:
                read()
            assert f.run_id in str(err.value) and g.run_id in str(err.value)
        assert f.shape == (M, N) and f.stats.mode == "parallel"  # not data: still there
        ref = qr_factor(other, **GEOMETRY)
        assert same_factors(g, ref) and same_factors(kept, serial)
        sess.factor(matrix, **GEOMETRY)
        with pytest.raises(StaleResultError):
            g.R
    shutdown_workers()
    assert same_factors(kept, serial) and same_factors(pickle.loads(pickle.dumps(kept)), serial)
    save_factorization(tmp_path / "kept.npz", kept)


@needs_proc
@pytest.mark.parametrize("how", ["close", "evict"])
def test_a_result_survives_the_session_that_made_it(matrix, serial, how, no_new_shm):
    gc.collect()  # what an earlier test's tracebacks still hold
    mapped = len(mapped_segments())
    sess = QRSession(n_procs=2, plan_cache_size=1)
    f = sess.factor(matrix, **GEOMETRY)
    if how == "evict":
        sess.factor(matrix, **dict(GEOMETRY, tree="flat"))  # the one slot goes to this one
        assert sess.plan_cache.stats.evictions == 1
    else:
        sess.close()
    assert len(shm_names() - no_new_shm) == (how == "evict"), "the name outlived its entry"
    gc.collect()
    assert same_factors(f, serial) and same_factors(f.detach(), serial)
    x = np.ones(N)
    assert np.allclose(f.solve(matrix @ x), x)
    sess.close()
    shutdown_workers()
    assert shm_names() <= no_new_shm and len(mapped_segments()) == mapped + 1
    assert same_factors(f, serial) and same_factors(copy.deepcopy(f), serial)
    del f
    gc.collect()
    assert len(mapped_segments()) == mapped, "the mapping outlived the result"


def test_a_degraded_session_call_returns_an_owned_result(matrix, serial, monkeypatch):
    with QRSession(n_procs=2) as sess:
        with monkeypatch.context() as patch:
            patch.setattr(shared_mod.os, "posix_fallocate",
                          lambda *a: (_ for _ in ()).throw(OSError(errno.ENOSPC, "full")))
            f = sess.factor(matrix, **GEOMETRY)
        assert f.stats.mode == "serial-fallback" and f.detach() is f
        sess.factor(3.0 - matrix, **GEOMETRY)
        sess.factor(3.0 - matrix, **GEOMETRY)
        assert same_factors(f, serial)


def test_session_results_under_faults_and_hooks_are_views_and_bit_exact(matrix, serial, tmp_path):
    with QRSession(n_procs=2) as sess:
        cases = dict(
            crash=dict(fault_plan=FaultPlan(crash_workers={1: 5})),
            flips=dict(fault_plan=FaultPlan(seed=17, flip_rate=0.3)),
            checkpoint=dict(checkpoint=CheckpointStore(tmp_path / "c.npz", every_ops=7, every_s=3600.0)),
            trace=dict(trace=tmp_path / "t.json"),
            fallback=dict(on_failure="fallback"),
        )
        for name, kw in cases.items():
            f = sess.factor(matrix, **GEOMETRY, **kw)
            assert f.stats.mode == "parallel" and same_factors(f, serial), name
            assert f.detach() is not f and same_factors(f.detach(), serial), name
        assert f.stats.bytes_out > 0 and f.stats.workers_died == 0
    resumed = resume_factorization(tmp_path / "c.npz", backend="parallel", n_procs=2)
    assert same_factors(resumed, serial) and resumed.detach() is resumed


def test_a_tile_matrix_input_is_copied_once(matrix, serial, traffic):
    tm = TileMatrix.from_dense(matrix, GEOMETRY["nb"])
    traffic.update(calls=[])
    f = one_shot(tm)
    assert same_factors(f, serial)
    assert traffic["loads"] == ["TileMatrix"] and traffic["calls"] == []
    assert (traffic["bytes_in"], traffic["bytes_out"]) == (matrix.nbytes, 0)
    assert np.array_equal(tm.to_dense(), matrix)  # the caller's tiles are not the job's


def test_fallback_takes_its_pristine_copy_from_the_segment(matrix, serial, traffic):
    # on_failure="fallback" is the one extra copy, as at every commit before:
    # segment -> owned tiles, taken before the backend runs.
    f = one_shot(matrix, on_failure="fallback")
    assert same_factors(f, serial)
    assert traffic["loads"] == ["ndarray"] and traffic["calls"] == ["copy"]


# -- how long the name and the mapping live -------------------------------------


@needs_proc
def test_a_one_shot_result_outlives_everything_but_itself(matrix, serial, no_new_shm):
    mapped = len(mapped_segments())
    f = one_shot(matrix)
    assert shm_names() <= no_new_shm, "the name outlived the call"
    assert len(mapped_segments()) == mapped + 1
    assert any("(deleted)" in line for line in mapped_segments())
    shutdown_workers()
    assert same_factors(f, serial)
    other = np.random.default_rng(5).standard_normal((M, N))
    g = one_shot(other)  # same geometry, another segment
    assert shm_names() <= no_new_shm and len(mapped_segments()) == mapped + 2
    gc.collect()
    assert same_factors(f, serial) and same_factors(g, qr_factor(other, **GEOMETRY))
    x = np.ones(N)
    assert np.allclose(f.solve(matrix @ x), x)
    blob, twin = pickle.dumps(f), copy.deepcopy(f)
    del f, g
    gc.collect()
    # ``f``'s pool is gone, so its segment was its own; ``g``'s is the kept
    # pool's spare until that pool ends.
    assert len(mapped_segments()) == mapped + 1, "a mapping outlived its result and its pool"
    assert one_shot(matrix).stats.segment_recycled
    shutdown_workers()
    assert len(mapped_segments()) == mapped, "the mapping outlived the pool"
    for h in (pickle.loads(blob), twin):
        assert same_factors(h, serial)


@needs_proc
def test_one_array_of_the_result_keeps_the_pages(matrix, serial):
    mapped = len(mapped_segments())
    f = one_shot(matrix)
    tile, want = f._factors.a.tile(1, 1), serial._factors.a.tile(1, 1)
    del f
    gc.collect()
    assert len(mapped_segments()) == mapped + 1 and np.array_equal(tile, want)
    shutdown_workers()  # no pool, no spare: the pages are the tile's alone
    assert len(mapped_segments()) == mapped + 1 and np.array_equal(tile, want)
    del tile
    assert len(mapped_segments()) == mapped


def _staged(matrix):
    """What the run envelope hands the pool for a dense one-shot call."""
    sched = schedule_for(TreeKind.HIER, M, N, GEOMETRY["nb"], GEOMETRY["ib"], 2, True)
    store = SharedTileStore.create(matrix, sched, GEOMETRY["ib"])
    return sched, store


@needs_proc
@pytest.mark.parametrize("failure", [WatchdogTimeout, ParallelExecutionError])
def test_a_failed_run_leaves_neither_name_nor_mapping(matrix, serial, monkeypatch, failure,
                                                      no_new_shm):
    mapped = len(mapped_segments())

    def wedge(store, op, ib):
        time.sleep(60.0)

    me, raw_run_op = os.getpid(), core_mod.run_op

    def boom(store, op, ib):  # in a worker; the parent's fallback run is spared
        if os.getpid() != me:
            raise RuntimeError("kernel blew up")
        raw_run_op(store, op, ib)

    with monkeypatch.context() as patch:
        patch.setattr(core_mod, "run_op", wedge if failure is WatchdogTimeout else boom)
        sched, store = _staged(matrix)
        with pytest.raises(failure):
            execute_ops_parallel(store.matrix(), sched.ops, GEOMETRY["ib"], n_procs=2,
                                 assignment=sched.assignment, arena=store, timeout_s=0.5)
    assert shm_names() <= no_new_shm and len(mapped_segments()) == mapped
    assert mp.active_children() == []
    with monkeypatch.context() as patch:
        patch.setattr(core_mod, "run_op", boom)
        with pytest.raises(ParallelExecutionError, match="kernel blew up"):
            one_shot(matrix)
        assert same_factors(one_shot(matrix, on_failure="fallback"), serial)
    assert shm_names() <= no_new_shm and len(mapped_segments()) == mapped
    assert same_factors(one_shot(matrix), serial)


def test_a_bad_option_after_staging_leaves_nothing(matrix, no_new_shm):
    from repro.util import ConfigurationError

    with pytest.raises(ConfigurationError):
        one_shot(matrix, policy="eager")
    assert shm_names() <= no_new_shm


# -- the segment the last call left behind -----------------------------------------
#
# A clean one-shot call leaves its (unlinked) mapping to the kept pool; a later
# call under the same op list loads its input into it — once no array made of
# it, and no view of one, is alive.


def inputs(n, seed=31):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((M, N)) for _ in range(n)]


def test_a_recycled_call_makes_maps_attaches_and_unlinks_nothing(matrix, serial, monkeypatch,
                                                                 tmp_path, no_new_shm):
    log = tmp_path / "calls"
    log.touch()

    def logged(owner, name, what, wrap=lambda f: f):
        raw = getattr(owner, name)
        raw = getattr(raw, "__func__", raw)

        def spy(*args, **kw):  # to a file: a worker forked from here logs there too
            if what != "create" or kw.get("create"):
                with open(log, "a") as fh:
                    fh.write(f"{what}\n")
            return raw(*args, **kw)
        monkeypatch.setattr(owner, name, wrap(spy))

    logged(shared_mod.shared_memory.SharedMemory, "__init__", "create")
    logged(shared_mod.shared_memory.SharedMemory, "unlink", "unlink")
    logged(shared_mod.os, "posix_fallocate", "fallocate")
    logged(SharedTileStore, "attach", "attach", classmethod)
    seen = []
    for call in range(5):
        log.write_text("")
        f = one_shot(matrix)  # rebinding: result k is alive while call k + 1 runs
        assert shm_names() <= no_new_shm and same_factors(f, serial)
        seen.append(sorted(log.read_text().split()))
        assert f.stats.segment_recycled == (call >= 2)
        assert f.stats.pipe_messages == (6 if call == 0 else 8)  # spawned: header in the fork
        assert (f.stats.bytes_in, f.stats.bytes_out) == (matrix.nbytes, 0)
    fresh = ["attach", "attach", "create", "fallocate", "unlink"]
    assert seen == [fresh, fresh, [], [], []]


def test_more_live_results_than_spares_stay_their_own(no_new_shm):
    held = [(a, one_shot(a)) for a in inputs(3)]
    assert not any(f.stats.segment_recycled for _, f in held)  # each in the other's way
    refs = [qr_factor(a, **GEOMETRY) for a, _ in held]
    for k, a in enumerate(inputs(5, seed=32)):
        g = one_shot(a)
        assert shm_names() <= no_new_shm
        assert g.stats.segment_recycled == (k >= 2)  # its own two segments, taking turns
        assert same_factors(g, qr_factor(a, **GEOMETRY))
        assert all(same_factors(f, ref) for (_, f), ref in zip(held, refs))


def test_a_view_of_a_tile_view_keeps_its_segment_out_of_reuse(matrix, serial):
    f = one_shot(matrix)
    corner, want = f._factors.a.tile(1, 1)[2:5, 1:][::2], serial._factors.a.tile(1, 1)[2:5, 1:][::2]
    del f
    gc.collect()
    other = 3.0 - 2.0 * matrix  # other values everywhere
    g = one_shot(other)
    assert not g.stats.segment_recycled
    assert same_factors(g, qr_factor(other, **GEOMETRY)) and np.array_equal(corner, want)
    del corner, g
    assert one_shot(matrix).stats.segment_recycled


def test_a_result_in_a_cycle_delays_reuse_until_collected(matrix, serial):
    class Node:
        pass

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        node = Node()
        node.me, node.f = node, one_shot(matrix)
        kept, ref = node.f._factors.a.tile(0, 0), serial._factors.a.tile(0, 0).copy()
        del node  # unreachable, not collected: its arrays still hold the root
        g = one_shot(3.0 - matrix)
        assert not g.stats.segment_recycled and np.array_equal(kept, ref)
        del g, kept
        gc.collect()
        assert one_shot(matrix).stats.segment_recycled
    finally:
        if was_enabled:
            gc.enable()


def test_another_plan_never_matches_a_spare(matrix, serial):
    # binary and greedy lay 90 x 25 out in segments of one size, under two op lists.
    trees = [schedule_for(TreeKind.coerce(t), M, N, 12, 4, 2, True) for t in ("binary", "greedy")]
    sizes = {sched.segment_plan()[2] + len(sched.ops) for sched in trees}
    assert len(sizes) == 1 and trees[0].ops != trees[1].ops
    one_shot(matrix)
    spares = parallel_mod._KEPT.spares
    assert len(spares) == 1 and spares[0][2]() is None  # there for the taking
    others = (dict(nb=16), dict(ib=6), dict(tree="binary"), dict(tree="greedy"), dict(tree="binary"))
    for k, kw in enumerate(others):
        f = one_shot(matrix, **kw)
        assert f.stats.segment_recycled == (k == 4), kw  # binary's own, not greedy's
        assert same_factors(f, qr_factor(matrix, **{**GEOMETRY, **kw})), kw
    f = one_shot(matrix)  # its spare fell off the list long ago: a fresh one
    assert not f.stats.segment_recycled and same_factors(f, serial)
    # An equal list is not the list: the layout is a function of the object.
    ops = schedule_for(TreeKind.HIER, M, N, 12, 4, 2, True).ops
    del f
    assert parallel_mod._KEPT.take_spare(list(ops), 4, 2) is None
    assert parallel_mod._KEPT.take_spare(ops, 8, 2) is None
    assert parallel_mod._KEPT.take_spare(ops, 4, 3) is None  # rank 2 maps nothing
    assert parallel_mod._KEPT.take_spare(ops, 4, 2) is not None


def test_threads_get_the_factors_of_their_own_inputs(no_new_shm):
    mine = {t: inputs(3, seed=40 + t) for t in range(3)}
    got, errors = {t: [] for t in mine}, []

    def call(t):
        try:
            for a in mine[t]:
                got[t].append(one_shot(a))
        except BaseException as exc:  # surfaced below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=call, args=(t,)) for t in mine]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=120)
    assert not any(th.is_alive() for th in threads) and not errors
    assert shm_names() <= no_new_shm
    for t, fs in got.items():
        assert len(fs) == 3
        assert all(same_factors(f, qr_factor(a, **GEOMETRY)) for f, a in zip(fs, mine[t]))


@needs_proc
def test_shutdown_workers_gives_every_mapping_back(matrix, serial):
    gc.collect()
    mapped = len(mapped_segments())
    for a in (matrix, 2.0 * matrix, 3.0 * matrix):
        f = one_shot(a)
    assert f.stats.segment_recycled
    workers = [p.pid for p in parallel_mod._KEPT.procs.values()]
    assert [len(mapped_segments(pid)) for pid in workers] == [2, 2]
    del f
    assert len(mapped_segments()) == mapped + 2  # nobody's result: the pool's
    shutdown_workers()
    assert len(mapped_segments()) == mapped
    assert not any(os.path.exists(f"/proc/{pid}") for pid in workers)


@needs_proc
@pytest.mark.skipif(mp.get_start_method() != "fork", reason="inheritance is a property of fork")
def test_a_child_forked_while_spares_exist_makes_its_own(matrix, serial):
    one_shot(matrix)
    (spare,) = parallel_mod._KEPT.spares
    pid = os.fork()
    if pid == 0:  # the child: the spare is mapped in its parent only
        code = 1
        try:
            ok = parallel_mod._KEPT.spares == [] and not mapped_segments()
            first, second = one_shot(matrix), one_shot(3.0 - matrix)
            ok = ok and not first.stats.segment_recycled and second.stats.segment_recycled is False
            ok = ok and same_factors(first, serial)
            del first, second
            ok = ok and one_shot(matrix).stats.segment_recycled
            shutdown_workers()
            code = 0 if ok and not mapped_segments() else 2
        finally:
            os._exit(code)
    assert os.waitpid(pid, 0)[1] == 0
    assert parallel_mod._KEPT.spares == [spare]
    f = one_shot(matrix)
    assert f.stats.segment_recycled and same_factors(f, serial)


# -- /dev/shm exhaustion is an OSError, and an OSError is a fallback -------------


@pytest.fixture
def shm_full(monkeypatch):
    calls = []

    def fallocate(fd, offset, size):
        calls.append(size)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(shared_mod.os, "posix_fallocate", fallocate)
    return calls


def test_one_shot_on_a_full_dev_shm_degrades_to_serial(matrix, serial, shm_full, no_new_shm):
    f = one_shot(matrix)
    assert shm_full and same_factors(f, serial)
    assert f.stats.mode == "serial-fallback"
    assert "shared memory unavailable" in f.stats.fallback_reason
    assert "No space left" in f.stats.fallback_reason
    assert shm_names() <= no_new_shm and mp.active_children() == []


def test_a_busy_spare_on_a_full_dev_shm_degrades_to_serial(matrix, serial, monkeypatch,
                                                            no_new_shm):
    held = one_shot(matrix)  # its segment is the pool's spare, and in use
    with monkeypatch.context() as patch:
        patch.setattr(shared_mod.os, "posix_fallocate",
                      lambda *a: (_ for _ in ()).throw(OSError(errno.ENOSPC, "full")))
        f = one_shot(3.0 - matrix)
        assert f.stats.mode == "serial-fallback" and "shared memory unavailable" in f.stats.fallback_reason
        assert same_factors(f, qr_factor(3.0 - matrix, **GEOMETRY)) and same_factors(held, serial)
        del held
        g = one_shot(matrix)  # free now: no segment is made, so none can fail
        assert g.stats.mode == "parallel" and g.stats.segment_recycled and same_factors(g, serial)
    assert shm_names() <= no_new_shm


def test_cold_session_call_on_a_full_dev_shm_degrades_to_serial(matrix, serial, shm_full,
                                                                no_new_shm):
    with QRSession(n_procs=2) as sess:
        f = sess.factor(matrix, **GEOMETRY)
        assert shm_full and same_factors(f, serial)
        assert f.stats.mode == "serial-fallback"
        assert "shared memory unavailable" in f.stats.fallback_reason
        assert shm_names() <= no_new_shm
        shm_full_calls = len(shm_full)
        assert same_factors(sess.factor(matrix, **GEOMETRY), serial)  # and again, not cached
        assert len(shm_full) > shm_full_calls


def test_the_pages_are_reserved_when_the_segment_is_created(matrix, monkeypatch):
    reserved = []
    raw = os.posix_fallocate
    monkeypatch.setattr(shared_mod.os, "posix_fallocate",
                        lambda fd, off, size: reserved.append((off, size)) or raw(fd, off, size))
    sched, store = _staged(matrix)
    try:
        assert reserved == [(0, store._map.size())]
    finally:
        store.destroy()


# -- a worker forked later inherits no result -----------------------------------


@needs_proc
@pytest.mark.skipif(mp.get_start_method() != "fork", reason="inheritance is a property of fork")
def test_workers_forked_while_results_live_map_none_of_them(matrix, serial, monkeypatch):
    names = []
    raw_create = SharedTileStore.create.__func__

    def create(cls, *args):
        store = raw_create(cls, *args)
        names.append(store.name)
        return store

    monkeypatch.setattr(SharedTileStore, "create", classmethod(create))
    mapped = len(mapped_segments())
    first = one_shot(matrix)
    shutdown_workers()
    second = one_shot(matrix)  # forks the kept pool while ``first`` is alive
    with QRSession(n_procs=2) as sess:  # and a session pool while both are
        assert same_factors(sess.factor(matrix, **GEOMETRY), serial)
        (before, served, arena) = names
        assert len(mapped_segments()) == mapped + 3
        # A worker maps what it attached itself — the segment it served, kept
        # for the next call — and nothing that was mapped when it was forked.
        for pool, own in ((parallel_mod._KEPT, served), (sess.pool, arena)):
            assert len(pool.procs) == 2
            for p in pool.procs.values():
                lines = mapped_segments(p.pid)
                assert len(lines) == 1 and own in lines[0], f"{p.name} maps {lines}"
                assert ("(deleted)" in lines[0]) == (own is served)
    assert same_factors(first, serial) and same_factors(second, serial)
    del first, second
    gc.collect()
    assert len(mapped_segments()) == mapped + 1  # the kept pool's spare
    shutdown_workers()
    assert len(mapped_segments()) == mapped

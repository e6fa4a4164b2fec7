"""The data path of the process backend: one copy in, none out.

A dense input is tiled straight into the job's shared segment in the one
pass ``TileMatrix.from_dense`` makes; a result *is* that segment's views,
session or not.  A finished run's segment joins the process's free list
(two entries, each with its descriptor, its views and its record skeleton),
and a later call under the same op list loads its input into one only once
the result made of it is gone — so a result stays valid for as long as it
lives, and a copy is made only when asked (pickling, ``copy.deepcopy``).
Checked here: the tiling itself, what the parent copies per call (spies and
the run's own counts), how long descriptor, mapping and result live, when a
later call may load a segment again (never while its result is alive), what
a worker forked later inherits, that nothing is ever named, what happens
when the pages cannot be had, and both rules end to end in a ``-X dev -W
error`` child.
"""

from __future__ import annotations

import copy
import errno
import gc
import multiprocessing as mp
import os
import pickle
import subprocess
import sys
import textwrap
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
from repro.util import ParallelExecutionError, WatchdogTimeout
from repro.util.validation import as_f64_matrix
from tests.conftest import segment_descriptors

pytestmark = pytest.mark.usefixtures("no_new_shm")

GEOMETRY = dict(nb=12, ib=4, tree="hier", h=2)
M, N = 90, 25  # ragged in both directions under nb=12
SRC = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(parallel_mod.__file__))))


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
        cold, warm = sess.factor(x, **GEOMETRY), sess.factor(x, **GEOMETRY)
    assert np.array_equal(x, kept) and x.dtype == kept.dtype
    assert all(same_factors(g, ref) for g in (f, cold, warm))


# -- what the parent copies per call --------------------------------------------


@pytest.fixture
def traffic(monkeypatch):
    """Bytes the parent copies into a segment, and every call of a function
    the dense path no longer goes through."""
    seen = dict(bytes_in=0, loads=[], calls=[])

    def nbytes(x):
        if isinstance(x, TileMatrix):
            return sum(t.nbytes for _, _, t in x.iter_tiles())
        return x.nbytes

    raw_load = SharedTileStore.load

    def load(self, a):
        seen["loads"].append(type(a).__name__)
        seen["bytes_in"] += nbytes(a)
        return raw_load(self, a)

    def counted(owner, name, wrap=lambda f: f):
        raw = getattr(owner, name)
        raw = getattr(raw, "__func__", raw)

        def method(*args, **kw):
            seen["calls"].append(name)
            return raw(*args, **kw)
        return wrap(method)

    monkeypatch.setattr(SharedTileStore, "load", load)
    monkeypatch.setattr(TileMatrix, "from_dense", counted(TileMatrix, "from_dense", classmethod))
    monkeypatch.setattr(TileMatrix, "copy", counted(TileMatrix, "copy"))
    return seen


def test_one_shot_copies_one_matrix_in_and_nothing_out(matrix, serial, traffic):
    for _ in range(2):  # first call and repeat call alike
        traffic.update(bytes_in=0, loads=[], calls=[])
        f = one_shot(matrix)
        assert f.stats.mode == "parallel" and same_factors(f, serial)
        assert traffic["loads"] == ["ndarray"] and traffic["calls"] == []
        assert traffic["bytes_in"] == f.stats.bytes_in == matrix.nbytes
        assert not any(t.flags.owndata for _, _, t in f._factors.a.iter_tiles())


def test_session_copies_one_matrix_in_and_the_factors_out(matrix, serial, traffic):
    """... out only when asked: the call moves one matrix in and nothing out,
    and a copy of the result (``copy.deepcopy``, pickling) is the owned one."""
    with QRSession(n_procs=2) as sess:
        for call in ("cold", "warm", "warm"):
            traffic.update(bytes_in=0, loads=[], calls=[])
            f = sess.factor(matrix, **GEOMETRY)
            assert f.stats.mode == "parallel" and same_factors(f, serial), call
            assert traffic["loads"] == ["ndarray"] and traffic["calls"] == [], call
            assert traffic["bytes_in"] == f.stats.bytes_in == matrix.nbytes, call
            assert f.stats.pipe_messages <= 8, call
            # The result is the segment the run gave back, not a copy of it.
            store, _, result = parallel_mod._FREE[0]
            assert result() is f._factors, call
            assert all(np.shares_memory(t, store.tile(i, j))
                       for i, j, t in f._factors.a.iter_tiles()), call
            assert all(np.shares_memory(r.t, store.t_factor(t_factor_key(r)))
                       for r in f._factors.records), call
            owned = copy.deepcopy(f)
            assert traffic["calls"] == [], call
            assert same_factors(owned, serial), call
            assert all(t.flags.owndata for _, _, t in owned._factors.a.iter_tiles())
            assert all(r.t.flags.owndata for r in owned._factors.records)


# -- how long a session result lives ---------------------------------------------


def accessors(f, a):
    """Every way to the data of a result."""
    b = np.ones(a.shape[0])
    return [lambda: f.R, lambda: f.solve(b), lambda: f.q_matmul(b), lambda: f.qt_matmul(b),
            f.q_thin, lambda: f.residuals(a), lambda: pickle.dumps(f),
            lambda: copy.deepcopy(f), lambda: save_factorization(os.devnull, f)]


def test_a_kept_session_result_stays_valid_across_later_calls(matrix, serial, tmp_path):
    other = 3.0 - 2.0 * matrix  # other values everywhere: a reloaded segment reads as wrong
    elsewhere = dict(GEOMETRY, tree="flat")
    b = np.ones(M)
    with QRSession(n_procs=2) as sess:
        f = sess.factor(matrix, **GEOMETRY)
        sess.factor(matrix, **elsewhere)  # another geometry, another segment
        sess.factor(matrix, **GEOMETRY, backend="serial")  # nothing of the pool's
        for _ in range(4):  # the free segments take turns; f's is not one of them
            g = sess.factor(other, **GEOMETRY)
            assert same_factors(f, serial) and f.shape == (M, N)
        assert same_factors(g, qr_factor(other, **GEOMETRY))
        for read in accessors(f, matrix):
            read()  # every way to the data works
        assert np.array_equal(f.solve(b), serial.solve(b))
    shutdown_workers()
    assert same_factors(f, serial) and same_factors(pickle.loads(pickle.dumps(f)), serial)
    save_factorization(tmp_path / "kept.npz", f)


@needs_proc
@pytest.mark.parametrize("how", ["close", "evict"])
def test_a_result_survives_the_session_that_made_it(matrix, serial, how, no_new_shm):
    gc.collect()  # what an earlier test's tracebacks still hold
    mapped, before = len(mapped_segments()), set(segment_descriptors())
    sess = QRSession(n_procs=2)
    f = sess.factor(matrix, **GEOMETRY)
    assert len(set(segment_descriptors()) - before) == 1  # the free list keeps it
    if how == "evict":
        schedule_for.cache_clear()  # the memo drops the geometry's plan
        sess.factor(matrix, **GEOMETRY)  # on a plan derived again
        assert sess.health()["plan_cache"] == {"hits": 1, "misses": 1}
    else:
        sess.close()
    gc.collect()
    assert same_factors(f, serial)
    x = np.ones(N)
    assert np.allclose(f.solve(matrix @ x), x)
    sess.close()
    shutdown_workers()
    assert shm_names() <= no_new_shm and len(mapped_segments()) == mapped + 1
    assert set(segment_descriptors()) <= before, "a descriptor outlived the free list"
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
        assert f.stats.mode == "serial-fallback"
        assert all(t.flags.owndata for _, _, t in f._factors.a.iter_tiles())
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
            assert not any(t.flags.owndata for _, _, t in f._factors.a.iter_tiles()), name
        assert f.stats.workers_died == 0
    resumed = resume_factorization(tmp_path / "c.npz", backend="parallel", n_procs=2)
    assert same_factors(resumed, serial)


def test_a_tile_matrix_input_is_copied_once(matrix, serial, traffic):
    tm = TileMatrix.from_dense(matrix, GEOMETRY["nb"])
    traffic.update(calls=[])
    f = one_shot(tm)
    assert same_factors(f, serial)
    assert traffic["loads"] == ["TileMatrix"] and traffic["calls"] == []
    assert traffic["bytes_in"] == matrix.nbytes
    assert np.array_equal(tm.to_dense(), matrix)  # the caller's tiles are not the job's


def test_fallback_takes_its_pristine_copy_from_the_segment(matrix, serial, traffic):
    # on_failure="fallback" is the one extra copy, as at every commit before:
    # segment -> owned tiles, taken before the backend runs.
    f = one_shot(matrix, on_failure="fallback")
    assert same_factors(f, serial)
    assert traffic["loads"] == ["ndarray"] and traffic["calls"] == ["copy"]


# -- how long the descriptor and the mapping live -------------------------------


@needs_proc
def test_a_one_shot_result_outlives_everything_but_itself(matrix, serial, no_new_shm):
    mapped, before = len(mapped_segments()), set(segment_descriptors())
    f = one_shot(matrix)
    assert len(set(segment_descriptors()) - before) == 1  # the free list's, not the result's
    assert len(mapped_segments()) == mapped + 1
    assert any("(deleted)" in line for line in mapped_segments())
    shutdown_workers()
    assert set(segment_descriptors()) <= before, "the descriptor outlived the free list"
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
    # ``f``'s segment left the free list with the pool; ``g``'s is on it
    # until the list is given back.
    assert len(mapped_segments()) == mapped + 1, "a mapping outlived its result and the list"
    assert one_shot(matrix).stats.segment_recycled
    shutdown_workers()
    assert len(mapped_segments()) == mapped, "the mapping outlived the free list"
    for h in (pickle.loads(blob), twin):
        assert same_factors(h, serial)


@pytest.mark.parametrize("backend", ["serial", "parallel"])
@pytest.mark.parametrize("keyword,name", [("trace", "t.json"), ("metrics", "m.jsonl"),
                                          ("events", "e.jsonl")])
def test_a_recorded_result_pickles_and_copies(tmp_path, matrix, serial, backend, keyword, name):
    # The copy carries the factors and a plain snapshot of the counters, not
    # the live recorder with its locks and gauge callables.
    f = qr_factor(matrix, **GEOMETRY, backend=backend, n_procs=2, **{keyword: tmp_path / name})
    assert f.recorder is not None
    for h in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert same_factors(h, f) and same_factors(h, serial)
        assert h.recorder is None and h.counters == f.counters and h.counters["ops.total"] > 0
    assert f.recorder is not None  # the original keeps its recorder


@needs_proc
def test_one_array_of_the_result_keeps_the_pages(matrix, serial):
    mapped = len(mapped_segments())
    f = one_shot(matrix)
    tile, want = f._factors.a.tile(1, 1), serial._factors.a.tile(1, 1)
    del f
    gc.collect()
    assert len(mapped_segments()) == mapped + 1 and np.array_equal(tile, want)
    shutdown_workers()  # no free list: the pages are the tile's alone
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
            execute_ops_parallel(store.matrix(), sched, GEOMETRY["ib"], n_procs=2,
                                 arena=store, timeout_s=0.5)
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
# A clean call leaves its segment, descriptor and views with it, to the free list;
# a later call under the same op list loads its input into it — once the factors
# object of the result made of it is gone.


def inputs(n, seed=31):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((M, N)) for _ in range(n)]


def test_a_recycled_call_makes_maps_attaches_and_unlinks_nothing(matrix, serial, monkeypatch,
                                                                 tmp_path, no_new_shm):
    """A fresh segment is made, reserved, sent to each worker and mapped
    there; a recycled one does none of that, and nobody closes a descriptor
    while the free list has room."""
    log = tmp_path / "calls"
    log.touch()

    def logged(owner, name, what, wrap=lambda f: f):
        raw = getattr(owner, name)
        raw = getattr(raw, "__func__", raw)

        def spy(*args, **kw):  # to a file: a worker forked from here logs there too
            if what != "close" or args[0]._owner:  # the creator's descriptor, once
                with open(log, "a") as fh:
                    fh.write(f"{what}\n")
            return raw(*args, **kw)
        monkeypatch.setattr(owner, name, wrap(spy))

    logged(shared_mod.os, "memfd_create", "create")
    logged(shared_mod.os, "posix_fallocate", "fallocate")
    logged(parallel_mod, "_send_descriptor", "send")
    logged(SharedTileStore, "attach", "attach", classmethod)
    logged(SharedTileStore, "unlink", "close")
    seen = []
    for call in range(5):
        log.write_text("")
        f = one_shot(matrix)  # rebinding: result k is alive while call k + 1 runs
        assert shm_names() <= no_new_shm and same_factors(f, serial)
        seen.append(sorted(log.read_text().split()))
        assert f.stats.segment_recycled == (call >= 2)
        assert f.stats.pipe_messages == (6 if call == 0 else 8)  # spawned: header in the fork
        assert f.stats.bytes_in == matrix.nbytes
    fresh = ["attach", "attach", "create", "fallocate", "send", "send"]
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


def test_held_factors_keep_their_segment_out_of_reuse(matrix, serial):
    """The factors object of a result is what the free list watches: held
    on its own, it keeps the segment out of reuse as the result does."""
    f = one_shot(matrix)
    factors, want = f._factors, serial._factors.a.tile(1, 1).copy()
    del f
    gc.collect()
    other = 3.0 - 2.0 * matrix  # other values everywhere
    g = one_shot(other)
    assert not g.stats.segment_recycled
    assert same_factors(g, qr_factor(other, **GEOMETRY))
    assert np.array_equal(factors.a.tile(1, 1), want)
    del factors
    assert one_shot(matrix).stats.segment_recycled  # ``g`` is alive: that was f's


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
    free = parallel_mod._FREE
    assert len(free) == 1 and free[0][2]() is None  # there for the taking
    others = (dict(nb=16), dict(ib=6), dict(tree="binary"), dict(tree="greedy"), dict(tree="binary"))
    for k, kw in enumerate(others):
        f = one_shot(matrix, **kw)
        assert f.stats.segment_recycled == (k == 4), kw  # binary's own, not greedy's
        assert same_factors(f, qr_factor(matrix, **{**GEOMETRY, **kw})), kw
    f = one_shot(matrix)  # its segment fell off the list long ago: a fresh one
    assert not f.stats.segment_recycled and same_factors(f, serial)
    del f
    # An equal list is not the list, and another ``ib`` is another layout:
    # the layout is a function of the object and of ``ib``.
    hier = schedule_for(TreeKind.HIER, M, N, 12, 4, 2, True)
    for sched, ib in ((Schedule(None, list(hier.ops), 4, hier.layout), 4),
                      (Schedule(None, hier.ops, 8, hier.layout), 8), (hier, 4)):
        store = parallel_mod.take_segment(matrix, sched, ib)
        assert (store.records is not None) == (sched is hier)  # a finished run's
        store.destroy()


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
    assert len(mapped_segments()) == mapped + 2  # nobody's result: the free list's
    shutdown_workers()
    assert len(mapped_segments()) == mapped
    assert not any(os.path.exists(f"/proc/{pid}") for pid in workers)


@needs_proc
@pytest.mark.skipif(mp.get_start_method() != "fork", reason="inheritance is a property of fork")
def test_a_child_forked_while_spares_exist_makes_its_own(matrix, serial):
    one_shot(matrix)
    (spare,) = parallel_mod._FREE
    pid = os.fork()
    if pid == 0:  # the child: the spare is mapped in its parent only
        code = 1
        try:
            ok = parallel_mod._FREE == [] and not mapped_segments() and not segment_descriptors()
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
    assert parallel_mod._FREE == [spare]
    f = one_shot(matrix)
    assert f.stats.segment_recycled and same_factors(f, serial)


# -- pages that cannot be had are an OSError, and an OSError is a fallback -------


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
        assert reserved == [(0, len(store._map))]
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
    shutdown_workers()  # ``first``'s segment leaves the free list, descriptor closed
    second = one_shot(matrix)  # forks the kept pool while ``first`` is alive
    with QRSession(n_procs=2) as sess:  # leases those workers while both are
        assert same_factors(sess.factor(matrix, **GEOMETRY), serial)
        (before, served, arena) = names
        assert len(mapped_segments()) == mapped + 3
        # The parent holds the descriptors of the free segments and none of
        # one that left the list.
        held = segment_descriptors()
        assert arena in held and served in held and before not in held
        # A worker maps what it attached itself — the two segments it served,
        # kept for the next call — and nothing that was mapped when it was
        # forked; it holds no descriptor at all.
        assert len(parallel_mod._KEPT.procs) == 2
        for p in parallel_mod._KEPT.procs.values():
            lines = mapped_segments(p.pid)
            assert len(lines) == 2, f"{p.name} maps {lines}"
            assert [own for own in (served, arena) if any(own in line for line in lines)] == [
                served, arena], f"{p.name} maps {lines}"
            assert segment_descriptors(p.pid) == [], f"{p.name} holds a descriptor"
    assert same_factors(first, serial) and same_factors(second, serial)
    del first, second
    gc.collect()
    assert len(mapped_segments()) == mapped + 2  # the two free segments
    shutdown_workers()
    assert len(mapped_segments()) == mapped


# -- nothing is ever named ---------------------------------------------------------


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_nothing_is_ever_named():
    """A live session arena and a live one-shot result, in a fresh process:
    no segment shows in ``/dev/shm``, and multiprocessing's resource
    tracker — a second interpreter whose only job is to unlink names — was
    never started."""
    code = textwrap.dedent("""
        import os
        from multiprocessing import resource_tracker
        import numpy as np
        from repro import QRSession, qr_factor
        before = sorted(os.listdir("/dev/shm"))
        a = np.random.default_rng(0).standard_normal((90, 25))
        kw = dict(nb=12, ib=4, tree="hier", h=2)
        with QRSession(n_procs=2) as sess:
            warm = sess.factor(a, **kw)
            one = qr_factor(a, **kw, backend="parallel", n_procs=2)
            assert warm.stats.mode == one.stats.mode == "parallel"
            assert np.array_equal(warm.R, one.R)
            assert sorted(os.listdir("/dev/shm")) == before, "a segment was named"
            assert resource_tracker._resource_tracker._pid is None, "a tracker was started"
        print("ok")
    """)
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout.split(), done.stderr) == (0, ["ok"], "")


# -- one free list for one-shot calls and sessions ----------------------------------


def test_a_session_call_runs_on_the_segment_a_one_shot_call_left(matrix, serial):
    f = one_shot(matrix)
    ((store, _, _),) = parallel_mod._FREE
    del f
    with QRSession(n_procs=2) as sess:
        g = sess.factor(matrix, **GEOMETRY)
        assert g.stats.segment_recycled and same_factors(g, serial)
        assert parallel_mod._FREE[0][0] is store
        del g
        h = one_shot(3.0 - matrix)  # and back again
        assert h.stats.segment_recycled and parallel_mod._FREE[0][0] is store
        assert same_factors(h, qr_factor(3.0 - matrix, **GEOMETRY))


@needs_proc
@pytest.mark.parametrize("calls,most", [(1, 3), (5, 4)])
def test_the_bench_pattern_maps_no_more_segments_than_it_did(matrix, serial, calls, most):
    """``python3 -m bench`` holds its warm-up one-shot and session results
    for the whole run and times ``calls`` calls per sample, each result
    rebound to the next: 3 segments with one call per sample and 4 with
    five, as when a session kept a segment of its own per geometry."""
    gc.collect()
    mapped, peak = len(mapped_segments()), 0

    def sample(fn):
        nonlocal peak
        for _ in range(calls):
            out = fn()
            assert same_factors(out, serial)
            peak = max(peak, len(mapped_segments()) - mapped)

    with QRSession(n_procs=2) as sess:
        timed = [lambda: one_shot(matrix), lambda: sess.factor(matrix, **GEOMETRY)]
        warm = [fn() for fn in timed]
        for _ in range(3):
            for fn in timed:
                sample(fn)
        assert all(same_factors(f, serial) for f in warm)
    assert peak <= most


_CHILD_PROBES = """
    import gc, os, resource
    import numpy as np

    def shm():
        return sorted(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else []

    def mapped():
        with open("/proc/self/maps") as fh:
            return sum("psm_" in line for line in fh)

    def descriptors():
        fds = os.listdir("/proc/self/fd")
        return sum(os.readlink(f"/proc/self/fd/{fd}").startswith("/memfd:psm_")
                   for fd in fds if os.path.exists(f"/proc/self/fd/{fd}"))

    def peak_kib():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
"""


def _dev_mode_child(code: str, timeout: float) -> str:
    """Run ``code`` after :data:`_CHILD_PROBES` under ``-X dev -W error``:
    its stdout is returned.  A mapping closed while a view
    of it is alive prints "Exception ignored ... BufferError", an unclosed
    file a ResourceWarning — stderr must stay empty."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c",
                           textwrap.dedent(_CHILD_PROBES) + textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=timeout)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    return done.stdout


@needs_proc
def test_one_shot_calls_take_turns_on_two_segments_under_dev_mode():
    """Thirty one-shot calls with the result rebound each time: from the
    third on each runs on the segment of the result before last, nothing is
    named, peak RSS does not grow by a segment and at most the two free
    segments are mapped.  Then results kept: every call makes a segment, and
    the free list still holds two descriptors — one that falls off closes
    its own; none is left once the list is given back."""
    out = _dev_mode_child("""
        from repro import qr_factor
        from repro.qr.parallel import SPARE_SEGMENTS, shutdown_workers

        before = shm()
        a = np.random.default_rng(0).standard_normal((2048, 256))
        kw = dict(nb=64, ib=32, tree="hier", h=4)
        ref = qr_factor(a, **kw)
        kw.update(backend="parallel", n_procs=2)
        for _ in range(2):  # forks the workers, fills the memo; the second call runs
            f = qr_factor(a, **kw)  # while the first one's result is alive, as below
        rss0 = peak_kib()
        for i in range(30):  # the third call on: the segment of the result before last
            f = qr_factor(a, **kw)
            assert f.stats.mode == "parallel" and np.array_equal(ref.R, f.R), f"call {i}"
            assert f.stats.segment_recycled, f"call {i} made a segment"
            assert shm() == before, f"call {i} named a segment"
        grown_kib, segment_kib = peak_kib() - rss0, a.nbytes // 1024
        assert grown_kib < segment_kib, f"peak RSS grew {grown_kib} KiB over 30 calls"
        assert mapped() <= SPARE_SEGMENTS, "more than the two free segments is mapped"
        assert descriptors() <= SPARE_SEGMENTS
        inputs = [(k + 2.0) * a for k in range(4)]
        kept = [qr_factor(x, **kw) for x in inputs]
        assert not any(g.stats.segment_recycled for g in kept[1:])
        assert descriptors() <= SPARE_SEGMENTS, "a descriptor outlived its place on the list"
        for x, g in zip(inputs, kept):
            assert np.array_equal(g.R, qr_factor(x, **dict(kw, backend="serial")).R)
        del f, g, kept
        gc.collect()
        shutdown_workers()
        assert mapped() == 0, "a mapping outlived its result and the free list"
        assert descriptors() == 0, "a descriptor outlived the free list"
        assert shm() == before
        print(grown_kib)
    """, timeout=180)
    assert int(out) < 2048 * 256 * 8 // 1024


@needs_proc
def test_a_kept_session_result_stays_bit_equal_under_dev_mode():
    """Two hundred warm session calls on the burst geometry with the result
    rebound each time, while the first result is kept: every call exchanges
    at most eight pipe messages with its two workers, moves one matrix in,
    names nothing, peak RSS does not grow by a segment once the pinned
    results exist — and the first result is still bit-equal to serial."""
    out = _dev_mode_child("""
        from repro import QRSession, qr_factor

        a = np.random.default_rng(0).standard_normal((512, 128))
        other = 3.0 - 2.0 * a  # other values everywhere: a reloaded segment reads as wrong
        kw = dict(nb=32, ib=16, tree="hier", h=2)
        ref, ref_other = qr_factor(a, **kw).R, qr_factor(other, **kw).R
        with QRSession(n_procs=2) as sess:
            first = sess.factor(a, **kw)  # forks the pool, makes its segment
            listed = shm()
            for _ in range(2):  # the two segments the loop below takes turns on
                f = sess.factor(other, **kw)
            rss0 = peak_kib()
            for i in range(200):
                f = sess.factor(other, **kw)
                assert f.stats.mode == "parallel" and np.array_equal(ref_other, f.R), f"call {i}"
                assert f.stats.segment_recycled, f"call {i} made a segment"
                assert f.stats.pipe_messages <= 8, f"call {i}: {f.stats.pipe_messages} messages"
                assert f.stats.bytes_in == a.nbytes, f"call {i}"
                assert shm() == listed, f"call {i} changed /dev/shm"
            grown_kib = peak_kib() - rss0
            assert grown_kib < a.nbytes // 1024, f"peak RSS grew {grown_kib} KiB over 200 calls"
            assert np.array_equal(first.R, ref), "a kept result was loaded again"
        assert np.array_equal(ref, first.R) and np.array_equal(ref_other, f.R)
        print(grown_kib)
    """, timeout=180)
    assert int(out) < 512 * 128 * 8 // 1024

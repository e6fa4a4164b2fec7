"""The process-wide schedule memo (``repro.qr.schedule``): one derivation of
plans -> ops -> DAG -> wavefronts per geometry, shared by every backend, the
sessions and resume — and still certifiable, isolated per session entry, and
the only derivation site under ``src/repro/qr``."""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

import repro
from repro import QRSession, qr_factor
from repro.analysis.races import (
    ancestor_closure,
    drop_graph_edge,
    graph_edge_list,
    happens_before,
)
from repro.qr import CheckpointStore, resume_factorization
from repro.qr.schedule import CAPACITY, Schedule, schedule_for
from repro.tiles import random_dense
from repro.tiles.shared import attach_untracked
from repro.trees import TreeKind
from repro.util.errors import ScheduleCertificationError

QR_DIR = pathlib.Path(repro.__file__).parent / "qr"
DERIVATIONS = {"plan_all_panels", "expand_plans", "op_dependency_graph", "compute_wavefronts",
               "list_schedule"}


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test starts on an empty memo and leaves none of its entries
    (a poisoned one least of all) to the rest of the suite."""
    schedule_for.cache_clear()
    yield
    schedule_for.cache_clear()


def _key(m=40, n=24, nb=8, ib=4, tree="hier", h=3, shifted=True):
    return (TreeKind.coerce(tree), m, n, nb, ib, h, shifted)


def _poison(graph):
    """``graph`` minus its first load-bearing edge."""
    for idx in range(len(graph_edge_list(graph))):
        mutated, (u, v) = drop_graph_edge(graph, idx)
        if not happens_before(ancestor_closure(mutated), u, v):
            return mutated
    pytest.fail("no load-bearing edge found")


def _assert_same_factors(ref, other):
    np.testing.assert_array_equal(ref.R, other.R)
    recs_ref, recs = ref._factors.records, other._factors.records
    assert len(recs_ref) == len(recs)
    for r1, r2 in zip(recs_ref, recs):
        assert (r1.kind, r1.i, r1.k2, r1.j, r1.m2, r1.k) == (r2.kind, r2.i, r2.k2, r2.j, r2.m2, r2.k)
        np.testing.assert_array_equal(r1.t, r2.t)


# -- (1) the memo itself -------------------------------------------------------


def test_hit_miss_and_lru_eviction():
    assert CAPACITY == 8
    first = schedule_for(*_key(h=1))
    assert isinstance(first, Schedule)
    assert schedule_for(*_key(h=1)) is first
    info = schedule_for.cache_info()
    assert (info.hits, info.misses, info.currsize, info.maxsize) == (1, 1, 1, CAPACITY)
    for h in range(2, CAPACITY + 2):  # 8 more geometries: 9 distinct in all
        schedule_for(*_key(h=h))
    info = schedule_for.cache_info()
    assert (info.misses, info.currsize) == (CAPACITY + 1, CAPACITY)
    assert schedule_for(*_key(h=CAPACITY + 1)) is schedule_for(*_key(h=CAPACITY + 1))
    assert schedule_for(*_key(h=1)) is not first  # evicted, derived again
    assert schedule_for.cache_info().misses == CAPACITY + 2


def test_graph_and_wavefronts_are_derived_once_and_pinned():
    sched = schedule_for(*_key())
    graph, wavefronts = sched.graph(), sched.wavefronts()
    assert sched.graph() is graph and sched.wavefronts() is wavefronts
    assert sorted(i for wf in wavefronts for i in wf) == list(range(len(sched.ops)))
    # The list forms the level walk and the dispatcher read are the arrays'.
    succ_index, succ_task, n_deps = graph.csr_lists()
    assert graph.csr_lists()[0] is succ_index
    assert succ_index == graph.succ_index.tolist() and type(succ_index[0]) is int
    assert succ_task == graph.succ_task.tolist() and n_deps == graph.n_deps.tolist()


# -- (2) every backend behind it, bit-exact ------------------------------------

GEOMETRIES = [
    dict(shape=(40, 24), nb=8, ib=4, tree="hier", h=3),
    dict(shape=(64, 16), nb=8, ib=4, tree="binary", h=6),
    dict(shape=(45, 21), nb=8, ib=4, tree="greedy", h=2),  # ragged last row and column
]
BACKENDS = [("serial", {}), ("batched", {}), ("parallel", {"n_procs": 2})]


def test_interleaved_one_shot_calls_match_a_cold_memo(no_new_shm):
    inputs = [random_dense(*g["shape"], seed=7 + k) for k, g in enumerate(GEOMETRIES)]

    def factor(k, backend, extra):
        g = {key: val for key, val in GEOMETRIES[k].items() if key != "shape"}
        return qr_factor(inputs[k], backend=backend, **g, **extra)

    cold = []
    for k in range(len(GEOMETRIES)):
        schedule_for.cache_clear()
        cold.append(factor(k, "serial", {}))
    schedule_for.cache_clear()
    for _ in range(2):  # second lap: every call is a memo hit
        for backend, extra in BACKENDS:
            for k in range(len(GEOMETRIES)):
                _assert_same_factors(cold[k], factor(k, backend, extra))
    info = schedule_for.cache_info()
    assert info.misses == len(GEOMETRIES) and info.hits == 2 * 3 * 3 - len(GEOMETRIES)


# -- (3) sessions share the memo, keep their own accounting --------------------


def test_session_and_one_shot_share_one_schedule(small_matrix, no_new_shm):
    kw = dict(nb=8, ib=4, tree="hier", h=3)
    qr_factor(small_matrix, **kw)
    shared = schedule_for(*_key())
    with QRSession(n_procs=2, plan_cache_size=1) as s1, QRSession(n_procs=2) as s2:
        f1 = s1.factor(small_matrix, **kw).detach()  # kept across the next factor
        s1.factor(small_matrix, **kw)
        s2.factor(small_matrix, **kw, backend="batched")
        (e1,), (e2,) = s1.plan_cache._entries.values(), s2.plan_cache._entries.values()
        assert e1.schedule is shared and e2.schedule is shared and e1 is not e2
        assert e1.ops is shared.ops and e2.wavefronts() is shared.wavefronts()
        # Accounting is the session's own, whatever the memo had already.
        assert (s1.plan_cache.stats.hits, s1.plan_cache.stats.misses) == (1, 1)
        assert (s2.plan_cache.stats.hits, s2.plan_cache.stats.misses) == (0, 1)
        # Eviction destroys the session's arena, never the memoized schedule.
        name = e1._arena.name
        s1.factor(small_matrix, nb=8, ib=4, tree="flat")
        assert s1.plan_cache.stats.evictions == 1 and e1._arena is None
        with pytest.raises(OSError):
            attach_untracked(name)
        assert schedule_for(*_key()) is shared and shared.graph() is e2.graph()
    np.testing.assert_array_equal(f1.R, qr_factor(small_matrix, **kw).R)


# -- (4) certification: isolated per session entry, live on the memo -----------


def test_poisoned_session_entry_does_not_leak_into_the_memo(small_matrix):
    kw = dict(nb=8, ib=4, tree="hier", h=3, verify_schedule=True)
    with QRSession(n_procs=2) as sess:
        sess.factor(small_matrix, backend="batched", **kw)
        (entry,) = sess.plan_cache._entries.values()
        entry._graph = _poison(entry.graph())
        with pytest.raises(ScheduleCertificationError, match="certification"):
            sess.factor(small_matrix, backend="batched", **kw)
        # Same key, no session: the memo's own graph is intact.
        for backend, extra in BACKENDS:
            qr_factor(small_matrix, backend=backend, **kw, **extra)
        assert schedule_for(*_key()).graph() is not entry.graph()


@pytest.mark.parametrize("backend,extra", BACKENDS, ids=[b for b, _ in BACKENDS])
def test_poisoned_memo_is_caught_by_one_shot_verify_schedule(small_matrix, backend, extra):
    kw = dict(nb=8, ib=4, tree="hier", h=3, backend=backend, **extra)
    ref = qr_factor(small_matrix, verify_schedule=True, **kw)
    sched = schedule_for(*_key())
    sched._graph = _poison(sched.graph())
    with pytest.raises(ScheduleCertificationError, match="certification"):
        qr_factor(small_matrix, verify_schedule=True, **kw)
    schedule_for.cache_clear()
    np.testing.assert_array_equal(ref.R, qr_factor(small_matrix, verify_schedule=True, **kw).R)


# -- (5) resume ---------------------------------------------------------------


class _Abort(Exception):
    pass


@pytest.mark.parametrize("backend,extra", BACKENDS, ids=[b for b, _ in BACKENDS])
def test_resume_after_a_memo_hit_and_after_a_clear(tmp_path, small_matrix, backend, extra):
    kw = dict(nb=8, ib=4, tree="hier", h=3)
    clean = qr_factor(small_matrix, **kw)
    path = tmp_path / "run.ckpt.npz"

    def abort(writes):
        raise _Abort

    with pytest.raises(_Abort):
        qr_factor(small_matrix, **kw, checkpoint=CheckpointStore(path, every_ops=10, on_write=abort))
    hits = schedule_for.cache_info().hits
    warm = resume_factorization(path, backend=backend, **extra)
    assert schedule_for.cache_info().hits == hits + 1
    schedule_for.cache_clear()
    cold = resume_factorization(path, backend=backend, **extra)
    assert schedule_for.cache_info().misses == 1
    for f in (warm, cold):
        assert 1 <= f.ops_skipped < len(schedule_for(*_key()).ops)
        _assert_same_factors(clean, f)


# -- (6) structure ------------------------------------------------------------


@pytest.mark.parametrize("module", ["api.py", "backends.py", "session.py", "persist.py"])
def test_execution_path_modules_derive_nothing(module):
    tree = ast.parse((QR_DIR / module).read_text())
    called = {
        getattr(node.func, "attr", getattr(node.func, "id", None))
        for node in ast.walk(tree) if isinstance(node, ast.Call)
    }
    assert not called & DERIVATIONS, f"{module} derives its own schedule: {called & DERIVATIONS}"
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & DERIVATIONS


# -- n_procs is validated once, for every backend -----------------------------


@pytest.mark.parametrize("backend,extra", [
    ("serial", {}), ("batched", {}), ("parallel", {}),
    ("pulsar", {"n_nodes": 2, "workers_per_node": 2}),
])
def test_n_procs_is_validated_on_every_backend(tmp_path, small_matrix, backend, extra):
    from repro.util import ConfigurationError

    kw = dict(nb=8, ib=4, tree="hier", h=3, backend=backend, **extra)
    for bad, text in ((-3, "n_procs must be positive, got -3"), (0, "n_procs must be positive"),
                      ("x", "n_procs must be an int, got 'x'"), (2.0, "n_procs must be an int"),
                      (True, "n_procs must be an int")):
        with pytest.raises(ConfigurationError, match=text):
            qr_factor(small_matrix, n_procs=bad, **kw)
        with pytest.raises(ConfigurationError, match=text):  # sized by n_procs on parallel
            qr_factor(small_matrix, n_procs=bad, **dict(kw, h="auto"))
    ref = qr_factor(small_matrix, nb=8, ib=4, tree="hier", h=3)
    np.testing.assert_array_equal(ref.R, qr_factor(small_matrix, n_procs=2, **kw).R)
    if backend != "pulsar":
        ck = str(tmp_path / "run.ckpt")
        qr_factor(small_matrix, nb=8, ib=4, tree="hier", h=3, checkpoint=ck)
        with pytest.raises(ConfigurationError, match="n_procs must be positive, got -3"):
            resume_factorization(ck, backend=backend, n_procs=-3)
        with pytest.raises(ConfigurationError, match="n_procs must be an int, got 'x'"):
            resume_factorization(ck, backend=backend, n_procs="x")

"""The process-wide schedule memo (``repro.qr.schedule``): one derivation of
plans -> ops -> DAG -> wavefronts per geometry, shared by every backend, the
sessions and resume — one object per geometry, which a session pins rather
than copies, and the only derivation site under ``src/repro/qr``."""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

import repro
from repro import QRSession, qr_factor
from repro.obs.adapters import counters_from_ops
from repro.qr import CheckpointStore, resume_factorization
from repro.qr.schedule import CAPACITY, Schedule, schedule_for
from repro.tiles import random_dense
from repro.trees import TreeKind

QR_DIR = pathlib.Path(repro.__file__).parent / "qr"
DERIVATIONS = {"plan_all_panels", "expand_plans", "op_dependency_graph", "compute_wavefronts",
               "list_schedule"}


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test starts on an empty memo and leaves none of its entries to
    the rest of the suite."""
    schedule_for.cache_clear()
    yield
    schedule_for.cache_clear()


def _key(m=40, n=24, nb=8, ib=4, tree="hier", h=3, shifted=True):
    return (TreeKind.coerce(tree), m, n, nb, ib, h, shifted)


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
    with QRSession(n_procs=2) as s1, QRSession(n_procs=2) as s2:
        f1 = s1.factor(small_matrix, **kw)  # kept across the next factor
        s1.factor(small_matrix, **kw)
        s2.factor(small_matrix, **kw, backend="batched")
        # Both ran on the memo's own schedule and keep neither it nor a copy
        # of its parts: a session holds its pool and the keys it factored.
        assert schedule_for.cache_info().misses == 1
        assert s1._factored == s2._factored == {_key()}
        assert not any(isinstance(v, type(shared)) for v in vars(s1).values())
        # Accounting is the session's own, whatever the memo had already.
        assert s1.health()["plan_cache"] == {"hits": 1, "misses": 1}
        assert s2.health()["plan_cache"] == {"hits": 0, "misses": 1}
        s1.factor(small_matrix, nb=8, ib=4, tree="flat")
        assert schedule_for(*_key()) is shared
    np.testing.assert_array_equal(f1.R, qr_factor(small_matrix, **kw).R)


# -- (4) resume ---------------------------------------------------------------


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


# -- (5) structure ------------------------------------------------------------


# Schedule facts of the four BENCHMARK.json workloads and of a small
# 480x96 geometry, all with shifted boundaries: a change to the generated
# operation list (a kernel added, dropped or reshaped) moves them.
SCHEDULE_FACTS = [
    # tree, m, n, nb, ib, h, ops.total, round(flops.total)
    ("hier", 480, 96, 16, 8, 2, 876, 9_971_712),
    ("hier", 4096, 512, 64, 32, 4, 2750, 2_410_850_987),
    ("binary", 16384, 128, 64, 32, 4, 1531, 702_786_219),
    ("hier", 2048, 1024, 128, 32, 4, 590, 3_883_226_453),
    ("hier", 512, 128, 32, 16, 2, 217, 18_721_451),
]


SCHEDULE_IDS = ["480x96", "tall", "skinny", "squat", "burst"]


@pytest.mark.parametrize("tree,m,n,nb,ib,h,ops,flops", SCHEDULE_FACTS, ids=SCHEDULE_IDS)
def test_schedule_facts_are_pinned(tree, m, n, nb, ib, h, ops, flops):
    counters = counters_from_ops(schedule_for(TreeKind(tree), m, n, nb, ib, h, True).ops, ib)
    assert (int(counters["ops.total"]), round(counters["flops.total"])) == (ops, flops)


# The two-rank lazy assignment of each bench geometry keeps a tile row on
# one rank: at most this share of the accesses to a tile (reads included)
# follow a write on the other rank.  Without home ranks, 36–47 %.
HANDOFF_BOUNDS = [0.05, 0.01, 0.16, 0.12]  # tall, skinny, squat, burst


def cross_rank_handoffs(ops, shares) -> tuple[int, int]:
    """``(moved, handed)``: of the ``handed`` accesses to a tile that has been
    written before, in model start order, those whose last writer ran on
    another rank."""
    started = sorted((seq, idx, rank) for rank, share in enumerate(shares)
                     for seq, idx, _ in share)
    writer, moved, handed = {}, 0, 0
    for _, idx, rank in started:
        op = ops[idx]
        for tile in op.reads() + op.writes():
            if tile in writer:
                handed += 1
                moved += writer[tile] != rank
        for tile in op.writes():
            writer[tile] = rank
    return moved, handed


@pytest.mark.parametrize("tree,m,n,nb,ib,h,bound",
                         [(*row[:6], bound) for row, bound in zip(SCHEDULE_FACTS[1:], HANDOFF_BOUNDS)],
                         ids=SCHEDULE_IDS[1:])
def test_a_tile_row_stays_on_one_rank(tree, m, n, nb, ib, h, bound):
    s = schedule_for(TreeKind(tree), m, n, nb, ib, h, True)
    shares = s.assignment(2, "lazy")
    moved, handed = cross_rank_handoffs(s.ops, shares)
    assert moved <= bound * handed, (moved, handed)
    sizes = sorted(len(share) for share in shares)
    assert sizes[1] - sizes[0] <= 0.01 * sizes[1], sizes


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

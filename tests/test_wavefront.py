"""Wavefront partition correctness and the batched backends' bit-exactness.

The Hypothesis property pins the schedule contract of
:func:`repro.qr.wavefront.compute_wavefronts` over random tree/grid
configurations: the wavefronts are a *partition* of the op list (every op
exactly once), no wavefront contains two ops touching the same tile, and
concatenating the wavefronts respects every dependency edge — together,
a legal schedule.  The backend tests then assert the payoff: factors from
``backend="batched"`` are bit-identical to the serial reference — and so
are those of ``backend="parallel", batch="wavefront"``, which is a kept
spelling of the parallel backend's default dispatch, not a mode.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import qr_factor
from repro.qr.dag import op_dependency_graph
from repro.qr.ops import expand_plans
from repro.qr.wavefront import compute_wavefronts, op_levels, wavefront_stats
from repro.tiles import TileMatrix
from repro.trees import plan_all_panels

SETTINGS = dict(max_examples=40, deadline=None)
TREES = ("flat", "binary", "hier", "greedy")


def _ops_for(mt: int, nt: int, tree: str, h: int, shifted: bool):
    layout = TileMatrix.from_dense(np.zeros((mt * 4, nt * 4)), 4).layout
    plans = plan_all_panels(tree, mt, nt, h=h, shifted=shifted)
    return expand_plans(layout, plans)


@settings(**SETTINGS)
@given(
    mt=st.integers(1, 10),
    nt=st.integers(1, 4),
    tree=st.sampled_from(TREES),
    h=st.integers(1, 4),
    shifted=st.booleans(),
)
def test_wavefronts_are_a_valid_schedule(mt, nt, tree, h, shifted):
    nt = min(nt, mt)  # tall-skinny: mt >= nt
    ops = _ops_for(mt, nt, tree, h, shifted)
    wfs = compute_wavefronts(ops)

    # Partition: every op index appears exactly once.
    flat = [idx for wf in wfs for idx in wf]
    assert sorted(flat) == list(range(len(ops)))

    # Tile-disjointness inside each wavefront.
    wf_of = {}
    for wi, wf in enumerate(wfs):
        touched: set = set()
        for idx in wf:
            wf_of[idx] = wi
            tiles = set(ops[idx].reads()) | set(ops[idx].writes())
            assert not (touched & tiles), "wavefront shares a tile"
            touched |= tiles

    # Concatenation respects every DAG edge.
    g = op_dependency_graph(ops)
    for u in range(g.n_tasks):
        for e in range(g.succ_index[u], g.succ_index[u + 1]):
            assert wf_of[int(g.succ_task[e])] > wf_of[u]


def test_op_levels_monotone_along_edges():
    ops = _ops_for(6, 3, "hier", 2, True)
    level = op_levels(ops)
    g = op_dependency_graph(ops)
    for u in range(g.n_tasks):
        for e in range(g.succ_index[u], g.succ_index[u + 1]):
            assert level[int(g.succ_task[e])] > level[u]


def test_wavefront_stats_fields():
    ops = _ops_for(8, 2, "hier", 2, True)
    stats = wavefront_stats(ops)
    assert stats["n_ops"] == len(ops)
    assert stats["n_wavefronts"] >= 1
    assert 0.0 < stats["mean_width"] <= stats["max_width"]
    assert 0.0 <= stats["batched_fraction"] <= 1.0
    # A wide tree on a tall grid must actually batch something.
    assert stats["batched_fraction"] > 0.0


def _assert_bit_identical(f_ref, f_new):
    np.testing.assert_array_equal(f_ref.R, f_new.R)
    np.testing.assert_array_equal(f_ref.q_thin(), f_new.q_thin())
    recs_ref, recs_new = f_ref._factors.records, f_new._factors.records
    assert len(recs_ref) == len(recs_new)
    for r1, r2 in zip(recs_ref, recs_new):
        assert (r1.kind, r1.i, r1.k2, r1.j) == (r2.kind, r2.i, r2.k2, r2.j)
        np.testing.assert_array_equal(r1.t, r2.t)


@pytest.mark.parametrize("tree", TREES)
def test_batched_backend_bit_identical(tree, small_matrix):
    ser = qr_factor(small_matrix, nb=8, ib=4, tree=tree, h=3, backend="serial")
    bat = qr_factor(small_matrix, nb=8, ib=4, tree=tree, h=3, backend="batched")
    _assert_bit_identical(ser, bat)


def test_batched_backend_ragged_tiles():
    a = np.random.default_rng(5).standard_normal((90, 25))
    ser = qr_factor(a, nb=12, ib=4, tree="hier", h=2, backend="serial")
    bat = qr_factor(a, nb=12, ib=4, tree="hier", h=2, backend="batched")
    _assert_bit_identical(ser, bat)


def test_batched_backend_counters(tmp_path):
    a = np.random.default_rng(6).standard_normal((160, 32))
    f = qr_factor(
        a, nb=16, ib=8, tree="hier", h=2, backend="batched",
        trace=str(tmp_path / "trace.json"),
    )
    c = f.counters
    # Every op rides in exactly one stacked call (singletons count as B=1).
    assert c["batch.ops"] == c["ops.total"]
    assert 0 < c["batch.calls"] <= c["batch.ops"]


def test_parallel_wavefront_dispatch_bit_identical():
    a = np.random.default_rng(7).standard_normal((160, 32))
    ser = qr_factor(a, nb=16, ib=8, tree="hier", h=2, backend="serial")
    par = qr_factor(
        a, nb=16, ib=8, tree="hier", h=2, backend="parallel",
        n_procs=2, batch="wavefront",
    )
    default = qr_factor(
        a, nb=16, ib=8, tree="hier", h=2, backend="parallel", n_procs=2,
    )
    # The synonym contract: the spelling selects nothing of its own.
    assert isinstance(par.stats.batch, int)
    assert par.stats.batch == default.stats.batch
    _assert_bit_identical(ser, par)


def test_parallel_wavefront_survives_worker_crash():
    from repro.faults import FaultPlan

    a = np.random.default_rng(8).standard_normal((160, 32))
    ser = qr_factor(a, nb=16, ib=8, tree="hier", h=2, backend="serial")
    par = qr_factor(
        a, nb=16, ib=8, tree="hier", h=2, backend="parallel",
        n_procs=2, batch="wavefront",
        fault_plan=FaultPlan(crash_workers={0: 2}),
    )
    if par.stats.mode == "parallel":
        assert par.stats.workers_died >= 1
        _assert_bit_identical(ser, par)

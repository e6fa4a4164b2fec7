"""The happens-before schedule certifier: clean plans certify, mutations don't.

Four layers of evidence:

* every planner output across tree kinds, shapes, and domain sizes
  certifies clean, including preset-derived geometries, and a geometry
  ``qr_factor`` refuses does not;
* what the backends run — the memoized schedule of every bench geometry,
  its DAG, wavefronts and two-rank assignments, and the assignment of every
  tree on two to four ranks under both policies — certifies clean, and a
  dropped wait or swapped entries of its assignment are flagged;
* a Hypothesis property: dropping a random DAG edge is flagged *exactly*
  when it breaks the transitive happens-before of its endpoints (so the
  certifier neither misses planted races nor cries wolf on transitively
  redundant edges);
* wavefront-partition mutations (cross-level swap, duplicated op, dropped
  op, merged dependent levels) are all detected.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.__main__ import main as certifier_cli
from repro.analysis.races import (
    ancestor_closure,
    certify_geometry,
    certify_schedule,
    drop_assignment_wait,
    drop_graph_edge,
    graph_edge_list,
    happens_before,
    op_access_regions,
    regions_overlap,
    self_check,
    swap_dependent_entries,
    swap_wavefronts,
)
from repro.experiments.presets import scaled
from repro.qr.dag import op_dependency_graph
from repro.qr.ops import expand_plans
from repro.qr.schedule import list_schedule, schedule_for
from repro.qr.wavefront import compute_wavefronts
from repro.tiles.layout import TileLayout
from repro.trees.plan import TreeKind, plan_all_panels
from repro.util.errors import ConfigurationError
from tests.test_schedule_memo import SCHEDULE_FACTS, SCHEDULE_IDS

TREES = ["flat", "binary", "hier", "greedy"]
GEOMETRIES = [
    (256, 64, 32, 2),
    (512, 96, 32, 3),
    (384, 128, 64, 2),
]


@lru_cache(maxsize=None)
def make_schedule(tree: str, m: int, n: int, nb: int, h: int):
    layout = TileLayout(m, n, nb)
    plans = plan_all_panels(TreeKind.coerce(tree), layout.mt, layout.nt, h=h)
    ops = expand_plans(layout, plans)
    graph = op_dependency_graph(ops)
    wavefronts = compute_wavefronts(ops, graph)
    return ops, graph, wavefronts


# -- clean plans certify ------------------------------------------------------


@pytest.mark.parametrize("tree", TREES)
@pytest.mark.parametrize("m,n,nb,h", GEOMETRIES)
def test_planner_output_certifies_clean(tree, m, n, nb, h):
    ops, graph, wavefronts = make_schedule(tree, m, n, nb, h)
    cert = certify_schedule(ops, graph, wavefronts)
    assert cert.ok and not cert.violations
    assert cert.n_ops == len(ops)
    assert cert.n_wavefronts == len(wavefronts)
    assert cert.ww_pairs > 0 and cert.raw_pairs > 0
    # Every WAR pair the DAG leaves unordered must be proven disjoint.
    assert cert.war_decoupled == cert.war_pairs


@pytest.mark.parametrize("tree", TREES)
def test_certify_without_wavefronts_and_self_built_graph(tree):
    ops, _, _ = make_schedule(tree, 256, 64, 32, 2)
    cert = certify_schedule(ops)  # certifier builds the DAG itself
    assert cert.ok
    assert cert.n_wavefronts == -1


def test_preset_geometries_certify_clean():
    cfg = scaled(16)
    for tree in cfg.trees:
        cert = certify_geometry(
            cfg.fig10_m[0], cfg.n, cfg.nb, tree=tree, h=cfg.h
        )
        assert cert.ok, f"{tree}: {cert.summary()}"


def test_a_geometry_qr_factor_refuses_does_not_certify(capsys):
    with pytest.raises(ConfigurationError, match="requires m >= n, got 10 x 20"):
        certify_geometry(10, 20, 4)
    assert certifier_cli(["--m", "10", "--n", "20", "--nb", "4"]) == 1
    out, err = capsys.readouterr()
    assert "CERTIFIED" not in out and "requires m >= n" in err


@pytest.mark.parametrize("tree,m,n,nb,ib,h", [row[:6] for row in SCHEDULE_FACTS],
                         ids=SCHEDULE_IDS)
def test_what_the_backends_run_certifies_at_bench_size(tree, m, n, nb, ib, h):
    """The memo's own objects, not a re-plan: the DAG and wavefronts the
    in-process backends walk and the shares two pool workers are given."""
    s = schedule_for(TreeKind(tree), m, n, nb, ib, h, True)
    lazy = s.assignment(2, "lazy")
    for shares in (lazy, s.assignment(2, "aggressive")):
        cert = certify_schedule(s.ops, s.graph(), s.wavefronts(), shares)
        assert cert.ok, cert.summary()
    for mutate in (drop_assignment_wait, swap_dependent_entries):
        mutated, pair = mutate(lazy)
        cert = certify_schedule(s.ops, s.graph(), assignment=mutated)
        assert not cert.ok, f"{mutate.__name__} on ops {pair} went unflagged"
        assert all(v.kind.startswith("assignment-") for v in cert.violations)


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("tree", TREES)
def test_every_assignment_certifies_clean(tree, shifted):
    """Home ranks and stolen ops keep every share a subsequence of one
    topological order, for every worker count and policy."""
    layout = TileLayout(256, 64, 32)
    ops = expand_plans(layout, plan_all_panels(TreeKind.coerce(tree), layout.mt, layout.nt,
                                               h=2, shifted=shifted))
    graph = op_dependency_graph(ops)
    for n_procs in (2, 3, 4):
        for policy in ("lazy", "aggressive"):
            cert = certify_schedule(ops, graph,
                                    assignment=list_schedule(ops, graph, 8, n_procs, policy))
            assert cert.ok, (n_procs, policy, cert.summary())


def test_certificate_json_and_summary():
    ops, graph, wavefronts = make_schedule("hier", 256, 64, 32, 2)
    cert = certify_schedule(ops, graph, wavefronts)
    doc = cert.to_json()
    assert doc["ok"] is True
    assert doc["n_ops"] == len(ops)
    assert doc["violations"] == []
    assert "CERTIFIED" in cert.summary()


def test_region_model_basics():
    assert regions_overlap("full", "rtri")
    assert regions_overlap("full", "vlow")
    assert not regions_overlap("rtri", "vlow")
    assert not regions_overlap("ttop", "vlow")
    ops, _, _ = make_schedule("hier", 256, 64, 32, 2)
    for op in ops:
        reads, writes = op_access_regions(op)
        assert {t for t, _ in reads} == set(op.reads())
        assert {t for t, _ in writes} == set(op.writes())


# -- mutation detection -------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    tree=st.sampled_from(TREES),
    geometry=st.sampled_from(GEOMETRIES[:2]),
    data=st.data(),
)
def test_dropped_edge_flagged_iff_happens_before_breaks(tree, geometry, data):
    m, n, nb, h = geometry
    ops, graph, _ = make_schedule(tree, m, n, nb, h)
    n_edges = len(graph_edge_list(graph))
    idx = data.draw(st.integers(min_value=0, max_value=n_edges - 1))
    mutated, (u, v) = drop_graph_edge(graph, idx)
    anc = ancestor_closure(mutated)
    assert anc is not None  # removing an edge cannot create a cycle
    load_bearing = not happens_before(anc, u, v)
    cert = certify_schedule(ops, mutated)
    if load_bearing:
        assert not cert.ok, (
            f"dropping load-bearing edge {u}->{v} went undetected"
        )
        assert any(
            u in viol.ops and v in viol.ops for viol in cert.violations
        ) or cert.truncated
    else:
        assert cert.ok, (
            f"transitively redundant edge {u}->{v} caused a false positive: "
            + cert.summary()
        )


def test_self_check_passes_on_valid_plans():
    for tree in ("flat", "hier"):
        ops, _, _ = make_schedule(tree, 256, 64, 32, 2)
        report = self_check(ops)
        assert report["ok"]
        assert report["edges_tried"] > 0
        assert (
            report["edges_detected"] + report["edges_redundant"]
            == report["edges_tried"]
        )
        assert report["wavefront_swap_detected"]


def test_cross_level_wavefront_swap_is_flagged():
    ops, graph, wavefronts = make_schedule("hier", 512, 96, 32, 3)
    assert len(wavefronts) >= 2
    swapped = swap_wavefronts(wavefronts, 0, len(wavefronts) - 1)
    cert = certify_schedule(ops, graph, swapped)
    assert not cert.ok
    assert all(v.kind.startswith("wavefront-") for v in cert.violations)


def test_duplicated_and_missing_ops_break_the_partition():
    ops, graph, wavefronts = make_schedule("flat", 256, 64, 32, 2)
    dup = [list(w) for w in wavefronts]
    dup[-1].append(dup[0][0])
    cert = certify_schedule(ops, graph, dup)
    assert not cert.ok
    assert any(v.kind == "wavefront-partition" for v in cert.violations)

    missing = [list(w) for w in wavefronts]
    missing[0] = missing[0][1:] if len(missing[0]) > 1 else missing[0]
    missing[-1] = missing[-1][:-1]
    cert = certify_schedule(ops, graph, missing)
    assert not cert.ok
    assert any(v.kind == "wavefront-partition" for v in cert.violations)


def test_merging_dependent_wavefronts_is_flagged():
    ops, graph, wavefronts = make_schedule("binary", 256, 64, 32, 2)
    assert len(wavefronts) >= 2
    merged = [wavefronts[0] + wavefronts[1]] + [
        list(w) for w in wavefronts[2:]
    ]
    cert = certify_schedule(ops, graph, merged)
    assert not cert.ok
    assert all(v.kind.startswith("wavefront-") for v in cert.violations)

"""Observability layer: spans, counters, exporters, validation, adapters.

Covers the cross-backend guarantees documented in docs/observability.md:
one span schema for all four execution paths, recorded per-kernel flop
counters equal to the ``repro.kernels.flops`` formulas, structurally valid
Chrome-trace JSON, and a disabled recorder that costs nothing.
"""

from __future__ import annotations

import csv
import io
import json
import time
from collections import Counter as MultiSet

import numpy as np
import pytest

from repro import kernels, qr_factor
from repro.dessim import TaskGraphBuilder, simulate
from repro.dessim.trace import lanes_from_trace
from repro.obs import (
    KERNEL_CATEGORY,
    Counters,
    Span,
    counter_summary,
    counters_from_ops,
    get_recorder,
    recording,
    span_summary,
    spans_from_des_trace,
    spans_to_csv,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.qr.dag import op_dependency_graph
from repro.qr.ops import expand_plans
from repro.tiles import random_dense
from repro.tiles.layout import TileLayout
from repro.trees.plan import plan_all_panels
from repro.util.errors import TraceError

M, N, NB, IB, H = 96, 32, 16, 8, 2


def _ops(tree="hier"):
    layout = TileLayout(M, N, NB)
    return expand_plans(layout, plan_all_panels(tree, layout.mt, layout.nt, h=H))


# -- core recording ----------------------------------------------------------


def test_no_recorder_by_default():
    assert get_recorder() is None


def test_span_nesting_and_ordering():
    with recording() as rec:
        with rec.span("outer", cat="demo", worker=3):
            with rec.span("inner", cat="demo", worker=3):
                rec.count("ticks")
    assert get_recorder() is None  # restored
    # Spans close inner-first; nesting is reflected in the intervals.
    assert [s.name for s in rec.spans] == ["inner", "outer"]
    inner, outer = rec.spans
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert inner.worker == outer.worker == 3
    assert rec.counters["ticks"] == 1.0
    for s in rec.spans:
        assert s.duration >= 0.0


def test_counters_semantics():
    c = Counters()
    c.add("a")
    c.add("a", 2.5)
    c.max("q", 3)
    c.max("q", 1)
    c.merge({"a": 0.5, "b": 1.0})
    assert c == {"a": 4.0, "q": 3.0, "b": 1.0}


def test_recording_restores_previous_recorder():
    with recording() as outer:
        with recording() as inner:
            assert get_recorder() is inner
        assert get_recorder() is outer


# -- kernel shim: counters match the flops formulas exactly ------------------


def test_serial_counters_match_flops_formulas_exactly():
    a = random_dense(M, N, seed=0)
    ops = _ops()
    f = qr_factor(a, nb=NB, ib=IB, tree="hier", h=H, trace="/dev/null")
    derived = counters_from_ops(ops, IB)
    recorded = f.counters
    assert derived, "expected non-empty derived counters"
    for key, value in derived.items():
        assert recorded[key] == value, key  # exact, not approximate
    # One span per op, in schedule order, named after the kernel.
    kernel_spans = [s for s in f.recorder.spans if s.name in KERNEL_CATEGORY]
    assert len(kernel_spans) == len(ops)
    assert [s.name for s in kernel_spans] == [op.kind for op in ops]
    assert all(s.cat == KERNEL_CATEGORY[s.name] for s in kernel_spans)


def test_untraced_counters_are_derived_and_equal_traced(tmp_path):
    a = random_dense(M, N, seed=1)
    traced = qr_factor(a, nb=NB, ib=IB, tree="binary", trace=tmp_path / "t.json")
    untraced = qr_factor(a, nb=NB, ib=IB, tree="binary")
    assert untraced.recorder is None
    for key, value in untraced.counters.items():
        assert traced.counters[key] == value, key


@pytest.mark.parametrize("backend", ["pulsar", "parallel"])
def test_live_backend_counters_match_formulas(backend, tmp_path):
    a = random_dense(M, N, seed=2)
    kw = (
        dict(n_nodes=2, workers_per_node=2)
        if backend == "pulsar"
        else dict(n_procs=2)
    )
    f = qr_factor(
        a, nb=NB, ib=IB, tree="hier", h=H, backend=backend,
        trace=tmp_path / "t.json", **kw,
    )
    derived = counters_from_ops(_ops(), IB)
    for key, value in derived.items():
        if key.startswith("ops."):
            assert f.counters[key] == value, key
        else:  # flop sums may accumulate in a different order
            assert f.counters[key] == pytest.approx(value, rel=1e-12), key


def test_pulsar_kernel_spans_nest_inside_fire_spans(tmp_path):
    a = random_dense(M, N, seed=3)
    f = qr_factor(
        a, nb=NB, ib=IB, tree="hier", h=H, backend="pulsar",
        n_nodes=1, workers_per_node=2, trace=tmp_path / "t.json",
    )
    spans = f.recorder.spans
    fires = [s for s in spans if s.name == "fire"]
    assert len(fires) == f.counters["firings"] == f.stats.firings
    for s in spans:
        if s.name not in KERNEL_CATEGORY:
            continue
        assert any(
            fs.worker == s.worker and fs.start <= s.start and s.end <= fs.end
            for fs in fires
        ), f"kernel span {s.name} on lane {s.worker} not inside any firing"


def test_disabled_recorder_is_cheap_and_inert():
    a = np.asfortranarray(np.random.default_rng(0).standard_normal((8, 8)))
    raw = kernels.geqrt.__wrapped__

    def best(fn):
        t = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(100):
                fn(a.copy(), 4)
            t.append(time.perf_counter() - t0)
        return min(t)

    assert get_recorder() is None
    shim, direct = best(kernels.geqrt), best(raw)
    # The disabled path is one global load + branch; allow generous noise.
    assert shim < direct * 1.5 + 1e-3


# -- export + validation -----------------------------------------------------


def _spans():
    return [
        Span("GEQRT", "panel", 0.0, 1e-3, worker=0, args={"j": 0}),
        Span("TSMQR", "update", 5e-4, 2e-3, worker=1),
    ]


def test_chrome_trace_roundtrip(tmp_path):
    path = tmp_path / "t.json"
    doc = write_chrome_trace(
        path, _spans(), counters={"flops.total": 10.0}, lane_names={0: "w0"}
    )
    parsed = json.loads(path.read_text())
    assert parsed == validate_chrome_trace(path)
    assert doc["otherData"]["counters"] == {"flops.total": 10.0}
    xs = [e for e in parsed["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in xs] == ["GEQRT", "TSMQR"]
    assert xs[0]["ts"] == 0.0 and xs[0]["dur"] == pytest.approx(1000.0)
    # ts monotone non-decreasing per lane is part of the schema.
    names = [e for e in parsed["traceEvents"] if e["ph"] == "M"]
    assert any(e["args"]["name"] == "w0" for e in names)


@pytest.mark.parametrize(
    "events",
    [
        [{"ph": "Z", "name": "x", "ts": 0}],  # unknown phase
        [{"ph": "X", "name": "x", "ts": -1.0, "dur": 1.0}],  # negative ts
        [{"ph": "X", "name": "x", "ts": 0.0}],  # X without dur
        [  # backwards ts within a lane
            {"ph": "X", "name": "a", "ts": 5.0, "dur": 1.0, "pid": 0, "tid": 0},
            {"ph": "X", "name": "b", "ts": 1.0, "dur": 1.0, "pid": 0, "tid": 0},
        ],
        [{"ph": "X", "name": "x", "ts": 0.0, "dur": -1.0}],  # negative dur
        [{"ph": "X", "ts": 0.0, "dur": 1.0}],  # no name
        ["X"],  # not an object
    ],
)
def test_validator_rejects_malformed(events):
    with pytest.raises(TraceError):
        validate_chrome_trace({"traceEvents": events})


def test_validator_accepts_spans_metadata_and_json_string():
    doc = json.dumps(
        {
            "traceEvents": [
                {"ph": "M", "name": "thread_name", "pid": 0, "tid": 1,
                 "args": {"name": "worker 1"}},
                {"ph": "X", "name": "a", "ts": 0.0, "dur": 3.0, "tid": 1},
                {"ph": "X", "name": "b", "ts": 1.0, "dur": 1.0, "tid": 1},
                {"ph": "X", "name": "c", "ts": 0.5, "dur": 1.0, "tid": 2},
            ]
        }
    )
    assert len(validate_chrome_trace(doc)["traceEvents"]) == 4


def test_summaries_and_csv(tmp_path):
    text = span_summary(_spans())
    assert "GEQRT" in text and "panel" in text and "share" in text
    ctext = counter_summary(Counters({"flops.GEQRT": 1.5e9, "firings": 23.0}))
    assert "Gflop" in ctext and "23" in ctext
    text = spans_to_csv(_spans())
    assert text.splitlines()[0] == "worker,start,end,cat,name,args"
    assert "j=0" in text
    # A PULSAR firing's args hold a VDP tuple, commas included: every row
    # must still parse to the header's six fields.
    f = qr_factor(random_dense(64, 16, seed=1), nb=8, ib=4, tree="hier", h=2,
                  backend="pulsar", n_nodes=2, workers_per_node=1,
                  trace=tmp_path / "t.json")
    rows = list(csv.reader(io.StringIO(spans_to_csv(f.recorder.spans))))
    assert {len(row) for row in rows} == {6}
    assert any(row[4] == "fire" and "vdp=(" in row[5] for row in rows)


# -- DES adapters + the lanes_from_trace bugfix ------------------------------


def test_lanes_from_trace_rejects_unknown_kind():
    with pytest.raises(TraceError, match=r"unknown trace kind code 7"):
        lanes_from_trace([(0, 0.0, 1.0, 7, ())], 1)
    # TraceError is a ValueError, per the documented contract.
    with pytest.raises(ValueError):
        lanes_from_trace([(0, 0.0, 1.0, 7, ())], 1)


def test_spans_from_des_trace_rejects_unknown_kind():
    with pytest.raises(TraceError):
        spans_from_des_trace([(0, 0.0, 1.0, 9, ())])


def test_sim_result_spans_export_on_the_virtual_clock(tmp_path):
    b = TaskGraphBuilder()
    t0 = b.add_task(1.0, worker=0, kind=0, meta=("GEQRT", 0, 0))
    t1 = b.add_task(2.0, worker=1, kind=1, meta=("TSMQR", 0, 1))
    b.add_edge(t0, t1)
    res = simulate(b.build(), n_workers=2, record_trace=True)
    spans = res.spans()
    assert [(s.name, s.cat, s.worker) for s in spans] == [
        ("GEQRT", "panel", 0),
        ("TSMQR", "update", 1),
    ]
    doc = write_chrome_trace(tmp_path / "des.json", res.spans(), clock="virtual")
    assert validate_chrome_trace(tmp_path / "des.json") == doc
    assert doc["otherData"]["clock"] == "virtual"
    assert [(e["name"], e["tid"]) for e in doc["traceEvents"] if e["ph"] == "X"] == [
        ("GEQRT", 0), ("TSMQR", 1),
    ]


def test_sim_result_without_trace_raises():
    b = TaskGraphBuilder()
    b.add_task(1.0, worker=0)
    res = simulate(b.build())
    with pytest.raises(TraceError):
        res.spans()


def test_des_and_prt_spans_agree_on_the_same_schedule(tmp_path):
    """The DES and the threaded runtime report the same kernel evidence."""
    ops = _ops()
    code_of = {"panel": 0, "update": 1, "binary": 2}
    dep = op_dependency_graph(ops)
    b = TaskGraphBuilder()
    for op in ops:
        b.add_task(1.0, 0, kind=code_of[KERNEL_CATEGORY[op.kind]], meta=(op.kind, op.j, op.level))
    for i in range(len(ops)):
        for e in range(dep.succ_index[i], dep.succ_index[i + 1]):
            b.add_edge(i, int(dep.succ_task[e]))
    des_spans = simulate(b.build(), record_trace=True).spans()

    a = random_dense(M, N, seed=4)
    f = qr_factor(
        a, nb=NB, ib=IB, tree="hier", h=H, backend="pulsar",
        n_nodes=1, workers_per_node=2, trace=tmp_path / "prt.json",
    )
    prt_kernels = [s for s in f.recorder.spans if s.name in KERNEL_CATEGORY]

    # Identical span schema...
    for s in des_spans + prt_kernels:
        assert isinstance(s, Span) and s.end >= s.start >= 0.0
    # ...and identical kernel evidence: same multiset of names + categories.
    assert MultiSet(s.name for s in des_spans) == MultiSet(s.name for s in prt_kernels)
    assert MultiSet(s.cat for s in des_spans) == MultiSet(s.cat for s in prt_kernels)
    # Both export through the same path into valid documents.
    both = to_chrome_trace(des_spans, clock="virtual")
    validate_chrome_trace(both)


# -- surface wiring ----------------------------------------------------------


def test_trace_file_is_perfetto_loadable_for_every_backend(tmp_path):
    a = random_dense(M, N, seed=5)
    for backend, kw in [
        ("serial", {}),
        ("pulsar", dict(n_nodes=2, workers_per_node=2)),
        ("parallel", dict(n_procs=2)),
    ]:
        path = tmp_path / f"{backend}.json"
        f = qr_factor(a, nb=NB, ib=IB, tree="hier", h=H, backend=backend, trace=path, **kw)
        doc = validate_chrome_trace(path)
        xs = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert xs & set(KERNEL_CATEGORY), backend
        assert doc["otherData"]["counters"]["ops.total"] == f.counters["ops.total"]
        assert f.residuals(a)["factorization"] < 1e-12


def test_tracing_does_not_change_factors(tmp_path):
    a = random_dense(M, N, seed=6)
    plain = qr_factor(a, nb=NB, ib=IB, tree="hier", h=H)
    traced = qr_factor(a, nb=NB, ib=IB, tree="hier", h=H, trace=tmp_path / "t.json")
    assert np.array_equal(plain.R, traced.R)


def test_experiments_cli_trace_flag(tmp_path):
    from repro.experiments.__main__ import main

    out = tmp_path / "fig7.json"
    assert main(["fig7", "--scale", "48", "--trace", str(out)]) == 0
    doc = validate_chrome_trace(out)
    pids = {e.get("pid") for e in doc["traceEvents"]}
    assert pids == {0, 1}  # fixed vs shifted, side by side
    assert doc["otherData"]["clock"] == "virtual"


def test_cli_trace_flag_rejected_for_other_experiments(capsys):
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit):
        main(["fig10", "--trace", "x.json"])


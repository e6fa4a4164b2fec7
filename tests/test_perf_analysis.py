"""Performance analytics: critical paths, lane attribution, gap reports,
and metrics sampling.

The synthetic-DAG tests pin the analyses to hand-computable answers; the
end-to-end tests check the invariants the docs promise (path + waits =
wall window, busy + overhead + idle = wall per lane, gap join complete);
the hygiene tests pin the clock/lane validation that keeps virtual-time
and real-time spans from silently interleaving.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import qr_factor
from repro.machine.model import kraken
from repro.obs import (
    MetricsSampler,
    Recorder,
    Span,
    analyze_factorization,
    gap_report,
    lane_attribution,
    match_spans_to_ops,
    realized_critical_path,
)
from repro.obs import monitor as obs_monitor
from repro.qr.dag import op_dependency_graph
from repro.qr.ops import Op
from repro.util.errors import TraceError

# ---------------------------------------------------------------------------
# A hand-built 4-op DAG with a known dependency structure:
#
#   op0 GEQRT(0,0)   writes (0,0)
#   op1 ORMQR        reads (0,0), writes (0,1)        <- depends on op0
#   op2 TSQRT(1,0)   writes (0,0), (1,0)              <- depends on op0
#   op3 TSMQR        reads (1,0), writes (0,1), (1,1) <- depends on op1, op2

_OPS = [
    Op("GEQRT", 0, -1, 0, -1, 4, 4, 0),
    Op("ORMQR", 0, -1, 0, 1, 4, 4, 4),
    Op("TSQRT", 0, 1, 0, -1, 4, 4, 0),
    Op("TSMQR", 0, 1, 0, 1, 4, 4, 4),
]
_IB = 2


def _span(op_index: int, start: float, end: float, lane: int = 0) -> Span:
    op = _OPS[op_index]
    return Span(op.kind, "panel", start, end, lane, {"op": op_index})


class TestMatchSpansToOps:
    def test_tagged_join_is_by_identity(self):
        # Out of program order, on different lanes: tags still pin each span.
        spans = [_span(3, 6, 7, lane=1), _span(0, 0, 1), _span(2, 2, 3, lane=1),
                 _span(1, 1, 2)]
        matched = match_spans_to_ops(spans, _OPS)
        assert [s.args["op"] for s in matched] == [0, 1, 2, 3]

    def test_duplicate_tag_first_report_wins(self):
        # The fault layer can re-dispatch in-flight ops: two reports, one op.
        first, second = _span(0, 0.0, 1.0), _span(0, 5.0, 6.0)
        matched = match_spans_to_ops([first, second], _OPS)
        assert matched[0] is first

    def test_invalid_tag_raises(self):
        with pytest.raises(TraceError, match="invalid op index"):
            match_spans_to_ops([Span("GEQRT", "panel", 0, 1, 0, {"op": 99})], _OPS)

    def test_kind_mismatch_raises(self):
        with pytest.raises(TraceError, match="op 0 is GEQRT"):
            match_spans_to_ops([Span("TSQRT", "panel", 0, 1, 0, {"op": 0})], _OPS)

    def test_untagged_fallback_matches_in_schedule_order(self):
        spans = [Span(op.kind, "panel", i, i + 1, 0, {}) for i, op in enumerate(_OPS)]
        matched = match_spans_to_ops(spans, _OPS)
        assert [s.start for s in matched] == [0, 1, 2, 3]


class TestRealizedCriticalPath:
    def test_known_answer(self):
        # op3's binding predecessor is op2 (ends at 3.0 > op1's 2.0), and
        # op2's is op0 — so the path is 0 -> 2 -> 3 with 0.5 s waits.
        spans = [
            _span(0, 0.0, 1.0, lane=0),
            _span(1, 1.0, 2.0, lane=0),
            _span(2, 1.5, 3.0, lane=1),
            _span(3, 3.5, 5.0, lane=1),
        ]
        r = realized_critical_path(_OPS, match_spans_to_ops(spans, _OPS))
        assert [s.op_index for s in r.steps] == [0, 2, 3]
        assert [s.wait_s for s in r.steps] == [0.0, 0.5, 0.5]
        assert r.path_s == pytest.approx(4.0)
        assert r.wall_s == pytest.approx(5.0)
        assert r.path_s + r.wait_s == pytest.approx(r.wall_s)
        assert r.on_path["TSQRT"] == (1, pytest.approx(1.5))
        assert r.totals["ORMQR"] == (1, pytest.approx(1.0))
        assert "ORMQR" not in r.on_path

    def test_unmeasured_ops_end_the_walk_not_the_analysis(self):
        # Ops 1 and 2 (op3's only direct predecessors) are unmeasured, so
        # the backward walk stops at op3 — a short path, not an error.
        spans = [_span(0, 0.0, 1.0), _span(3, 2.0, 3.0)]
        r = realized_critical_path(_OPS, match_spans_to_ops(spans, _OPS))
        assert [s.op_index for s in r.steps] == [3]
        assert r.path_s + r.wait_s == pytest.approx(r.wall_s)

    def test_no_measured_spans_raises(self):
        with pytest.raises(TraceError, match="no measured spans"):
            realized_critical_path(_OPS, [None] * len(_OPS))

    def test_length_mismatch_raises(self):
        with pytest.raises(TraceError, match="entries for"):
            realized_critical_path(_OPS, [None])


class TestLaneAttribution:
    def test_buckets_sum_to_wall_exactly(self):
        spans = [
            Span("fire", "runtime", 0.0, 4.0, 0, {}),     # envelops the kernel
            Span("GEQRT", "panel", 1.0, 3.0, 0, {}),
            Span("TSQRT", "panel", 6.0, 10.0, 0, {}),
            Span("proxy", "proxy", 2.0, 5.0, 1, {}),      # no kernels at all
        ]
        lanes = lane_attribution(spans, {0: "worker", 1: "proxy"})
        by = {u.label: u for u in lanes}
        w = by["worker"]
        assert w.n_kernels == 2
        assert w.busy_s == pytest.approx(6.0)
        assert w.overhead_s == pytest.approx(2.0)   # fire minus enclosed kernel
        assert w.idle_s == pytest.approx(2.0)       # [4, 6) uncovered
        p = by["proxy"]
        assert (p.busy_s, p.overhead_s, p.idle_s) == (0.0, pytest.approx(3.0),
                                                      pytest.approx(7.0))
        for u in lanes:
            assert u.busy_s + u.overhead_s + u.idle_s == pytest.approx(u.wall_s)
            assert u.wall_s == pytest.approx(10.0)  # shared window, lane 1 too

    def test_empty_trace_raises(self):
        with pytest.raises(TraceError):
            lane_attribution([])


class TestGapReport:
    def _model_exact_spans(self, machine):
        spans, t = [], 0.0
        for i, op in enumerate(_OPS):
            d = machine.kernel_seconds(op.kind, op.m2, op.k, op.q, _IB)
            spans.append(_span(i, t, t + d))
            t += d
        return spans

    def test_exact_when_spans_come_from_the_model(self):
        machine = kraken()
        op_spans = match_spans_to_ops(self._model_exact_spans(machine), _OPS)
        rep = gap_report(_OPS, _IB, machine, op_spans)
        assert rep.scale == pytest.approx(1.0)
        assert rep.unmeasured == 0
        assert rep.flagged() == []
        for row in rep.rows + rep.phases:
            assert row.ratio == pytest.approx(1.0)
            assert row.normalized == pytest.approx(1.0)
        assert rep.measured_total_s == pytest.approx(rep.predicted_total_s)
        # The model-side bounds bracket the (serialised) measured time.
        assert rep.model_critical_path_s <= rep.model_work_s
        assert rep.model_work_s == pytest.approx(rep.predicted_total_s)

    def test_relative_deviation_is_flagged_absolute_speed_is_not(self):
        machine = kraken()
        spans = self._model_exact_spans(machine)
        # Uniformly 100x slower than the model: a host-speed factor, not a
        # modelling gap — nothing may be flagged...
        slow = [Span(s.name, s.cat, s.start * 100, s.start * 100 + s.duration * 100,
                     s.worker, s.args) for s in spans]
        rep = gap_report(_OPS, _IB, machine, match_spans_to_ops(slow, _OPS))
        assert rep.scale == pytest.approx(100.0)
        assert rep.flagged() == []
        # ...but one kind 10x off *relative to the others* must be.
        skew = [Span(s.name, s.cat, s.start, s.start + s.duration * (10 if
                     s.name == "TSQRT" else 1), s.worker, s.args) for s in spans]
        rep = gap_report(_OPS, _IB, machine, match_spans_to_ops(skew, _OPS))
        assert "TSQRT" in rep.flagged()

    def test_no_matches_raises(self):
        with pytest.raises(TraceError, match="no measured spans"):
            gap_report(_OPS, _IB, kraken(), [None] * len(_OPS))


class TestClockAndLaneHygiene:
    def test_kernel_recording_needs_a_real_clock(self):
        rec = Recorder(clock="virtual")
        with pytest.raises(TraceError, match="virtual"):
            rec.record_kernel("GEQRT", "panel", 1.0, 0.0, 1.0, 0)

    def test_lane_ids_must_be_nonnegative_integers(self):
        rec = Recorder()
        with pytest.raises(TraceError):
            rec.record_kernel("GEQRT", "panel", 1.0, 0.0, 1.0, 0.5)
        with pytest.raises(TraceError):
            rec.record_kernel("GEQRT", "panel", 1.0, 0.0, 1.0, -1)
        with pytest.raises(TraceError):
            rec.name_lane(-3, "bogus")

    def test_virtual_spans_cannot_enter_a_real_recorder(self):
        rec = Recorder()
        with pytest.raises(TraceError, match="clock"):
            rec.ingest_spans([Span("task", "sim", 0.0, 1.0, 0, {})])

    def test_virtual_recorder_accepts_ingested_des_spans(self):
        rec = Recorder(clock="virtual")
        rec.ingest_spans([Span("task", "sim", 0.0, 1.0, 0, {})])
        assert len(rec.spans) == 1


class TestSamplerAndMonitor:
    def test_sampler_snapshots_counters_gauges_and_rates(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        rec = Recorder()
        rec.counters.add("ops.total", 5.0)
        rec.register_gauge("depth", lambda: 7)
        rec.register_gauge("broken", lambda: 1 / 0)  # torn read: skipped
        with MetricsSampler(rec, path, interval=60.0):
            rec.counters.add("ops.total", 3.0)
        samples = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(samples) >= 2  # one at start, one at stop
        assert samples[0]["gauges"] == {"depth": 7}
        assert samples[-1]["counters"]["ops.total"] == 8.0
        assert "ops.total/s" in samples[-1]["rates"]

    def test_monitor_summarises_and_reports_missing_files(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        rec = Recorder()
        rec.register_gauge("depth", lambda: 2)
        with MetricsSampler(rec, path, interval=60.0):
            pass
        assert obs_monitor.main([str(path)]) == 0
        assert "depth" in capsys.readouterr().out
        assert obs_monitor.main([str(tmp_path / "nope.jsonl")]) == 2

    def test_qr_factor_metrics_keyword_streams_samples(self, tmp_path):
        path = tmp_path / "run.jsonl"
        a = np.random.default_rng(0).standard_normal((64, 16))
        f = qr_factor(a, nb=16, ib=8, tree="flat", metrics=path)
        assert f.recorder is not None
        samples = [json.loads(l) for l in path.read_text().splitlines()]
        assert samples and samples[-1]["counters"]["ops.total"] > 0


class TestEndToEnd:
    def test_traced_serial_run_analyses_cleanly(self, tmp_path):
        a = np.random.default_rng(7).standard_normal((160, 32))
        f = qr_factor(a, nb=16, ib=8, tree="hier", h=2,
                      trace=tmp_path / "t.json")
        pa = analyze_factorization(f)
        assert pa.backend == "serial"
        assert pa.gap.unmeasured == 0
        r = pa.critical_path
        assert r.steps and r.path_s + r.wait_s == pytest.approx(r.wall_s)
        # Serial: every op ran on lane 0, whose busy time is the sum of all
        # measured kernel durations.
        total_kernel = sum(s for _, s in r.totals.values())
        lane0 = next(u for u in pa.lanes if u.lane == 0)
        assert lane0.busy_s == pytest.approx(total_kernel)
        assert lane0.busy_s + lane0.overhead_s + lane0.idle_s == pytest.approx(
            lane0.wall_s
        )
        assert "critical path" in pa.to_text()

    def test_graph_predecessors_match_known_dag(self):
        g = op_dependency_graph(_OPS)
        succs = {
            t: {int(g.succ_task[e])
                for e in range(g.succ_index[t], g.succ_index[t + 1])}
            for t in range(g.n_tasks)
        }
        assert succs[0] == {1, 2}
        assert succs[1] == {3}
        assert succs[2] == {3}


class TestPerfExperiment:
    def test_run_perf_covers_all_backends(self):
        from repro.experiments import run_perf, scaled

        results = run_perf(scaled(8))
        assert len(results) == 3
        for res in results:
            assert {"serial", "pulsar", "parallel"} <= set(res.column("backend"))
        cp, lanes, gap = results
        assert "path_share" in cp.headers
        assert "idle_ms" in lanes.headers
        assert "normalized" in gap.headers

"""Unit tests for the discrete-event simulator and trace analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dessim import (
    KIND_BINARY,
    KIND_PANEL,
    KIND_UPDATE,
    TaskGraphBuilder,
    gantt,
    lanes_from_trace,
    overlap_fraction,
    simulate,
)
from repro.obs import spans_to_csv
from repro.util import ConfigurationError, SimulationError


def chain(n: int, dur: float = 1.0, worker: int = 0) -> TaskGraphBuilder:
    b = TaskGraphBuilder()
    prev = None
    for _ in range(n):
        t = b.add_task(dur, worker)
        if prev is not None:
            b.add_edge(prev, t)
        prev = t
    return b


class TestGraphBuilder:
    def test_rejects_negative_duration(self):
        with pytest.raises(SimulationError):
            TaskGraphBuilder().add_task(-1.0, 0)

    def test_rejects_self_edge(self):
        b = TaskGraphBuilder()
        t = b.add_task(1.0, 0)
        with pytest.raises(SimulationError):
            b.add_edge(t, t)

    def test_rejects_unknown_tasks(self):
        b = TaskGraphBuilder()
        b.add_task(1.0, 0)
        with pytest.raises(SimulationError):
            b.add_edge(0, 5)

    def test_rejects_empty_graph(self):
        with pytest.raises(SimulationError):
            TaskGraphBuilder().build()

    def test_adjacency(self):
        b = TaskGraphBuilder()
        a = b.add_task(1.0, 0)
        c = b.add_task(1.0, 1)
        d = b.add_task(1.0, 2)
        b.add_edge(a, c, 0.5)
        b.add_edge(a, d, 0.25)
        g = b.build()
        assert g.n_tasks == 3
        assert g.n_workers == 3
        assert list(g.succ_task[g.succ_index[a] : g.succ_index[a + 1]]) in ([c, d], [d, c])
        assert g.n_deps[c] == 1 and g.n_deps[a] == 0

    def test_critical_path(self):
        g = chain(4, dur=2.0).build()
        assert g.critical_path() == pytest.approx(8.0)
        assert g.total_work() == pytest.approx(8.0)

    def test_critical_path_includes_delays(self):
        b = TaskGraphBuilder()
        a = b.add_task(1.0, 0)
        c = b.add_task(1.0, 1)
        b.add_edge(a, c, 3.0)
        assert b.build().critical_path() == pytest.approx(5.0)

    def test_cycle_detection(self):
        b = TaskGraphBuilder()
        a = b.add_task(1.0, 0)
        c = b.add_task(1.0, 0)
        b.add_edge(a, c)
        b.add_edge(c, a)
        with pytest.raises(SimulationError, match="cycle"):
            b.build().critical_path()


class TestSimulate:
    def test_serial_chain(self):
        res = simulate(chain(5, dur=2.0).build())
        assert res.makespan == pytest.approx(10.0)
        assert res.utilization == pytest.approx(1.0)

    def test_parallel_independent_tasks(self):
        b = TaskGraphBuilder()
        for w in range(4):
            b.add_task(3.0, w)
        res = simulate(b.build())
        assert res.makespan == pytest.approx(3.0)

    def test_worker_contention_serialises(self):
        b = TaskGraphBuilder()
        for _ in range(4):
            b.add_task(3.0, 0)
        res = simulate(b.build())
        assert res.makespan == pytest.approx(12.0)

    def test_edge_delay_stalls_consumer(self):
        b = TaskGraphBuilder()
        a = b.add_task(1.0, 0)
        c = b.add_task(1.0, 1)
        b.add_edge(a, c, 5.0)
        res = simulate(b.build())
        assert res.makespan == pytest.approx(7.0)

    def test_max_of_arrivals_gates_start(self):
        """A task waits for its latest arrival, not the last completion."""
        b = TaskGraphBuilder()
        fast = b.add_task(1.0, 0)
        slow = b.add_task(4.0, 1)
        sink = b.add_task(1.0, 2)
        b.add_edge(fast, sink, 10.0)  # early producer, slow wire
        b.add_edge(slow, sink, 0.0)
        res = simulate(b.build())
        assert res.makespan == pytest.approx(12.0)

    def test_task_overhead_charged_per_task(self):
        res = simulate(chain(5, dur=1.0).build(), task_overhead_s=0.5)
        assert res.makespan == pytest.approx(7.5)

    def test_makespan_bounds(self):
        """makespan >= max(critical path, work / workers)."""
        rng = np.random.default_rng(0)
        b = TaskGraphBuilder()
        n_workers = 3
        tasks = [b.add_task(float(rng.uniform(0.5, 2.0)), int(rng.integers(n_workers)))
                 for _ in range(40)]
        for i in range(1, 40):
            j = int(rng.integers(0, i))
            b.add_edge(tasks[j], tasks[i], float(rng.uniform(0, 0.2)))
        g = b.build()
        res = simulate(g, n_workers=n_workers)
        assert res.makespan >= g.critical_path() - 1e-12
        assert res.makespan >= g.total_work() / n_workers - 1e-12
        assert float(res.busy.sum()) == pytest.approx(g.total_work())

    def test_policies_both_complete(self):
        g = chain(10).build()
        for policy in ("lazy", "aggressive"):
            assert simulate(g, policy=policy).n_tasks == 10

    def test_bad_policy(self):
        with pytest.raises(ConfigurationError):
            simulate(chain(2).build(), policy="random")

    def test_n_workers_must_cover_graph(self):
        b = TaskGraphBuilder()
        b.add_task(1.0, 5)
        with pytest.raises(ConfigurationError):
            simulate(b.build(), n_workers=3)

    def test_gflops(self):
        res = simulate(chain(2, dur=1.0).build())
        assert res.gflops(4e9) == pytest.approx(2.0)

    def test_lazy_prefers_program_order(self):
        """Two ready tasks on one worker: lazy runs the lower index first."""
        b = TaskGraphBuilder()
        first = b.add_task(1.0, 0)
        second = b.add_task(1.0, 0)
        res = simulate(b.build(), record_trace=True)
        order = [w_s_e[1] for w_s_e in sorted(res.trace, key=lambda r: r[1])]
        assert res.trace[0][1] == 0.0
        assert order == sorted(order)


class TestTrace:
    def make_trace(self):
        b = TaskGraphBuilder()
        a = b.add_task(2.0, 0, kind=KIND_PANEL, meta=("GEQRT", 0, -1))
        c = b.add_task(2.0, 1, kind=KIND_BINARY, meta=("TTQRT", 0, -1))
        b.add_edge(a, c, 0.0)
        return simulate(b.build(), record_trace=True)

    def test_trace_records(self):
        res = self.make_trace()
        assert len(res.trace) == 2
        w, start, end, kind, meta = res.trace[0]
        assert end - start == pytest.approx(2.0)
        assert meta[0] == "GEQRT"

    def test_lanes(self):
        res = self.make_trace()
        lanes = lanes_from_trace(res.trace, 2)
        assert lanes[0][0][2] == "F" and lanes[1][0][2] == "B"

    def test_overlap_fraction_none(self):
        res = self.make_trace()  # strictly sequential -> zero overlap
        assert overlap_fraction(res.trace, KIND_PANEL, KIND_BINARY) == 0.0

    def test_overlap_fraction_full(self):
        trace = [(0, 0.0, 2.0, KIND_PANEL, ()), (1, 0.0, 2.0, KIND_BINARY, ())]
        assert overlap_fraction(trace, KIND_PANEL, KIND_BINARY) == pytest.approx(1.0)

    def test_overlap_fraction_partial(self):
        trace = [(0, 0.0, 4.0, KIND_UPDATE, ()), (1, 2.0, 6.0, KIND_BINARY, ())]
        assert overlap_fraction(trace, KIND_UPDATE, KIND_BINARY) == pytest.approx(0.5)

    def test_gantt_renders(self):
        res = self.make_trace()
        txt = gantt(res.trace, 2, width=40)
        assert "F" in txt and "B" in txt

    def test_csv_export(self):
        res = self.make_trace()
        csv = spans_to_csv(res.spans())
        header, *rows = csv.splitlines()
        assert header == "worker,start,end,cat,name,args"
        assert rows[0].startswith("0,0.000000000,2.000000000,panel,GEQRT,")
        assert rows[1].startswith("1,2.000000000,4.000000000,binary,TTQRT,")

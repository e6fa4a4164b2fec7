"""Tests for the experiment drivers (scaled-down configurations).

Each driver must run end-to-end and reproduce the paper's *qualitative*
claims at reduced scale; ``python -m repro.experiments <exp> --scale 1``
runs the same code at paper size.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ExperimentResult,
    PAPER,
    memory_per_node,
    run_chaos,
    run_figure7,
    run_figure10,
    run_figure11,
    run_scheduling,
    run_section6a_strong,
    run_section6a_weak,
    run_tuning,
    run_weak_scaling,
    scaled,
    trace_gantt,
)

CFG = scaled(32)  # very small: keeps the full experiment suite fast


class TestPresets:
    def test_paper_matches_section6(self):
        assert PAPER.nb == 192 and PAPER.ib == 48 and PAPER.h == 6
        assert PAPER.n == 4608
        assert PAPER.fig10_m == (23040, 92160, 184320, 368640, 737280)
        assert PAPER.fig10_cores == 9216
        assert PAPER.fig11_cores == (480, 1920, 3840, 7680, 15360)

    def test_scaled_preserves_tile_alignment(self):
        cfg = scaled(8)
        assert cfg.n % cfg.nb == 0
        assert all(m % cfg.nb == 0 for m in cfg.fig10_m)
        assert all(c % cfg.machine.cores_per_node == 0 for c in cfg.fig11_cores)

    def test_scale_one_is_paper(self):
        assert scaled(1) is PAPER


class TestExperimentResult:
    def test_rendering(self):
        r = ExperimentResult("demo", ["a", "b"])
        r.add_row(1, 2.5)
        r.add_note("hello")
        txt = r.to_text()
        assert "demo" in txt and "hello" in txt
        csv = r.to_csv()
        assert csv.splitlines()[0] == "a,b"

    def test_column(self):
        r = ExperimentResult("demo", ["a", "b"])
        r.add_row(1, 2)
        r.add_row(3, 4)
        assert r.column("b") == [2, 4]


class TestFigure10:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure10(CFG)

    def test_rows_match_sizes(self, result):
        assert result.column("m") == list(CFG.fig10_m)

    def test_hier_wins_at_largest(self, result):
        last = result.rows[-1]
        idx = {h: i for i, h in enumerate(result.headers)}
        flat, binary, hier = (
            last[idx[f"{t}_gflops"]] for t in ("flat", "binary", "hier")
        )
        # Hierarchical first, binary second, flat far behind.
        assert hier > binary > flat
        assert hier > 2.0 * flat

    def test_flat_saturates(self, result):
        flat = result.column("flat_gflops")
        assert flat[-1] < 1.5 * flat[1]

    def test_binary_and_hier_grow(self, result):
        for col in ("binary_gflops", "hier_gflops"):
            series = result.column(col)
            assert series[-1] > 3.0 * series[0]


class TestFigure11:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure11(CFG)

    def test_core_sweep(self, result):
        assert result.column("cores") == list(CFG.fig11_cores)

    def test_hier_strong_scales(self, result):
        hier = result.column("hier_gflops")
        binary = result.column("binary_gflops")
        assert hier[-1] > 2.0 * hier[0]
        assert binary[-1] > 2.0 * binary[0]
        assert hier[-1] > result.column("flat_gflops")[-1]

    def test_flat_stops_scaling(self, result):
        flat = result.column("flat_gflops")
        assert flat[-1] < 1.3 * flat[1]


class TestFigure7:
    def test_shifted_faster_and_more_overlapped(self):
        res = run_figure7(CFG)
        (fixed, shifted) = res.rows
        assert shifted[1] < fixed[1]  # makespan
        assert shifted[2] > fixed[2]  # gflops
        assert shifted[3] > fixed[3]  # flat/binary overlap

    def test_gantt_renders(self):
        txt = trace_gantt(CFG, workers_shown=8, width=60)
        assert "|" in txt
        assert any(c in txt for c in "FUB")


class TestSection6A:
    def test_strong_pulsar_beats_baselines(self):
        res = run_section6a_strong(CFG)
        idx = {h: i for i, h in enumerate(res.headers)}
        for row in res.rows[1:]:  # skip the tiny first allocation
            assert row[idx["pulsar/parsec"]] > 1.0
            assert row[idx["pulsar/scalapack"]] > 1.0
        # At the largest allocation the ScaLAPACK gap is substantial.
        assert res.rows[-1][idx["pulsar/scalapack"]] > 1.4

    def test_weak_pulsar_beats_parsec(self):
        res = run_section6a_weak(CFG)
        assert all(row[-1] > 1.0 for row in res.rows)


class TestTuning:
    def test_sweep_covers_grid(self):
        res = run_tuning(CFG, m=CFG.fig10_m[1])
        per_tree: dict[str, list[float]] = {}
        for tree, _nb, _h, g in res.rows:
            assert g > 0
            per_tree.setdefault(tree, []).append(g)
        assert set(per_tree) == set(CFG.trees)
        assert len(per_tree["hier"]) == 4  # 2 nb x 2 h
        assert len(per_tree["flat"]) == 2
        assert len(res.notes) >= len(CFG.trees)
        # The winner after tuning is still the hierarchical tree.
        assert max(per_tree["hier"]) >= max(per_tree["flat"])


class TestScheduling:
    def test_lazy_at_least_as_good_for_trees(self):
        res = run_scheduling(CFG)
        by_tree: dict[str, dict[str, float]] = {}
        util: dict[tuple[str, str], float] = {}
        for tree, policy, g, u in res.rows:
            by_tree.setdefault(tree, {})[policy] = g
            util[(tree, policy)] = u
        assert by_tree["hier"]["lazy"] >= by_tree["hier"]["aggressive"]
        assert by_tree["binary"]["lazy"] >= by_tree["binary"]["aggressive"]
        assert util[("hier", "lazy")] >= util[("hier", "aggressive")]


class TestWeakScaling:
    def test_memory_per_node_constant(self):
        cfg = CFG
        mems = [
            memory_per_node((cfg.fig11_m // cfg.fig11_cores[2]) * c, cfg.n, c, cfg)
            for c in cfg.fig11_cores
        ]
        for m in mems[1:]:
            assert m == pytest.approx(mems[0], rel=0.05)

    def test_runs(self):
        res = run_weak_scaling(CFG)
        assert len(res.rows) == len(CFG.fig11_cores)
        hier = res.column("hier_gflops")
        # Total rate grows with the machine for the hierarchical tree; the
        # flat tree cannot absorb the added rows.
        assert hier[-1] > 3.0 * hier[0]
        assert hier[-1] > res.column("flat_gflops")[-1]


class TestChaos:
    def test_every_faulty_run_is_bit_exact(self):
        res = run_chaos(CFG)
        assert all(res.column("exact"))
        # The sweep must actually inject faults, or it proves nothing.
        assert max(res.column("retransmits")) > 0
        assert max(res.column("respawned")) > 0

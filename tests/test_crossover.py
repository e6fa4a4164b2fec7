"""Tests for the crossover-analysis experiment (E12)."""

from __future__ import annotations

import pytest

from repro.experiments import find_crossover, run_crossover, scaled

CFG = scaled(32)


class TestFindCrossover:
    def test_hier_crossover_within_range(self):
        m_x = find_crossover("flat", "hier", CFG)
        assert m_x is not None
        assert CFG.fig10_m[0] <= m_x <= CFG.fig10_m[-1]
        assert m_x % CFG.nb == 0

    def test_self_crossover_is_immediate_or_never(self):
        # A tree never strictly beats itself.
        assert find_crossover("hier", "hier", CFG) is None

    def test_tolerance_respected(self):
        coarse = find_crossover("flat", "hier", CFG, tol_tiles=16)
        fine = find_crossover("flat", "hier", CFG, tol_tiles=2)
        assert abs(coarse - fine) <= 16 * CFG.nb


class TestRunCrossover:
    def test_table(self):
        res = run_crossover(CFG)
        rows = {r[0]: r[1] for r in res.rows}
        assert set(rows) == {"hier", "binary"}
        # Both scalable trees overtake flat, the hierarchical tree first.
        assert isinstance(rows["hier"], int)
        assert isinstance(rows["binary"], int)
        assert rows["hier"] <= rows["binary"]

"""Unit tests for the comparison baselines."""

from __future__ import annotations

import pytest

from repro.baselines import (
    ParsecModel,
    parsec_qr_simulate,
    scalapack_qr_time,
)
from repro.machine import kraken
from repro.tiles import TileLayout
from repro.trees import plan_all_panels
from repro.util import ConfigurationError


class TestScalapackModel:
    def test_estimate_fields(self):
        est = scalapack_qr_time(23040, 1152, 240, kraken())
        assert est.seconds > 0
        assert est.panel_seconds + est.update_seconds == pytest.approx(est.seconds)
        assert est.grid[0] * est.grid[1] == 240
        assert 0 < est.gflops

    def test_panel_dominates_tall_skinny(self):
        """On tall-skinny matrices the latency-bound panel is the story."""
        est = scalapack_qr_time(368640, 4608, 3840, kraken())
        assert est.panel_fraction > 0.5

    def test_more_cores_never_slower(self):
        t1 = scalapack_qr_time(46080, 1152, 120, kraken()).seconds
        t2 = scalapack_qr_time(46080, 1152, 960, kraken()).seconds
        assert t2 <= t1

    def test_strong_scaling_saturates(self):
        """Latency terms bound the achievable speedup."""
        g_small = scalapack_qr_time(92160, 4608, 1200, kraken()).gflops
        g_large = scalapack_qr_time(92160, 4608, 9600, kraken()).gflops
        assert g_large < 4.0 * g_small

    def test_requires_tall(self):
        with pytest.raises(ConfigurationError):
            scalapack_qr_time(10, 100, 12, kraken())


class TestParsecModel:
    def setup_graph(self, cores=48):
        layout = TileLayout(3840, 768, 192)
        plans = plan_all_panels("hier", layout.mt, layout.nt, h=6)
        return layout, plans, cores

    def test_slower_than_pulsar(self):
        from repro.dessim import simulate
        from repro.qr.dag import build_qr_taskgraph

        layout, plans, cores = self.setup_graph()
        mach = kraken()
        qtg = build_qr_taskgraph(layout, plans, mach, cores, 48)
        pulsar = simulate(
            qtg.graph, n_workers=qtg.n_workers, task_overhead_s=mach.task_overhead_s
        ).gflops(qtg.useful_flops)
        _, parsec = parsec_qr_simulate(layout, plans, mach, cores, 48)
        assert parsec < pulsar
        # The calibrated gap is in the paper's ballpark (5%..30%).
        assert 1.03 < pulsar / parsec < 1.35

    def test_dilation_knob_monotone(self):
        layout, plans, cores = self.setup_graph()
        _, g1 = parsec_qr_simulate(
            layout, plans, kraken(), cores, 48, model=ParsecModel(task_dilation=1.05)
        )
        _, g2 = parsec_qr_simulate(
            layout, plans, kraken(), cores, 48, model=ParsecModel(task_dilation=1.30)
        )
        assert g2 < g1

    def test_model_validation(self):
        with pytest.raises(ConfigurationError):
            ParsecModel(task_dilation=0.0)
        with pytest.raises(ConfigurationError):
            ParsecModel(overhead_factor=-1.0)

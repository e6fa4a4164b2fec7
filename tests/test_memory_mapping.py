"""Tests for memory accounting (E8) and the launch-mapping ablation (E9)."""

from __future__ import annotations

import pytest

from repro.experiments import run_mapping_ablation, run_memory_limits, scaled
from repro.machine import (
    MemoryModel,
    kraken,
    max_rows_strong_scaling,
    qr_node_memory,
)
from repro.tiles import TileLayout
from repro.util import ConfigurationError

CFG = scaled(32)


class TestMemoryModel:
    def test_defaults(self):
        mm = MemoryModel()
        assert mm.node_bytes == 16 * 1024**3  # Kraken: 16 GB/node
        assert mm.usable_bytes < mm.node_bytes

    def test_reserved_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            MemoryModel(reserved_fraction=1.5)

    def test_breakdown_components_positive(self):
        layout = TileLayout(92160, 4608, 192)
        bd = qr_node_memory(layout, 9216, kraken(), 48)
        assert bd.tiles > 0 and bd.t_factors > 0 and bd.runtime > 0
        assert bd.total == pytest.approx(
            bd.tiles + bd.t_factors + bd.runtime + bd.comm_buffers
        )

    def test_tiles_dominate(self):
        """Payload is the footprint; metadata is a small correction."""
        layout = TileLayout(368640, 4608, 192)
        bd = qr_node_memory(layout, 3840, kraken(), 48)
        assert bd.tiles > bd.runtime + bd.comm_buffers

    def test_comm_buffers_constant_per_node(self):
        """Buffers are per in-flight message, not per channel."""
        small = qr_node_memory(TileLayout(92160, 4608, 192), 1152, kraken(), 48)
        large = qr_node_memory(TileLayout(368640, 4608, 192), 1152, kraken(), 48)
        assert small.comm_buffers == large.comm_buffers

    def test_single_node_has_no_comm_buffers(self):
        layout = TileLayout(3840, 768, 192)
        bd = qr_node_memory(layout, 12, kraken(), 48)
        assert bd.comm_buffers == 0.0

    def test_footprint_scales_inverse_with_nodes(self):
        layout = TileLayout(92160, 4608, 192)
        small = qr_node_memory(layout, 1152, kraken(), 48)
        large = qr_node_memory(layout, 9216, kraken(), 48)
        assert small.tiles == pytest.approx(8 * large.tiles)


class TestStrongScalingLimit:
    def test_limit_grows_with_machine(self):
        m1 = max_rows_strong_scaling(4608, 192, 48, 480, kraken())
        m2 = max_rows_strong_scaling(4608, 192, 48, 3840, kraken())
        assert m2 > 6 * m1

    def test_limit_is_feasible_boundary(self):
        cores = 480
        m_max = max_rows_strong_scaling(4608, 192, 48, cores, kraken())
        fits = qr_node_memory(TileLayout(m_max, 4608, 192), cores, kraken(), 48)
        over = qr_node_memory(TileLayout(m_max + 192, 4608, 192), cores, kraken(), 48)
        assert fits.fits and not over.fits

    def test_paper_configs_fit(self):
        """Every Figure 10/11 configuration fits Kraken's 16 GB nodes."""
        bd = qr_node_memory(TileLayout(737280, 4608, 192), 9216, kraken(), 48)
        assert bd.fits
        bd = qr_node_memory(TileLayout(368640, 4608, 192), 480, kraken(), 48)
        assert bd.fits

    def test_small_memory_bites(self):
        tiny = MemoryModel(node_bytes=64 * 1024**2)
        m_max = max_rows_strong_scaling(4608, 192, 48, 480, kraken(), mem=tiny)
        normal = max_rows_strong_scaling(4608, 192, 48, 480, kraken())
        assert m_max < normal / 100


class TestMemoryExperiment:
    def test_table_shape_and_claim(self):
        res = run_memory_limits(CFG)
        assert len(res.rows) == len(CFG.fig11_cores)
        max_ms = res.column("max_m")
        assert max_ms == sorted(max_ms)  # more nodes -> larger feasible m
        assert max_ms[-1] > 5 * max_ms[0]
        assert res.notes


class TestMappingAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_mapping_ablation(CFG)

    def test_three_variants(self, result):
        assert result.column("launch") == ["per-node", "per-socket", "oversubscribed"]

    def test_worker_counts(self, result):
        workers = dict(zip(result.column("launch"), result.column("workers")))
        cores = CFG.fig11_cores[2]
        assert workers["per-node"] == cores // 12 * 11
        assert workers["per-socket"] == cores // 6 * 5
        assert workers["oversubscribed"] == cores

    def test_per_node_beats_oversubscription(self, result):
        g = dict(zip(result.column("launch"), result.column("gflops")))
        assert g["per-node"] > g["oversubscribed"]

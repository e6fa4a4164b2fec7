"""Tests for the extension modules: auto tree selection, factor
persistence, and SVG chart rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro import qr_factor
from repro.experiments.report import ExperimentResult
from repro.experiments.svgplot import LineChart, Series, chart_from_result
from repro.machine import kraken
from repro.qr.persist import load_factorization, save_factorization
from repro.tiles import random_dense
from repro.trees.auto import choose_domain_size, panel_depth_model
from repro.util import ConfigurationError


class TestAutoDomainSize:
    MACH = kraken()

    def test_depth_model_extremes(self):
        # h=1 is pure binary (no flat chain); h=r is pure flat.
        c_ts, c_tt = 2.0, 1.0
        r = 64
        assert panel_depth_model(r, 1, c_ts, c_tt) == pytest.approx(6.0)
        assert panel_depth_model(r, r, c_ts, c_tt) == pytest.approx((r - 1) * c_ts)

    def test_chosen_h_beats_extremes(self):
        h = choose_domain_size(3840, machine=self.MACH, nb=192, ib=48)
        c_ts = self.MACH.kernel_seconds("TSQRT", 192, 192, 0, 48) + self.MACH.kernel_seconds(
            "TSMQR", 192, 192, 192, 48
        )
        c_tt = self.MACH.kernel_seconds("TTQRT", 192, 192, 0, 48) + self.MACH.kernel_seconds(
            "TTMQR", 192, 192, 192, 48
        )
        t_best = panel_depth_model(3840, h, c_ts, c_tt)
        assert t_best <= panel_depth_model(3840, 1, c_ts, c_tt)
        assert t_best <= panel_depth_model(3840, 3840, c_ts, c_tt)

    def test_chosen_h_small(self):
        """On Kraken-like cost ratios the model lands near the paper's
        empirically best h in {6, 12}."""
        h = choose_domain_size(1920, machine=self.MACH, nb=192, ib=48)
        assert 1 <= h <= 24

    def test_worker_cap_raises_h(self):
        free = choose_domain_size(3840, machine=self.MACH, nb=192, ib=48)
        capped = choose_domain_size(3840, machine=self.MACH, nb=192, ib=48, workers=64)
        assert capped >= free
        assert -(-3840 // capped) <= 64

    def test_single_row(self):
        assert choose_domain_size(1, machine=self.MACH, nb=192, ib=48) == 1


class TestPersistence:
    @pytest.mark.parametrize("tree", ["flat", "hier", "binary"])
    def test_roundtrip_bit_exact(self, tmp_path, tree):
        a = random_dense(40, 24, seed=75)
        f = qr_factor(a, nb=8, ib=4, tree=tree, h=3)
        path = tmp_path / "fac.npz"
        save_factorization(path, f)
        g = load_factorization(path)
        np.testing.assert_array_equal(f.R, g.R)
        probe = np.linspace(-1, 1, 40)
        np.testing.assert_array_equal(f.qt_matmul(probe), g.qt_matmul(probe))
        assert g.tree == f.tree
        assert g.backend == "loaded"

    def test_loaded_solves_least_squares(self, tmp_path):
        a = random_dense(60, 12, seed=76)
        b = a @ np.arange(12.0)
        f = qr_factor(a, nb=8, ib=4, tree="hier", h=3)
        save_factorization(tmp_path / "f.npz", f)
        g = load_factorization(tmp_path / "f.npz")
        np.testing.assert_allclose(g.solve(b), np.arange(12.0), atol=1e-10)

    def test_ragged_roundtrip(self, tmp_path):
        a = random_dense(37, 21, seed=77)
        f = qr_factor(a, nb=8, ib=4, tree="binary")
        save_factorization(tmp_path / "f.npz", f)
        g = load_factorization(tmp_path / "f.npz")
        np.testing.assert_array_equal(f.R, g.R)

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, __meta__=np.array([99, 8, 8, 8, 4]), __tree__=np.array(["flat"]),
                 __records__=np.zeros((0, 6), dtype=np.int64))
        with pytest.raises(ConfigurationError, match="format version"):
            load_factorization(path)

    def test_path_without_suffix_gets_npz(self, tmp_path):
        a = random_dense(40, 24, seed=78)
        f = qr_factor(a, nb=8, ib=4, tree="hier", h=3)
        save_factorization(tmp_path / "bare", f)  # numpy-compatible behaviour
        g = load_factorization(tmp_path / "bare.npz")
        np.testing.assert_array_equal(f.R, g.R)

    def test_save_killed_midway_leaves_old_archive_intact(self, tmp_path, monkeypatch):
        """Crash-safety: a write dying halfway never corrupts the target."""
        import repro.qr.persist as persist_mod

        a = random_dense(40, 24, seed=79)
        f = qr_factor(a, nb=8, ib=4, tree="hier", h=3)
        path = tmp_path / "fac.npz"
        save_factorization(path, f)
        good = path.read_bytes()

        real_savez = persist_mod.np.savez_compressed

        def killed_midway(fh, **arrays):
            real_savez(fh, **arrays)  # bytes hit the temp file...
            raise KeyboardInterrupt("simulated kill -9 before rename")

        monkeypatch.setattr(persist_mod.np, "savez_compressed", killed_midway)
        g = qr_factor(random_dense(40, 24, seed=80), nb=8, ib=4, tree="hier", h=3)
        with pytest.raises(KeyboardInterrupt):
            save_factorization(path, g)
        # The interrupted save changed nothing visible and left no litter.
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["fac.npz"]
        np.testing.assert_array_equal(load_factorization(path).R, f.R)


class TestSvgPlot:
    def test_series_validation(self):
        with pytest.raises(ConfigurationError):
            Series("x", [1, 2], [1])
        with pytest.raises(ConfigurationError):
            Series("x", [], [])

    def test_chart_renders_all_series(self):
        c = LineChart("T", "x", "y")
        c.add("alpha", [1, 2, 3], [1, 4, 9])
        c.add("beta", [1, 2, 3], [2, 3, 4])
        svg = c.to_svg()
        assert svg.startswith("<svg")
        assert "alpha" in svg and "beta" in svg
        assert svg.count("<polyline") == 2

    def test_log_axis_requires_positive(self):
        c = LineChart("T", "x", "y", log_x=True)
        c.add("s", [0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            c.to_svg()

    def test_empty_chart_rejected(self):
        with pytest.raises(ConfigurationError):
            LineChart("T", "x", "y").to_svg()

    def test_title_escaped(self):
        c = LineChart("a < b & c", "x", "y")
        c.add("s", [1.0], [1.0])
        assert "a &lt; b &amp; c" in c.to_svg()

    def test_chart_from_result(self):
        r = ExperimentResult("demo", ["m", "hier_gflops", "flat_gflops"])
        r.add_row(1000, 10.0, 5.0)
        r.add_row(2000, 20.0, 6.0)
        chart = chart_from_result(
            r, x_column="m",
            y_columns={"hier_gflops": "Hier", "flat_gflops": "Flat"},
            x_label="rows", log_x=True,
        )
        svg = chart.to_svg()
        assert "Hier" in svg and "Flat" in svg

    def test_save(self, tmp_path):
        c = LineChart("T", "x", "y")
        c.add("s", [1.0, 2.0], [1.0, 2.0])
        c.save(tmp_path / "c.svg")
        assert (tmp_path / "c.svg").read_text().startswith("<svg")

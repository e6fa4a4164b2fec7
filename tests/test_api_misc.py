"""API surface tests and failure-injection paths not covered elsewhere."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import QRFactorization, qr_factor
from repro.pulsar import VDP, VSA, Packet
from repro.tiles import TileMatrix, random_dense
from repro.util import ChannelError, ShapeError


class TestTopLevelPackage:
    def test_lazy_exports(self):
        assert repro.qr_factor is qr_factor
        assert repro.QRFactorization is QRFactorization
        assert callable(repro.lstsq)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_version(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("package", ["repro.qr", "repro.obs", "repro.dessim"])
    def test_lazy_subpackages_resolve_every_export(self, package):
        pkg = importlib.import_module(package)
        assert all(getattr(pkg, name) is not None for name in pkg.__all__)
        with pytest.raises(AttributeError):
            pkg.does_not_exist

    def test_a_factor_and_solve_import_only_what_they_run(self):
        """A process that factors and solves through a session and a one-shot
        call loads none of the PULSAR runtime, the simulated network, the
        machine models, the DES engine, the trace tooling or the
        persistence and VSA layers."""
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from repro import QRSession, qr_factor
            a = np.random.default_rng(0).standard_normal((96, 40))
            b = np.random.default_rng(1).standard_normal(96)
            kw = dict(nb=16, ib=8, tree="hier", h=2)
            with QRSession(n_procs=2) as sess:
                x = sess.factor(a, **kw).solve(b)
            assert np.array_equal(qr_factor(a, **kw).solve(b), x)
            print(*sorted(m for m in sys.modules if m.startswith("repro.")))
        """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        loaded = done.stdout.split()
        assert "repro.qr.session" in loaded and "repro.qr.parallel" in loaded
        unused = ("repro.pulsar", "repro.netsim", "repro.machine", "repro.dessim.engine",
                  *(f"repro.obs.{m}" for m in ("analysis", "export", "registry", "sampler",
                                               "validate")),
                  *(f"repro.qr.{m}" for m in ("persist", "vsa3d", "mapping")))
        assert [m for m in loaded if m.startswith(unused)] == []


class TestQRFactorizationSurface:
    @pytest.fixture(scope="class")
    def fac(self):
        a = random_dense(40, 24, seed=50)
        return a, qr_factor(a, nb=8, ib=4, tree="hier", h=3)

    def test_shape(self, fac):
        _, f = fac
        assert f.shape == (40, 24)

    def test_tree_and_backend_metadata(self, fac):
        _, f = fac
        assert f.tree.value == "hier"
        assert f.backend == "serial"
        assert f.stats is None

    def test_pulsar_backend_has_stats(self):
        a = random_dense(24, 16, seed=51)
        f = qr_factor(a, nb=8, ib=4, backend="pulsar", workers_per_node=2)
        assert f.stats is not None and f.stats.firings > 0

    def test_residuals_rejects_bad_shape(self, fac):
        _, f = fac
        with pytest.raises(ShapeError):
            f.residuals(np.zeros(5))

    def test_residuals_flag_the_wrong_matrix(self, fac):
        a, f = fac
        assert f.residuals(a)["factorization"] < 1e-13
        other = random_dense(40, 24, seed=72)
        assert f.residuals(other)["factorization"] > 0.5

    def test_residuals_take_the_tile_matrix_that_was_factored(self):
        tm = TileMatrix.from_dense(random_dense(40, 24, seed=53), 8)
        f = qr_factor(tm, ib=4, tree="hier", h=3)
        assert f.residuals(tm) == f.residuals(tm.to_dense())
        assert f.residuals(tm)["factorization"] < 1e-13

    def test_vector_vs_matrix_apply(self, fac):
        a, f = fac
        v = np.ones(40)
        out_vec = f.qt_matmul(v)
        out_mat = f.qt_matmul(v[:, None])
        assert out_vec.ndim == 1
        np.testing.assert_array_equal(out_vec, out_mat[:, 0])

    def test_integer_input_coerced(self):
        a = np.arange(48).reshape(12, 4) % 7 + np.eye(12, 4)
        f = qr_factor(a, nb=4, ib=2, tree="flat")
        assert f.residuals(np.asarray(a, dtype=float))["factorization"] < 1e-13


class TestFailureInjection:
    def test_oversized_packet_fails_loudly(self):
        """A write exceeding the declared channel size aborts the run."""

        def src(vdp):
            vdp.write(0, Packet.of(np.zeros(1024)))  # 8 KiB >> 64 B

        def sink(vdp):  # pragma: no cover - never fires
            vdp.read(0)

        vsa = VSA()
        vsa.add_vdp(VDP((0,), 1, src, n_out=1))
        vsa.add_vdp(VDP((1,), 1, sink, n_in=1))
        vsa.connect((0,), 0, (1,), 0, max_bytes=64)
        with pytest.raises(ChannelError, match="exceeds channel maximum"):
            vsa.run(deadlock_timeout=5)

    def test_read_from_wrong_slot_fails_loudly(self):
        def src(vdp):
            vdp.write(0, Packet.of(1))

        def sink(vdp):
            vdp.read(3)  # no such slot

        vsa = VSA()
        vsa.add_vdp(VDP((0,), 1, src, n_out=1))
        vsa.add_vdp(VDP((1,), 1, sink, n_in=1))
        vsa.connect((0,), 0, (1,), 0, max_bytes=64)
        with pytest.raises(Exception, match="no input channel"):
            vsa.run(deadlock_timeout=5)

    def test_double_pop_fails_loudly(self):
        def src(vdp):
            vdp.write(0, Packet.of(1))

        def sink(vdp):
            vdp.read(0)
            vdp.read(0)  # queue now empty

        vsa = VSA()
        vsa.add_vdp(VDP((0,), 1, src, n_out=1))
        vsa.add_vdp(VDP((1,), 1, sink, n_in=1))
        vsa.connect((0,), 0, (1,), 0, max_bytes=64)
        with pytest.raises(ChannelError, match="empty"):
            vsa.run(deadlock_timeout=5)


class TestTraceGantt:
    def test_gantt_has_one_lane_per_worker(self):
        from repro.experiments import scaled, trace_gantt

        txt = trace_gantt(scaled(32), workers_shown=6, width=50)
        lanes = [line for line in txt.splitlines() if "|" in line]
        assert len(lanes) == 6

"""The least-squares solve, and the operand rules of ``solve``,
``qt_matmul`` and ``q_matmul``.

``solve`` applies ``Q^T`` to ``b`` one kernel call per record and
back-substitutes with one ``dtrtrs`` on R's upper tiles, neither zeroing
the rest nor scanning R.  These tests pin it bit for bit against the dense
route (``solve_triangular`` on ``f.R``), against ``numpy.linalg.lstsq``,
across geometries, trees and backends, and pin the errors it keeps raising
without the scan.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from repro import QRSession, kernels, qr_factor
from repro.obs import recording
from repro.obs.adapters import KERNEL_CATEGORY
from repro.qr.ops import expand_plans
from repro.qr.reference import execute_ops
from repro.tiles import TileMatrix, random_dense
from repro.trees import plan_all_panels
from repro.util import ConfigurationError, ShapeError

TREES = ("flat", "binary", "hier", "greedy")

#: (m, n, nb): ragged in both directions with a narrow last tile column (and
#: a tile row nt-1 taller than it), square, square and ragged, n < nb.
GEOMETRIES = [(50, 27, 8), (30, 27, 8), (24, 24, 8), (30, 30, 8), (40, 5, 8)]


def _factors(m, n, nb, tree="hier"):
    """A serially factored TileQRFactors (owns its tiles) and its matrix."""
    a = random_dense(m, n, seed=m * n + nb)
    tm = TileMatrix.from_dense(a, nb)
    ops = expand_plans(tm.layout, plan_all_panels(tree, tm.mt, tm.nt, h=2))
    return execute_ops(tm, ops, 4), a


class TestAgainstTheDenseRoute:
    @pytest.mark.parametrize("tree", TREES)
    @pytest.mark.parametrize("m,n,nb", GEOMETRIES)
    def test_matches_solve_triangular_and_lstsq(self, m, n, nb, tree):
        a = random_dense(m, n, seed=m + n + nb)
        b = random_dense(m, 3, seed=7)
        f = qr_factor(a, nb=nb, ib=4, tree=tree, h=2)
        x = f.solve(b)
        dense = scipy.linalg.solve_triangular(f.R, f.qt_matmul(b)[:n], lower=False)
        assert x.shape == (n, 3) and x.dtype == np.float64
        assert np.array_equal(x, dense)
        np.testing.assert_allclose(x, np.linalg.lstsq(a, b, rcond=None)[0], atol=1e-10)

    @pytest.mark.parametrize("m,n,nb", GEOMETRIES)
    def test_vector_b(self, m, n, nb):
        a = random_dense(m, n, seed=3)
        b = random_dense(m, 1, seed=4)[:, 0]
        f = qr_factor(a, nb=nb, ib=4, tree="greedy")
        x = f.solve(b)
        assert x.shape == (n,)
        assert np.array_equal(x, f.solve(b[:, None])[:, 0])
        np.testing.assert_allclose(x, np.linalg.lstsq(a, b, rcond=None)[0], atol=1e-10)

    def test_one_kernel_span_per_record(self):
        f, _ = _factors(50, 27, 8)
        with recording() as rec:
            f.solve_ls(random_dense(50, 2, seed=1))
        kernels = [s.name for s in rec.spans if s.name in KERNEL_CATEGORY]
        assert kernels == [{"GEQRT": "ORMQR", "TSQRT": "TSMQR", "TTQRT": "TTMQR"}[r.kind]
                           for r in f.records]

    def test_factors_are_left_alone(self):
        f, _ = _factors(50, 27, 8)
        before = [t.copy() for _, _, t in f.a.iter_tiles()]
        b = random_dense(50, 2, seed=1)
        b_before = b.copy()
        f.solve_ls(b)
        assert all(np.array_equal(t, u) for (_, _, t), u in zip(f.a.iter_tiles(), before))
        assert np.array_equal(b, b_before)


def test_bit_identical_across_backends():
    a = random_dense(96, 40, seed=5)
    b = random_dense(96, 4, seed=6)
    kw = dict(nb=16, ib=8, tree="hier", h=2)
    xs = {name: qr_factor(a, backend=name, **kw).solve(b) for name in ("serial", "batched")}
    xs["parallel"] = qr_factor(a, backend="parallel", n_procs=2, **kw).solve(b)
    with QRSession(n_procs=2) as sess:
        sess.factor(a, **kw)
        xs["session"] = sess.factor(a, **kw).solve(b)
    for name, x in xs.items():
        assert np.array_equal(x, xs["serial"]), name


class TestNonFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_b_is_refused_naming_the_entry(self, value):
        f, _ = _factors(50, 27, 8)
        b = np.ones((50, 2))
        b[33, 1] = value
        with pytest.raises(ConfigurationError, match=r"b must be finite.*\(33, 1\)"):
            f.solve_ls(b)

    def test_nan_off_the_diagonal_of_r(self):
        f, _ = _factors(50, 27, 8)
        f.a.tile(0, 2)[5, 1] = np.nan
        with pytest.raises(ValueError):
            f.solve_ls(np.ones((50, 1)))

    def test_inf_on_the_diagonal_of_r(self):
        # x's entry would come out 0 and finite: only the diagonal check sees it.
        f, _ = _factors(50, 27, 8)
        f.a.tile(1, 1)[2, 2] = np.inf
        with pytest.raises(ValueError):
            f.solve_ls(np.ones((50, 1)))

    def test_nan_in_a_reflector_reaches_qt_b(self):
        f, _ = _factors(50, 27, 8, tree="flat")
        f.a.tile(4, 0)[3, 3] = np.nan
        with pytest.raises(ValueError):
            f.solve_ls(np.ones((50, 1)))

    def test_finite_r_whose_back_substitution_overflows(self):
        f, _ = _factors(50, 27, 8)
        for k in range(f.n):
            f.a.tile(k // 8, k // 8)[k % 8, k % 8] = 1e-200
        with pytest.raises(ValueError, match="overflowed"):
            f.solve_ls(np.ones((50, 1)))

    def test_exactly_singular_r(self):
        a = random_dense(40, 12, seed=2)
        a[:, 5] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 5"):
            qr_factor(a, nb=8, ib=4, tree="flat").solve(np.ones(40))


def test_an_earlier_session_result_still_solves():
    kw = dict(nb=8, ib=4, tree="hier", h=3)
    a1, a2 = random_dense(40, 24, seed=1), random_dense(40, 24, seed=2)
    b = random_dense(40, 2, seed=3)
    with QRSession(n_procs=2) as sess:
        first = sess.factor(a1, **kw)
        for _ in range(3):
            later = sess.factor(a2, **kw)
        assert np.array_equal(first.solve(b), qr_factor(a1, **kw).solve(b))
        assert np.array_equal(later.solve(b), qr_factor(a2, **kw).solve(b))


class TestOperands:
    """One coercion for ``solve`` / ``qt_matmul`` / ``q_matmul``."""

    @pytest.fixture(scope="class")
    def fac(self):
        return qr_factor(random_dense(50, 27, seed=9), nb=8, ib=4, tree="binary")

    @pytest.mark.parametrize("entry,rows", [("solve", 27), ("qt_matmul", 50), ("q_matmul", 50)])
    def test_empty_right_hand_side(self, fac, entry, rows):
        out = getattr(fac, entry)(np.zeros((50, 0)))
        assert out.shape == (rows, 0) and out.dtype == np.float64

    @pytest.mark.parametrize("entry", ["solve", "qt_matmul", "q_matmul"])
    @pytest.mark.parametrize("bad", [np.float64(1.0), 1.0, np.ones((50, 2, 1)), np.ones(49),
                                     np.ones((51, 2))])
    def test_bad_shapes_are_shape_errors(self, fac, entry, bad):
        with pytest.raises(ShapeError):
            getattr(fac, entry)(bad)

    @pytest.mark.parametrize("entry,name", [("solve", "b"), ("qt_matmul", "c"), ("q_matmul", "c")])
    def test_complex_operand_is_refused(self, fac, entry, name):
        c = np.ones((50, 2)) + 1j
        with pytest.raises(ConfigurationError, match=f"{name} must be real"):
            getattr(fac, entry)(c)


def test_a_session_refuses_a_complex_matrix():
    a = random_dense(40, 24, seed=4) + 1j * random_dense(40, 24, seed=5)
    with QRSession(n_procs=2) as sess:
        with pytest.raises(ConfigurationError, match="A must be real"):
            sess.factor(a, nb=8, ib=4, tree="hier", h=3)


class TestResidualsOperand:
    """``residuals(a)`` takes the factored matrix and nothing that merely
    broadcasts against it."""

    @pytest.fixture(scope="class")
    def fac(self):
        a = random_dense(64, 16, seed=11)
        return qr_factor(a, nb=8, ib=4, tree="hier", h=2), a

    @pytest.mark.parametrize("cut", [np.s_[:, :1], np.s_[:1, :], np.s_[:32]])
    def test_a_of_another_shape_is_a_shape_error_naming_a(self, fac, cut):
        f, a = fac
        with pytest.raises(ShapeError, match="A must have the factored shape"):
            f.residuals(a[cut])


# -- the Q path: one LAPACK call per record ------------------------------------

#: Ragged geometries for the Q path: ``m`` not a multiple of ``nb`` (a TT
#: block with ``m2 < nb`` on the binary and greedy trees), a narrow last
#: tile column, square, and ``n < nb``.
Q_GEOMETRIES = [(50, 27, 8), (61, 20, 8), (24, 24, 8), (40, 5, 8), (64, 16, 8)]


def _kernel_loop(f, c, trans):
    """``Q^T c`` / ``Q c`` applied record by record through the public
    :mod:`repro.kernels` functions, one Fortran-order block per tile row."""
    layout, grid = f.a.layout, f.a.grid
    blocks = [np.array(c[layout.row_span(i)], order="F") for i in range(layout.mt)]
    for rec in f.records if trans else reversed(f.records):
        if rec.kind == "GEQRT":
            kernels.ormqr(grid[rec.i][rec.j], rec.t, blocks[rec.i], trans=trans)
        elif rec.kind == "TSQRT":
            kernels.tsmqr(grid[rec.k2][rec.j], rec.t, blocks[rec.i], blocks[rec.k2],
                          trans=trans)
        else:
            kernels.ttmqr(grid[rec.k2][rec.j][: rec.m2, : rec.k], rec.t, blocks[rec.i],
                          blocks[rec.k2][: rec.m2, :], trans=trans)
    return np.concatenate(blocks)


def _kernel_loop_q_thin(f):
    c = np.zeros((f.m, f.n))
    c[: f.n, : f.n] = np.eye(f.n)
    return _kernel_loop(f, c, False)


class TestQPathAgainstTheKernelLoop:
    @pytest.mark.parametrize("tree", TREES)
    @pytest.mark.parametrize("m,n,nb", Q_GEOMETRIES)
    def test_products_and_q_thin_are_bit_equal(self, m, n, nb, tree):
        a = random_dense(m, n, seed=m * n + nb)
        f = qr_factor(a, nb=nb, ib=4, tree=tree, h=2)
        fac = f._factors
        c = random_dense(m, 5, seed=3)
        for operand in (c, np.asfortranarray(c), c[:, ::2], c[:, 1]):
            wide = operand[:, None] if operand.ndim == 1 else operand
            for entry, trans in ((f.qt_matmul, True), (f.q_matmul, False)):
                out = entry(operand)
                ref = _kernel_loop(fac, wide, trans)
                assert np.array_equal(out, ref[:, 0] if operand.ndim == 1 else ref)
        assert np.array_equal(f.q_thin(), _kernel_loop_q_thin(fac))

    @pytest.mark.parametrize("tree", TREES)
    @pytest.mark.parametrize("m,n,nb", Q_GEOMETRIES)
    def test_residuals_are_bit_equal(self, m, n, nb, tree):
        a = random_dense(m, n, seed=m + nb)
        f = qr_factor(a, nb=nb, ib=4, tree=tree, h=2)
        q = _kernel_loop_q_thin(f._factors)
        res = float(np.linalg.norm(a - q @ f.R) / max(np.linalg.norm(a), 1e-300))
        orth = float(np.linalg.norm(q.T @ q - np.eye(n)))
        assert f.residuals(a) == {"factorization": res, "orthogonality": orth}

    @pytest.mark.parametrize("entry", ["q_matmul", "q_thin"])
    def test_one_kernel_span_per_record_backwards(self, entry):
        f, _ = _factors(50, 27, 8, tree="binary")
        c = random_dense(50, 3, seed=2)
        with recording() as rec:
            f.apply_q(c) if entry == "q_matmul" else f.q_thin()
        with recording() as ref:
            _kernel_loop(f, c, False) if entry == "q_matmul" else _kernel_loop_q_thin(f)
        kernel_spans = [s.name for s in rec.spans if s.name in KERNEL_CATEGORY]
        assert kernel_spans == [{"GEQRT": "ORMQR", "TSQRT": "TSMQR", "TTQRT": "TTMQR"}[r.kind]
                                for r in reversed(f.records)]
        assert "TTMQR" in kernel_spans
        assert dict(rec.counters) == dict(ref.counters)  # same flops, kernel by kernel

    def test_peak_memory_stays_near_two_copies_of_a(self):
        a = random_dense(1024, 128, seed=5)
        f = qr_factor(a, nb=32, ib=16, tree="hier", h=2)
        f.residuals(a)  # first-call allocations stay outside the measurement
        for call in (lambda: f.residuals(a), f.q_thin):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * a.nbytes, peak / a.nbytes


def test_a_solve_leaves_the_pickle_as_it_was():
    """Applying ``Q`` keeps nothing on the result: the pickle is the same
    size before and after a ``solve``, and its copy solves bit-equal."""
    f = qr_factor(random_dense(50, 27, seed=4), nb=8, ib=4, tree="binary")
    b = random_dense(50, 3, seed=5)
    before = pickle.dumps(f)
    x = f.solve(b)
    after = pickle.dumps(f)
    assert len(after) == len(before)
    assert np.array_equal(pickle.loads(after).solve(b), x)


LEAST_SQUARES_SMOKE = """
    import numpy as np
    from repro import QRSession, qr_factor
    from repro.util import ConfigurationError

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((512, 128)), rng.standard_normal((512, 16))
    kw = dict(nb=32, ib=16, tree="hier", h=2)
    xs = {name: qr_factor(a, backend=name, **kw).solve(b) for name in ("serial", "batched")}
    xs["parallel"] = qr_factor(a, backend="parallel", n_procs=2, **kw).solve(b)
    xs["pulsar"] = qr_factor(a, backend="pulsar", n_nodes=2, workers_per_node=1,
                             **kw).solve(b)
    with QRSession(n_procs=2) as sess:
        sess.factor(a, **kw)
        f = sess.factor(a, **kw)
        xs["session"] = f.solve(b)
        try:
            f.solve(b + 1j)
        except ConfigurationError as exc:
            assert "b must be real" in str(exc), exc
        else:
            raise AssertionError("a complex b was solved")
    ref = np.linalg.lstsq(a, b, rcond=None)[0]
    for name, x in xs.items():
        assert np.array_equal(x, xs["serial"]), f"{name} differs from serial"
        err = np.abs(x - ref).max() / np.abs(ref).max()
        assert err <= 1e-10, f"{name}: {err:.2e} from lstsq"
    print(f"four backends and a session bit-equal, {err:.1e} from lstsq, complex b refused")
"""


def test_least_squares_smoke_under_dev_mode():
    """The burst geometry on all four backends and a warm session, in a fresh
    interpreter under ``-X dev -W error``: bit-equal solutions within 1e-10
    of ``numpy.linalg.lstsq``, a complex ``b`` refused, and nothing at all on
    stderr (no warning, no leaked resource)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", textwrap.dedent(LEAST_SQUARES_SMOKE)],
        env=env, timeout=120, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert "complex b refused" in done.stdout

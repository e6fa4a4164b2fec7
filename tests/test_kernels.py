"""Unit tests for the six tile kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import (
    geqrt,
    ormqr,
    tsmqr,
    tsqrt,
    ttmqr,
    ttqrt,
)
from repro.util import ShapeError


def reflector_matrix(v_tail: np.ndarray, tau: float, n: int) -> np.ndarray:
    v = np.zeros(n)
    v[0] = 1.0
    v[1 : 1 + len(v_tail)] = v_tail
    return np.eye(n) - tau * np.outer(v, v)


def geqrt_column(x: np.ndarray) -> tuple[float, np.ndarray, float]:
    """One-column GEQRT: ``(R[0, 0], V tail, T[0, 0])`` of ``x``."""
    a = np.array(x, dtype=float).reshape(-1, 1)
    t = geqrt(a, 1)
    return a[0, 0], a[1:, 0], t[0, 0]


class TestGeqrtOneColumn:
    """The elementary reflector LAPACK's ``dlarfg`` makes, seen through the
    kernel that runs: ``H x = R[0, 0] e_1`` with ``H = I - T v v^T``."""

    def test_annihilates_tail(self, rng):
        x = rng.standard_normal(7)
        beta, v, tau = geqrt_column(x)
        hx = reflector_matrix(v, tau, 7) @ x
        assert hx[0] == pytest.approx(beta)
        np.testing.assert_allclose(hx[1:], 0.0, atol=1e-13)

    def test_reflects_to_minus_sign_norm(self, rng):
        x = rng.standard_normal(5)
        beta, _, tau = geqrt_column(x)
        assert beta == pytest.approx(-np.sign(x[0]) * np.linalg.norm(x), rel=1e-14)
        assert 0.0 <= tau <= 2.0

    def test_orthogonality(self, rng):
        x = rng.standard_normal(6)
        _, v, tau = geqrt_column(x)
        h = reflector_matrix(v, tau, 6)
        np.testing.assert_allclose(h @ h.T, np.eye(6), atol=1e-13)

    def test_zero_tail_is_identity(self):
        beta, v, tau = geqrt_column([3.0, 0.0, 0.0])
        assert (beta, tau) == (3.0, 0.0)  # LAPACK's H = I encoding
        np.testing.assert_array_equal(v, 0.0)

    def test_sign_avoids_cancellation(self):
        beta, _, _ = geqrt_column([5.0, 1e-8])
        assert beta == -5.0  # beta takes the opposite sign of alpha

    def test_length_one(self):
        beta, v, tau = geqrt_column([2.0])
        assert (beta, tau) == (2.0, 0.0)
        assert v.size == 0


class TestGeqrt:
    @pytest.mark.parametrize("m,n,ib", [(8, 8, 2), (8, 8, 8), (20, 12, 3), (12, 20, 4), (7, 3, 1)])
    def test_factorization(self, rng, m, n, ib):
        a0 = rng.standard_normal((m, n))
        a = a0.copy()
        t = geqrt(a, ib)
        k = min(m, n)
        assert t.shape == (ib, k)
        c = a0.copy()
        ormqr(a, t, c, trans=True)
        # Q^T A must equal the stored R (upper trapezoid), zeros elsewhere.
        np.testing.assert_allclose(np.triu(c[:k, :]), np.triu(a)[:k, :], atol=1e-12)
        np.testing.assert_allclose(np.tril(c[:k, :], -1), 0.0, atol=1e-12)
        if m > k:
            np.testing.assert_allclose(c[k:, :], 0.0, atol=1e-12)

    def test_q_orthogonal(self, rng):
        a = rng.standard_normal((12, 8))
        t = geqrt(a, 4)
        q = np.eye(12)
        ormqr(a, t, q, trans=False)
        np.testing.assert_allclose(q.T @ q, np.eye(12), atol=1e-12)

    def test_r_matches_lapack_up_to_sign(self, rng):
        a0 = rng.standard_normal((16, 8))
        a = a0.copy()
        geqrt(a, 4)
        r_ours = np.abs(np.triu(a)[:8, :])
        r_np = np.abs(np.linalg.qr(a0, mode="r"))
        np.testing.assert_allclose(r_ours, r_np, atol=1e-12)

    def test_q_qt_inverse(self, rng):
        a = rng.standard_normal((10, 6))
        t = geqrt(a, 3)
        c0 = rng.standard_normal((10, 4))
        c = c0.copy()
        ormqr(a, t, c, trans=True)
        ormqr(a, t, c, trans=False)
        np.testing.assert_allclose(c, c0, atol=1e-12)

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ShapeError):
            geqrt(rng.standard_normal(5), 2)
        a = rng.standard_normal((8, 8))
        t = geqrt(a, 4)
        with pytest.raises(ShapeError):
            ormqr(a, t, np.zeros((7, 3)))  # wrong row count


class TestTsqrt:
    @pytest.mark.parametrize("k,m2,ib", [(8, 8, 2), (8, 8, 8), (8, 3, 4), (12, 12, 3)])
    def test_eliminates_second_tile(self, rng, k, m2, ib):
        r0 = np.triu(rng.standard_normal((k, k)))
        b0 = rng.standard_normal((m2, k))
        r, b = r0.copy(), b0.copy()
        t = tsqrt(r, b, ib)
        c1, c2 = r0.copy(), b0.copy()
        tsmqr(b, t, c1, c2, trans=True)
        np.testing.assert_allclose(np.triu(c1), np.triu(r), atol=1e-12)
        np.testing.assert_allclose(c2, 0.0, atol=1e-12)

    def test_below_diagonal_untouched(self, rng):
        """The pivot's strictly-lower storage holds other reflectors."""
        r = rng.standard_normal((8, 8))
        low0 = np.tril(r, -1).copy()
        b = rng.standard_normal((8, 8))
        tsqrt(r, b, 4)
        np.testing.assert_array_equal(np.tril(r, -1), low0)

    def test_q_orthogonal(self, rng):
        k, m2 = 6, 6
        r = np.triu(rng.standard_normal((k, k)))
        b = rng.standard_normal((m2, k))
        t = tsqrt(r, b, 3)
        c1 = np.hstack([np.eye(k), np.zeros((k, m2))])
        c2 = np.hstack([np.zeros((m2, k)), np.eye(m2)])
        tsmqr(b, t, c1, c2, trans=False)
        q = np.vstack([c1, c2])
        np.testing.assert_allclose(q.T @ q, np.eye(k + m2), atol=1e-12)

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ShapeError):
            tsqrt(rng.standard_normal((4, 5)), rng.standard_normal((4, 5)), 2)
        with pytest.raises(ShapeError):
            tsqrt(np.eye(4), rng.standard_normal((4, 3)), 2)

    def test_tsmqr_shape_checks(self, rng):
        r = np.triu(rng.standard_normal((4, 4)))
        b = rng.standard_normal((4, 4))
        t = tsqrt(r, b, 2)
        with pytest.raises(ShapeError):
            tsmqr(b, t, np.zeros((2, 3)), np.zeros((4, 3)))  # c1 too short
        with pytest.raises(ShapeError):
            tsmqr(b, t, np.zeros((4, 3)), np.zeros((5, 3)))  # c2 mismatch


class TestTtqrt:
    @pytest.mark.parametrize("k,m2,ib", [(8, 8, 2), (8, 8, 8), (8, 5, 4), (9, 9, 3)])
    def test_eliminates_triangle(self, rng, k, m2, ib):
        r1_0 = np.triu(rng.standard_normal((k, k)))
        r2_0 = np.triu(rng.standard_normal((m2, k)))
        r1, r2 = r1_0.copy(), r2_0.copy()
        t = ttqrt(r1, r2, ib)
        c1, c2 = r1_0.copy(), r2_0.copy()
        ttmqr(r2, t, c1, c2, trans=True)
        np.testing.assert_allclose(np.triu(c1), np.triu(r1), atol=1e-12)
        np.testing.assert_allclose(c2, 0.0, atol=1e-12)

    def test_preserves_triangularity_of_v2(self, rng):
        r1 = np.triu(rng.standard_normal((8, 8)))
        r2 = np.triu(rng.standard_normal((8, 8)))
        ttqrt(r1, r2, 4)
        np.testing.assert_array_equal(np.tril(r2, -1), 0.0)

    def test_lower_storage_of_both_tiles_untouched(self, rng):
        """Regression: TT kernels must mask the foreign reflector storage."""
        r1 = rng.standard_normal((8, 8))
        r2 = rng.standard_normal((8, 8))
        low1, low2 = np.tril(r1, -1).copy(), np.tril(r2, -1).copy()
        t = ttqrt(r1, r2, 4)
        np.testing.assert_array_equal(np.tril(r1, -1), low1)
        np.testing.assert_array_equal(np.tril(r2, -1), low2)
        # ... and the apply must ignore it too: two tiles whose triu parts
        # agree but whose lower junk differs must produce identical updates.
        c1a, c2a = np.ones((8, 4)), np.ones((8, 4))
        c1b, c2b = np.ones((8, 4)), np.ones((8, 4))
        r2_clean = np.triu(r2)
        ttmqr(r2, t, c1a, c2a, trans=True)
        ttmqr(r2_clean, t, c1b, c2b, trans=True)
        np.testing.assert_array_equal(c1a, c1b)
        np.testing.assert_array_equal(c2a, c2b)

    def test_q_orthogonal(self, rng):
        k = 6
        r1 = np.triu(rng.standard_normal((k, k)))
        r2 = np.triu(rng.standard_normal((k, k)))
        t = ttqrt(r1, r2, 3)
        c1 = np.hstack([np.eye(k), np.zeros((k, k))])
        c2 = np.hstack([np.zeros((k, k)), np.eye(k)])
        ttmqr(r2, t, c1, c2, trans=False)
        q = np.vstack([c1, c2])
        np.testing.assert_allclose(q.T @ q, np.eye(2 * k), atol=1e-12)

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ShapeError):
            ttqrt(np.eye(4), np.zeros((5, 4)), 2)  # r2 taller than r1
        with pytest.raises(ShapeError):
            ttqrt(np.zeros((4, 5)), np.zeros((4, 5)), 2)  # r1 not square

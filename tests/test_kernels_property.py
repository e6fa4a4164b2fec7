"""Property-based tests (hypothesis) for the tile kernels.

Strategy sizes are kept small — the invariants are dimension-independent
and the suite must run quickly on one core.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import geqrt, kernel_flops, ormqr, tsmqr, tsqrt, ttmqr, ttqrt

SETTINGS = dict(max_examples=25, deadline=None)


def finite_matrix(m: int, n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((m, n))


@settings(**SETTINGS)
@given(n=st.integers(1, 16), seed=st.integers(0, 2**31 - 1))
def test_geqrt_column_reflects_to_norm(n, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    a = x.reshape(n, 1).copy()
    t = geqrt(a, 1)
    assert abs(abs(a[0, 0]) - np.linalg.norm(x)) <= 1e-10 * max(1.0, np.linalg.norm(x))
    assert t.shape == (1, 1)
    # H must be a valid reflector: tau in [0, 2] for real data.
    assert 0.0 <= t[0, 0] <= 2.0


@settings(**SETTINGS)
@given(
    m=st.integers(1, 20),
    n=st.integers(1, 12),
    ib=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_geqrt_backward_error(m, n, ib, seed):
    a0 = finite_matrix(m, n, seed)
    a = a0.copy()
    t = geqrt(a, ib)
    k = min(m, n)
    q = np.eye(m)
    ormqr(a, t, q, trans=False)
    r = np.triu(a)[:k, :]
    resid = np.linalg.norm(a0 - q[:, :k] @ r)
    assert resid <= 1e-11 * max(1.0, np.linalg.norm(a0))
    assert np.linalg.norm(q.T @ q - np.eye(m)) <= 1e-11


@settings(**SETTINGS)
@given(
    k=st.integers(1, 10),
    m2=st.integers(1, 12),
    ib=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_tsqrt_residual(k, m2, ib, seed):
    rng = np.random.default_rng(seed)
    r0 = np.triu(rng.standard_normal((k, k)))
    b0 = rng.standard_normal((m2, k))
    r, b = r0.copy(), b0.copy()
    t = tsqrt(r, b, ib)
    # Apply Q to [R_new; 0] and recover the original stack.
    c1 = np.triu(r).copy()
    c2 = np.zeros((m2, k))
    tsmqr(b, t, c1, c2, trans=False)
    stack0 = np.vstack([r0, b0])
    stack = np.vstack([c1, c2])
    assert np.linalg.norm(stack - stack0) <= 1e-10 * max(1.0, np.linalg.norm(stack0))


@settings(**SETTINGS)
@given(
    k=st.integers(1, 10),
    ib=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_ttqrt_residual_and_structure(k, ib, seed):
    rng = np.random.default_rng(seed)
    r1_0 = np.triu(rng.standard_normal((k, k)))
    r2_0 = np.triu(rng.standard_normal((k, k)))
    r1, r2 = r1_0.copy(), r2_0.copy()
    t = ttqrt(r1, r2, ib)
    assert np.all(np.tril(r2, -1) == 0.0)  # V2 stays upper triangular
    c1 = np.triu(r1).copy()
    c2 = np.zeros((k, k))
    ttmqr(r2, t, c1, c2, trans=False)
    stack0 = np.vstack([r1_0, r2_0])
    stack = np.vstack([c1, c2])
    assert np.linalg.norm(stack - stack0) <= 1e-10 * max(1.0, np.linalg.norm(stack0))


@settings(**SETTINGS)
@given(
    m=st.integers(1, 16),
    n=st.integers(1, 10),
    q=st.integers(1, 8),
    ib=st.integers(1, 6),
    kind=st.sampled_from(["GEQRT", "ORMQR", "TSQRT", "TSMQR", "TTQRT", "TTMQR"]),
)
def test_kernel_flops_positive_and_monotone_in_size(m, n, q, ib, kind):
    f = kernel_flops(kind, m, n, q, ib)
    assert f > 0.0
    f2 = kernel_flops(kind, m + 4, n, q, ib)
    assert f2 >= f  # more rows never means less work


@settings(**SETTINGS)
@given(seed=st.integers(0, 2**31 - 1), trans=st.booleans())
def test_tsmqr_is_orthogonal_action(seed, trans):
    """Applying a TS transformation preserves the Frobenius norm."""
    rng = np.random.default_rng(seed)
    k = 6
    r = np.triu(rng.standard_normal((k, k)))
    b = rng.standard_normal((k, k))
    t = tsqrt(r, b, 3)
    c1 = rng.standard_normal((k, 5))
    c2 = rng.standard_normal((k, 5))
    norm0 = np.sqrt(np.linalg.norm(c1) ** 2 + np.linalg.norm(c2) ** 2)
    tsmqr(b, t, c1, c2, trans=trans)
    norm1 = np.sqrt(np.linalg.norm(c1) ** 2 + np.linalg.norm(c2) ** 2)
    assert norm1 == pytest.approx(norm0, rel=1e-10)

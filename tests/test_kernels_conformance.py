"""Numerical and storage conformance of the LAPACK-backed factor kernels.

The kernel-level slice of ROADMAP item 4.  Three groups:

* **Scale robustness.**  ``dlarfg`` rescales before it squares, so the
  factorization is scale-invariant far outside ``sqrt(realmax)``: ``R`` of
  ``a * s`` divided by ``s`` equals ``R`` of ``a`` on every executor, for
  ``s`` that overflow (``1e160``) or underflow (``1e-170``, ``1e-300``) a
  naive sum of squares.
* **Hostile structure.**  Zero columns keep the ``tau == 0`` (``H == I``)
  encoding; exactly rank-deficient and column-graded (cond ``1e15``)
  matrices give ``|R|`` within ``c * eps`` of ``numpy.linalg.qr`` with the
  bounds stated at each assertion.
* **Storage regions.**  A factor kernel stores only into the regions the
  schedule certifier declares written.  NaN sentinels in the foreign storage
  (strictly-lower of a pivot triangle, below-trapezoid of a TT tile) must
  come back bit-identical and must not leak into any output.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import qr_factor
from repro.kernels import geqrt, tsqrt, ttqrt
from repro.kernels.batched import geqrt_batched, tsqrt_batched, ttqrt_batched
from repro.kernels.geqrt import _block_t
from repro.tiles import random_dense
from repro.util import ShapeError

EPS = np.finfo(np.float64).eps
GEOMETRY = dict(nb=8, ib=4, tree="hier", h=2)  # 96 x 24: TS and TT kernels, 3 panels
BACKENDS = {
    "serial": dict(backend="serial"),
    "batched": dict(backend="batched"),
    "parallel": dict(backend="parallel", n_procs=2),
}


def _abs_r(a: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.qr(a, mode="r"))


# --------------------------------------------------------------------------
# Scale robustness
# --------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scale", [1e160, 1e-170, 1e-300])
def test_r_factor_is_scale_invariant(backend, scale):
    a = random_dense(96, 24, seed=5)
    r = qr_factor(a, **GEOMETRY, **BACKENDS[backend]).R
    r_scaled = qr_factor(a * scale, **GEOMETRY, **BACKENDS[backend]).R
    assert np.isfinite(r_scaled).all()
    # Scaling by a non-power-of-two perturbs every entry by one rounding, so
    # the two factorizations are of nearby, not identical, matrices: 100 eps
    # relative to ||R|| covers that for this well-conditioned 24-column input
    # (measured: <= 4 eps).
    assert np.linalg.norm(r_scaled / scale - r) <= 100 * EPS * np.linalg.norm(r)


# --------------------------------------------------------------------------
# Hostile structure
# --------------------------------------------------------------------------


def test_zero_column_keeps_the_tau_zero_encoding():
    a = random_dense(8, 6, seed=1)
    a[:, 0] = 0.0
    t = geqrt(a, 3)
    assert t[0, 0] == 0.0 and not a[:, 0].any()  # H_0 == I, column untouched
    assert t[1, 1] != 0.0

    r = np.triu(random_dense(6, 6, seed=2))
    a2 = random_dense(5, 6, seed=3)
    a2[:, 0] = 0.0
    r00 = r[0, 0]
    t = tsqrt(r, a2, 3)
    # [r00; 0] is already reduced: no reflector, pivot entry kept as is.
    assert t[0, 0] == 0.0 and not a2[:, 0].any() and r[0, 0] == r00
    assert t[1, 1] != 0.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_zero_columns_stay_zero_and_factors_stay_accurate(backend):
    n, zeros = 24, [0, 7, 23]
    a = random_dense(96, n, seed=6)
    a[:, zeros] = 0.0
    f = qr_factor(a, **GEOMETRY, **BACKENDS[backend])
    assert not f.R[:, zeros].any()  # Q^T 0 == 0 exactly: every H is I or maps 0 to 0
    # An interior zero column makes R non-unique (row j is whatever the
    # untransformed row holds), so the oracle is A = QR itself, not LAPACK's
    # R.  Bounds: 50 n eps on both standard residuals.
    res = f.residuals(a)
    assert res["factorization"] <= 50 * n * EPS
    assert res["orthogonality"] <= 50 * n * EPS


def test_trailing_zero_column_matches_lapack():
    n = 24
    a = random_dense(96, n, seed=6)
    a[:, -1] = 0.0
    r = qr_factor(a, **GEOMETRY).R
    # The leading n-1 columns are independent, so |R| is unique: 50 n eps ||A||.
    assert np.abs(np.abs(r) - _abs_r(a)).max() <= 50 * n * EPS * np.linalg.norm(a)


def test_exactly_rank_deficient_matches_lapack():
    rng = np.random.default_rng(7)
    rank = 9
    a = rng.standard_normal((96, rank)) @ rng.standard_normal((rank, 24))
    r = qr_factor(a, **GEOMETRY).R
    ref = _abs_r(a)
    bound = 50 * 24 * EPS * np.linalg.norm(a)
    # Rows < rank are determined up to sign; rows >= rank are rounding noise
    # in both factorizations, so both sit below the bound on their own.
    assert np.abs(np.abs(r) - ref)[:rank].max() <= bound
    assert np.abs(r[rank:]).max() <= bound and ref[rank:].max() <= bound


@pytest.mark.parametrize("tree", ["flat", "binary", "hier"])
def test_graded_columns_to_cond_1e15_match_lapack_columnwise(tree):
    n = 24
    a = random_dense(96, n, seed=8) * np.geomspace(1.0, 1e-15, n)
    assert np.linalg.cond(a) > 1e14
    r = qr_factor(a, nb=8, ib=4, tree=tree, h=2).R
    # Householder QR is columnwise backward stable, and column scaling
    # commutes with it (R(A D) = R(A) D): the error of column j is relative
    # to ||a_j||, not to ||A||.  Bound: 50 n eps ||a_j||.
    err = np.linalg.norm(np.abs(r) - _abs_r(a), axis=0)
    assert (err <= 50 * n * EPS * np.linalg.norm(a, axis=0)).all()


# --------------------------------------------------------------------------
# Storage regions
# --------------------------------------------------------------------------


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


def _poison_lower(rng, rows: int, cols: int):
    """A random ``rows x cols`` block whose strictly-lower storage is NaN,
    and the boolean mask of that foreign storage."""
    tile = rng.standard_normal((rows, cols))
    foreign = np.tri(rows, cols, -1, dtype=bool)
    tile[foreign] = np.nan
    return tile, foreign


@pytest.mark.parametrize(
    "m,n,ib", [(8, 8, 3), (8, 5, 3), (5, 8, 3), (3, 3, 8)],
    ids=["square", "tall", "wide_m_lt_n", "k_lt_ib"],
)
def test_geqrt_owns_its_tile(m, n, ib):
    """GEQRT writes the whole tile, so there is no foreign storage: the sweep
    pins the ``(ib, k)`` zero-padded ``T`` and the stacked twin."""
    stack = np.random.default_rng(m * n + ib).standard_normal((3, m, n))
    ref = stack.copy()
    ts = np.stack([geqrt(tile, ib) for tile in ref])
    assert np.array_equal(geqrt_batched(stack, ib), ts)
    assert np.array_equal(stack, ref)
    k = min(m, n)
    assert ts.shape == (3, ib, k) and not ts[:, k:].any()
    assert np.isfinite(ref).all() and np.isfinite(ts).all()


@pytest.mark.parametrize("kernel", ["tsqrt", "ttqrt"])
@pytest.mark.parametrize(
    "k,m2,ib", [(8, 8, 3), (8, 5, 3), (3, 3, 8)], ids=["square", "ragged_m2_lt_k", "k_lt_ib"]
)
def test_pair_kernels_store_only_into_their_regions(kernel, k, m2, ib):
    rng = np.random.default_rng(k * m2 + ib)
    scalar, stacked = {"tsqrt": (tsqrt, tsqrt_batched), "ttqrt": (ttqrt, ttqrt_batched)}[kernel]
    tiles = [_poison_lower(rng, k, k) for _ in range(3)]
    r = np.stack([tile for tile, _ in tiles])
    r_foreign = tiles[0][1]
    if kernel == "ttqrt":
        lower = [_poison_lower(rng, m2, k) for _ in range(3)]
        a2, a2_foreign = np.stack([tile for tile, _ in lower]), lower[0][1]
    else:
        a2, a2_foreign = rng.standard_normal((3, m2, k)), np.zeros((m2, k), dtype=bool)
    r_in, a2_in = r.copy(), a2.copy()
    r_ref, a2_ref = r.copy(), a2.copy()
    ts = np.stack([scalar(r_ref[b], a2_ref[b], ib) for b in range(3)])

    t = stacked(r, a2, ib)
    assert np.array_equal(t, ts)
    assert np.array_equal(r, r_ref, equal_nan=True)
    assert np.array_equal(a2, a2_ref, equal_nan=True)

    assert t.shape == (3, ib, k) and not t[:, k:].any()
    assert np.isfinite(t).all()
    assert np.isfinite(r[:, ~r_foreign]).all() and np.isfinite(a2[:, ~a2_foreign]).all()
    # Foreign storage: bit-untouched (comparing the integer views also pins
    # the NaN payloads, which arithmetic would not preserve).
    assert np.array_equal(_bits(r[:, r_foreign]), _bits(r_in[:, r_foreign]))
    assert np.array_equal(_bits(a2[:, a2_foreign]), _bits(a2_in[:, a2_foreign]))
    # The pivot triangle really changed (the kernel did run).
    assert not np.array_equal(r[:, ~r_foreign], r_in[:, ~r_foreign])


def test_factor_kernels_work_in_place_on_strided_tile_views():
    """Tiles of a ``TileMatrix`` / shared store are C-order *views*; a list
    of such views is what the execution core hands the stacked kernels."""
    rng = np.random.default_rng(11)
    big = rng.standard_normal((16, 24))
    ref = big.copy()
    views = [big[:8, 8:16], big[8:, 8:16]]
    t = geqrt_batched(views, 4)
    for b, tile in enumerate((ref[:8, 8:16].copy(), ref[8:, 8:16].copy())):
        assert np.array_equal(t[b], geqrt(tile, 4))
        assert np.array_equal(views[b], tile)
    untouched = np.ones_like(big, dtype=bool)
    untouched[:, 8:16] = False
    assert np.array_equal(big[untouched], ref[untouched])


def test_lapack_info_is_a_typed_error():
    with pytest.raises(ShapeError, match="info=-3"):
        _block_t("geqrt", np.zeros((2, 4)), -3, 2)


# --------------------------------------------------------------------------
# Traced wide factor steps
# --------------------------------------------------------------------------


def test_traced_batched_run_has_one_op_tagged_span_per_op(tmp_path):
    """Wide factor steps run member by member through the *uninstrumented*
    kernels; the driver slices the step's window into per-op spans.  So a
    traced batched run still shows every op exactly once, under its own
    kind, and ``batch.ops == ops.total``."""
    path = tmp_path / "trace.json"
    a = random_dense(160, 32, seed=6)
    f = qr_factor(a, nb=16, ib=8, tree="hier", h=2, backend="batched", trace=str(path))
    doc = json.loads(path.read_text())
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X" and "op" in e.get("args", {})]
    total = int(f.counters["ops.total"])
    assert sorted(e["args"]["op"] for e in spans) == list(range(total))
    for kind in ("GEQRT", "TSQRT", "TTQRT", "ORMQR", "TSMQR", "TTMQR"):
        assert sum(e["name"] == kind for e in spans) == f.counters[f"ops.{kind}"]
    assert f.counters["batch.ops"] == total
    assert 0 < f.counters["batch.calls"] < total  # some steps really were wide

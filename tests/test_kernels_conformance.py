"""Numerical and storage conformance of the LAPACK-backed tile kernels.

The kernel-level slice of ROADMAP item 4.  Four groups:

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
* **In place or by copy.**  On Fortran-contiguous operands every kernel is
  one LAPACK call working in place; C-order and strided operands are copied
  in and stored back under the kernel's region mask.  Both paths keep the
  storage contract above — for the update kernels too, which never read the
  ``R`` part of an ORMQR ``V`` tile or the below-trapezoid of a TT ``V2`` —
  and agree bit for bit.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import qr_factor
from repro.kernels import geqrt, ormqr, tsmqr, tsqrt, ttmqr, ttqrt
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
    """Strided C-order views (the copy path) are still factored in place:
    the result lands in the view and nowhere else."""
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
    """A wavefront step maps the instrumented kernels over its members, each
    tagged with its op index.  So a traced batched run shows every op exactly
    once, under its own kind, and ``batch.ops == ops.total``."""
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


# --------------------------------------------------------------------------
# In place or by copy
# --------------------------------------------------------------------------

LAYOUTS = ["fortran", "c_order", "strided"]
PAIR_SHAPES = pytest.mark.parametrize(
    "k,m2,ib", [(8, 8, 3), (8, 5, 3), (3, 3, 8)], ids=["square", "ragged_m2_lt_k", "k_lt_ib"]
)


def _laid_out(x: np.ndarray, layout: str) -> np.ndarray:
    """``x``'s values as a Fortran-contiguous array (LAPACK works in place),
    a C-order array, or a non-contiguous interior view of a larger
    column-major array (both copied in and stored back)."""
    if layout == "fortran":
        return np.array(x, order="F")
    if layout == "c_order":
        return np.array(x, order="C")
    big = np.full((x.shape[0] + 3, x.shape[1] + 2), 7.0, order="F")
    view = big[1 : 1 + x.shape[0], 1 : 1 + x.shape[1]]
    view[...] = x
    assert not view.flags.f_contiguous and not view.flags.c_contiguous
    return view


def _frame_intact(view: np.ndarray) -> bool:
    """The storage around a ``"strided"`` view still holds its fill value."""
    big = view.base
    frame = np.ones(big.shape, dtype=bool)
    frame[1 : 1 + view.shape[0], 1 : 1 + view.shape[1]] = False
    return bool((big[frame] == 7.0).all())


@pytest.mark.parametrize("kernel", ["tsqrt", "ttqrt"])
@PAIR_SHAPES
def test_factor_pair_kernels_in_place_and_by_copy_agree(kernel, k, m2, ib):
    rng = np.random.default_rng(k * m2 + ib)
    r0, r_foreign = _poison_lower(rng, k, k)
    if kernel == "ttqrt":
        a0, a_foreign = _poison_lower(rng, m2, k)
    else:
        a0, a_foreign = rng.standard_normal((m2, k)), np.zeros((m2, k), dtype=bool)
    outs = {}
    for layout in LAYOUTS:
        r, a2 = _laid_out(r0, layout), _laid_out(a0, layout)
        t = {"tsqrt": tsqrt, "ttqrt": ttqrt}[kernel](r, a2, ib)
        assert t.flags.f_contiguous and t.shape == (ib, k) and np.isfinite(t).all()
        assert np.isfinite(r[~r_foreign]).all() and np.isfinite(a2[~a_foreign]).all()
        assert not np.array_equal(r[~r_foreign], r0[~r_foreign])  # the kernel ran
        # Foreign storage: never stored to, NaN payloads included.
        assert np.array_equal(_bits(r[r_foreign]), _bits(r0[r_foreign]))
        assert np.array_equal(_bits(a2[a_foreign]), _bits(a0[a_foreign]))
        if layout == "strided":
            assert _frame_intact(r) and _frame_intact(a2)
        outs[layout] = (t, r, a2)
    for layout in LAYOUTS[1:]:
        for got, want in zip(outs[layout], outs["fortran"]):
            assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("trans", [True, False], ids=["qt", "q"])
@pytest.mark.parametrize(
    "m,n,ib", [(8, 8, 3), (8, 5, 3), (5, 8, 3), (3, 3, 8)],
    ids=["square", "tall", "wide_m_lt_n", "k_lt_ib"],
)
def test_ormqr_never_reads_the_r_part_of_its_v_tile(m, n, ib, trans):
    rng = np.random.default_rng(m * n + ib)
    v_clean = np.array(rng.standard_normal((m, n)), order="F")
    t = geqrt(v_clean, ib)
    v0 = v_clean.copy()
    v0[~np.tri(m, n, -1, dtype=bool)] = np.nan  # R lives on and above the diagonal
    c0 = rng.standard_normal((m, 6))
    want = np.array(c0, order="F")
    ormqr(v_clean, t, want, trans=trans)
    for v_layout in LAYOUTS:
        for c_layout in LAYOUTS:
            v, c = _laid_out(v0, v_layout), _laid_out(c0, c_layout)
            ormqr(v, _laid_out(t, v_layout), c, trans=trans)
            assert np.array_equal(_bits(c), _bits(want))  # finite, and the same bits
            assert np.array_equal(_bits(v), _bits(v0))  # V is read-only
            if c_layout == "strided":
                assert _frame_intact(c)


@pytest.mark.parametrize("trans", [True, False], ids=["qt", "q"])
@pytest.mark.parametrize("kernel", ["tsmqr", "ttmqr"])
@PAIR_SHAPES
def test_pair_update_kernels_in_place_and_by_copy_agree(kernel, k, m2, ib, trans):
    """``c1`` has two rows more than ``k`` (a pivot-row block of a ragged last
    panel): only its first ``k`` rows belong to the kernel."""
    rng = np.random.default_rng(k * m2 + ib)
    r = np.array(np.triu(rng.standard_normal((k, k))), order="F")
    v_clean = np.array(rng.standard_normal((m2, k)), order="F")
    if kernel == "ttmqr":
        v_clean[np.tri(m2, k, -1, dtype=bool)] = 0.0
        t = ttqrt(r, v_clean, ib)
        v0 = v_clean.copy()
        v0[np.tri(m2, k, -1, dtype=bool)] = np.nan  # other reflectors' storage
    else:
        t = tsqrt(r, v_clean, ib)
        v0 = v_clean
    update = {"tsmqr": tsmqr, "ttmqr": ttmqr}[kernel]
    c1_0, c2_0 = rng.standard_normal((k + 2, 6)), rng.standard_normal((m2, 6))
    want1, want2 = np.array(c1_0[:k], order="F"), np.array(c2_0, order="F")
    update(v_clean, t, want1, want2, trans=trans)  # exact-k c1: fully in place
    assert not np.array_equal(want2, c2_0)
    for layout in LAYOUTS:
        v, c1, c2 = _laid_out(v0, layout), _laid_out(c1_0, layout), _laid_out(c2_0, layout)
        update(v, t, c1, c2, trans=trans)
        assert np.array_equal(_bits(c1[:k]), _bits(want1))
        assert np.array_equal(_bits(c1[k:]), _bits(c1_0[k:]))  # rows past k: not ours
        assert np.array_equal(_bits(c2), _bits(want2))
        assert np.array_equal(_bits(v), _bits(v0))
        if layout == "strided":
            assert _frame_intact(c1) and _frame_intact(c2)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_q_after_qt_round_trips(layout):
    """``trans=False`` undoes ``trans=True`` for all three update kernels:
    ``Q Q^T c = c`` to ``50 k eps ||c||`` (k = 8 reflectors of 16 rows)."""
    rng = np.random.default_rng(12)
    k, ib = 8, 3
    bound = 50 * k * EPS

    v = np.array(rng.standard_normal((12, k)), order="F")
    t = geqrt(v, ib)
    c0 = rng.standard_normal((12, 5))
    c = _laid_out(c0, layout)
    ormqr(v, t, c, trans=True)
    assert not np.allclose(c, c0)
    ormqr(v, t, c, trans=False)
    assert np.linalg.norm(c - c0) <= bound * np.linalg.norm(c0)

    for factor, update, a2 in (
        (tsqrt, tsmqr, rng.standard_normal((k, k))),
        (ttqrt, ttmqr, np.triu(rng.standard_normal((k, k)))),
    ):
        r, v2 = np.array(np.triu(rng.standard_normal((k, k))), order="F"), np.array(a2, order="F")
        t = factor(r, v2, ib)
        c1_0, c2_0 = rng.standard_normal((k, 5)), rng.standard_normal((k, 5))
        c1, c2 = _laid_out(c1_0, layout), _laid_out(c2_0, layout)
        update(v2, t, c1, c2, trans=True)
        assert not np.allclose(c2, c2_0)
        update(v2, t, c1, c2, trans=False)
        err = np.hypot(np.linalg.norm(c1 - c1_0), np.linalg.norm(c2 - c2_0))
        assert err <= bound * np.hypot(np.linalg.norm(c1_0), np.linalg.norm(c2_0))

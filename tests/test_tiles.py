"""Unit tests for tile layout, storage, and generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tiles import (
    TILE_ORDER,
    TileLayout,
    TileMatrix,
    graded_conditioned,
    least_squares_problem,
    random_dense,
    random_tall_skinny,
)
from repro.util import ConfigurationError, ShapeError


class TestTileLayout:
    def test_exact_division(self):
        lo = TileLayout(40, 24, 8)
        assert (lo.mt, lo.nt) == (5, 3)
        assert lo.tile_rows(4) == 8
        assert lo.tile_cols(2) == 8

    def test_ragged_edges(self):
        lo = TileLayout(37, 21, 8)
        assert (lo.mt, lo.nt) == (5, 3)
        assert lo.tile_rows(4) == 5
        assert lo.tile_cols(2) == 5
        assert lo.tile_shape(4, 2) == (5, 5)

    def test_spans_cover_matrix(self):
        lo = TileLayout(37, 21, 8)
        rows = sum(lo.tile_rows(i) for i in range(lo.mt))
        cols = sum(lo.tile_cols(j) for j in range(lo.nt))
        assert (rows, cols) == (37, 21)

    def test_row_span(self):
        lo = TileLayout(20, 10, 8)
        assert lo.row_span(2) == slice(16, 20)
        assert lo.col_span(1) == slice(8, 10)

    def test_tiles_enumeration(self):
        lo = TileLayout(16, 16, 8)
        assert lo.tiles() == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_out_of_range(self):
        lo = TileLayout(16, 16, 8)
        with pytest.raises(ConfigurationError):
            lo.tile_rows(2)
        with pytest.raises(ConfigurationError):
            lo.tile_cols(-1)

    def test_nbytes(self):
        assert TileLayout(10, 10, 4).nbytes() == 800

    def test_single_tile(self):
        lo = TileLayout(5, 5, 8)
        assert (lo.mt, lo.nt) == (1, 1)
        assert lo.tile_shape(0, 0) == (5, 5)


class TestTileMatrix:
    def test_roundtrip(self, rng):
        a = rng.standard_normal((37, 21))
        tm = TileMatrix.from_dense(a, 8)
        np.testing.assert_array_equal(tm.to_dense(), a)

    def test_from_dense_copies(self, rng):
        """Regression: a tile-shaped slice of the input that is already
        contiguous (full-width rows of a C array, full-height columns of an
        F array — the tiles' own order) must not alias the input array."""
        for a in (
            rng.standard_normal((16, 8)),
            np.asfortranarray(rng.standard_normal((8, 16))),
        ):
            tm = TileMatrix.from_dense(a, 8)
            tm.tile(0, 0)[0, 0] = 999.0
            assert a[0, 0] != 999.0

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_every_constructor_yields_column_major_tiles(self, rng, order):
        """37 x 21 with nb=8 has a ragged last tile row and column.  Only a
        pre-built grid handed to ``TileMatrix(...)`` is adopted as is."""
        a = np.array(rng.standard_normal((37, 21)), order=order)
        tm = TileMatrix.from_dense(a, 8)
        c_grid = TileMatrix(tm.layout, [[np.ascontiguousarray(t) for t in row] for row in tm.grid])
        assert c_grid.tile(0, 0).flags.c_contiguous and not c_grid.tile(0, 0).flags.f_contiguous
        filled = TileMatrix.zeros(37, 21, 8)
        for i, j, t in c_grid.iter_tiles():
            filled.set_tile(i, j, t)
        built = {
            "from_dense": tm, "copy": tm.copy(), "copy of a C-order grid": c_grid.copy(),
            "set_tile": filled, "zeros": TileMatrix.zeros(37, 21, 8),
        }
        for name, m in built.items():
            for i, j, t in m.iter_tiles():
                assert t.flags.f_contiguous and t.dtype == np.float64, (name, i, j)
                assert t.shape == tm.layout.tile_shape(i, j)
                assert not np.shares_memory(t, a)
            if name != "zeros":
                np.testing.assert_array_equal(m.to_dense(), a)
        assert TILE_ORDER == "F"

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 70), n=st.integers(1, 40), nb=st.integers(1, 17),
        form=st.sampled_from(["C", "F", "strided", "transposed", "int"]),
        seed=st.integers(0, 2**16),
    )
    def test_from_dense_matches_the_per_tile_reference(self, m, n, nb, form, seed):
        """The block copy of the full tiles plus per-tile ragged edges equals
        a tile-by-tile copy, for any input memory layout, and ``to_dense``
        inverts it bit for bit."""
        rng = np.random.default_rng(seed)
        if form == "strided":
            a = rng.standard_normal((2 * m, 3 * n))[::2, ::3]
        elif form == "transposed":
            a = rng.standard_normal((n, m)).T
        elif form == "int":
            a = rng.integers(-9, 9, size=(m, n))
        else:
            a = np.array(rng.standard_normal((m, n)), order=form)
        before = a.copy()
        tm = TileMatrix.from_dense(a, nb)
        lo = tm.layout
        assert (lo.m, lo.n, lo.nb) == (m, n, nb)
        for i, j, t in tm.iter_tiles():
            ref = np.array(a[lo.row_span(i), lo.col_span(j)], dtype=np.float64, order=TILE_ORDER)
            assert t.shape == lo.tile_shape(i, j) and t.dtype == np.float64
            assert t.flags.f_contiguous and t.flags.writeable
            assert not np.shares_memory(t, a)
            np.testing.assert_array_equal(t, ref)
        dense = tm.to_dense()
        assert dense.shape == (m, n) and dense.flags.c_contiguous
        np.testing.assert_array_equal(dense, a)
        np.testing.assert_array_equal(tm.copy().to_dense(), a)
        # Tiles are independent storage: writing one changes neither the
        # input nor any other tile.
        tm.tile(0, 0)[0, 0] += 1.0
        np.testing.assert_array_equal(a, before)
        dense[0, 0] += 1.0
        np.testing.assert_array_equal(tm.to_dense(), dense)

    def test_grid_is_the_unchecked_tile_accessor(self):
        tm = TileMatrix.zeros(16, 8, 8)
        assert tm.grid[1][0] is tm.tile(1, 0)
        with pytest.raises(ConfigurationError):
            tm.tile(2, 0)

    def test_set_tile_copies(self, rng):
        tm = TileMatrix.zeros(16, 8, 8)
        block = rng.standard_normal((8, 8))
        tm.set_tile(1, 0, block)
        block[0, 0] = 123.0
        assert tm.tile(1, 0)[0, 0] != 123.0

    def test_set_tile_shape_check(self):
        tm = TileMatrix.zeros(16, 8, 8)
        with pytest.raises(ShapeError):
            tm.set_tile(0, 0, np.zeros((4, 4)))

    def test_zeros(self):
        tm = TileMatrix.zeros(10, 6, 4)
        assert tm.norm_fro() == 0.0
        assert tm.to_dense().shape == (10, 6)

    def test_norm_fro_matches_numpy(self, rng):
        a = rng.standard_normal((20, 12))
        tm = TileMatrix.from_dense(a, 8)
        assert tm.norm_fro() == pytest.approx(np.linalg.norm(a))

    def test_copy_is_deep(self, rng):
        tm = TileMatrix.from_dense(rng.standard_normal((16, 8)), 8)
        cp = tm.copy()
        cp.tile(0, 0)[0, 0] = 7.0
        assert tm.tile(0, 0)[0, 0] != 7.0

    def test_iter_tiles_order(self):
        tm = TileMatrix.zeros(16, 16, 8)
        coords = [(i, j) for i, j, _ in tm.iter_tiles()]
        assert coords == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_upper_triangular_extracts_r(self, rng):
        a = rng.standard_normal((24, 16))
        tm = TileMatrix.from_dense(a, 8)
        r = tm.upper_triangular()
        assert r.shape == (16, 16)
        np.testing.assert_array_equal(r, np.triu(r))
        # Entries of the strictly-upper tiles must be preserved verbatim.
        assert r[0, 15] == a[0, 15]

    def test_grid_shape_validation(self):
        lo = TileLayout(16, 8, 8)
        with pytest.raises(ConfigurationError):
            TileMatrix(lo, [[np.zeros((8, 8))]])  # wrong row count


class TestGenerators:
    def test_random_dense_deterministic(self):
        np.testing.assert_array_equal(random_dense(5, 3, seed=1), random_dense(5, 3, seed=1))

    def test_random_dense_range(self):
        a = random_dense(50, 20, seed=2)
        assert np.all(a >= -1.0) and np.all(a <= 1.0)

    def test_random_tall_skinny_requires_tall(self):
        with pytest.raises(ConfigurationError):
            random_tall_skinny(5, 10, 4)

    def test_random_tall_skinny_shape(self):
        tm = random_tall_skinny(24, 8, 8, seed=0)
        assert (tm.m, tm.n, tm.nb) == (24, 8, 8)

    def test_graded_conditioned_condition_number(self):
        a = graded_conditioned(60, 10, cond=1e6, seed=3)
        s = np.linalg.svd(a, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(1e6, rel=1e-6)

    def test_graded_conditioned_validation(self):
        with pytest.raises(ConfigurationError):
            graded_conditioned(10, 20, cond=10.0)
        with pytest.raises(ConfigurationError):
            graded_conditioned(20, 10, cond=0.5)

    def test_least_squares_problem_planted_solution(self):
        a, b, x = least_squares_problem(200, 10, noise=0.0, seed=4)
        np.testing.assert_allclose(a @ x, b)

    def test_least_squares_problem_noise(self):
        a, b, x = least_squares_problem(200, 10, noise=1e-3, seed=4)
        resid = np.linalg.norm(a @ x - b)
        assert 0.0 < resid < 1.0

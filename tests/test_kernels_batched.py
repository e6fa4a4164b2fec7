"""The ``*_batched`` kernels are the scalar kernels mapped over a batch.

There is one arithmetic per kernel kind: ``kind_batched(stacks...)`` calls
the scalar kernel once per slice, in place on that slice, so its outputs
equal the scalar kernel's *bit for bit* (``np.array_equal``) — across inner
block sizes, tile shapes (square, tall, ragged) and batch sizes, for
``(B, m, n)`` stacks (whose C-order slices take the kernels' copy path) and
for lists of Fortran-contiguous tile views (the in-place path) alike.  One
helper states that; the tests below are its sweeps, plus the ``tau == 0``
encoding and the rejection of 2-D input.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import geqrt, ormqr, tsmqr, tsqrt, ttmqr, ttqrt
from repro.kernels.batched import (
    geqrt_batched,
    ormqr_batched,
    tsmqr_batched,
    tsqrt_batched,
    ttmqr_batched,
    ttqrt_batched,
)
from repro.util import ShapeError

BATCHES = (1, 3)
IBS = (1, 3, 8)
KERNELS = {
    "geqrt": (geqrt, geqrt_batched),
    "ormqr": (ormqr, ormqr_batched),
    "tsqrt": (tsqrt, tsqrt_batched),
    "tsmqr": (tsmqr, tsmqr_batched),
    "ttqrt": (ttqrt, ttqrt_batched),
    "ttmqr": (ttmqr, ttmqr_batched),
}


def _stack(rng, bsz, m, n):
    return rng.standard_normal((bsz, m, n))


def _case(kind, seed, bsz, rows, k, ib, trans=True, q=6):
    """``(read stacks, written stacks, trailing arguments)`` for ``kind``.

    ``rows`` is the tile height for GEQRT/ORMQR and ``m2`` for the pair
    kernels; the update kernels get reflectors and ``T`` factors produced by
    their own factor kernel.  A TT ``a2`` keeps random strictly-lower
    garbage, standing in for other reflectors' storage.
    """
    rng = np.random.default_rng(hash(seed) % 2**32)
    if kind in ("geqrt", "ormqr"):
        v = _stack(rng, bsz, rows, k)
        if kind == "geqrt":
            return [], [v], (ib,)
        t = np.stack([geqrt(tile, ib) for tile in v])
        return [v, t], [_stack(rng, bsz, rows, q)], (trans,)
    r, a2 = _stack(rng, bsz, k, k), _stack(rng, bsz, rows, k)
    if kind in ("tsqrt", "ttqrt"):
        return [], [r, a2], (ib,)
    factor = tsqrt if kind == "tsmqr" else ttqrt
    t = np.stack([factor(ri, ai, ib) for ri, ai in zip(r, a2)])
    return [a2, t], [_stack(rng, bsz, k, q), _stack(rng, bsz, rows, q)], (trans,)


def _assert_mapped(kind, reads, writes, tail, as_views=False):
    """``kind_batched`` equals the scalar kernel called per slice: every
    written operand and the returned ``T`` stack, bit for bit."""
    scalar, mapped = KERNELS[kind]
    bsz = len(writes[0])
    ref = [w.copy() for w in writes]
    t_ref = [scalar(*(x[b] for x in reads), *(w[b] for w in ref), *tail) for b in range(bsz)]
    if as_views:
        reads = [[np.asfortranarray(x[b]) for b in range(bsz)] for x in reads]
        writes = [[np.asfortranarray(w[b]) for b in range(bsz)] for w in writes]
    t = mapped(*reads, *writes, *tail)
    for w, r in zip(writes, ref):
        assert all(np.array_equal(w[b], r[b]) for b in range(bsz))
    if t_ref[0] is None:
        assert t is None
    else:
        assert np.array_equal(t, np.stack(t_ref))


@pytest.mark.parametrize("as_views", [False, True], ids=["stack", "views"])
@pytest.mark.parametrize("rows,k,ib", [(8, 8, 3), (5, 8, 3), (3, 3, 8)],
                         ids=["square", "ragged", "k_lt_ib"])
@pytest.mark.parametrize("kind", list(KERNELS))
def test_batched_is_the_scalar_kernel_mapped_over_the_batch(kind, rows, k, ib, as_views):
    _assert_mapped(kind, *_case(kind, (kind, rows, k, ib), 3, rows, k, ib), as_views=as_views)


@pytest.mark.parametrize("bsz", BATCHES)
@pytest.mark.parametrize("m,n", [(8, 8), (12, 8), (8, 5)])
@pytest.mark.parametrize("ib", IBS)
def test_geqrt_batched_bit_exact(bsz, m, n, ib):
    _assert_mapped("geqrt", *_case("geqrt", (bsz, m, n, ib), bsz, m, n, ib))


@pytest.mark.parametrize("bsz", BATCHES)
@pytest.mark.parametrize("k,m2", [(8, 8), (8, 12), (5, 7)])
@pytest.mark.parametrize("ib", IBS)
def test_tsqrt_batched_bit_exact(bsz, k, m2, ib):
    _assert_mapped("tsqrt", *_case("tsqrt", (bsz, k, m2, ib), bsz, m2, k, ib))


@pytest.mark.parametrize("bsz", BATCHES)
@pytest.mark.parametrize("k,m2", [(8, 8), (8, 5), (7, 3)])
@pytest.mark.parametrize("ib", IBS)
def test_ttqrt_batched_bit_exact(bsz, k, m2, ib):
    _assert_mapped("ttqrt", *_case("ttqrt", (bsz, k, m2, ib), bsz, m2, k, ib))


@pytest.mark.parametrize("bsz", BATCHES)
@pytest.mark.parametrize("trans", [True, False])
@pytest.mark.parametrize("ib", IBS)
def test_ormqr_batched_bit_exact(bsz, trans, ib):
    _assert_mapped("ormqr", *_case("ormqr", (bsz, trans, ib), bsz, 10, 8, ib, trans))


@pytest.mark.parametrize("bsz", BATCHES)
@pytest.mark.parametrize("trans", [True, False])
@pytest.mark.parametrize("ib", IBS)
def test_tsmqr_batched_bit_exact(bsz, trans, ib):
    _assert_mapped("tsmqr", *_case("tsmqr", (bsz, trans, ib, 1), bsz, 10, 8, ib, trans))


@pytest.mark.parametrize("bsz", BATCHES)
@pytest.mark.parametrize("trans", [True, False])
@pytest.mark.parametrize("m2", [8, 5])
@pytest.mark.parametrize("ib", IBS)
def test_ttmqr_batched_bit_exact(bsz, trans, m2, ib):
    _assert_mapped("ttmqr", *_case("ttmqr", (bsz, trans, m2, ib), bsz, m2, 8, ib, trans))


def test_geqrt_batched_zero_tail_column():
    """A column with an all-zero tail takes the ``tau == 0`` path."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 8, 5))
    a[1, 1:, 0] = 0.0  # slice 1's first column needs no reflector
    ref = a.copy()
    t_ref = np.stack([geqrt(ref[b], 3) for b in range(3)])
    t = geqrt_batched(a, 3)
    assert np.array_equal(a, ref)
    assert np.array_equal(t, t_ref)
    assert t[1, 0, 0] == 0.0  # tau of the zero-tail column


def test_tsqrt_batched_zero_tail_column():
    rng = np.random.default_rng(8)
    r = rng.standard_normal((3, 6, 6))
    a2 = rng.standard_normal((3, 7, 6))
    a2[0, :, 0] = 0.0
    a2[2, :, 3] = 0.0
    r_ref, a2_ref = r.copy(), a2.copy()
    t_ref = np.stack([tsqrt(r_ref[b], a2_ref[b], 2) for b in range(3)])
    t = tsqrt_batched(r, a2, 2)
    assert np.array_equal(r, r_ref)
    assert np.array_equal(a2, a2_ref)
    assert np.array_equal(t, t_ref)


def test_batched_kernels_reject_2d_input():
    a = np.zeros((4, 4))
    with pytest.raises(ShapeError):
        geqrt_batched(a, 2)
    with pytest.raises(ShapeError):
        tsqrt_batched(a, a, 2)
    with pytest.raises(ShapeError):
        ttqrt_batched(a, a, 2)

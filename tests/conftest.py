"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from multiprocessing.connection import Connection

import numpy as np
import pytest

from repro.qr.parallel import shutdown_workers
from repro.tiles import TileMatrix, random_dense


@pytest.fixture(autouse=True)
def _no_kept_workers():
    """Every test starts without kept one-shot workers, so what a worker
    inherits at fork time (a monkeypatched ``run_op``, the environment, a
    recorder) is the test's own, and ``mp.active_children()`` and
    ``/dev/shm`` mean after a test what they meant before it."""
    yield
    shutdown_workers()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_matrix() -> np.ndarray:
    """A 40 x 24 tall-skinny matrix used across integration tests."""
    return random_dense(40, 24, seed=42)


@pytest.fixture
def small_tiles(small_matrix: np.ndarray) -> TileMatrix:
    return TileMatrix.from_dense(small_matrix, 8)


@pytest.fixture
def no_new_shm():
    """Fail the test if it leaves a ``/dev/shm`` segment behind; yields the
    set of segments that existed before it."""
    def segments() -> set[str]:
        return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()

    before = segments()
    yield before
    assert segments() <= before, "leaked shared-memory segment"


@pytest.fixture
def wire(monkeypatch):
    """What this process sends down and reads off worker pipes."""
    sent, received = [], []
    raw_send, raw_recv = Connection.send, Connection.recv

    def send(self, obj):
        sent.append(obj)
        return raw_send(self, obj)

    def recv(self):
        obj = raw_recv(self)
        received.append(obj)
        return obj

    monkeypatch.setattr(Connection, "send", send)
    monkeypatch.setattr(Connection, "recv", recv)
    return sent, received


def qr_accuracy(a: np.ndarray, q: np.ndarray, r: np.ndarray) -> tuple[float, float]:
    """(relative residual, orthogonality defect) of a thin QR."""
    res = float(np.linalg.norm(a - q @ r) / np.linalg.norm(a))
    orth = float(np.linalg.norm(q.T @ q - np.eye(q.shape[1])))
    return res, orth


TOL = 1e-12

"""The backend capability table (``repro.qr.backends``) is the one source of
the unsupported-combination errors and of the table in docs/robustness.md;
``run_backend`` and the input coercion in front of it are the one place
where ``batch``/``policy`` and non-finite matrices are rejected, whichever
backend was asked for."""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro import QRSession, qr_factor
from repro.obs import recording
from repro.qr import resume_factorization
from repro.qr.backends import CAPABILITIES, capability_table, require_capability
from repro.tiles import TileMatrix
from repro.util import ConfigurationError

DOCS = pathlib.Path(__file__).resolve().parents[1] / "docs"


def test_robustness_doc_carries_the_generated_table():
    assert capability_table() in (DOCS / "robustness.md").read_text(), (
        "docs/robustness.md drifted from repro.qr.backends.CAPABILITIES; "
        "paste the output of capability_table() into 'Supported combinations'"
    )


@pytest.mark.parametrize("feature", ["checkpoint", "session", "resume"])
@pytest.mark.parametrize("backend", sorted(CAPABILITIES))
def test_every_cell_passes_or_rejects_by_the_table(backend, feature):
    if CAPABILITIES[backend][feature]:
        require_capability(backend, feature)
    else:
        with pytest.raises(ConfigurationError, match="'serial', 'batched', (and|or) 'parallel'"):
            require_capability(backend, feature)


def test_unknown_backend_names_the_known_ones():
    with pytest.raises(ConfigurationError, match="unknown backend 'gpu'.*'pulsar'"):
        require_capability("gpu", "checkpoint")
    with pytest.raises(ConfigurationError, match="resume_factorization supports.*got 'gpu'"):
        require_capability("gpu", "resume")


# -- input validation shared by every backend --------------------------------

BACKEND_KW = {
    "serial": {},
    "batched": {},
    "parallel": {"n_procs": 2},
    "pulsar": {"n_nodes": 2, "workers_per_node": 2},
}
GEOMETRY = dict(nb=8, ib=4, tree="hier", h=3)


def _tiles_of(a, nb):
    """A raw tile grid of ``a`` (bypassing ``from_dense``'s own validation)."""
    return [
        [np.asfortranarray(a[i : i + nb, j : j + nb]) for j in range(0, a.shape[1], nb)]
        for i in range(0, a.shape[0], nb)
    ]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("backend", sorted(BACKEND_KW))
def test_non_finite_input_is_rejected_before_anything_runs(small_matrix, backend, bad, no_new_shm):
    a = small_matrix.copy()
    a[17, 5] = bad
    with recording() as rec:
        with pytest.raises(ConfigurationError, match=r"A must be finite.*index \(17, 5\)"):
            qr_factor(a, **GEOMETRY, backend=backend, **BACKEND_KW[backend])
        with pytest.raises(ConfigurationError, match=r"index \(17, 5\)"):
            qr_factor(TileMatrix(TileMatrix.from_dense(small_matrix, 8).layout, _tiles_of(a, 8)),
                      ib=4, tree="hier", h=3, backend=backend, **BACKEND_KW[backend])
    assert not rec.counters.get("pool.spawns") and not rec.counters.get("ops.total")


def test_non_finite_input_leaves_a_session_untouched_and_usable(small_matrix, no_new_shm):
    a = small_matrix.copy()
    a[0, 0] = np.nan
    with QRSession(n_procs=2) as sess:
        with recording() as rec:
            with pytest.raises(ConfigurationError, match=r"index \(0, 0\)"):
                sess.factor(a, **GEOMETRY)
        assert not rec.counters.get("pool.spawns")
        # No plan entry, hence no arena; no process either.
        assert sess.pool.procs == {} and len(sess.plan_cache) == 0
        good = sess.factor(small_matrix, **GEOMETRY)
    assert good.stats.mode == "parallel"
    np.testing.assert_array_equal(qr_factor(small_matrix, **GEOMETRY).R, good.R)


@pytest.mark.parametrize("backend", sorted(BACKEND_KW))
def test_batch_and_policy_are_validated_on_every_backend(small_matrix, backend, tmp_path):
    kw = dict(GEOMETRY, backend=backend, **BACKEND_KW[backend])
    for bad in ("foo", 0, -3, 2.5, True):
        with pytest.raises(ConfigurationError, match="batch must be"):
            qr_factor(small_matrix, **kw, batch=bad)
    with pytest.raises(ConfigurationError, match=r"policy must be one of \('lazy', 'aggressive'\)"):
        qr_factor(small_matrix, **kw, policy="zzz")
    ref = qr_factor(small_matrix, **GEOMETRY)
    for ok in (None, 5, "wavefront"):
        np.testing.assert_array_equal(ref.R, qr_factor(small_matrix, **kw, batch=ok).R)
    if CAPABILITIES[backend]["resume"]:
        ck = str(tmp_path / "run.ckpt")
        qr_factor(small_matrix, **GEOMETRY, checkpoint=ck)
        with pytest.raises(ConfigurationError, match="batch must be"):
            resume_factorization(ck, backend=backend, batch="foo")
        with pytest.raises(ConfigurationError, match="policy must be"):
            resume_factorization(ck, backend=backend, policy="zzz")

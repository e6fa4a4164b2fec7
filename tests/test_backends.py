"""The backend capability table (``repro.qr.backends``) is the one source of
the unsupported-combination errors and of the table in docs/robustness.md."""

from __future__ import annotations

import pathlib

import pytest

from repro.qr.backends import CAPABILITIES, capability_table, require_capability
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

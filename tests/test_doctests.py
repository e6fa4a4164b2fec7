"""Run every doctest under ``src/repro`` as part of the tier-1 suite.

The module list is discovered, not kept by hand: any module whose source
contains a ``>>> `` example is collected, so a new example is tested the
moment it is written.
"""

from __future__ import annotations

import doctest
import importlib
from pathlib import Path

import pytest

import repro

_ROOT = Path(repro.__file__).parent


def _doctested_modules() -> list[str]:
    found = []
    for path in sorted(_ROOT.rglob("*.py")):
        if ">>> " in path.read_text(encoding="utf-8"):
            parts = path.relative_to(_ROOT.parent).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            found.append(".".join(parts))
    return found


DOCTESTED_MODULES = _doctested_modules()


def test_every_module_with_examples_is_collected():
    for modname in ("repro.qr.api", "repro.obs.events", "repro.faults.watchdog"):
        assert modname in DOCTESTED_MODULES


@pytest.mark.parametrize("modname", DOCTESTED_MODULES)
def test_module_doctests(modname):
    mod = importlib.import_module(modname)
    result = doctest.testmod(mod, verbose=False, optionflags=doctest.ELLIPSIS)
    assert result.attempted > 0, f"{modname} has no doctest examples"
    assert result.failed == 0, f"{modname}: {result.failed} doctest failure(s)"

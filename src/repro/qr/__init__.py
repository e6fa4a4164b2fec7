"""Tree-based tile QR: operation lists, executors, VSA builders, public API."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import-time typing only
    from .api import QRFactorization, lstsq, qr_factor
    from .checksum import SDCGuard, tile_checksum
    from .collector import ResultStore, assemble_factors
    from .persist import (
        CheckpointStore,
        load_factorization,
        resume_factorization,
        save_factorization,
    )
    from .ops import FACTOR_KINDS, UPDATE_KINDS, Op, expand_plans
    from .parallel import ParallelRunStats, default_n_procs, execute_ops_parallel
    from .reference import FactorRecord, TileQRFactors, execute_ops
    from .session import QRSession
    from .vsa3d import QRArray, build_qr_vsa

#: The submodule of each public name (the one export table: ``__all__`` is
#: its names), imported on first access (PEP 562)
#: so that a process that factors loads neither the PULSAR array builder nor
#: the persistence layer until it uses one.
_HOME = {
    "api": ("QRFactorization", "lstsq", "qr_factor"),
    "checksum": ("SDCGuard", "tile_checksum"),
    "collector": ("ResultStore", "assemble_factors"),
    "persist": (
        "CheckpointStore", "load_factorization", "resume_factorization", "save_factorization",
    ),
    "ops": ("FACTOR_KINDS", "UPDATE_KINDS", "Op", "expand_plans"),
    "parallel": ("ParallelRunStats", "default_n_procs", "execute_ops_parallel"),
    "reference": ("FactorRecord", "TileQRFactors", "execute_ops"),
    "session": ("QRSession",),
    "vsa3d": ("QRArray", "build_qr_vsa"),
}
_MODULE_OF = {name: module for module, names in _HOME.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value

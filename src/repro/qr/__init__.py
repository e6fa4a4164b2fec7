"""Tree-based tile QR: operation lists, executors, VSA builders, public API."""

from .api import QRFactorization, lstsq, qr_factor
from .checksum import SDCGuard, tile_checksum
from .collector import ResultStore, assemble_factors
from .costs import make_qr_cost_fn
from .persist import (
    CheckpointStore,
    load_factorization,
    resume_factorization,
    save_factorization,
)
from .verify import VerificationReport, verify_factorization
from .ops import FACTOR_KINDS, UPDATE_KINDS, Op, expand_plans
from .parallel import ParallelRunStats, default_n_procs, execute_ops_parallel
from .reference import FactorRecord, TileQRFactors, execute_ops
from .session import PlanCache, QRSession, WorkerPool
from .vsa3d import QRArray, build_qr_vsa

__all__ = [
    "Op",
    "FACTOR_KINDS",
    "UPDATE_KINDS",
    "expand_plans",
    "FactorRecord",
    "TileQRFactors",
    "execute_ops",
    "ParallelRunStats",
    "execute_ops_parallel",
    "default_n_procs",
    "ResultStore",
    "assemble_factors",
    "QRArray",
    "build_qr_vsa",
    "make_qr_cost_fn",
    "save_factorization",
    "load_factorization",
    "CheckpointStore",
    "resume_factorization",
    "SDCGuard",
    "tile_checksum",
    "VerificationReport",
    "verify_factorization",
    "QRFactorization",
    "qr_factor",
    "lstsq",
    "QRSession",
    "PlanCache",
    "WorkerPool",
]

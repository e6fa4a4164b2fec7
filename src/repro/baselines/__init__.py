"""Comparison baselines: ScaLAPACK and PaRSEC performance models.

The numerical oracle is LAPACK itself (``numpy.linalg.qr``), not a
second QR here."""

from .parsec import DEFAULT_OVERHEAD_FACTOR, ParsecModel, parsec_qr_simulate
from .scalapack import ScalapackEstimate, scalapack_qr_time

__all__ = [
    "ScalapackEstimate",
    "scalapack_qr_time",
    "ParsecModel",
    "parsec_qr_simulate",
    "DEFAULT_OVERHEAD_FACTOR",
]

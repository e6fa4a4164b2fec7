"""Argument-validation helpers shared across subsystems.

These raise :class:`~repro.util.errors.ConfigurationError` /
:class:`~repro.util.errors.ShapeError` with uniform messages so the public
API fails fast and consistently.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, ShapeError

__all__ = [
    "require",
    "check_positive_int",
    "check_nonnegative_int",
    "check_positive",
    "check_fraction",
    "check_finite",
    "as_f64_matrix",
    "check_tile_params",
]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


def check_positive_int(value: object, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an int, got {value!r}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    return int(value)


def check_nonnegative_int(value: object, name: str) -> int:
    """Validate that ``value`` is a non-negative integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return int(value)


def check_positive(value: object, name: str) -> float:
    """Validate that ``value`` is a positive finite real number."""
    try:
        out = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from exc
    if not np.isfinite(out) or out <= 0.0:
        raise ConfigurationError(f"{name} must be positive and finite, got {value}")
    return out


def check_fraction(value: object, name: str) -> float:
    """Validate that ``value`` lies in (0, 1]."""
    out = check_positive(value, name)
    if out > 1.0:
        raise ConfigurationError(f"{name} must be in (0, 1], got {value}")
    return out


def check_finite(arr: np.ndarray, name: str = "A", origin: tuple[int, int] = (0, 0)) -> None:
    """Raise :class:`ConfigurationError` naming the first NaN/Inf entry of
    the 2-D ``arr`` (``origin`` is its offset when it is a tile of ``name``).

    A non-finite entry poisons every factor (all backends return an all-NaN
    ``R``), so it is rejected before any planning, shared memory or worker.
    """
    finite = np.isfinite(arr)
    if not finite.all():
        i, j = (int(x) for x in np.argwhere(~finite)[0])
        raise ConfigurationError(
            f"{name} must be finite, got {arr[i, j]} at index "
            f"({origin[0] + i}, {origin[1] + j})"
        )


def as_f64_matrix(a: object, name: str = "A") -> np.ndarray:
    """Coerce ``a`` to a 2-D C-contiguous float64 array, validating shape
    and that every entry is finite.  A complex ``a`` is refused, not cut to
    its real part."""
    arr = np.asarray(a)
    if np.iscomplexobj(arr):
        raise ConfigurationError(f"{name} must be real, got dtype {arr.dtype}")
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ShapeError(f"{name} must be non-empty, got shape {arr.shape}")
    check_finite(arr, name)
    return np.ascontiguousarray(arr)


def check_tile_params(m: int, n: int, nb: int, ib: int) -> None:
    """Validate a tile-algorithm parameter set (paper Section VI).

    ``nb`` is the tile size and ``ib`` the inner block size; the paper uses
    ``nb in {192, 240}``, ``ib = 48``.  ``ib`` must divide ``nb`` so that the
    compact-WY ``T`` factors tile evenly.
    """
    check_positive_int(m, "m")
    check_positive_int(n, "n")
    check_positive_int(nb, "nb")
    check_positive_int(ib, "ib")
    require(ib <= nb, f"ib ({ib}) must be <= nb ({nb})")
    require(nb % ib == 0, f"ib ({ib}) must divide nb ({nb})")

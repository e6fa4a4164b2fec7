"""Elementary Householder transformations (LAPACK ``larfg``/``larft`` style).

A reflector is ``H = I - tau * v v^T`` with ``v[0] = 1``; ``H`` is symmetric
and orthogonal, and ``H x = beta e_1`` for the vector ``x`` it was generated
from.  These NumPy versions define the conventions (sign, ``tau == 0``
encoding, forward columnwise ``T``) that the tests and docs check the tile
kernels against; the factor kernels themselves call LAPACK (``dgeqrt`` /
``dtpqrt``), whose ``dlarfg`` / ``dlarft`` follow the same conventions.
"""

from __future__ import annotations

import numpy as np

__all__ = ["larfg", "larft_column"]


def larfg(x: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Generate a Householder reflector annihilating ``x[1:]``.

    Parameters
    ----------
    x:
        1-D vector of length >= 1 (not modified).

    Returns
    -------
    beta:
        The resulting leading entry: ``H x = beta * e_1`` with
        ``|beta| = ||x||_2`` (sign chosen to avoid cancellation, as LAPACK).
    v:
        The reflector vector with the implicit leading 1 *excluded*
        (length ``len(x) - 1``), i.e. the part stored below the diagonal.
    tau:
        The reflector scale; ``tau == 0`` encodes ``H == I`` (already zero
        tail), in which case ``beta == x[0]`` and ``v`` is zero.

    Notes
    -----
    The tail is squared without rescaling, so this is only valid for roughly
    ``1e-154 < |x_i| < 1e154``: below, the sum of squares flushes to zero and
    a nonzero tail is mistaken for ``H == I``; above, the result is Inf/NaN.
    LAPACK's ``dlarfg`` — what the tile kernels run — rescales instead.
    """
    x = np.asarray(x, dtype=np.float64)
    alpha = float(x[0])
    tail = x[1:]
    sigma = float(np.dot(tail, tail))
    if sigma == 0.0:
        return alpha, np.zeros_like(tail), 0.0
    norm = float(np.hypot(alpha, np.sqrt(sigma)))
    # LAPACK sign convention: beta = -sign(alpha) * ||x|| avoids cancellation
    # in (alpha - beta).
    beta = -norm if alpha >= 0.0 else norm
    tau = (beta - alpha) / beta
    v = tail / (alpha - beta)
    return beta, v, tau


def larft_column(
    t: np.ndarray, v_panel: np.ndarray, j: int, tau_j: float
) -> None:
    """Extend a compact-WY ``T`` factor by one column (forward, columnwise).

    Given the first ``j`` reflectors of a panel with unit-lower-trapezoid
    storage ``v_panel`` (shape ``(m, >=j+1)``, implicit ones on the diagonal,
    zeros above) and the triangular factor ``t[:j, :j]`` already built, fill
    column ``j``::

        t[:j, j] = -tau_j * t[:j, :j] @ (V[:, :j]^T v_j)
        t[j, j]  = tau_j

    ``v_panel`` column ``j`` must already hold ``v_j`` (with the implicit 1
    at row ``j``).  This is the recurrence LAPACK ``dlarft`` implements.
    """
    if j > 0:
        m = v_panel.shape[0]
        # w = V[:, :j]^T v_j, accounting for the implicit unit diagonal of
        # both V's columns and v_j (v_j has implicit 1 at row j, zeros above).
        vj = v_panel[j:, j].copy()
        vj[0] = 1.0
        w = v_panel[j:m, :j].T @ vj
        t[:j, j] = -tau_j * (t[:j, :j] @ w)
    t[j, j] = tau_j

"""Automatic domain-size selection for the hierarchical tree.

The paper deliberately avoids searching for the optimal reduction tree
("the optimal match between the chosen reduction-tree and the underlying
software and hardware layers is, for the most part, system-dependent...
could be found through experimentation") and fixes a generic binary-on-flat
tree with ``h`` picked from {6, 12} by trial.  This module provides that
experiment in closed form: a model-based selector for ``h``.

For a panel of ``r`` tiles split into domains of ``h``, the reduction
critical path is approximately::

    T(h) = (h - 1) * c_ts + ceil(log2(ceil(r / h))) * c_tt

where ``c_ts``/``c_tt`` are the times of one TS/TT elimination step
(factor kernel plus its slowest column update).  The first term is the
serial flat chain inside a domain; the second the binary combine of the
domain heads.  Machine-aware costs come from a :class:`MachineModel`;
the concurrency cap (more domains than workers gain nothing) is respected.
"""

from __future__ import annotations

from math import ceil, log2
from typing import TYPE_CHECKING

from ..util.validation import check_positive, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only; callers pass the model in
    from ..machine.model import MachineModel

__all__ = ["panel_depth_model", "choose_domain_size"]


def panel_depth_model(r: int, h: int, c_ts: float, c_tt: float) -> float:
    """Modelled reduction depth of an ``r``-tile panel with domain size ``h``."""
    check_positive_int(r, "r")
    check_positive_int(h, "h")
    domains = ceil(r / h)
    flat = (min(h, r) - 1) * c_ts
    binary = (ceil(log2(domains)) if domains > 1 else 0) * c_tt
    return flat + binary


def choose_domain_size(
    mt: int,
    *,
    machine: MachineModel,
    nb: int,
    ib: int,
    workers: int | None = None,
    q: int | None = None,
) -> int:
    """Model-optimal ``h`` for an ``mt``-tile-row factorization.

    Parameters
    ----------
    mt:
        Tile rows of the matrix (the first panel dominates).
    machine:
        Supplies the TS/TT step costs.
    nb, ib:
        Tile and inner block sizes.
    workers:
        If given, ``h`` is bounded below so the number of domains does not
        exceed the worker count (extra parallelism beyond the machine is
        pure overhead).
    q:
        Trailing-update width per step (defaults to ``nb``: one column).
    """
    check_positive_int(mt, "mt")
    q = nb if q is None else q
    c_ts = machine.kernel_seconds("TSQRT", nb, nb, 0, ib) + machine.kernel_seconds(
        "TSMQR", nb, nb, q, ib
    )
    c_tt = machine.kernel_seconds("TTQRT", nb, nb, 0, ib) + machine.kernel_seconds(
        "TTMQR", nb, nb, q, ib
    )
    check_positive(c_ts, "c_ts")
    check_positive(c_tt, "c_tt")
    best_h, best_t = 1, float("inf")
    for h in range(1, mt + 1):
        if workers is not None and ceil(mt / h) > max(1, workers):
            continue  # more domains than workers: no gain, pure TT overhead
        t = panel_depth_model(mt, h, c_ts, c_tt)
        if t < best_t - 1e-15:
            best_h, best_t = h, t
    return best_h

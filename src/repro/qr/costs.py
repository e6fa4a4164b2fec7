"""Per-firing cost functions for virtual-time execution of the QR arrays.

Bridges the array builder (:mod:`repro.qr.vsa3d`) and the
runtime-in-the-loop simulator (:mod:`repro.dessim.vsasim`): given a VDP
about to fire, return the seconds its kernel takes under a machine model.
The kernel kind and tile shapes are recovered from the VDP's local store —
the same information its body uses to run the real numerics.
"""

from __future__ import annotations

from collections.abc import Callable

from ..machine.model import MachineModel
from ..pulsar.vdp import VDP
from ..tiles.layout import TileLayout

__all__ = ["make_qr_cost_fn"]


def make_qr_cost_fn(
    layout: TileLayout, machine: MachineModel, ib: int
) -> Callable[[VDP], float]:
    """Cost function over the 3D array's domain and binary VDP stores."""

    def cost(vdp: VDP) -> float:
        s = vdp.store
        t = vdp.firing_index
        k = s["k"]
        if "members" in s:  # domain (red/orange) VDP
            row = s["members"][t]
            m2 = layout.tile_rows(row)
            if s["factor_col"]:
                kind = "GEQRT" if t == 0 else "TSQRT"
                q = 0
            else:
                kind = "ORMQR" if t == 0 else "TSMQR"
                q = layout.tile_cols(s["col"])
            return machine.kernel_seconds(kind, m2, k, q, ib)
        # binary (blue) VDP
        q = 0 if s["factor_col"] else layout.tile_cols(s["col"])
        kind = "TTQRT" if s["factor_col"] else "TTMQR"
        return machine.kernel_seconds(kind, s["m2"], k, q, ib)

    return cost

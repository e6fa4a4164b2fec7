"""Per-node memory accounting (paper Section II).

The authors report discovering that *strong* scaling runs "can exhaust the
available local memory, which then precludes runs with data sets exceeding
the offending problem size" — the motivation for adding weak scaling.  This
module models the per-node footprint of a QR run so that limit can be
computed and the weak-scaling regime's constant footprint verified.

Accounted components:

* tile payload — the in-place factored matrix, distributed evenly;
* ``T`` factors — ``ib/nb`` of a tile per tile;
* runtime metadata — bytes per VDP and per channel resident on the node;
* communication buffers — one maximum-size packet per inter-node channel
  endpoint (the "communication buffer sizes" Section II lists among the
  parameters weak scaling stresses).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..tiles.layout import TileLayout
from ..util.validation import check_positive, check_positive_int, require
from .model import MachineModel

__all__ = ["MemoryModel", "MemoryBreakdown", "qr_node_memory", "max_rows_strong_scaling"]

#: Kraken node memory (paper Section VI): 16 GB.
KRAKEN_NODE_BYTES = 16 * 1024**3


@dataclass(frozen=True)
class MemoryModel:
    """Sizes of the non-payload allocations."""

    node_bytes: int = KRAKEN_NODE_BYTES
    vdp_bytes: int = 512  # descriptor, slots, local-store bookkeeping
    channel_bytes: int = 256  # queue header + state
    #: Fraction of a node's memory the OS/runtime image occupies.
    reserved_fraction: float = 0.06

    def __post_init__(self) -> None:
        check_positive_int(self.node_bytes, "node_bytes")
        check_positive(self.reserved_fraction + 1.0, "reserved_fraction")
        require(0.0 <= self.reserved_fraction < 1.0, "reserved_fraction must be in [0, 1)")

    @property
    def usable_bytes(self) -> float:
        return self.node_bytes * (1.0 - self.reserved_fraction)


@dataclass(frozen=True)
class MemoryBreakdown:
    """Per-node footprint of one QR configuration."""

    tiles: float
    t_factors: float
    runtime: float
    comm_buffers: float
    usable: float

    @property
    def total(self) -> float:
        return self.tiles + self.t_factors + self.runtime + self.comm_buffers

    @property
    def fits(self) -> bool:
        return self.total <= self.usable


def _vsa_extent(layout: TileLayout, h: int) -> tuple[float, float]:
    """(VDP count, channel count) of the hierarchical 3D array (estimate).

    Domain VDPs: one per (panel, domain, column); binary VDPs: one per TT
    elimination per column; channels roughly 3 per VDP (A stream, V chain,
    head/pivot routing).
    """
    nt = min(layout.mt, layout.nt)
    vdps = 0.0
    for j in range(nt):
        rows = layout.mt - j
        domains = -(-rows // h)
        cols = layout.nt - j
        vdps += (domains + max(0, domains - 1)) * cols
    return vdps, 3.0 * vdps


def qr_node_memory(
    layout: TileLayout,
    cores: int,
    machine: MachineModel,
    ib: int,
    *,
    h: int = 6,
    mem: MemoryModel | None = None,
) -> MemoryBreakdown:
    """Per-node footprint of a hierarchical tree QR run."""
    mem = mem or MemoryModel()
    nodes = machine.nodes_for_cores(cores)
    tiles = layout.m * layout.n * 8.0 / nodes
    t_factors = tiles * ib / layout.nb
    vdps, channels = _vsa_extent(layout, h)
    runtime = (vdps * mem.vdp_bytes + channels * mem.channel_bytes) / nodes
    # The proxy posts communication buffers per in-flight message, not per
    # channel: a send and a receive buffer per worker thread plus a small
    # constant pool, each sized for the largest packet.
    pkt = (layout.nb * layout.nb + ib * layout.nb) * 8.0
    inflight = 2 * machine.workers_per_node + 8
    comm = 0.0 if nodes == 1 else inflight * pkt
    return MemoryBreakdown(
        tiles=tiles,
        t_factors=t_factors,
        runtime=runtime,
        comm_buffers=comm,
        usable=mem.usable_bytes,
    )


def max_rows_strong_scaling(
    n: int,
    nb: int,
    ib: int,
    cores: int,
    machine: MachineModel,
    *,
    h: int = 6,
    mem: MemoryModel | None = None,
) -> int:
    """Largest ``m`` (in whole tiles) that fits per-node memory.

    This is Section II's observation made quantitative: at a fixed core
    count, the feasible problem size is capped; growing the data requires
    growing the machine (weak scaling).
    """
    mem = mem or MemoryModel()
    lo, hi = 1, 1 << 22  # tile-row search bounds
    while lo < hi:
        mid = (lo + hi + 1) // 2
        layout = TileLayout(mid * nb, n, nb)
        if qr_node_memory(layout, cores, machine, ib, h=h, mem=mem).fits:
            lo = mid
        else:
            hi = mid - 1
    return lo * nb

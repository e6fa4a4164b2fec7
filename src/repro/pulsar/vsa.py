"""The Virtual Systolic Array: a set of VDPs connected by channels.

Construction follows the paper's Figure 2::

    vsa = VSA(params={...})
    for ...:
        vdp = VDP(tup, counter, fnc, n_in=..., n_out=...)
        vdp.insert_channel(Channel(...), "in", slot)   # faithful two-sided
        vsa.add_vdp(vdp)
    vsa.connect(src, sslot, dst, dslot, max_bytes)     # or the one-call form
    stats = vsa.run(n_nodes=2, workers_per_node=2, mapping=..., policy="lazy")

``run`` hands control to the PULSAR Runtime (:mod:`repro.pulsar.runtime`),
which propagates data through the array and dynamically schedules VDPs.
"""

from __future__ import annotations

from collections.abc import Callable

from ..util.errors import VSAError
from ..util.validation import check_positive_int
from .channel import Channel
from .packet import Packet
from .vdp import VDP

__all__ = ["VSA"]


class VSA:
    """A complete virtual systolic array description.

    Parameters
    ----------
    params:
        Read-only global parameters visible to every VDP as ``vdp.params``.
    """

    def __init__(self, params: dict | None = None):
        self.params = dict(params or {})
        self.vdps: dict[tuple, VDP] = {}
        self._extra_channels: list[Channel] = []
        self._preloads: list[tuple[tuple, int, Packet]] = []

    # -- construction --------------------------------------------------------

    def add_vdp(self, vdp: VDP) -> VDP:
        """Insert a VDP (``prt_vsa_vdp_insert``); tuples must be unique."""
        if vdp.tuple in self.vdps:
            raise VSAError(f"duplicate VDP tuple {vdp.tuple}")
        self.vdps[vdp.tuple] = vdp
        return vdp

    def connect(
        self,
        src_tuple: tuple,
        src_slot: int,
        dst_tuple: tuple,
        dst_slot: int,
        max_bytes: int,
        *,
        enabled: bool = True,
    ) -> Channel:
        """One-call channel creation: both endpoint VDPs must already exist.

        Equivalent to creating the two channel descriptors of the paper's
        Figure 9 and inserting each into its VDP — with the matching done
        eagerly instead of at launch.
        """
        check_positive_int(max_bytes, "max_bytes")
        for t in (src_tuple, dst_tuple):
            if t not in self.vdps:
                raise VSAError(f"connect references unknown VDP {t}")
        ch = Channel(max_bytes, src_tuple, src_slot, dst_tuple, dst_slot)
        if not enabled:
            ch.disable()
        self.vdps[src_tuple].insert_channel(ch, "out", src_slot)
        self.vdps[dst_tuple].insert_channel(ch, "in", dst_slot)
        return ch

    def preload(self, dst_tuple: tuple, slot: int, data: object, label: str = "") -> None:
        """Queue an initial packet on an input channel before launch.

        This models the initial data distribution: the matrix tiles are
        assumed to be resident where the first-panel VDPs run (the paper
        measures factorization time, not data loading).
        """
        self._preloads.append((dst_tuple, slot, Packet.of(data, label=label)))

    # -- launch-time resolution -----------------------------------------------

    def fuse_channels(self) -> list[Channel]:
        """Merge two-sided channel descriptors into canonical channels.

        Returns the canonical channel list.  Raises :class:`VSAError` for
        dangling references (an output with no matching input or vice
        versa), mismatched packet sizes, or preloads onto missing channels.
        """
        canonical: dict[tuple, Channel] = {}
        # First pass: collect every descriptor from both endpoint tables.
        for vdp in self.vdps.values():
            for ch in list(vdp.outputs) + list(vdp.inputs):
                if ch is None:
                    continue
                key = ch.key()
                prev = canonical.get(key)
                if prev is None:
                    canonical[key] = ch
                elif prev is not ch:
                    if prev.max_bytes != ch.max_bytes:
                        raise VSAError(
                            f"channel {ch.describe()} declared twice with different "
                            f"max_bytes ({prev.max_bytes} vs {ch.max_bytes})"
                        )
                    if prev.state != ch.state:
                        raise VSAError(
                            f"channel {ch.describe()} declared twice with different "
                            "initial states"
                        )
        # Second pass: point both VDP slot tables at the canonical object and
        # check that both endpoints actually declared the link.
        for key, ch in canonical.items():
            src_tuple, src_slot, dst_tuple, dst_slot = key
            src = self.vdps.get(src_tuple)
            dst = self.vdps.get(dst_tuple)
            if src is None or dst is None:
                raise VSAError(f"channel {ch.describe()} references a missing VDP")
            if src.outputs[src_slot] is None or dst.inputs[dst_slot] is None:
                raise VSAError(f"channel {ch.describe()} declared on one side only")
            src.outputs[src_slot] = ch
            dst.inputs[dst_slot] = ch
        for dst_tuple, slot, packet in self._preloads:
            vdp = self.vdps.get(dst_tuple)
            if vdp is None or not 0 <= slot < len(vdp.inputs) or vdp.inputs[slot] is None:
                raise VSAError(f"preload targets missing channel {dst_tuple}[in {slot}]")
            vdp.inputs[slot].queue.append(packet)
        self._preloads.clear()
        return list(canonical.values())

    # -- execution -------------------------------------------------------------

    def run(
        self,
        *,
        n_nodes: int = 1,
        workers_per_node: int = 1,
        mapping: Callable[[tuple], int] | None = None,
        policy: str = "lazy",
        jitter: float = 0.0,
        seed: int | None = None,
        deadlock_timeout: float = 20.0,
        fault_plan=None,
    ):
        """Execute the array on the threaded PULSAR Runtime.

        Parameters
        ----------
        n_nodes:
            Simulated distributed-memory nodes (each gets a proxy thread
            when inter-node channels exist).
        workers_per_node:
            Worker threads per node.
        mapping:
            ``tuple -> global worker id`` in ``[0, n_nodes*workers_per_node)``
            — the many-to-one VDP-to-thread map of Section IV-A.  Defaults
            to cyclic assignment in insertion order.
        policy:
            ``"lazy"`` (fire once, move on) or ``"aggressive"`` (refire while
            ready) — Section IV-A's two schemes.
        jitter:
            Network delivery jitter passed to the fabric (tests only).
        seed:
            Fabric jitter seed.
        deadlock_timeout:
            Seconds without any firing before the runtime aborts with
            :class:`~repro.util.errors.DeadlockError`.
        fault_plan:
            Optional :class:`~repro.faults.FaultPlan` injected into the
            fabric; implies the ack/retransmit proxy protocol when it can
            drop/duplicate/delay messages.

        Returns
        -------
        RunStats
            Aggregate execution statistics.
        """
        from .runtime import PRT, PRTConfig  # deferred to avoid an import cycle

        cfg = PRTConfig(
            n_nodes=n_nodes,
            workers_per_node=workers_per_node,
            policy=policy,
            jitter=jitter,
            seed=seed,
            deadlock_timeout=deadlock_timeout,
            fault_plan=fault_plan,
        )
        return PRT(self, cfg, mapping=mapping).run()

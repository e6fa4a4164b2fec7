"""Virtual-time execution of a *real* VSA — runtime-in-the-loop simulation.

The task-graph simulator (:mod:`repro.dessim.engine`) executes an abstract
DAG; this module instead executes an actual :class:`~repro.pulsar.VSA` —
the same object the threaded runtime runs — advancing a virtual clock
instead of wall time.  VDP bodies run for real (full numerics, channel
enable/disable, by-pass), so it validates simultaneously that

* the array is *correct* (the factors come out right), and
* the *timing model* sees the exact packet flow the runtime produces,
  including dynamic channel reconfiguration that a static DAG cannot
  express.

Semantics
---------
Each firing occupies its VDP's worker for ``cost_fn(vdp)`` plus the
runtime's per-firing overhead.  A packet becomes *visible* to its
destination at:

* firing start + forward overhead, when sent with ``vdp.forward`` (the
  by-pass idiom — this is precisely the paper's motivation for it), or
* firing end, when sent with ``vdp.write`` (the data did not exist
  earlier),

plus the wire time when the channel crosses nodes.  The engine repeatedly
fires the globally earliest-startable ready firing, which is equivalent to
event-driven execution because readiness is monotone in time.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from ..machine.model import MachineModel
from ..pulsar.channel import Channel
from ..pulsar.packet import Packet
from ..pulsar.vdp import VDP
from ..pulsar.vsa import VSA
from ..util.errors import DeadlockError
from ..util.validation import check_positive_int, require

__all__ = ["VirtualRunResult", "simulate_vsa"]


@dataclass
class VirtualRunResult:
    """Outcome of one virtual-time VSA execution."""

    makespan: float
    firings: int
    messages: int
    bytes_sent: int
    busy: dict[int, float] = field(default_factory=dict)
    trace: list[tuple] | None = None

    def utilization(self, n_workers: int) -> float:
        if self.makespan <= 0.0:
            return 0.0
        return sum(self.busy.values()) / (n_workers * self.makespan)


class _VirtualRuntime:
    """The ``vdp._runtime`` implementation for virtual-time execution.

    Channel queues hold ``(packet, available_at)`` pairs; the currently
    firing VDP's start/end times stamp outgoing packets.
    """

    def __init__(self, node_of: dict[tuple, int], machine: MachineModel):
        self._node_of = node_of
        self._machine = machine
        self.now_start = 0.0
        self.now_end = 0.0
        self.current: VDP | None = None
        self.messages = 0
        self.bytes_sent = 0

    def _delay(self, channel: Channel, when: float, nbytes: int) -> float:
        if channel.src_node != channel.dst_node:
            self.messages += 1
            self.bytes_sent += nbytes
            return when + self._machine.wire_seconds(nbytes)
        return when

    def pop(self, channel: Channel) -> Packet:
        pkt, _avail = channel.pop().data
        return pkt

    def peek(self, channel: Channel) -> Packet | None:
        head = channel.peek()
        return None if head is None else head.data[0]

    def push(self, channel: Channel, packet: Packet) -> None:
        avail = self._delay(channel, self.now_end, packet.nbytes)
        channel.push(Packet(data=(packet, avail), nbytes=packet.nbytes))

    def forward(self, in_channel: Channel, out_channel: Channel) -> Packet:
        pkt = self.pop(in_channel)
        avail = self._delay(
            out_channel, self.now_start + self._machine.forward_overhead_s, pkt.nbytes
        )
        out_channel.push(Packet(data=(pkt, avail), nbytes=pkt.nbytes))
        return pkt

    def set_channel_state(self, channel: Channel, *, enabled: bool) -> None:
        if enabled:
            channel.enable()
        else:
            channel.disable()

    def destroy_channel(self, channel: Channel) -> None:
        channel.destroy()


def _ready_time(vdp: VDP) -> float | None:
    """Earliest virtual time at which this VDP can fire, or None."""
    if vdp.destroyed or vdp.counter <= 0:
        return None
    attached = [c for c in vdp.inputs if c is not None]
    enabled = [c for c in attached if c.enabled]
    if attached and not enabled:
        return None
    t = 0.0
    for c in enabled:
        head = c.peek()
        if head is None:
            return None
        t = max(t, head.data[1])
    return t


def simulate_vsa(
    vsa: VSA,
    *,
    mapping: Callable[[tuple], int] | dict[tuple, int],
    machine: MachineModel,
    total_workers: int,
    cost_fn: Callable[[VDP], float],
    policy: str = "lazy",
    record_trace: bool = False,
) -> VirtualRunResult:
    """Execute ``vsa`` to completion in virtual time.

    Parameters
    ----------
    vsa:
        The array (consumed: channels are fused and queues rewritten; build
        a fresh VSA per simulation).
    mapping:
        VDP tuple -> worker id (same contract as the threaded runtime).
    machine:
        Timing model (kernel costs come from ``cost_fn``; the machine
        provides wire/forward/task overheads and the node packing).
    total_workers:
        Worker count; workers are packed onto nodes
        ``machine.workers_per_node`` at a time.
    cost_fn:
        Seconds of compute for the *current* firing of a VDP (inspect
        ``vdp.store`` / ``vdp.firing_index``).
    policy:
        ``lazy`` (tie-break by VDP creation order) or ``aggressive``
        (prefer refiring the worker's previous VDP).
    """
    check_positive_int(total_workers, "total_workers")
    require(policy in ("lazy", "aggressive"), f"unknown policy {policy!r}")
    if not callable(mapping):
        mapping_dict = dict(mapping)
        mapping = mapping_dict.__getitem__

    vsa.fuse_channels()
    node_of: dict[tuple, int] = {}
    worker_of: dict[tuple, int] = {}
    wpn = machine.workers_per_node
    for tup, vdp in vsa.vdps.items():
        w = mapping(tup)
        require(0 <= w < total_workers, f"mapping({tup}) = {w} out of range")
        worker_of[tup] = w
        node_of[tup] = w // wpn
    rt = _VirtualRuntime(node_of, machine)
    order = {tup: i for i, tup in enumerate(vsa.vdps)}
    seen: set[int] = set()
    for tup, vdp in vsa.vdps.items():
        vdp.params = vsa.params
        vdp._runtime = rt
        for ch in vdp.inputs:
            if ch is None or id(ch) in seen:
                continue
            seen.add(id(ch))
            ch.src_node = node_of.get(ch.src_tuple, 0)
            ch.dst_node = node_of.get(ch.dst_tuple, 0)
            # Rewrap preloaded packets (the initial data distribution) with
            # their availability stamp: virtual time zero.
            ch.queue = deque(
                Packet(data=(p, 0.0), nbytes=p.nbytes) for p in ch.queue
            )

    alive: list[VDP] = list(vsa.vdps.values())
    worker_free: dict[int, float] = {w: 0.0 for w in range(total_workers)}
    worker_last: dict[int, tuple | None] = {w: None for w in range(total_workers)}
    busy: dict[int, float] = {w: 0.0 for w in range(total_workers)}
    trace: list[tuple] | None = [] if record_trace else None
    firings = 0
    makespan = 0.0
    aggressive = policy == "aggressive"

    while alive:
        best: tuple | None = None
        for vdp in alive:
            rt_ready = _ready_time(vdp)
            if rt_ready is None:
                continue
            w = worker_of[vdp.tuple]
            start = max(rt_ready, worker_free[w])
            refire = 0 if (aggressive and worker_last[w] == vdp.tuple) else 1
            key = (start, refire, order[vdp.tuple])
            if best is None or key < best[0]:
                best = (key, vdp, start, w)
        if best is None:
            stuck = [v.tuple for v in alive[:10]]
            raise DeadlockError(f"virtual VSA execution stalled; waiting VDPs: {stuck}")
        _, vdp, start, w = best
        dur = machine.task_overhead_s + float(cost_fn(vdp))
        end = start + dur
        rt.now_start, rt.now_end, rt.current = start, end, vdp
        vdp.fnc(vdp)
        vdp.firing_index += 1
        vdp.counter -= 1
        if vdp.counter <= 0:
            vdp.destroyed = True
            alive.remove(vdp)
        worker_free[w] = end
        worker_last[w] = vdp.tuple
        busy[w] += dur
        makespan = max(makespan, end)
        firings += 1
        if trace is not None:
            trace.append((w, start, end, vdp.tuple))

    return VirtualRunResult(
        makespan=makespan,
        firings=firings,
        messages=rt.messages,
        bytes_sent=rt.bytes_sent,
        busy=busy,
        trace=trace,
    )

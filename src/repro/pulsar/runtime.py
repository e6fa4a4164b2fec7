"""The PULSAR Runtime (PRT): threads + proxy mapping VSAs onto "nodes".

Faithful to paper Section IV-B:

* the VSA is executed by a collection of simulated distributed-memory
  *nodes* (ranks on the :class:`~repro.netsim.Fabric`), each running worker
  threads plus one *proxy* thread dedicated to inter-node communication;
* workers continuously sweep their list of VDPs for a ready one; the *lazy*
  policy fires a ready VDP once and moves on, the *aggressive* policy
  refires while ready;
* an intra-node channel is a plain FIFO under the node lock (zero-copy: the
  packet object is aliased); an inter-node channel is fed by the proxy,
  which cycles through isend / poll / test exactly like the paper's
  six-MPI-call proxy;
* packet routing uses consecutive per-``(src node, dst node)`` channel tags
  combined with the sender rank on the receiving side;
* the proxy serves communication until its queues are empty and its node's
  VDPs are all destroyed.

Real Python threads are used, so firing rules, queue synchronisation and
termination are exercised genuinely; wall-clock *performance* at scale is
instead measured by the discrete-event backend (:mod:`repro.dessim`).

Fault tolerance: when a :class:`~repro.faults.FaultPlan` that can drop,
duplicate or delay packets is configured, the proxy speaks a sequence-numbered
ack/retransmit protocol over the fabric — per ``(src, dst, tag)`` stream
sequence numbers, per-packet acknowledgements, timeout + capped exponential
backoff retransmission, duplicate suppression and in-order reassembly on
the receive side — so a run over a lossy fabric still produces bit-identical
results.  Packets unacknowledged after :data:`MAX_RETRIES` attempts raise
:class:`~repro.util.errors.RetryExhaustedError`; proxies shut down via a
coordinated quiescence check (all workers finished, every proxy idle, the
fabric empty) so a node never exits while a peer still needs its
acknowledgements.  Without a fault plan the wire protocol and the shutdown
logic are exactly the classic ones — the reliable path adds zero overhead
when disabled.  See ``docs/robustness.md``.

Observability: when a recorder is installed (:mod:`repro.obs`) each firing
becomes a ``"fire"`` span on its worker's lane (kernel spans from the VDP
body nest inside it via the shim in :mod:`repro.kernels`), each proxy gets
its own lane with a lifetime span, and channel traffic feeds the
``packets.pushed`` / ``packets.bypassed`` / ``bytes.moved`` /
``queue.max_depth`` / ``proxy.messages`` counters.  The recorder reference
is captured once per :meth:`PRT.run`, so the disabled path costs one
``None`` check per event.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from ..kernels._lapack import one_blas_thread
from ..netsim.fabric import Fabric, SendRequest, _copy_payload, payload_nbytes
from ..obs import context as _obs_context
from ..obs import record as _obs_record
from ..obs.record import (
    K_FIRINGS,
    K_PACKETS_BYPASSED,
    K_PACKETS_PUSHED,
    K_PROXY_MESSAGES,
    K_RETRY_DUP_SUPPRESSED,
    K_RETRY_RESEND,
)
from ..util.errors import (
    DeadlockError,
    NetworkError,
    RetryExhaustedError,
    RuntimeStateError,
    TagError,
    VSAError,
)
from ..qr.schedule import POLICIES
from ..util.validation import check_positive_int, require
from .channel import Channel
from .packet import Packet
from .vdp import VDP
from .vsa import VSA

__all__ = ["PRTConfig", "RunStats", "PRT"]

#: Reliable-protocol retransmission: the first timeout in seconds, doubled
#: per attempt and capped at ``RETRY_BACKOFF_CAP``; a packet still
#: unacknowledged after ``MAX_RETRIES`` retransmissions aborts the run with
#: :class:`~repro.util.errors.RetryExhaustedError`.
RETRY_TIMEOUT = 0.05
RETRY_BACKOFF_CAP = 1.0
MAX_RETRIES = 12


@dataclass(frozen=True)
class PRTConfig:
    """Runtime launch configuration.

    ``fault_plan`` plugs a :class:`~repro.faults.FaultPlan` into the
    fabric; the proxies speak the ack/retransmit protocol exactly when the
    plan can inject fabric faults (``fault_plan.faulty_fabric``).
    ``jitter`` and ``seed`` shuffle fabric deliveries (tests only).
    """

    n_nodes: int = 1
    workers_per_node: int = 1
    policy: str = "lazy"
    jitter: float = 0.0
    seed: int | None = None
    deadlock_timeout: float = 20.0
    max_tag: int = 16 * 1024
    fault_plan: object | None = None

    def __post_init__(self) -> None:
        check_positive_int(self.n_nodes, "n_nodes")
        check_positive_int(self.workers_per_node, "workers_per_node")
        require(self.policy in POLICIES, f"policy must be one of {POLICIES}, got {self.policy!r}")

    @property
    def total_workers(self) -> int:
        return self.n_nodes * self.workers_per_node


@dataclass
class RunStats:
    """Aggregate statistics of one VSA execution."""

    firings: int = 0
    elapsed_s: float = 0.0
    messages_sent: int = 0
    bytes_sent: int = 0
    stray_messages: int = 0
    per_worker_firings: dict[int, int] = field(default_factory=dict)
    n_nodes: int = 1
    workers_per_node: int = 1
    policy: str = "lazy"
    # Fault-tolerance evidence (zero on a clean run / classic protocol).
    reliable: bool = False
    retransmits: int = 0
    dup_suppressed: int = 0
    faults_dropped: int = 0
    faults_duplicated: int = 0
    faults_delayed: int = 0


class _UnackedSend:
    """Sender-side retransmission record of one in-flight data packet."""

    __slots__ = ("payload", "attempts", "deadline")

    def __init__(self, payload: object, attempts: int, deadline: float):
        self.payload = payload
        self.attempts = attempts
        self.deadline = deadline


class _NodeState:
    """Per-node shared state: one lock/condition guards every queue."""

    def __init__(self, rank: int):
        self.rank = rank
        self.cond = threading.Condition()
        self.outgoing: deque[tuple[Channel, Packet]] = deque()
        self.routing: dict[tuple[int, int], Channel] = {}
        self.workers_alive = 0
        self.has_remote = False
        # Reliable-mode quiescence flag published by the proxy and read by
        # the monitor loop for the coordinated shutdown decision.
        self.proxy_idle = False


class PRT:
    """One launch of a VSA on the threaded runtime.

    A :class:`PRT` instance is single-use: build it, call :meth:`run` once.
    """

    def __init__(self, vsa: VSA, cfg: PRTConfig, mapping: Callable[[tuple], int] | None = None):
        self.vsa = vsa
        self.cfg = cfg
        self.mapping = mapping
        self._abort = threading.Event()
        self._rec = None  # observability recorder, captured once in run()
        self._errors: list[BaseException] = []
        self._firings = 0
        self._firings_lock = threading.Lock()
        self._per_worker: dict[int, int] = {}
        self._ran = False
        self._reliable = cfg.fault_plan is not None and cfg.fault_plan.faulty_fabric
        self._proxy_stop = threading.Event()
        self._retransmits = 0
        self._dup_suppressed = 0
        self.nodes = [_NodeState(r) for r in range(cfg.n_nodes)]
        self.fabric = Fabric(
            cfg.n_nodes, jitter=cfg.jitter, seed=cfg.seed, max_tag=cfg.max_tag,
            fault_plan=cfg.fault_plan,
        )
        self._vdp_node: dict[tuple, int] = {}
        self._vdp_worker: dict[tuple, int] = {}
        self._worker_vdps: dict[int, list[VDP]] = {w: [] for w in range(cfg.total_workers)}
        self._build()

    # -- build ----------------------------------------------------------------

    def _build(self) -> None:
        if not self.vsa.vdps:
            raise VSAError("cannot run an empty VSA")
        mapping = self.mapping
        if mapping is None:
            order = {t: i for i, t in enumerate(self.vsa.vdps)}
            total = self.cfg.total_workers
            mapping = lambda tup: order[tup] % total  # noqa: E731 - default cyclic map
        for tup, vdp in self.vsa.vdps.items():
            wid = mapping(tup)
            if not 0 <= wid < self.cfg.total_workers:
                raise VSAError(
                    f"mapping({tup}) = {wid} outside [0, {self.cfg.total_workers})"
                )
            self._vdp_worker[tup] = wid
            self._vdp_node[tup] = wid // self.cfg.workers_per_node
            self._worker_vdps[wid].append(vdp)
            vdp.params = self.vsa.params
            vdp._runtime = self
        channels = self.vsa.fuse_channels()
        tag_counters: dict[tuple[int, int], int] = {}
        for ch in channels:
            ch.src_node = self._vdp_node[ch.src_tuple]
            ch.dst_node = self._vdp_node[ch.dst_tuple]
            if ch.is_remote:
                pair = (ch.src_node, ch.dst_node)
                tag = tag_counters.get(pair, 0)
                tag_counters[pair] = tag + 1
                if tag >= self.cfg.max_tag:
                    raise TagError(
                        f"node pair {pair} needs more than {self.cfg.max_tag} channels; "
                        "the guaranteed MPI tag range is exhausted"
                    )
                ch.tag = tag
                self.nodes[ch.dst_node].routing[(ch.src_node, tag)] = ch
                self.nodes[ch.src_node].has_remote = True
                self.nodes[ch.dst_node].has_remote = True

    # -- channel operations (called from VDP methods during firings) -----------

    def push(self, channel: Channel, packet: Packet) -> None:
        """Route a packet: local channels go straight to the destination
        queue; remote ones to the source node's outgoing proxy queue."""
        if packet.nbytes > channel.max_bytes:
            # Validate on the sending side, before any queueing.
            channel.push(packet)  # raises ChannelError with a good message
            return
        if packet.run_id is None:
            packet.run_id = self.run_id
        rec = self._rec
        if channel.is_remote:
            src = self.nodes[channel.src_node]
            with src.cond:
                src.outgoing.append((channel, packet))
                src.cond.notify_all()
            if rec is not None:
                rec.count_packet(K_PACKETS_PUSHED, packet.nbytes)
        else:
            dst = self.nodes[channel.dst_node]
            with dst.cond:
                channel.push(packet)
                depth = len(channel)
                dst.cond.notify_all()
            if rec is not None:
                rec.count_packet(K_PACKETS_PUSHED, packet.nbytes, depth=depth)

    def pop(self, channel: Channel) -> Packet:
        dst = self.nodes[channel.dst_node]
        with dst.cond:
            return channel.pop()

    def peek(self, channel: Channel) -> Packet | None:
        dst = self.nodes[channel.dst_node]
        with dst.cond:
            return channel.peek()

    def forward(self, in_channel: Channel, out_channel: Channel) -> Packet:
        """By-pass: pop + immediate push of the same packet."""
        pkt = self.pop(in_channel)
        self.push(out_channel, pkt)
        rec = self._rec
        if rec is not None:
            rec.count(K_PACKETS_BYPASSED)
        return pkt

    def set_channel_state(self, channel: Channel, *, enabled: bool) -> None:
        dst = self.nodes[channel.dst_node]
        with dst.cond:
            if enabled:
                channel.enable()
            else:
                channel.disable()
            dst.cond.notify_all()

    def destroy_channel(self, channel: Channel) -> None:
        dst = self.nodes[channel.dst_node]
        with dst.cond:
            channel.destroy()
            dst.cond.notify_all()

    # -- execution --------------------------------------------------------------

    def run(self) -> RunStats:
        """Launch workers and proxies; block until completion.

        Raises the first user exception observed in a VDP body, or
        :class:`DeadlockError` if no firing happens for
        ``cfg.deadlock_timeout`` seconds while VDPs remain.
        """
        if self._ran:
            raise RuntimeStateError("a PRT instance can only run once")
        self._ran = True
        # Capture the recorder once; worker/proxy threads read self._rec.
        self._rec = _obs_record._RECORDER
        # Trace context: the recorder's run id is canonical; otherwise the
        # caller's active run (or a fresh id for standalone PRT runs).
        # Worker and proxy threads activate it so spans, events, and packets
        # they produce all bind to the same run.
        if self._rec is not None:
            self.run_id = self._rec.run_id
        else:
            self.run_id = _obs_context.current_run_id() or _obs_context.mint_run_id()
        if self._rec is not None:
            # Live runtime state for the metrics sampler (vocabulary in
            # repro.obs.sampler); unregistered in run()'s finally.
            self._rec.register_gauge("pulsar.firings", lambda: self._firings)
            self._rec.register_gauge(
                "pulsar.workers_alive",
                lambda: sum(n.workers_alive for n in self.nodes),
            )
            self._rec.register_gauge(
                "pulsar.outgoing_depth",
                lambda: sum(len(n.outgoing) for n in self.nodes),
            )
            self._rec.register_gauge(
                "pulsar.fabric_inflight",
                lambda: sum(
                    self.fabric.pending_count(n.rank) for n in self.nodes
                ),
            )
        try:
            return self._run_threads()
        finally:
            if self._rec is not None:
                for g in (
                    "pulsar.firings", "pulsar.workers_alive",
                    "pulsar.outgoing_depth", "pulsar.fabric_inflight",
                ):
                    self._rec.unregister_gauge(g)

    def _run_threads(self) -> RunStats:
        t0 = time.perf_counter()
        threads: list[threading.Thread] = []
        for wid in range(self.cfg.total_workers):
            th = threading.Thread(
                target=self._worker_loop, args=(wid,), name=f"prt-worker-{wid}", daemon=True
            )
            threads.append(th)
        for node in self.nodes:
            node.workers_alive = self.cfg.workers_per_node
            if node.has_remote:
                threads.append(
                    threading.Thread(
                        target=self._proxy_loop,
                        args=(node,),
                        name=f"prt-proxy-{node.rank}",
                        daemon=True,
                    )
                )
        for th in threads:
            th.start()

        last_progress = self._firings
        last_change = time.perf_counter()
        while any(th.is_alive() for th in threads):
            for th in threads:
                th.join(timeout=0.05)
            if self._reliable and not self._proxy_stop.is_set():
                # Coordinated quiescence: a proxy may still owe a peer an
                # acknowledgement for a retransmission, so no proxy exits
                # until every worker is done, every proxy reports idle,
                # and nothing is left in flight on the fabric.
                if (
                    all(n.workers_alive == 0 for n in self.nodes)
                    and all(n.proxy_idle for n in self.nodes if n.has_remote)
                    and self.fabric.quiescent()
                ):
                    self._proxy_stop.set()
            now = time.perf_counter()
            cur = self._firings
            if cur != last_progress:
                last_progress, last_change = cur, now
            elif not self._abort.is_set() and now - last_change > self.cfg.deadlock_timeout:
                self._abort.set()
                for node in self.nodes:
                    with node.cond:
                        node.cond.notify_all()
                for th in threads:
                    th.join(timeout=2.0)
                raise DeadlockError(self._deadlock_report())
        if self._errors:
            raise self._errors[0]

        stray = 0
        for node in self.nodes:
            stray += self.fabric.pending_count(node.rank)
        stats = RunStats(
            firings=self._firings,
            elapsed_s=time.perf_counter() - t0,
            messages_sent=self.fabric.sent_messages,
            bytes_sent=self.fabric.sent_bytes,
            stray_messages=stray,
            per_worker_firings=dict(self._per_worker),
            n_nodes=self.cfg.n_nodes,
            workers_per_node=self.cfg.workers_per_node,
            policy=self.cfg.policy,
            reliable=self._reliable,
            retransmits=self._retransmits,
            dup_suppressed=self._dup_suppressed,
            faults_dropped=self.fabric.dropped_messages,
            faults_duplicated=self.fabric.duplicated_messages,
            faults_delayed=self.fabric.delayed_messages,
        )
        return stats

    # -- worker -------------------------------------------------------------------

    def _fail(self, exc: BaseException) -> None:
        """Record a fatal error, abort the run, and wake every thread."""
        self._errors.append(exc)
        self._abort.set()
        for node in self.nodes:
            with node.cond:
                node.cond.notify_all()

    def _fire(self, vdp: VDP, wid: int) -> None:
        rec = self._rec
        try:
            if rec is not None:
                # span() (not add_span) so kernel-shim spans recorded by the
                # VDP body parent to this firing — a real causal edge.
                with rec.span(
                    "fire", "runtime", worker=wid,
                    vdp=str(vdp.tuple), firing=vdp.firing_index,
                ):
                    vdp.fnc(vdp)
            else:
                vdp.fnc(vdp)
        except BaseException as exc:  # propagate user errors to run()
            self._fail(exc)
            raise
        if rec is not None:
            rec.count(K_FIRINGS)
        vdp.firing_index += 1
        vdp.counter -= 1
        if vdp.counter <= 0:
            vdp.destroyed = True
        with self._firings_lock:
            self._firings += 1
            self._per_worker[wid] = self._per_worker.get(wid, 0) + 1

    def _worker_loop(self, wid: int) -> None:
        node = self.nodes[wid // self.cfg.workers_per_node]
        _obs_context.activate(self.run_id)
        rec = self._rec
        if rec is not None:
            _obs_record.set_worker_lane(wid)
            rec.name_lane(wid, f"worker {wid} (node {node.rank})")
        alive = list(self._worker_vdps[wid])
        aggressive = self.cfg.policy == "aggressive"
        try:
            with one_blas_thread:  # a firing is a kernel
                while alive and not self._abort.is_set():
                    fired_any = False
                    for vdp in list(alive):
                        while True:
                            with node.cond:
                                ready = vdp.ready()
                            if not ready or self._abort.is_set():
                                break
                            self._fire(vdp, wid)
                            fired_any = True
                            if not aggressive:
                                break
                        if vdp.destroyed:
                            alive.remove(vdp)
                    if not fired_any and alive and not self._abort.is_set():
                        with node.cond:
                            if not any(v.ready() for v in alive):
                                node.cond.wait(timeout=0.01)
        except BaseException:
            pass  # recorded by _fire; terminate the thread quietly
        finally:
            with node.cond:
                node.workers_alive -= 1
                node.cond.notify_all()

    # -- proxy ----------------------------------------------------------------------

    def _proxy_loop(self, node: _NodeState) -> None:
        """Serve communication until the queues drain and local VDPs die.

        The body cycles through the same three operations the paper's proxy
        spends its time in: isend (flush outgoing), irecv/test (poll the
        fabric and route to channels), and completion tests on past sends.
        In reliable mode the same cycle additionally carries sequence
        numbers, acknowledgements and retransmissions
        (:meth:`_proxy_serve_reliable`).

        With a recorder installed the proxy reports on its own lane (after
        all worker lanes) with one lifetime span; every isend bumps the
        ``proxy.messages`` counter.
        """
        _obs_context.activate(self.run_id)
        rec = self._rec
        lane = self.cfg.total_workers + node.rank
        if rec is not None:
            _obs_record.set_worker_lane(lane)
            rec.name_lane(lane, f"proxy (node {node.rank})")
        proxy_start = rec.now() if rec is not None else 0.0
        try:
            if self._reliable:
                self._proxy_serve_reliable(node)
            else:
                self._proxy_serve_classic(node)
        finally:
            if rec is not None:
                rec.add_span(
                    "proxy", "proxy", proxy_start, rec.now(), worker=lane,
                    args={"node": node.rank, "reliable": self._reliable},
                )

    def _proxy_serve_classic(self, node: _NodeState) -> None:
        """Fire-and-forget protocol: the fabric is trusted not to lose."""
        rec = self._rec
        pending: list[SendRequest] = []
        while not self._abort.is_set():
            progress = False
            # Flush outgoing queues (MPI_Isend).
            while True:
                with node.cond:
                    item = node.outgoing.popleft() if node.outgoing else None
                if item is None:
                    break
                ch, pkt = item
                pending.append(
                    self.fabric.isend(node.rank, ch.dst_node, ch.tag, pkt.data)
                )
                if rec is not None:
                    rec.count(K_PROXY_MESSAGES)
                progress = True
            # Drain incoming messages (MPI_Irecv + MPI_Test) and route by
            # (sender rank, tag).
            while (msg := self.fabric.poll(node.rank)) is not None:
                if not self._route_packet(node, msg.source, msg.tag, msg.payload, msg.nbytes):
                    break
                progress = True
            pending = [r for r in pending if not r.test()]
            with node.cond:
                done = (
                    node.workers_alive == 0
                    and not node.outgoing
                    and not pending
                    and self.fabric.pending_count(node.rank) == 0
                )
            if done:
                break
            if not progress:
                time.sleep(0.0005)

    def _proxy_serve_reliable(self, node: _NodeState) -> None:
        """Sequence-numbered ack/retransmit protocol over a lossy fabric.

        Wire format (everything this proxy sends is an envelope):

        * ``("D", seq, payload)`` — data packet ``seq`` of its
          ``(src, dst, tag)`` stream, sequence numbers dense from 0;
        * ``("A", seq)`` — acknowledgement, sent back on the same tag
          (envelope kinds disambiguate, so no tag is reserved).

        Sender side keeps every packet in ``unacked`` until its ack
        arrives, retransmitting on a deadline with capped exponential
        backoff; :data:`MAX_RETRIES` exceeded is a fatal
        :class:`RetryExhaustedError`.  Receiver side acks *every* data
        packet (the previous ack may itself have been lost), suppresses
        duplicates, and reassembles each stream in sequence order through a
        reorder buffer so channels still see FIFO delivery.

        Termination is coordinated by the monitor loop (see :meth:`run`):
        this proxy publishes ``node.proxy_idle`` and exits only when
        ``_proxy_stop`` is set, so it keeps re-acknowledging retransmitted
        duplicates for as long as any peer might still be retrying.
        """
        rec = self._rec
        rank = node.rank
        next_seq: dict[tuple[int, int], int] = {}  # (dst, tag) -> next seq
        unacked: dict[tuple[int, int, int], _UnackedSend] = {}
        recv_next: dict[tuple[int, int], int] = {}  # (src, tag) -> expected
        recv_buf: dict[tuple[int, int], dict[int, object]] = {}
        retransmits = dup_suppressed = 0
        while not self._abort.is_set():
            progress = False
            # Flush outgoing queues with stream sequence numbers.
            while True:
                with node.cond:
                    item = node.outgoing.popleft() if node.outgoing else None
                if item is None:
                    break
                ch, pkt = item
                stream = (ch.dst_node, ch.tag)
                seq = next_seq.get(stream, 0)
                next_seq[stream] = seq + 1
                # Snapshot the payload once: retransmissions must resend
                # the bytes as they were at send time, even if the source
                # VDP mutates its tile afterwards.
                payload = _copy_payload(pkt.data)
                unacked[(ch.dst_node, ch.tag, seq)] = _UnackedSend(
                    payload, 0, time.monotonic() + RETRY_TIMEOUT
                )
                self.fabric.isend(rank, ch.dst_node, ch.tag, ("D", seq, payload))
                if rec is not None:
                    rec.count(K_PROXY_MESSAGES)
                progress = True
            # Drain incoming envelopes: ack data, suppress duplicates,
            # deliver streams in sequence order.
            while (msg := self.fabric.poll(rank)) is not None:
                progress = True
                kind = msg.payload[0]
                if kind == "A":
                    unacked.pop((msg.source, msg.tag, msg.payload[1]), None)
                    continue
                seq, data = msg.payload[1], msg.payload[2]
                # Always ack — the previous ack may have been dropped.
                self.fabric.isend(rank, msg.source, msg.tag, ("A", seq))
                stream = (msg.source, msg.tag)
                expected = recv_next.get(stream, 0)
                if seq < expected:
                    dup_suppressed += 1
                    if rec is not None:
                        rec.count(K_RETRY_DUP_SUPPRESSED)
                        rec.event(
                            "retry.dup_suppressed", src=msg.source, seq=seq
                        )
                    continue
                buf = recv_buf.setdefault(stream, {})
                if seq > expected:
                    if seq in buf:
                        dup_suppressed += 1
                        if rec is not None:
                            rec.count(K_RETRY_DUP_SUPPRESSED)
                            rec.event(
                                "retry.dup_suppressed", src=msg.source, seq=seq
                            )
                    else:
                        buf[seq] = data
                    continue
                # In order: deliver, then drain the reorder buffer.
                if not self._route_packet(node, msg.source, msg.tag, data, payload_nbytes(data)):
                    break
                expected += 1
                while expected in buf:
                    nxt = buf.pop(expected)
                    if not self._route_packet(node, msg.source, msg.tag, nxt, payload_nbytes(nxt)):
                        break
                    expected += 1
                recv_next[stream] = expected
            # Retransmission pass over the unacked window.
            now = time.monotonic()
            for key, snd in list(unacked.items()):
                if now < snd.deadline or self._abort.is_set():
                    continue
                snd.attempts += 1
                if snd.attempts > MAX_RETRIES:
                    dst, tag, seq = key
                    self._fail(RetryExhaustedError(
                        f"node {rank}: packet seq {seq} to node {dst} (tag {tag}) "
                        f"unacknowledged after {MAX_RETRIES} retransmissions"
                    ))
                    break
                self.fabric.isend(rank, key[0], key[1], ("D", key[2], snd.payload))
                retransmits += 1
                if rec is not None:
                    rec.count(K_RETRY_RESEND)
                    rec.event(
                        "retry.resend", dst=key[0], seq=key[2], n=snd.attempts
                    )
                snd.deadline = now + min(RETRY_TIMEOUT * (2.0 ** snd.attempts), RETRY_BACKOFF_CAP)
                progress = True
            # Publish quiescence for the coordinated shutdown decision.
            with node.cond:
                idle = (
                    node.workers_alive == 0
                    and not node.outgoing
                    and not unacked
                    and not any(recv_buf.values())
                )
            node.proxy_idle = idle and self.fabric.pending_count(rank) == 0
            if self._proxy_stop.is_set():
                break
            if not progress:
                time.sleep(0.0005)
        with self._firings_lock:
            self._retransmits += retransmits
            self._dup_suppressed += dup_suppressed

    def _route_packet(self, node: _NodeState, source: int, tag: int, data, nbytes: int) -> bool:
        """Deliver one payload to its channel; False aborts the proxy."""
        ch = node.routing.get((source, tag))
        if ch is None:
            self._fail(NetworkError(
                f"node {node.rank}: no channel for message from "
                f"{source} with tag {tag}"
            ))
            return False
        with node.cond:
            ch.queue.append(Packet(data=data, nbytes=nbytes, run_id=self.run_id))
            node.cond.notify_all()
        return True

    # -- diagnostics -------------------------------------------------------------------

    def _deadlock_report(self) -> str:
        lines = ["PULSAR runtime made no progress; remaining VDPs:"]
        shown = 0
        for wid, vdps in self._worker_vdps.items():
            for vdp in vdps:
                if vdp.destroyed:
                    continue
                if shown >= 20:
                    lines.append("  ... (truncated)")
                    return "\n".join(lines)
                chans = []
                for slot, ch in enumerate(vdp.inputs):
                    if ch is not None:
                        chans.append(f"in{slot}:{len(ch)}pkt/{ch.state}")
                lines.append(
                    f"  VDP{vdp.tuple} worker={wid} counter={vdp.counter} [{' '.join(chans)}]"
                )
                shown += 1
        return "\n".join(lines)

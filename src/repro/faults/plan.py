"""Seeded, deterministic fault plans.

A :class:`FaultPlan` is a *schedule* of faults, not a fault generator: every
decision ("is the 7th send on stream ``(src, dst, tag)`` dropped?") is a
pure function of the plan's seed and the event coordinates, computed with a
keyed BLAKE2b hash.  That gives three properties the recovery machinery and
the tests rely on:

* **reproducible** — the same plan injects the same faults into the same
  event sequence, in any process (no dependence on Python's per-process
  ``hash()`` randomisation, so the crash schedule evaluated inside a worker
  process agrees with the parent's expectation);
* **stateless** — the plan object carries no mutable counters, so it can be
  shared by every rank of the fabric and pickled into worker processes;
* **independent** — drop/duplicate/delay decisions for different events are
  decorrelated, like real packet loss.

Consumers:

* :class:`repro.netsim.Fabric` consults :meth:`drop` / :meth:`duplicate` /
  :meth:`delay` per send, keyed by the per-stream send ordinal;
* the parallel dispatcher (:mod:`repro.qr.parallel`) passes the plan to its
  workers, which consult :meth:`worker_crash` before each operation and
  die abruptly when told to (generation 0 only, so a respawned worker does
  not crash-loop);
* the SDC guard (:mod:`repro.qr.checksum`) consults :meth:`flip` after each
  operation and, when told to, flips :attr:`flip_bits` bits of one element
  of the op's freshly written output (the element and bit positions come
  from :meth:`flip_target` / :meth:`flip_mask`) — modelling a silent bit
  flip in a tile or a corrupted shared-memory payload.

``FaultPlan()`` with no rates is the identity plan: every predicate is
``False`` and the fast-path checks (:attr:`faulty_fabric`,
:attr:`faulty_workers`) let call sites skip hashing entirely.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

from ..util.errors import ConfigurationError
from ..util.validation import check_nonnegative_int

__all__ = ["FaultPlan"]


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic drop/duplicate/delay/crash schedule.

    Parameters
    ----------
    seed:
        Root of the decision hash; two plans with different seeds inject
        statistically independent fault patterns.
    drop_rate, duplicate_rate, delay_rate:
        Per-send probabilities in ``[0, 1)`` that a fabric send is lost,
        delivered twice, or delayed.  Rates apply independently per send
        (retransmits are new sends and roll new dice — with the proxy's
        retry budget of ``n`` attempts a packet is lost for good only with
        probability ``drop_rate**n``).
    delay_ticks:
        Artificial delivery delay, in fabric poll ticks, applied to delayed
        (and duplicated) messages.
    crash_workers:
        ``worker rank -> op ordinal`` schedule for the parallel backend: the
        first process incarnation of ``rank`` calls ``os._exit`` immediately
        before executing its ``ordinal``-th operation (0-based, counted per
        process).  Respawned incarnations (generation > 0) never crash, so
        recovery always converges.  Every call with a fault plan runs on
        fresh generation-0 workers and leaves none behind, so each call,
        a :class:`repro.QRSession`'s too, injects what its plan says.
    flip_rate:
        Per-op probability in ``[0, 1)`` that the op's freshly computed
        output is silently corrupted before its checksum is verified
        (docs/robustness.md, "Silent data corruption").  Applies on the
        serial, batched, and parallel backends.
    flip_bits:
        How many distinct bits of the targeted element are flipped per
        corruption (1..64; default 1 — the classic single-event upset).
    flip_attempts:
        How many *executions* of a flipped op are corrupted (default 1:
        only the first execution, so one recomputation repairs it —
        mirroring the generation-0 crash semantics).  Set it to 3 or more
        to make recomputation disagree twice as well, forcing the guard
        to escalate with
        :class:`~repro.util.errors.SilentCorruptionError`.

    Examples
    --------
    >>> plan = FaultPlan(seed=7, drop_rate=0.5)
    >>> decisions = [plan.drop(0, 1, 3, n) for n in range(8)]
    >>> decisions == [plan.drop(0, 1, 3, n) for n in range(8)]  # reproducible
    True
    >>> FaultPlan().faulty_fabric, FaultPlan(crash_workers={1: 4}).faulty_workers
    (False, True)
    >>> sdc = FaultPlan(seed=7, flip_rate=0.5)
    >>> sdc.faulty_sdc, sdc.flip(3, attempt=1)  # default corrupts attempt 0 only
    (True, False)
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    delay_ticks: float = 8.0
    crash_workers: dict[int, int] = field(default_factory=dict)
    flip_rate: float = 0.0
    flip_bits: int = 1
    flip_attempts: int = 1

    def __post_init__(self) -> None:
        check_nonnegative_int(self.seed, "seed")
        for name in ("drop_rate", "duplicate_rate", "delay_rate", "flip_rate"):
            rate = getattr(self, name)
            if (isinstance(rate, bool) or not isinstance(rate, (int, float))
                    or not 0.0 <= float(rate) < 1.0):
                raise ConfigurationError(
                    f"FaultPlan.{name} must be a probability in [0, 1), "
                    f"got {rate!r}"
                )
        if not isinstance(self.flip_bits, int) or not 1 <= self.flip_bits <= 64:
            raise ConfigurationError(
                f"FaultPlan.flip_bits must be an int in [1, 64], "
                f"got {self.flip_bits!r}"
            )
        if not isinstance(self.flip_attempts, int) or self.flip_attempts < 1:
            raise ConfigurationError(
                f"FaultPlan.flip_attempts must be a positive int, "
                f"got {self.flip_attempts!r}"
            )
        for rank, ordinal in self.crash_workers.items():
            check_nonnegative_int(rank, "crash_workers rank")
            check_nonnegative_int(ordinal, "crash_workers ordinal")

    # -- fast-path predicates ------------------------------------------------

    @property
    def faulty_fabric(self) -> bool:
        """True when any fabric-level fault can ever fire."""
        return (self.drop_rate > 0.0 or self.duplicate_rate > 0.0
                or self.delay_rate > 0.0)

    @property
    def faulty_workers(self) -> bool:
        """True when any worker crash is scheduled."""
        return bool(self.crash_workers)

    @property
    def faulty_sdc(self) -> bool:
        """True when silent bit flips can ever fire (checksum guard needed)."""
        return self.flip_rate > 0.0

    # -- decision hash -------------------------------------------------------

    def _u(self, kind: str, *coords: int) -> float:
        """Uniform-in-[0,1) decision variable for one fault coordinate.

        Keyed BLAKE2b over (seed, kind, coords): stable across processes
        and platforms, independent across coordinates.
        """
        h = hashlib.blake2b(digest_size=8, key=self.seed.to_bytes(8, "little"))
        h.update(kind.encode())
        h.update(struct.pack(f"<{len(coords)}q", *coords))
        return int.from_bytes(h.digest(), "little") / 2.0**64

    # -- fabric faults -------------------------------------------------------

    def drop(self, src: int, dst: int, tag: int, ordinal: int) -> bool:
        """Is the ``ordinal``-th send on stream ``(src, dst, tag)`` lost?"""
        return (self.drop_rate > 0.0
                and self._u("drop", src, dst, tag, ordinal) < self.drop_rate)

    def duplicate(self, src: int, dst: int, tag: int, ordinal: int) -> bool:
        """Is that send delivered twice (second copy arrives late)?"""
        return (self.duplicate_rate > 0.0
                and self._u("dup", src, dst, tag, ordinal) < self.duplicate_rate)

    def delay(self, src: int, dst: int, tag: int, ordinal: int) -> float:
        """Extra delivery delay in poll ticks (0.0 = deliver normally)."""
        if (self.delay_rate > 0.0
                and self._u("delay", src, dst, tag, ordinal) < self.delay_rate):
            # Spread delays in (0, delay_ticks] so ties stay rare.
            return self.delay_ticks * (0.25 + 0.75 * self._u("dlen", src, dst, tag, ordinal))
        return 0.0

    # -- worker faults -------------------------------------------------------

    def worker_crash(self, rank: int, generation: int, ops_done: int) -> bool:
        """Should worker ``rank`` die right before its ``ops_done``-th op?

        Only generation 0 (the original process) crashes; a respawned
        worker runs its schedule clean.
        """
        return generation == 0 and self.crash_workers.get(rank) == ops_done

    # -- silent data corruption ----------------------------------------------

    def flip(self, op_index: int, attempt: int = 0) -> bool:
        """Is op ``op_index``'s output corrupted on its ``attempt``-th run?

        The flip decision depends on the op alone (so the same plan flips
        the same ops on every backend); ``attempt`` counts executions of
        that op (0 = first).  Only the first :attr:`flip_attempts`
        executions are corrupted, so with the default of 1 a single
        recomputation always repairs the damage.
        """
        return (self.flip_rate > 0.0
                and attempt < self.flip_attempts
                and self._u("flip", op_index) < self.flip_rate)

    def flip_target(self, op_index: int, attempt: int, n_elems: int) -> int:
        """Which element (flat index over the op's written views) to corrupt."""
        return min(
            n_elems - 1,
            int(self._u("flipw", op_index, attempt) * n_elems),
        )

    def flip_mask(self, op_index: int, attempt: int) -> int:
        """XOR mask with exactly :attr:`flip_bits` distinct bits set.

        Bit positions are drawn deterministically without replacement, so
        the mask is never zero and the corruption never cancels itself.
        """
        mask = 0
        salt = 0
        bits = 0
        while bits < self.flip_bits:
            pos = int(self._u("flipb", op_index, attempt, salt) * 64) % 64
            salt += 1
            if not (mask >> pos) & 1:
                mask |= 1 << pos
                bits += 1
        return mask

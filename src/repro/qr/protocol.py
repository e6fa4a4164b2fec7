"""The protocol of the process backend, without the processes.

:mod:`repro.qr.parallel` only carries messages — pipes, sentinels, the
shared segment, clocks, spans.  Every decision it acts on is taken here, by
two pure classes: a :class:`Walk` per worker and the parent's
:class:`Ledger`.  The real pipes drive them, and so does
``tests/test_flag_schedule.py``, with a ``bytearray`` for the flags, under
Hypothesis-chosen interleavings.  The one exception is the worker's per-op
path, which runs the walk's checks inline so that firing an op costs no call;
``tests/test_protocol.py`` holds it to them.  The rules, stated once:

1. **Firing.**  A worker walks its *share* — ``(seq, idx, waits)`` entries in
   start order (:meth:`repro.qr.schedule.Schedule.assignment`) — and fires
   the first of its next :data:`LOOKAHEAD` entries whose ``waits`` have all
   raised their completion flags.  An op's flag goes up only after its tile
   writes (under an armed SDC guard, after their verification), and an entry
   whose flag is already up is reported without running.
2. **Reporting.**  A worker reports every ``batch`` ops and whenever it
   stands still, and never waits for an answer.
3. **Standing still.**  A worker stands still when its list is empty (*dry*:
   it waits for an ``adopt`` or a terminator), or when the pause byte is up
   or it has fired ``park_every`` ops since it last stood still (*parked*: it
   says so and waits for ``resume``).  The count restarts at *every*
   standstill, dry or parked: the parent captures only while all stand still,
   so the worker's count never runs ahead of the checkpoint's own.
4. **Parking.**  The parent raises the pause byte when a snapshot falls due
   *and* on the first ``parked`` it reads, so a parked worker always has a
   capture coming.  It captures once every live worker is parked or owes
   nothing — no op is mid-execution, so the flags are a predecessor-closed
   frontier — then lowers the byte and resumes the parked.
5. **Death.**  The done mask is the flags, not the reports.  Of what a dead
   rank was given, every op whose flag is up is booked for it; the rest goes
   on, in global order, to a replacement while the respawn budget lasts and
   otherwise to the live rank that owes least, which merges it into its list
   by ``seq`` — the list stays a subsequence of the one topological order
   every list follows, so the run cannot deadlock.  A death that leaves
   nothing undone needs no heir.  An op handed on more than
   :data:`MAX_REDISPATCH` times, or with nobody left to take it, fails the
   run.

Handing an op on is safe because it runs only while its flag is down, no
successor fires before the flag is up, and it is handed on only after its
owner's death is confirmed; the one unprotected window is a death *inside*
a kernel's tile writes (docs/robustness.md).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from ..util.errors import ParallelExecutionError

__all__ = ["Walk", "Ledger", "LOOKAHEAD", "MAX_REDISPATCH"]

#: Entries of its list a worker examines for one whose flags are all up.
#: Start order is the model's guess; real kernels finish in another order,
#: and a short look-ahead lets a worker do useful work while the entry at
#: its head waits.  Measured (docs/performance.md, Dispatch): 1 — strictly
#: in order — costs the tall workload a sixth of its window and the burst
#: one a third; 4, 8 and 16 cannot be told apart.
LOOKAHEAD = 8

#: Times one op may be handed on after worker deaths before the run fails
#: with :class:`~repro.util.errors.ParallelExecutionError`.
MAX_REDISPATCH = 2

Entry = tuple  # (seq, idx, waits)


class Walk:
    """One worker's way through its share (rules 1–3).

    ``todo`` holds the entries left, next one last (firing the k-th entry of
    the window is ``pop(-k)``); ``done`` the ops fired — or found flagged —
    since the last report; ``since_park`` the ops fired since the worker last
    stood still.  ``batch`` is the most ops per report, ``park_every`` the
    checkpoint's ``every_ops`` (0: no checkpoint).

    A step is :meth:`stands_still`, else :meth:`pick` and :meth:`fire`, then
    :meth:`report_due`.  :func:`repro.qr.parallel._serve_job` runs those four
    inline over the walk's own lists and counter, so that firing an op costs
    no call beyond the flag reads; ``tests/test_protocol.py`` holds it to
    firing and reporting exactly as they say.  Standing still and merging
    are calls: :meth:`stand`, :meth:`flush`, :meth:`heard`.
    """

    def __init__(self, share: Sequence[Entry], batch: int, park_every: int = 0):
        self.todo = list(reversed(share))
        self.done: list[int] = []
        self.since_park = 0
        self.batch = batch
        self.park_every = park_every

    def stands_still(self, pause_up) -> bool:
        """Whether the worker stops here (rule 3): its list is empty, the pause
        byte is up, or it has fired ``park_every`` ops since it last stood
        still."""
        return not self.todo or bool(pause_up) or (
            self.park_every > 0 and self.since_park >= self.park_every)

    def pick(self, ready: Callable[[tuple], bool]) -> int:
        """Which entry fires (rule 1): ``k`` for ``todo[-k]``, the first of the
        window whose waits ``ready`` finds all up, or 0 if none is."""
        todo = self.todo
        for k in range(1, min(LOOKAHEAD, len(todo)) + 1):
            if ready(todo[-k][2]):
                return k
        return 0

    def fire(self, k: int) -> int:
        """Take ``todo[-k]`` off the list and count it done; its op index (the
        caller runs the op unless its flag is already up)."""
        idx = self.todo.pop(-k)[1]
        self.done.append(idx)
        self.since_park += 1
        return idx

    def report_due(self, standing: bool) -> bool:
        """Whether to send :meth:`flush` now (rule 2): ``batch`` ops are done,
        or some are and the worker is about to stand still."""
        return bool(self.done) and (standing or len(self.done) >= self.batch)

    def stand(self) -> bool:
        """The worker stands still: parked (``True``, anything left — say so
        and wait for ``resume``) or dry (wait for an ``adopt`` or a
        terminator).  Either way its count restarts (rule 3)."""
        self.since_park = 0
        return bool(self.todo)

    def flush(self) -> list[int]:
        """The ops to report, which are then no longer pending."""
        out = self.done[:]
        self.done.clear()
        return out

    def heard(self, msg: tuple, parked: bool) -> bool:
        """Take the parent's ``("adopt", entries)`` — merged by ``seq`` — or
        ``("resume",)``; whether the wait is over (a parked one ends only on
        ``resume``)."""
        if msg[0] == "adopt":
            self.todo[:] = sorted(self.todo + list(msg[1]), reverse=True)
        return not parked or msg[0] == "resume"


class Ledger:
    """The parent's book of one job (rules 4 and 5).

    Per rank what it was ``given`` (its share, then each batch it took over)
    and how much of it it ``owed`` unreported; per op whether it was
    ``reported`` and how often it was handed on (``attempts``); the ``alive``
    ranks, the respawns left, who is ``parked`` and whether the pause is up
    (``pausing``).  ``completed`` counts the ops done, resumed ones included.
    """

    def __init__(self, ops: Sequence, shares: Sequence[Sequence[Entry]], respawn: bool,
                 completed: int = 0):
        ranks = range(len(shares))
        self.ops = ops
        self.given: dict[int, list[Sequence[Entry]]] = {w: [shares[w]] for w in ranks}
        self.owed = {w: len(shares[w]) for w in ranks}
        self.reported = bytearray(len(ops))
        self.attempts = [0] * len(ops)
        self.alive = set(ranks)
        self.respawn = respawn
        self.respawns_left = len(shares) if respawn else 0
        self.completed = completed
        self.parked: set[int] = set()
        self.pausing = False

    def finished(self) -> bool:
        return self.completed == len(self.ops)

    def inflight(self) -> int:
        """Ops given out and not reported yet."""
        return sum(list(self.owed.values()))

    def on_report(self, w: int, idxs: Sequence[int]) -> None:
        """Rank ``w`` did ``idxs``: it said so, or its flags did at its death."""
        self.completed += len(idxs)
        self.owed[w] -= len(idxs)
        for idx in idxs:
            self.reported[idx] = 1

    def pause(self) -> None:
        """A snapshot fell due: the pause goes up."""
        self.pausing = True

    def on_parked(self, w: int) -> None:
        """``w`` stands still for a capture — one is due now, whoever asked."""
        self.parked.add(w)
        self.pausing = True

    def capture_due(self) -> bool:
        """Whether the flags are a frontier to capture now."""
        return self.pausing and all(w in self.parked or not self.owed[w] for w in self.alive)

    def captured(self) -> list[int]:
        """The capture is taken: the pause goes down; the ranks to resume."""
        resume = sorted(self.parked)
        self.parked.clear()
        self.pausing = False
        return resume

    def on_death(self, w: int, flags, code: int | None = None):
        """Rank ``w`` is confirmed dead (exit code ``code``) and ``flags`` are
        the completion flags as they stand.

        Returns ``(booked, lost, heir)``: the ops booked for ``w`` from the
        flags, the entries it leaves undone in global order, and who takes
        them — ``w`` (a replacement is due), a survivor (send it ``("adopt",
        lost)``) or ``None`` (nothing was lost).
        """
        self.alive.discard(w)
        self.parked.discard(w)
        unreported = sorted(e for es in self.given[w] for e in es if not self.reported[e[1]])
        booked = [e[1] for e in unreported if flags[e[1]]]
        self.on_report(w, booked)
        lost = tuple(e for e in unreported if not flags[e[1]])
        self.given[w], self.owed[w] = [], 0
        why = f"worker {w} died (exit code {code})"
        for _, idx, _ in lost:
            self.attempts[idx] += 1
            if self.attempts[idx] > MAX_REDISPATCH:
                raise ParallelExecutionError(
                    f"{why} and {self.ops[idx].describe()} was already re-dispatched "
                    f"{MAX_REDISPATCH} time(s) — retries exhausted"
                )
        if not lost:
            return booked, lost, None
        if self.respawns_left:
            self.respawns_left -= 1
            self.alive.add(w)
            heir = w
        elif not self.alive:
            raise ParallelExecutionError(
                f"{why} and no workers remain"
                + ("; respawn budget exhausted" if self.respawn else "; respawn disabled")
            )
        else:
            heir = min(self.alive, key=lambda v: (self.owed[v], v))
        self.given[heir].append(lost)
        self.owed[heir] += len(lost)
        return booked, lost, heir

"""ABFT-style tile checksums: detect and repair silent data corruption.

Fail-stop faults (PR 3) announce themselves — a dead worker's sentinel
fires, a lost packet times out.  A *silent* fault does not: a flipped bit
in a tile, or a corrupted shared-memory payload, propagates through the
QR DAG and yields a wrong ``R`` with no error raised.  This module is the
defense (docs/robustness.md, "Silent data corruption"):

* :func:`tile_checksum` maintains a lightweight column-sum checksum per
  written tile region — the sum of the elements' 64-bit patterns per
  column, in modular ``uint64`` arithmetic.  Bit patterns rather than
  float values, deliberately: a float column sum can round a small
  corruption away (flip a low mantissa bit of a tiny element next to a
  huge one and the ``float64`` sum is unchanged), whereas a modular
  integer sum changes whenever *any* summand changes — so every
  single-element corruption is detected, which the chaos acceptance
  sweep asserts exactly (``sdc.detected == sdc.injected``).
* :class:`SDCGuard` wraps each op's execution inside the execution core's
  :func:`~repro.qr.execute.run_step` — hence on the serial and batched
  schedules and inside parallel workers: snapshot the op's written
  views, execute, checksum, then — when the
  :class:`~repro.faults.FaultPlan` says so — corrupt one element and
  verify.  On a mismatch the guard restores the snapshot and re-executes
  the op from its inputs (the kernels are deterministic, so a clean
  re-run is bit-identical); only if recomputation disagrees twice does it
  escalate with :class:`~repro.util.errors.SilentCorruptionError`, which
  ``qr_factor(..., on_failure="fallback")`` turns into a clean serial
  re-run.

The guard is also the *injector*: flips are applied after the reference
checksum is computed, modelling corruption that strikes between an op's
completion and its output being consumed (in-memory rot, a torn
shared-memory write).  In the parallel backend the idempotency contract
of PR 3 makes re-execution safe — an op's completion flag is only raised
after its output has *verified*, so successors never observe a corrupted
tile.

Zero cost when off: every call site checks ``FaultPlan.faulty_sdc``
(or has no plan at all) before constructing a guard.
"""

from __future__ import annotations

import numpy as np

from ..obs import record as _obs_record
from ..obs.record import K_SDC_DETECTED, K_SDC_INJECTED, K_SDC_RECOVERED
from ..util.errors import SilentCorruptionError

__all__ = ["tile_checksum", "checksums_match", "SDCGuard"]

#: Executions allowed per op before the guard escalates: the original run
#: plus two recomputations ("escalate only if recomputation disagrees twice").
MAX_EXECUTIONS = 3

#: ``kind -> written views of which the kernel mutates only the upper
#: triangle``: the strictly-lower part of those blocks is reflector storage
#: that updates left unordered with this op may be reading on another worker
#: (the write-after-read pairs :mod:`repro.analysis.races` proves
#: region-disjoint), so an injected flip must stay out of it.
_UPPER_ONLY = {"TSQRT": (0,), "TTQRT": (0, 1)}


def tile_checksum(view: np.ndarray) -> np.ndarray:
    """Column sums of the 64-bit patterns of ``view`` (modular ``uint64``).

    Any change to any single element changes its column's sum modulo
    ``2**64`` (the summand's bit pattern changed, so the modular sum
    moved by a nonzero delta) — single-element corruption detection is
    exact, not probabilistic.

    >>> t = np.arange(6.0).reshape(3, 2)
    >>> ref = tile_checksum(t)
    >>> t[2, 1] = np.nextafter(t[2, 1], 9.0)   # flip the lowest mantissa bit
    >>> bool(checksums_match(tile_checksum(t), ref))
    False
    """
    bits = np.asarray(view, dtype=np.float64).view(np.uint64)
    return bits.sum(axis=0, dtype=np.uint64)


def checksums_match(got: np.ndarray, want: np.ndarray) -> bool:
    """Exact equality of two checksum vectors."""
    return bool(np.array_equal(got, want))


class SDCGuard:
    """Per-run silent-corruption guard, applied by :func:`repro.qr.execute.run_step`.

    One guard instance lives for one execution context (one in-process
    :func:`~repro.qr.execute.run_schedule`, or one job served by a
    parallel worker process).  It tallies its
    events locally (``injected`` / ``detected`` / ``recovered``) *and*
    onto the installed :mod:`repro.obs` recorder when there is one —
    parallel workers have none, so they ship :meth:`take_delta` back to
    the parent inside each ``done`` message instead.  ``ops`` is the list
    the op indices refer to: a flip stays inside what its op's kernel really
    writes (:data:`_UPPER_ONLY`), because on another worker unordered
    readers of the same tiles may be running meanwhile.
    """

    def __init__(self, plan, ops):
        self.plan = plan
        self.ops = ops
        self.injected = 0
        self.detected = 0
        self.recovered = 0
        self._reported = (0, 0, 0)
        # op index -> executions performed so far (the attempt budget).
        self._executions: dict[int, int] = {}

    # -- counters ----------------------------------------------------------

    def counts(self) -> tuple[int, int, int]:
        return (self.injected, self.detected, self.recovered)

    def take_delta(self) -> tuple[int, int, int]:
        """Event counts since the last call (for worker ``done`` reports)."""
        now = self.counts()
        delta = tuple(n - r for n, r in zip(now, self._reported))
        self._reported = now
        return delta

    def _count(self, key: str, attr: str, etype: str, op_index: int,
               **data) -> None:
        setattr(self, attr, getattr(self, attr) + 1)
        rec = _obs_record._RECORDER
        if rec is not None:
            rec.count(key)
            rec.event(etype, op=op_index, **data)

    # -- guarded execution -------------------------------------------------

    def verify(self, op_index: int, writes, snapshots, reexecute_fn) -> None:
        """Verify an execution that just happened; repair on mismatch.

        :func:`repro.qr.execute.run_step` calls this once per op after its
        kernel call.  ``writes`` are the op's written views (from
        :func:`repro.qr.ops.operand_views`) and ``snapshots`` their
        pre-call copies; on a checksum mismatch the views are restored and
        ``reexecute_fn`` re-runs the op's kernel (depositing its ``T``
        factor, if any, in the store), so the repair is exact.
        """
        plan = self.plan
        while True:
            attempt = self._executions.get(op_index, 0)
            self._executions[op_index] = attempt + 1
            reference = [tile_checksum(w) for w in writes]
            if plan.flip(op_index, attempt):
                self._inject(op_index, attempt, writes)
            ok = all(
                checksums_match(tile_checksum(w), ref)
                for w, ref in zip(writes, reference)
            )
            if ok:
                if attempt > 0:
                    self._count(
                        K_SDC_RECOVERED, "recovered", "sdc.recovered",
                        op_index, attempts=attempt,
                    )
                return
            self._count(K_SDC_DETECTED, "detected", "sdc.detected", op_index)
            if attempt + 1 >= MAX_EXECUTIONS:
                raise SilentCorruptionError(
                    f"op {op_index}: output checksum still mismatched after "
                    f"{MAX_EXECUTIONS - 1} recomputations — corruption is "
                    "not transient"
                )
            for w, s in zip(writes, snapshots):
                w[...] = s
            reexecute_fn()

    # -- injection ---------------------------------------------------------

    def _inject(self, op_index: int, attempt: int, writes) -> None:
        """Flip ``plan.flip_bits`` bits of one element of the written views."""
        total = sum(w.size for w in writes)
        if total == 0:  # pragma: no cover - every op kind writes something
            return
        target = self.plan.flip_target(op_index, attempt, total)
        for view, w in enumerate(writes):
            if target < w.size:
                break
            target -= w.size
        pos = np.unravel_index(target, w.shape)
        if pos[0] > pos[1] and view in _UPPER_ONLY.get(self.ops[op_index].kind, ()):
            pos = pos[::-1]  # mirrored into the triangle the kernel wrote
        buf = np.array([w[pos]], dtype=np.float64)
        buf.view(np.uint64)[0] ^= np.uint64(self.plan.flip_mask(op_index, attempt))
        w[pos] = buf[0]
        self._count(K_SDC_INJECTED, "injected", "sdc.injected", op_index)

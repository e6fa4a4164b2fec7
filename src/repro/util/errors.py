"""Exception hierarchy for :mod:`repro`.

All library errors derive from :class:`ReproError` so callers can catch one
type at the API boundary.  Subclasses are split by subsystem so tests can
assert on the precise failure mode.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ShapeError",
    "ChannelError",
    "ChannelClosedError",
    "ChannelDisabledError",
    "VDPError",
    "VSAError",
    "RuntimeStateError",
    "NetworkError",
    "TagError",
    "ScheduleError",
    "ScheduleCertificationError",
    "SimulationError",
    "DeadlockError",
    "ParallelExecutionError",
    "SilentCorruptionError",
    "WatchdogTimeout",
    "RetryExhaustedError",
    "TraceError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """Invalid user-supplied parameter (tile size, tree kind, machine...)."""


class ShapeError(ReproError, ValueError):
    """A matrix, tile, or buffer has an incompatible shape."""


class ChannelError(ReproError):
    """Base class for channel misuse in the PULSAR runtime."""


class ChannelClosedError(ChannelError):
    """Push/pop on a destroyed channel."""


class ChannelDisabledError(ChannelError):
    """Pop from a channel that is currently disabled."""


class VDPError(ReproError):
    """Invalid VDP construction or firing-time misuse."""


class VSAError(ReproError):
    """Invalid VSA construction (duplicate tuples, dangling channels...)."""


class RuntimeStateError(ReproError):
    """Operation not valid in the runtime's current state (e.g. run twice)."""


class NetworkError(ReproError):
    """Simulated-MPI fabric failure (unknown rank, fabric shut down...)."""


class TagError(NetworkError):
    """Message tag outside the supported range or with no matching channel."""


class ScheduleError(ReproError):
    """An elimination schedule violates tree invariants."""


class ScheduleCertificationError(ScheduleError):
    """The static schedule certifier cannot vouch for a schedule.

    Raised by the certifier's self-check (:mod:`repro.analysis.races`, and
    ``python -m repro.analysis --self-check``) when a valid plan does not
    certify or a planted violation — a dropped DAG edge, swapped
    wavefronts, a dropped wait or swapped entries of a worker assignment —
    goes unflagged, and by :func:`~repro.analysis.races.certify_schedule`
    when its region model drifts from :mod:`repro.qr.ops`.  An ordinary
    violation is not raised: it is reported on the
    :class:`~repro.analysis.races.ScheduleCertificate`.
    """


class SimulationError(ReproError):
    """Discrete-event simulation error (bad task graph, time going back...)."""


class DeadlockError(SimulationError):
    """The simulator or runtime detected that no progress is possible."""


class ParallelExecutionError(ReproError):
    """A worker process of the parallel backend failed or disappeared."""


class SilentCorruptionError(ReproError):
    """A tile checksum mismatched and recomputation could not repair it.

    Raised by the SDC guard (:mod:`repro.qr.checksum`) only after the op
    has been re-executed from its inputs twice and the checksums still
    disagree — i.e. the corruption is not transient.  A :class:`ReproError`
    subclass, so ``qr_factor(..., on_failure="fallback")`` degrades to a
    clean serial re-run instead of surfacing it.
    """


class WatchdogTimeout(ReproError, TimeoutError):
    """A watchdog observed no progress for longer than its deadline.

    Raised instead of hanging: the message carries the watched component's
    progress report (e.g. the runtime's ``_deadlock_report()``) so the
    stall is diagnosable post mortem.  Also a :class:`TimeoutError`, so
    generic timeout handling catches it without importing :mod:`repro`.
    """


class RetryExhaustedError(ReproError, TimeoutError):
    """A retransmit/redispatch protocol gave up after its retry budget.

    The ack/retransmit protocol of the PULSAR proxy and the re-dispatch
    logic of the parallel dispatcher retry lost work a bounded number of
    times; when the budget is exhausted the failure is surfaced as this
    error rather than retrying forever.  Also a :class:`TimeoutError` (the
    retries were bounded by time/attempts), keeping the single-root
    :class:`ReproError` contract.
    """


class TraceError(ReproError, ValueError):
    """Malformed execution-trace data (unknown kind code, invalid
    Chrome-trace JSON, unmatched begin/end events...)."""

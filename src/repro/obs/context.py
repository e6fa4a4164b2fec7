"""Trace context: run identity minted per factorization and propagated.

A **run** is one end-to-end factorization attempt — one ``qr_factor``
call, or one :func:`~repro.qr.persist.resume_factorization` continuation.
Every run gets a fresh ``run_id`` whether or not tracing is on (minting is
two cheap library calls), and the id travels across every concurrency
boundary the backends cross:

* the parallel dispatcher puts it in the job header every pool worker
  receives (in its spawn arguments, or on its pipe when already running),
  and workers echo it back in their attach handshake;
* the PULSAR runtime stamps it onto every :class:`~repro.pulsar.packet.Packet`
  it pushes, so payloads hopping through node proxies stay attributable;
* :class:`~repro.qr.persist.CheckpointStore` archives it, and a resumed
  run records the archived id as its ``parent_run_id`` — the causal edge
  between a killed run and its continuation.

The current context is **thread-local**: ``qr_factor`` activates it with
:func:`use_run` around the backend execution window, worker threads and
processes re-activate it explicitly from the propagated value.  Reading
it when none is active returns ``None`` — there is no ambient global to
leak between unrelated runs.

Doctest::

    >>> from repro.obs.context import RunContext, use_run, current_run_id
    >>> current_run_id() is None
    True
    >>> with use_run("r-123", parent_run_id="r-122") as ctx:
    ...     (current_run_id(), ctx.parent_run_id)
    ('r-123', 'r-122')
    >>> current_run_id() is None
    True
"""

from __future__ import annotations

import itertools
import os
import secrets
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "RunContext",
    "mint_run_id",
    "current",
    "current_run_id",
    "use_run",
    "activate",
]

# Disambiguates runs minted within the same second by the same process.
_SEQ = itertools.count()


def mint_run_id() -> str:
    """A fresh, lexically sortable run id.

    ``<UTC timestamp>-<pid>.<seq>-<4 random bytes>``: the timestamp makes
    registry listings read in chronological order, the pid+sequence pair
    keeps concurrent processes and rapid same-second mints apart, and the
    random suffix covers clock resets across container restarts.
    """
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{os.getpid()}.{next(_SEQ)}-{secrets.token_hex(4)}"


@dataclass(frozen=True)
class RunContext:
    """Identity of the run the current thread is working for.

    ``parent_run_id`` is set only on resumed runs (the id archived in the
    checkpoint this run continues from).
    """

    run_id: str
    parent_run_id: str | None = None


_STATE = threading.local()


def current() -> RunContext | None:
    """The calling thread's active run context (``None`` outside a run)."""
    return getattr(_STATE, "ctx", None)


def current_run_id() -> str | None:
    """Shorthand for ``current().run_id`` tolerating no active context."""
    ctx = current()
    return None if ctx is None else ctx.run_id


def activate(run_id: str, parent_run_id: str | None = None) -> RunContext:
    """Bind a run context to the calling thread for the rest of its life.

    The non-contextmanager spelling for worker threads/processes that
    receive the propagated id at their entry point and never leave it.
    """
    ctx = RunContext(run_id, parent_run_id)
    _STATE.ctx = ctx
    return ctx


@contextmanager
def use_run(run_id: str, parent_run_id: str | None = None):
    """Activate a run context for the block, restoring the previous one."""
    prev = current()
    ctx = RunContext(run_id, parent_run_id)
    _STATE.ctx = ctx
    try:
        yield ctx
    finally:
        _STATE.ctx = prev

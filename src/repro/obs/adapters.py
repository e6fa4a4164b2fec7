"""Backend adapters: every execution path in, one span model out.

The executing backends (serial reference, threaded PULSAR runtime,
process-parallel dispatcher) record spans *live* through the global
:class:`~repro.obs.record.Recorder` — the kernel shim in
:mod:`repro.kernels` stamps every kernel invocation, and the runtimes add
their own firing/proxy/dispatch events.  The discrete-event simulator
produces its evidence after the fact as ``(worker, start, end, kind,
meta)`` tuples in *virtual* seconds; :func:`spans_from_des_trace` converts
those records into the same :class:`~repro.obs.record.Span` schema, so one
exporter and one summary table cover real-time, virtual-time and
multiprocess runs alike.

It also derives the model-side counters: :func:`counters_from_ops` walks an
operation list and charges each op with its :func:`repro.kernels.flops`
formula — the ground truth the recorded per-kernel flop counters are tested
against.
"""

from __future__ import annotations

from .record import Counters, Span

__all__ = [
    "KERNEL_CATEGORY",
    "KIND_CATEGORY",
    "spans_from_des_trace",
    "counters_from_ops",
]

#: Tree-phase category per kernel kind — the paper's Figure 7 colouring
#: (red = panel factor kernels, orange = trailing updates inside a domain,
#: blue = the binary TT reduction).  TS kernels belong to the flat phase
#: and TT kernels to the binary phase regardless of the tree in use.
KERNEL_CATEGORY = {
    "GEQRT": "panel",
    "TSQRT": "panel",
    "ORMQR": "update",
    "TSMQR": "update",
    "TTQRT": "binary",
    "TTMQR": "binary",
}

#: DES trace kind codes (:mod:`repro.dessim.trace`) to span categories.
KIND_CATEGORY = {0: "panel", 1: "update", 2: "binary"}


def spans_from_des_trace(trace: list[tuple]) -> list[Span]:
    """Convert DES ``(worker, start, end, kind, meta)`` records to spans.

    Times are simulated seconds (virtual clock).  When the task graph was
    built with ``record_meta=True`` the meta tuple is ``(kind, j, l)`` and
    the span is named after the kernel kind with panel/column args;
    metadata-free traces fall back to the category name.

    Raises
    ------
    TraceError
        If a record carries an unknown kind code (see
        :func:`repro.dessim.trace.lanes_from_trace` for the same contract).
    """
    from ..util.errors import TraceError

    spans: list[Span] = []
    for w, start, end, kind, meta in trace:
        cat = KIND_CATEGORY.get(kind)
        if cat is None:
            raise TraceError(
                f"unknown trace kind code {kind!r}; expected one of "
                f"{sorted(KIND_CATEGORY)} (see repro.dessim.trace)"
            )
        if meta:
            name = str(meta[0])
            args = {"j": meta[1], "l": meta[2]} if len(meta) >= 3 else {}
        else:
            name, args = cat, {}
        spans.append(Span(name, cat, float(start), float(end), int(w), args))
    spans.sort(key=lambda s: (s.start, s.end, s.worker))
    return spans


def counters_from_ops(ops, ib: int) -> Counters:
    """Model-side counters of an operation list.

    ``flops.<KIND>`` / ``ops.<KIND>`` per kernel kind plus ``flops.total``
    and ``ops.total``, each flop count computed with the exact
    :func:`repro.kernels.flops.kernel_flops` formula for the op's shape —
    the reference the live recorders must match.
    """
    from ..kernels.flops import kernel_flops

    c = Counters()
    for op in ops:
        flops = kernel_flops(op.kind, op.m2, op.k, op.q, ib)
        c.add(f"flops.{op.kind}", flops)
        c.add(f"ops.{op.kind}")
        c.add("flops.total", flops)
        c.add("ops.total")
    return c

"""Discrete-event simulation backend: task graphs, engine, trace analysis.

The one virtual-time path: :func:`repro.qr.dag.build_qr_taskgraph` prices
the op DAG on a machine model and :func:`simulate` list-schedules it; the
figure experiments and the PaRSEC baseline all run it.  A trace exports
as CSV through ``SimResult.spans()`` and :func:`repro.obs.spans_to_csv`.
"""

from .engine import SimResult, simulate
from .graph import TaskGraph, TaskGraphBuilder
from .trace import (
    KIND_BINARY,
    KIND_PANEL,
    KIND_SYMBOLS,
    KIND_UPDATE,
    gantt,
    lanes_from_trace,
    overlap_fraction,
)

__all__ = [
    "TaskGraph",
    "TaskGraphBuilder",
    "SimResult",
    "simulate",
    "KIND_PANEL",
    "KIND_UPDATE",
    "KIND_BINARY",
    "KIND_SYMBOLS",
    "lanes_from_trace",
    "overlap_fraction",
    "gantt",
]

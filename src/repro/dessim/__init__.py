"""Discrete-event simulation backend: task graphs, engine, trace analysis.

The one virtual-time path: :func:`repro.qr.dag.build_qr_taskgraph` prices
the op DAG on a machine model and :func:`simulate` list-schedules it; the
figure experiments and the PaRSEC baseline all run it.  A trace exports
as CSV through ``SimResult.spans()`` and :func:`repro.obs.spans_to_csv`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import-time typing only
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

#: The submodule of each public name (the one export table: ``__all__`` is
#: its names), imported on first access (PEP 562)
#: so that the task-graph types of the op DAG come without the simulation
#: engine.
_HOME = {
    "engine": ("SimResult", "simulate"),
    "graph": ("TaskGraph", "TaskGraphBuilder"),
    "trace": (
        "KIND_BINARY", "KIND_PANEL", "KIND_SYMBOLS", "KIND_UPDATE", "gantt", "lanes_from_trace",
        "overlap_fraction",
    ),
}
_MODULE_OF = {name: module for module, names in _HOME.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value

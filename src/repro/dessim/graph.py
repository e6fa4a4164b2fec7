"""Task graphs for the discrete-event simulator.

A :class:`TaskGraph` is a dependency DAG of kernel tasks, each pinned to a
worker thread, with per-edge communication delays *precomputed* by the
builder (which knows the machine model, the thread→node packing, and the
broadcast scheme).  Storage is flat NumPy arrays so paper-scale graphs
(millions of tasks) fit comfortably in memory and the simulator's inner
loop stays lean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..util.errors import SimulationError

__all__ = ["TaskGraphBuilder", "TaskGraph"]


@dataclass
class TaskGraphBuilder:
    """Incrementally assemble a :class:`TaskGraph`.

    ``add_task`` returns the task index; ``add_edge`` wires a dependency
    with a fixed arrival delay (seconds) charged after the source finishes.
    """

    durations: list[float] = field(default_factory=list)
    workers: list[int] = field(default_factory=list)
    kinds: list[int] = field(default_factory=list)
    meta: list[tuple] = field(default_factory=list)
    edge_src: list[int] = field(default_factory=list)
    edge_dst: list[int] = field(default_factory=list)
    edge_delay: list[float] = field(default_factory=list)

    def add_task(self, duration: float, worker: int, kind: int = 0, meta: tuple = ()) -> int:
        if duration < 0.0:
            raise SimulationError(f"negative task duration {duration}")
        if worker < 0:
            raise SimulationError(f"negative worker id {worker}")
        self.durations.append(duration)
        self.workers.append(worker)
        self.kinds.append(kind)
        self.meta.append(meta)
        return len(self.durations) - 1

    def add_edge(self, src: int, dst: int, delay: float = 0.0) -> None:
        n = len(self.durations)
        if not (0 <= src < n and 0 <= dst < n):
            raise SimulationError(f"edge ({src}, {dst}) references unknown tasks")
        if src == dst:
            raise SimulationError(f"self-edge on task {src}")
        if delay < 0.0:
            raise SimulationError(f"negative edge delay {delay}")
        self.edge_src.append(src)
        self.edge_dst.append(dst)
        self.edge_delay.append(delay)

    def build(self) -> "TaskGraph":
        return TaskGraph._from_builder(self)


class TaskGraph:
    """Immutable flat-array task DAG (see module docstring).

    Attributes
    ----------
    n_tasks, n_workers:
        Sizes.
    duration, worker, kind:
        Per-task arrays.
    succ_index, succ_task, succ_delay:
        CSR-style adjacency: successors of task ``i`` are
        ``succ_task[succ_index[i]:succ_index[i+1]]`` with matching delays.
    n_deps:
        In-degree per task.
    meta:
        Optional per-task tuples for trace labelling (kept as a list).
    """

    def __init__(self):  # pragma: no cover - use the builder
        raise TypeError("use TaskGraphBuilder().build()")

    @classmethod
    def _from_builder(cls, b: TaskGraphBuilder) -> "TaskGraph":
        self = object.__new__(cls)
        self.n_tasks = len(b.durations)
        if self.n_tasks == 0:
            raise SimulationError("task graph is empty")
        self.duration = np.asarray(b.durations, dtype=np.float64)
        self.worker = np.asarray(b.workers, dtype=np.int64)
        self.kind = np.asarray(b.kinds, dtype=np.int32)
        self.meta = b.meta
        self.n_workers = int(self.worker.max()) + 1
        src = np.asarray(b.edge_src, dtype=np.int64)
        dst = np.asarray(b.edge_dst, dtype=np.int64)
        delay = np.asarray(b.edge_delay, dtype=np.float64)
        order = np.argsort(src, kind="stable")
        src, dst, delay = src[order], dst[order], delay[order]
        self.succ_index = np.zeros(self.n_tasks + 1, dtype=np.int64)
        np.add.at(self.succ_index, src + 1, 1)
        np.cumsum(self.succ_index, out=self.succ_index)
        self.succ_task = dst
        self.succ_delay = delay
        self.n_deps = np.zeros(self.n_tasks, dtype=np.int64)
        np.add.at(self.n_deps, dst, 1)
        self._csr_lists = None
        return self

    def csr_lists(self) -> tuple[list[int], list[int], list[int]]:
        """``(succ_index, succ_task, n_deps)`` as Python lists, converted on
        first use and kept.

        For walks that visit one edge per Python iteration (level
        assignment, a dispatcher releasing successors): indexing a list
        yields an ``int`` at a fraction of the cost of a NumPy scalar, and
        ``succ_task[lo:hi]`` is a plain slice.  The lists are shared — copy
        ``n_deps`` before counting it down.
        """
        if self._csr_lists is None:
            self._csr_lists = (
                self.succ_index.tolist(), self.succ_task.tolist(), self.n_deps.tolist(),
            )
        return self._csr_lists

    # -- analysis -----------------------------------------------------------

    def total_work(self) -> float:
        """Sum of task durations (a lower bound: makespan >= work/workers)."""
        return float(self.duration.sum())

    def critical_path(self) -> float:
        """Longest dependency chain including edge delays.

        Computed over a topological order; raises
        :class:`SimulationError` if the graph has a cycle.
        """
        indeg = self.n_deps.copy()
        finish = np.zeros(self.n_tasks)
        stack = list(np.flatnonzero(indeg == 0))
        seen = 0
        while stack:
            t = stack.pop()
            seen += 1
            ft = finish[t] + self.duration[t]
            lo, hi = self.succ_index[t], self.succ_index[t + 1]
            for e in range(lo, hi):
                d = self.succ_task[e]
                arr = ft + self.succ_delay[e]
                if arr > finish[d]:
                    finish[d] = arr
                indeg[d] -= 1
                if indeg[d] == 0:
                    stack.append(d)
        if seen != self.n_tasks:
            raise SimulationError("task graph contains a cycle")
        return float((finish + self.duration).max())

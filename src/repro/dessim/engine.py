"""The discrete-event simulator.

Executes a :class:`~repro.dessim.graph.TaskGraph` over a set of worker
threads in virtual time: each worker runs at most one task at a time, a task
starts when its worker is free and all its dependencies have *arrived*
(finish time of the producer plus the edge's communication delay), and each
start pays the runtime's per-firing overhead.

The two PULSAR scheduling policies map onto ready-pool disciplines:

* ``lazy``   — among ready tasks, pick the oldest in VDP/program order (the
  sweep over the VDP list encourages lookahead: panel tasks interleave with
  updates, paper Section V-D);
* ``aggressive`` — prefer the most recently enabled task (depth-first: keep
  firing what just became ready, as the refire-while-ready scheme does).

Makespan, per-worker busy time, and (optionally) a full execution trace are
returned; Gflop/s figures are computed by the caller from the useful-flop
count, exactly as the paper reports them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..pulsar.runtime import POLICIES
from ..util.errors import SimulationError
from ..util.validation import check_positive, require
from .graph import TaskGraph

__all__ = ["SimResult", "simulate"]

@dataclass
class SimResult:
    """Outcome of one simulated execution."""

    makespan: float
    busy: np.ndarray  # per-worker busy seconds (incl. task overhead)
    n_tasks: int
    n_workers: int
    policy: str
    trace: list[tuple] | None = None  # (worker, start, end, kind, meta)

    @property
    def utilization(self) -> float:
        """Mean worker busy fraction over the makespan."""
        if self.makespan <= 0.0:
            return 0.0
        return float(self.busy.mean() / self.makespan)

    def gflops(self, useful_flops: float) -> float:
        """Reported rate: useful flops / makespan (paper convention)."""
        check_positive(useful_flops, "useful_flops")
        if self.makespan <= 0.0:
            raise SimulationError("zero makespan")
        return useful_flops / self.makespan / 1e9

    def spans(self) -> list:
        """The trace as unified :class:`repro.obs.Span` records (virtual time).

        Requires ``simulate(..., record_trace=True)``; raises
        :class:`~repro.util.errors.TraceError` otherwise.  Use
        :func:`repro.obs.recorder_from_sim_result` for a full virtual-clock
        recorder (spans + counters + lane names) ready for export.
        """
        from ..obs.adapters import spans_from_des_trace
        from ..util.errors import TraceError

        if self.trace is None:
            raise TraceError(
                "SimResult has no trace; run simulate(..., record_trace=True)"
            )
        return spans_from_des_trace(self.trace)


def simulate(
    graph: TaskGraph,
    *,
    n_workers: int | None = None,
    policy: str = "lazy",
    task_overhead_s: float = 0.0,
    record_trace: bool = False,
) -> SimResult:
    """Run the event-driven simulation.

    Parameters
    ----------
    graph:
        The task DAG with precomputed edge delays.
    n_workers:
        Worker count; defaults to the graph's maximum worker id + 1.
    policy:
        ``"lazy"`` or ``"aggressive"`` (see module docstring).
    task_overhead_s:
        Runtime overhead added to every task start.
    record_trace:
        Keep the full per-task execution record (small runs only).

    Examples
    --------
    Two chained tasks on one worker finish back to back:

    >>> from repro.dessim import TaskGraphBuilder, simulate
    >>> b = TaskGraphBuilder()
    >>> t0 = b.add_task(1.0, worker=0, kind=0)
    >>> t1 = b.add_task(2.0, worker=0, kind=1)
    >>> b.add_edge(t0, t1)
    >>> res = simulate(b.build(), record_trace=True)
    >>> res.makespan
    3.0
    >>> [(s.cat, s.start, s.end) for s in res.spans()]
    [('panel', 0.0, 1.0), ('update', 1.0, 3.0)]
    """
    require(policy in POLICIES, f"policy must be one of {POLICIES}")
    if n_workers is None:
        n_workers = graph.n_workers
    require(
        n_workers >= graph.n_workers,
        f"graph uses worker ids up to {graph.n_workers - 1}, got n_workers={n_workers}",
    )

    n = graph.n_tasks
    duration = graph.duration
    worker_of = graph.worker
    succ_index = graph.succ_index
    succ_task = graph.succ_task
    succ_delay = graph.succ_delay
    deps_left = graph.n_deps.copy()
    ready_at = np.zeros(n)  # latest dependency arrival per task
    worker_free = np.zeros(n_workers)
    worker_busy = np.zeros(n_workers)
    worker_idle = np.ones(n_workers, dtype=bool)
    finished = 0
    seq = 0  # unique heap tiebreak + recency stamp for the aggressive policy
    lazy = policy == "lazy"

    # Per-worker ready pools (heaps).  Event heap entries are
    # (time, seq, enc): enc >= 0 is a task completion, enc < 0 a deferred
    # dependency-arrival wakeup for task ``-1 - enc``.
    pools: list[list[tuple[float, int]]] = [[] for _ in range(n_workers)]
    events: list[tuple[float, int, int]] = []
    trace: list[tuple] | None = [] if record_trace else None
    # Workers touched while processing one completion; persistent (cleared,
    # never reallocated) so the event loop does no per-event allocation.
    touched: set[int] = set()

    def enqueue(task: int) -> None:
        nonlocal seq
        key = task if lazy else -seq
        seq += 1
        heapq.heappush(pools[worker_of[task]], (key, task))

    def try_start(w: int, now: float) -> None:
        nonlocal seq
        pool = pools[w]
        if not pool:
            return
        _, task = heapq.heappop(pool)
        start = max(now, worker_free[w])
        finish = start + task_overhead_s + duration[task]
        worker_free[w] = finish
        worker_busy[w] += finish - start
        worker_idle[w] = False
        if trace is not None:
            trace.append(
                (int(w), float(start), float(finish), int(graph.kind[task]), graph.meta[task])
            )
        seq += 1
        heapq.heappush(events, (finish, seq, task))

    for task in np.flatnonzero(deps_left == 0):
        enqueue(int(task))
    for w in range(n_workers):
        if worker_idle[w]:
            try_start(w, 0.0)

    while events:
        now, _, enc = heapq.heappop(events)
        if enc < 0:
            # Deferred arrival: the task's last dependency reached it now.
            d = -1 - enc
            enqueue(d)
            w = worker_of[d]
            if worker_idle[w]:
                try_start(w, now)
            continue
        task = enc
        finished += 1
        w = worker_of[task]
        worker_idle[w] = True
        touched.add(w)
        for e in range(succ_index[task], succ_index[task + 1]):
            d = succ_task[e]
            arr = now + succ_delay[e]
            if arr > ready_at[d]:
                ready_at[d] = arr
            deps_left[d] -= 1
            if deps_left[d] == 0:
                if ready_at[d] <= now:
                    enqueue(d)
                    touched.add(worker_of[d])
                else:
                    seq += 1
                    heapq.heappush(events, (ready_at[d], seq, -1 - d))
        for ww in touched:
            if worker_idle[ww]:
                try_start(ww, now)
        touched.clear()

    if finished != n:
        raise SimulationError(
            f"simulation stalled: {finished}/{n} tasks completed (cycle or "
            "unreachable dependency)"
        )
    makespan = float(worker_free.max())
    return SimResult(
        makespan=makespan,
        busy=worker_busy,
        n_tasks=n,
        n_workers=n_workers,
        policy=policy,
        trace=trace,
    )

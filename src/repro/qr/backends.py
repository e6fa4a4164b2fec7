"""Backend registry: what each backend is, what it supports, how to reach it.

``serial``
    The reference executor: one Python thread, kernels run in schedule
    order.  Fast and always available.
``batched``
    The wavefront schedule in one Python thread: the op DAG is cut into
    level-synchronous wavefronts of independent, tile-disjoint ops and the
    core runs one wavefront per step — the same kernels on the same tile
    views as ``serial``, in level order.
``parallel``
    Process-pool execution over shared-memory tiles
    (:mod:`repro.qr.parallel`): every worker is given its share of the
    schedule once and fires each op of it the moment the completion flags
    of the op's predecessors are up — real multi-core wall-clock speedup.
    Falls back to the serial executor when ``n_procs=1`` or shared memory
    is unavailable.
``pulsar``
    The full 3D virtual systolic array on the threaded PULSAR runtime,
    optionally across several simulated distributed-memory nodes;
    exercises the real dataflow.

The first three are *schedules over the execution core*
(:mod:`repro.qr.execute`) — program order, wavefronts, and a static
assignment fired in dependency order on worker processes.  ``pulsar`` is a separate executor: its VDPs fire
kernels on channel-delivered tiles, not on a store, which is exactly why it
lacks the store-based capabilities in :data:`CAPABILITIES`.
:func:`~repro.qr.api.qr_factor` and
:func:`~repro.qr.persist.resume_factorization` validate a request against
that one table and reach the executor through one function,
:func:`run_backend`, which only the run envelope of
:mod:`repro.qr.api` calls; the degradation every backend shares is
:func:`repro.qr.parallel.serial_fallback`.
"""

from __future__ import annotations

from ..tiles.matrix import TileMatrix
from ..util.errors import ConfigurationError
from ..util.validation import check_positive_int, require
from . import parallel as _parallel
from .reference import execute_ops
from .schedule import POLICIES
from .wavefront import execute_ops_batched

__all__ = [
    "CAPABILITIES",
    "require_capability",
    "capability_table",
    "worker_count",
    "stage_input",
    "run_backend",
]

#: ``backend -> feature -> supported``.  ``checkpoint`` is the ``qr_factor``
#: keyword, ``resume`` is ``resume_factorization(backend=)``;
#: ``sdc_flips`` / ``fabric_faults`` say which :class:`~repro.faults.FaultPlan`
#: families the backend acts on (the others are ignored, not rejected).
#: ``docs/robustness.md`` carries :func:`capability_table` verbatim.
CAPABILITIES = {
    "serial": dict(checkpoint=True, resume=True, sdc_flips=True, fabric_faults=False),
    "batched": dict(checkpoint=True, resume=True, sdc_flips=True, fabric_faults=False),
    "parallel": dict(checkpoint=True, resume=True, sdc_flips=True, fabric_faults=False),
    "pulsar": dict(checkpoint=False, resume=False, sdc_flips=False, fabric_faults=True),
}

#: Rejection message per missing feature (``None``: the backend itself).
_REJECTIONS = {
    None: "unknown backend {backend!r}; expected {any_of}",
    "checkpoint": "checkpoint= supports the {all_of} backends; the pulsar VSA owns its tile store",
    "resume": "resume_factorization supports {any_of}, got {backend!r}",
}


def require_capability(backend: str, feature: str | None = None) -> None:
    """Raise :class:`ConfigurationError` unless ``backend`` exists and
    supports ``feature`` (``None``: just check the name)."""
    caps = CAPABILITIES.get(backend)
    if caps is None and feature != "resume":
        feature = None  # an unknown name outranks the feature it lacks
    if caps is not None and (feature is None or caps[feature]):
        return
    ok = [repr(b) for b, c in CAPABILITIES.items() if feature is None or c[feature]]
    head = ", ".join(ok[:-1])
    raise ConfigurationError(_REJECTIONS[feature].format(
        backend=backend, all_of=f"{head}, and {ok[-1]}", any_of=f"{head}, or {ok[-1]}",
    ))


def capability_table() -> str:
    """The supported-combinations table of ``docs/robustness.md`` (markdown)."""
    columns = {
        "checkpoint": "`checkpoint=`",
        "resume": "`resume_factorization`",
        "sdc_flips": "`flip_rate` acted on",
        "fabric_faults": "fabric faults acted on",
    }
    rows = ["| backend | " + " | ".join(columns.values()) + " |",
            "|---|" + "---|" * len(columns)]
    for backend, caps in CAPABILITIES.items():
        cells = ("yes" if caps[feature] else "no" for feature in columns)
        rows.append(f"| `{backend}` | " + " | ".join(cells) + " |")
    return "\n".join(rows)


def worker_count(backend: str, *, n_nodes: int = 1, workers_per_node: int = 1,
                 n_procs: int | None = None) -> int | None:
    """Concurrent workers ``backend`` will run on (``None``: one in-process
    lane) — what ``h="auto"`` sizes the tree's domains for."""
    if backend == "pulsar":
        return n_nodes * workers_per_node
    if backend == "parallel":
        if n_procs is None:
            return _parallel.default_n_procs()
        return check_positive_int(n_procs, "n_procs")  # sizes the tree before run_backend
    return None


def stage_input(backend: str, a, layout, entry, ib: int, *, n_procs=None):
    """Tile the validated input ``a`` — a dense float64 array or a
    :class:`TileMatrix` of geometry ``layout``, neither kept nor aliased —
    into the storage ``backend`` runs on; return ``(tm, store)``.

    For ``parallel`` with more than one worker that storage is the job's
    shared segment — a free one under ``entry`` whose result is gone, else a
    new one (:func:`repro.qr.parallel.take_segment`) — and ``a`` goes
    straight into it, in the one pass
    :meth:`TileMatrix.from_dense` would have made: ``tm`` is the
    :class:`TileMatrix` of its views, ``store`` the segment
    :func:`run_backend` is to be handed.  Everywhere else ``tm`` is an owned
    tile matrix and ``store`` is ``None`` — also where the segment cannot be
    had, which the backend then finds out again, names and degrades on.
    """
    k = backend == "parallel" and min(worker_count(backend, n_procs=n_procs), len(entry.ops))
    if k > 1:
        try:
            store = _parallel.take_segment(a, entry, ib)
            return store.matrix(), store
        except OSError:
            pass
    if isinstance(a, TileMatrix):
        return a.copy(), None
    return TileMatrix._from_validated(a, layout.nb), None


def run_backend(
    backend: str, tm, entry, ib: int, *, store=None,
    n_procs=None, policy="lazy", batch=None,
    n_nodes=1, workers_per_node=1,
    fault_plan=None, checkpoint=None, skip=None, preloaded_ts=None,
):
    """Execute ``entry.ops`` on ``tm`` with ``backend``; return ``(factors, stats)``.

    ``tm`` and ``store`` are what :func:`stage_input` returned.
    ``entry`` is the memoized :class:`~repro.qr.schedule.Schedule` of the
    geometry.  Its wavefronts feed ``batched``, its
    assignment the ``parallel`` workers, its plans the pulsar VSA builder;
    nothing is derived here.  ``skip`` / ``preloaded_ts`` are the resume
    path.  ``stats`` is ``None`` for the single-lane backends.

    ``policy``, ``batch`` and ``n_procs`` are checked here, whichever backend
    runs (only ``parallel`` uses ``batch`` and ``n_procs``).
    ``batch="wavefront"`` is an
    accepted spelling of the default: it once selected level-synchronous
    slice dispatch, callers still pass it, and it now means auto-sized
    batches (a batch is what a worker reports in one message).
    """
    require(policy in POLICIES, f"policy must be one of {POLICIES}, got {policy!r}")
    if batch == "wavefront":
        batch = None
    elif isinstance(batch, str):
        raise ConfigurationError(
            f"batch must be a positive int or 'wavefront', got {batch!r}"
        )
    elif batch is not None:
        check_positive_int(batch, "batch")
    if n_procs is not None:
        check_positive_int(n_procs, "n_procs")
    common = dict(fault_plan=fault_plan, checkpoint=checkpoint,
                  skip=skip, preloaded_ts=preloaded_ts)
    if backend == "serial":  # the schedule, not its list: it keeps the factor-op table
        return execute_ops(tm, entry, ib, **common), None
    if backend == "batched":
        return execute_ops_batched(tm, entry, ib, wavefronts=entry.wavefronts(), **common), None
    if backend == "parallel":
        return _parallel.execute_ops_parallel(
            tm, entry, ib, n_procs=n_procs, policy=policy, batch=batch, arena=store, **common
        )
    from .collector import assemble_factors  # the pulsar path alone loads the runtime
    from .vsa3d import build_qr_vsa

    arr = build_qr_vsa(tm, entry.plans, ib=ib, total_workers=n_nodes * workers_per_node)
    stats = arr.run(n_nodes=n_nodes, workers_per_node=workers_per_node, policy=policy,
                    fault_plan=fault_plan)
    return assemble_factors(arr.store, entry.ops, ib), stats

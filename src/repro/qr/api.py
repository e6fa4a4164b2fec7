"""High-level QR API: factor, apply Q, solve least squares.

This is the public face of the library::

    import numpy as np
    from repro import qr_factor, lstsq

    A = np.random.default_rng(0).standard_normal((4096, 512))
    f = qr_factor(A, nb=128, ib=32, tree="hier", h=6)
    R = f.R
    x = lstsq(A, b, tree="hier")         # least-squares solve

Backends
--------
``backend=`` selects ``"serial"`` (default), ``"batched"``, ``"parallel"``
or ``"pulsar"``; all four produce bit-identical factors.
:mod:`repro.qr.backends` describes each one and tabulates which features
(checkpointing, sessions, resume, fault families) it supports.

Observability
-------------
Pass ``trace="run.json"`` to record the execution with :mod:`repro.obs`
and write a Chrome-trace/Perfetto JSON: every backend reports kernel spans
in the same schema, plus its own runtime events (firings and proxies for
``pulsar``, spawn/attach/dispatch for ``parallel``).
:attr:`QRFactorization.counters` exposes the typed totals — per-kernel
flops and op counts, packets, bytes, queue depths — whether or not a trace
was recorded.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext

import numpy as np

from ..obs import context as _obs_context
from ..obs import record as _obs_record
from ..tiles.layout import TileLayout
from ..tiles.matrix import TileMatrix
from ..trees.plan import TreeKind
from ..util.errors import (
    ConfigurationError,
    ReproError,
    ScheduleCertificationError,
    StaleResultError,
)
from ..util.validation import as_f64_matrix, check_finite, check_tile_params, require
from .backends import require_capability, run_backend, stage_input, worker_count
from .parallel import serial_fallback
from .reference import TileQRFactors, factor_records
from .schedule import schedule_for

__all__ = ["QRFactorization", "qr_factor", "lstsq"]


class QRFactorization:
    """Result of :func:`qr_factor`: implicit ``A = Q R``.

    Wraps :class:`~repro.qr.reference.TileQRFactors` with a NumPy-friendly
    surface.  ``Q`` is kept in implicit (tiled Householder) form; use
    :meth:`q_thin` only when the explicit factor is genuinely needed.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import qr_factor
    >>> a = np.arange(48.0).reshape(12, 4) + 10.0 * np.eye(12, 4)
    >>> f = qr_factor(a, nb=4, ib=2, tree="flat")
    >>> f.shape, f.R.shape, f.backend
    ((12, 4), (4, 4), 'serial')
    >>> f.residuals(a)["factorization"] < 1e-12
    True
    >>> f.counters["ops.GEQRT"]  # one panel tile in a 3x1 tile grid
    1.0
    """

    def __init__(
        self,
        factors: TileQRFactors,
        tree: TreeKind,
        backend: str,
        stats=None,
        *,
        ops=None,
        ib: int | None = None,
        recorder=None,
        run_id: str | None = None,
        parent_run_id: str | None = None,
    ):
        self._held = factors
        #: ``(store, generation)`` while the factors are views of a session's
        #: segment (the run envelope sets it); ``None``: they own their storage.
        self._segment = None
        self.tree = tree
        self.backend = backend
        # RunStats (pulsar) / ParallelRunStats (parallel), else None.
        self.stats = stats
        self._ops = ops
        self._ib = ib
        #: The :class:`repro.obs.Recorder` of the run when ``trace=`` was
        #: given to :func:`qr_factor`, else ``None``.
        self.recorder = recorder
        #: Identity of the run that produced this factorization (minted by
        #: :func:`qr_factor` whether or not telemetry was recorded; see
        #: :mod:`repro.obs.context`).
        self.run_id = run_id
        #: The archived run id a resumed factorization continues from
        #: (:func:`~repro.qr.persist.resume_factorization`); ``None`` for
        #: runs started from scratch.
        self.parent_run_id = parent_run_id
        #: Completed ops skipped because they were restored from a
        #: checkpoint (:func:`~repro.qr.persist.resume_factorization`);
        #: ``0`` for a factorization computed from scratch.
        self.ops_skipped = 0
        self._counters = None

    @property
    def counters(self):
        """Typed event totals of this factorization (:class:`repro.obs.Counters`).

        When the run was traced these are the live recorder's counters
        (kernel flops plus runtime events); otherwise the per-kernel flop
        and op counts are derived from the operation list with the exact
        :func:`repro.kernels.flops.kernel_flops` formulas.  Both paths
        agree on the kernel keys — the tests assert it.
        """
        if self.recorder is not None:
            return self.recorder.counters
        if self._counters is None:
            from ..obs.adapters import counters_from_ops
            from ..obs.record import Counters

            if self._ops is None or self._ib is None:
                self._counters = Counters()
            else:
                self._counters = counters_from_ops(self._ops, self._ib)
        return self._counters

    @property
    def _factors(self) -> TileQRFactors:
        """The one door to the data: every accessor below and
        :func:`~repro.qr.persist.save_factorization` come through here, and a
        session result whose segment has been loaded again stops here."""
        if self._segment is not None and self._segment[0].generation != self._segment[1]:
            raise StaleResultError(
                f"the result of run {self.run_id} was a view of its session's segment, "
                f"which run {self._segment[0].run_id} has since factored another matrix "
                "in; call detach() on a result before the next factor() of its geometry"
            )
        return self._held

    def detach(self) -> "QRFactorization":
        """A result that owns its storage: ``self`` unless this one is a view
        of a session's segment, then a copy of it that the next ``factor``
        on the geometry does not touch (the one place tiles are copied out)."""
        if self._segment is None:
            return self
        ib, store = self._factors.ib, self._segment[0]
        ts = store.extract_ts()
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, _segment=None, _held=TileQRFactors(
            store.extract_matrix(), factor_records(self._ops, ts.__getitem__), ib))
        if self.stats is not None:
            self.stats.bytes_out = store.bytes_out
        return twin

    def __getstate__(self):  # pickled or copied: the arrays, never the mapping
        return self.detach().__dict__

    @property
    def shape(self) -> tuple[int, int]:
        return (self._held.m, self._held.n)

    @property
    def R(self) -> np.ndarray:
        """The ``n x n`` upper-triangular factor."""
        return self._factors.r_factor()

    def q_matmul(self, c: np.ndarray) -> np.ndarray:
        """``Q @ c`` without forming Q (``c`` is ``(m, q)`` or ``(m,)``)."""
        return self._apply(c, trans=False)

    def qt_matmul(self, c: np.ndarray) -> np.ndarray:
        """``Q^T @ c`` without forming Q."""
        return self._apply(c, trans=True)

    def q_thin(self) -> np.ndarray:
        """Materialise the thin orthonormal factor (``m x n``)."""
        return self._factors.q_thin()

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Least-squares solution of ``min_x ||A x - b||``."""
        return self._factors.solve_ls(b)

    def residuals(self, a: np.ndarray) -> dict[str, float]:
        """Accuracy metrics against the original matrix ``a``.

        Returns ``{"factorization": ||A - QR|| / ||A||,
        "orthogonality": ||Q^T Q - I||}`` — the two standard backward-error
        checks for a QR code.
        """
        a = as_f64_matrix(a)
        q = self.q_thin()
        res = float(np.linalg.norm(a - q @ self.R) / max(np.linalg.norm(a), 1e-300))
        orth = float(np.linalg.norm(q.T @ q - np.eye(self.shape[1])))
        return {"factorization": res, "orthogonality": orth}

    def _apply(self, c: np.ndarray, trans: bool) -> np.ndarray:
        c = np.asarray(c, dtype=np.float64)
        squeeze = c.ndim == 1
        if squeeze:
            c = c[:, None]
        out = self._factors.apply_qt(c) if trans else self._factors.apply_q(c)
        return out[:, 0] if squeeze else out


def qr_factor(
    a: np.ndarray | TileMatrix,
    *,
    nb: int = 128,
    ib: int = 32,
    tree: TreeKind | str = TreeKind.HIER,
    h: int | str = 6,
    shifted: bool = True,
    backend: str = "serial",
    n_nodes: int = 1,
    workers_per_node: int = 1,
    policy: str = "lazy",
    seed: int | None = None,
    n_procs: int | None = None,
    batch: int | str | None = None,
    trace: str | os.PathLike | None = None,
    metrics: str | os.PathLike | None = None,
    events: str | os.PathLike | None = None,
    registry=None,
    fault_plan=None,
    on_failure: str = "raise",
    checkpoint=None,
    session=None,
    verify_schedule: bool = False,
) -> QRFactorization:
    """Tree-based tile QR factorization of a tall-and-skinny matrix.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import qr_factor
    >>> a = np.arange(48.0).reshape(12, 4) + 10.0 * np.eye(12, 4)
    >>> f = qr_factor(a, nb=4, ib=2, tree="flat")
    >>> bool(np.allclose(f.q_thin() @ f.R, a))
    True
    >>> f.counters["ops.total"]  # 1 GEQRT + 2 TSQRT on a 3x1 tile grid
    3.0

    ``backend="parallel"`` runs the same ops on worker processes, factors
    bit-identical to serial.  ``batch=`` caps the ops per dispatch message;
    ``"wavefront"`` is kept as a synonym of the auto-sized default, not a
    mode of its own:

    >>> f_wf = qr_factor(a, nb=4, ib=2, tree="flat",
    ...                  backend="parallel", n_procs=2, batch="wavefront")
    >>> bool(np.array_equal(f_wf.R, f.R)), f_wf.stats.batch
    (True, 3)

    ``metrics=`` streams live counter/gauge samples to JSON-lines while
    the backend runs (one object per ~50 ms snapshot):

    >>> import json, tempfile, os as _os
    >>> path = _os.path.join(tempfile.mkdtemp(), "m.jsonl")
    >>> f2 = qr_factor(a, nb=4, ib=2, tree="flat", metrics=path)
    >>> sample = json.loads(open(path).read().splitlines()[-1])
    >>> sample["counters"]["ops.total"]
    3.0

    ``fault_plan=`` injects deterministic faults — here worker 0 dies
    right before its first op; the parallel backend re-dispatches the
    lost op to a respawned worker and the factors still come out
    bit-identical.  ``on_failure="fallback"`` additionally guarantees a
    result even when recovery itself fails (retries exhausted, watchdog
    timeout): the run is redone with the serial reference executor and
    ``stats.mode`` becomes ``'serial-fallback'`` — here recovery
    succeeded in place, so no fallback was needed:

    >>> from repro.faults import FaultPlan
    >>> chaos = FaultPlan(crash_workers={0: 0})
    >>> f3 = qr_factor(a, nb=4, ib=2, tree="flat", backend="parallel",
    ...                n_procs=2, fault_plan=chaos, on_failure="fallback")
    >>> (f3.stats.workers_died, f3.stats.workers_respawned, f3.stats.mode)
    (1, 1, 'parallel')
    >>> bool(np.array_equal(f3.R, f.R))
    True

    ``session=`` (a :class:`repro.QRSession`) reuses a persistent worker
    pool and cached plan across calls — see ``docs/sessions.md``:

    >>> from repro import QRSession
    >>> with QRSession(n_procs=2) as sess:
    ...     f4 = sess.factor(a, nb=4, ib=2, tree="flat")
    >>> bool(np.array_equal(f4.R, f.R))
    True

    ``checkpoint=`` snapshots progress to disk while the backend runs;
    :func:`resume_factorization` restarts a killed run from the last
    snapshot, skipping the ops it already completed, bit-exact with an
    uninterrupted run (see ``docs/robustness.md``):

    >>> from repro.qr import resume_factorization
    >>> ck = _os.path.join(tempfile.mkdtemp(), "run.ckpt")
    >>> f5 = qr_factor(a, nb=4, ib=2, tree="flat", checkpoint=ck)
    >>> f6 = resume_factorization(ck)  # finished run: all 3 ops skipped
    >>> bool(np.array_equal(f6.R, f.R)), f6.ops_skipped
    (True, 3)

    Parameters
    ----------
    a:
        Dense ``(m, n)`` array with ``m >= n``, or a pre-tiled
        :class:`TileMatrix` (then ``nb`` is taken from it).  Every entry
        must be finite: a NaN or Inf raises
        :class:`~repro.util.errors.ConfigurationError` naming its index
        before anything is planned, allocated or spawned.
    nb, ib:
        Tile size and inner block size (paper: ``nb in {192, 240}``,
        ``ib = 48``).
    tree:
        Reduction tree: ``"flat"`` (domino QR of [4]), ``"binary"``,
        ``"hier"`` (the paper's binary-on-flat, default), or ``"greedy"``.
    h:
        Domain size for the hierarchical tree, or ``"auto"`` to pick it
        with the model-based selector
        (:func:`repro.trees.choose_domain_size`, capped by the worker
        count when ``backend="pulsar"``).
    shifted:
        Shift domain boundaries per panel (paper Figure 6b, default) or keep
        them fixed (6a).
    backend:
        ``"serial"``, ``"batched"``, ``"parallel"``, or ``"pulsar"``
        (see :mod:`repro.qr.backends`).
    n_nodes, workers_per_node, policy, seed:
        PULSAR launch parameters (``backend="pulsar"`` only): simulated node
        count, worker threads per node, lazy/aggressive scheduling, network
        jitter seed.  ``policy`` is shared with ``backend="parallel"``,
        where it selects the dispatcher's ready-pool discipline.
    n_procs, batch:
        ``backend="parallel"`` only: worker process count (default: usable
        CPUs; ``1`` falls back to serial) and the most operations a worker
        reports in one message (default: its whole share — one report per
        worker — or a few dozen ops under ``trace=`` / ``metrics=`` /
        ``events=`` / ``checkpoint=``, which read the count in between;
        ``stats.batch`` reports the int used).  Without a ``session`` the
        workers are the ones the process keeps for all such calls: forked
        by the first, grown to the largest ``n_procs`` asked for, idle
        between calls, ended by
        :func:`repro.qr.parallel.shutdown_workers` or at interpreter exit
        (a ``fault_plan`` call gets fresh ones and leaves none).
        ``batch="wavefront"`` is an
        accepted synonym of that default — dispatch is always
        dependency-driven.  Both ``batch`` and ``policy`` are validated on
        every backend, including the ones that ignore them.
    trace:
        Path to write a Chrome-trace/Perfetto JSON recording of the
        execution (any backend; see :mod:`repro.obs`).  Only the
        factorization itself is recorded — later ``apply_q`` / ``solve``
        calls are not.  Default off, with zero overhead.  Like the three
        targets below, a missing parent directory is created and a path
        that cannot be written raises
        :class:`~repro.util.errors.ConfigurationError` before anything
        runs (``docs/observability.md``); the file itself is written once
        the run has finished, so a failing run leaves an older one intact.
    metrics:
        Path to stream live metrics samples (JSON-lines) while the backend
        runs: counters, backend gauges (queue depths, in-flight ops, live
        workers), and rates, one snapshot every 50 ms plus one at start and
        finish.  Tail or summarise with
        ``python -m repro.obs.monitor metrics.jsonl``; combine freely with
        ``trace=``.
    events:
        Path to stream the structured event log (JSON-lines, one line per
        runtime event: worker deaths/respawns, re-dispatches,
        retransmissions, SDC detect/repair, checkpoint writes, watchdog
        stalls; see :mod:`repro.obs.events`).  Each line carries the
        run id and, where known, the op index, worker lane, and related
        span id.  Implies recording, like ``trace=``.
    registry:
        Path (or :class:`repro.obs.registry.RunRegistry`) of an
        append-only run registry: after the run one summary line — run
        id, geometry, backend, wall time, counter and event totals — is
        appended for cross-run ``list``/``show``/``diff`` with
        ``python -m repro.obs.registry``.  Works with or without tracing.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` for chaos testing:
        injects packet loss/duplication/delay into the ``pulsar`` fabric
        (which then runs its ack/retransmit protocol), worker crashes
        into the ``parallel`` backend (which re-dispatches and respawns),
        and — via ``flip_rate`` — silent bit flips into kernel outputs on
        the ``serial``, ``batched``, and ``parallel`` backends, where the
        checksum guard (:mod:`repro.qr.checksum`) detects each one and
        re-executes the damaged op (``sdc.*`` counters when tracing).
        Fabric faults don't apply to ``serial``/``batched``/``parallel``
        and flips don't apply to ``pulsar``.
    on_failure:
        ``"raise"`` (default) propagates backend failures.
        ``"fallback"`` degrades instead: if the chosen backend fails with
        a runtime error (retries exhausted, watchdog/deadlock timeout,
        all workers dead), the factorization is redone with the serial
        reference executor on a pristine copy of the input, the reason is
        recorded on ``stats.fallback_reason`` (``stats.mode`` becomes
        ``"serial-fallback"``) and, when tracing, on the
        ``fallback.serial`` counter and a ``fallback`` span.  With
        ``checkpoint=`` the serial re-run keeps snapshotting from the
        pristine copy, so a degraded call still ends with a complete
        archive.  Configuration errors always raise — a bad parameter
        would fail serially too.
    checkpoint:
        Optional path (or pre-configured
        :class:`~repro.qr.persist.CheckpointStore`) to snapshot progress
        into while the factorization runs — the completed-op frontier
        plus the tiles those ops dirtied, written atomically every N ops
        or T seconds.  A run that dies mid-DAG (crash, kill, watchdog
        timeout) restarts from its last snapshot with
        :func:`~repro.qr.persist.resume_factorization`, bit-exact with an
        uninterrupted run.  Supported on the ``serial``, ``batched``, and
        ``parallel`` backends (the pulsar VSA owns its tiles and raises).
    session:
        Optional :class:`repro.QRSession` (see :mod:`repro.qr.session` and
        ``docs/sessions.md``).  ``backend="parallel"`` runs on the
        session's own worker pool and the one shared-memory segment its
        :class:`~repro.qr.session.PlanCache` keeps per geometry — warm
        repeat calls skip segment creation and attach as well as the spawn
        a repeat one-shot call already skips (``stats.spawn_s ~ 0``).
        The panel plans, op DAG and wavefront schedule are memoized per
        process for every caller (:mod:`repro.qr.schedule`), session or
        not; the session counts its own hits and misses on them.  Factors
        stay bit-exact with the session-less path, and a ``parallel`` result
        *is* the session's segment: valid until the next ``factor`` on its
        geometry (then every accessor raises
        :class:`~repro.util.errors.StaleResultError`), through ``close()``
        and eviction; :meth:`QRFactorization.detach` keeps one.  Supported for the
        ``serial``, ``batched``, and ``parallel`` backends; ``n_procs``
        must be omitted or equal the
        session's pool size.  ``session.factor(a, ...)`` is the convenience
        spelling of ``qr_factor(a, session=sess, backend="parallel", ...)``.
    verify_schedule:
        When ``True``, statically certify the op schedule before executing
        it: the happens-before certifier (:mod:`repro.analysis.races`)
        checks that every write-write and read-write conflict on a tile is
        ordered by the dependency DAG and that the wavefront partition is
        a tile-disjoint, level-ordered antichain cover — and, on
        ``backend="parallel"``, that the assignment the workers will walk
        gives every op to one rank, makes it wait on all its predecessors
        and cannot deadlock — raising
        :class:`~repro.util.errors.ScheduleCertificationError` otherwise.
        Adds planning-time cost only (no per-op runtime overhead); off by
        default.  What is certified is what will run: the memoized DAG,
        wavefronts and assignment of :func:`repro.qr.schedule.schedule_for` (with
        ``session=``, the ones pinned to its plan entry), so a corrupted
        memo or cache entry is caught too.

    Returns
    -------
    QRFactorization
    """
    # Shape and finiteness are settled here, before planning, shared memory
    # or any pool lease; the envelope tiles ``a`` once it knows where to.
    if isinstance(a, TileMatrix):
        for i, j, tile in a.iter_tiles():
            check_finite(tile, origin=(i * a.nb, j * a.nb))
        layout = a.layout
    else:
        a = as_f64_matrix(a)
        layout = TileLayout(*a.shape, nb)
    m, n = layout.m, layout.n
    check_tile_params(m, n, layout.nb, ib)
    require(m >= n, f"tall-skinny QR requires m >= n, got {m} x {n}")
    kind = TreeKind.coerce(tree)
    if h == "auto":
        from ..machine.model import kraken
        from ..trees.auto import choose_domain_size

        workers = worker_count(
            backend, n_nodes=n_nodes, workers_per_node=workers_per_node,
            n_procs=n_procs, session=session,
        )
        h = choose_domain_size(
            layout.mt, machine=kraken(), nb=layout.nb, ib=ib, workers=workers
        )
    elif isinstance(h, str):
        raise ConfigurationError(f"h must be an int or 'auto', got {h!r}")
    require_capability(backend)
    if session is not None:
        session._check_open()
        require_capability(backend, "session")
        if backend == "parallel" and n_procs is not None and n_procs != session.n_procs:
            raise ConfigurationError(
                f"n_procs={n_procs} conflicts with the session's pool size "
                f"{session.n_procs}; omit n_procs when passing session="
            )
    key = (kind, m, n, layout.nb, ib, h, shifted)

    def plan():
        # One derivation per geometry and process (repro.qr.schedule); a
        # session wraps it in an entry of its own, counting plan.hits /
        # plan.misses into the recording window the envelope calls this in.
        entry = schedule_for(*key) if session is None else session.plan_cache.lookup(key)
        if verify_schedule:
            from ..analysis.races import certify_schedule

            # On the process backend the assignment is load-bearing too: the
            # shares the workers of this call will walk.
            k = 0
            if backend == "parallel":
                k = min(worker_count(backend, n_procs=n_procs, session=session),
                        len(entry.ops))
            cert = certify_schedule(
                entry.ops, graph=entry.graph(), wavefronts=entry.wavefronts(),
                assignment=entry.assignment(k, policy) if k > 1 else None,
            )
            if not cert.ok:
                raise ScheduleCertificationError(
                    "schedule failed static certification: " + cert.summary()
                )
        return entry

    return _run(
        a, layout, plan, ib, kind, h, shifted, backend, session=session, policy=policy,
        trace=trace, metrics=metrics, events=events, registry=registry,
        fault_plan=fault_plan, on_failure=on_failure, checkpoint=checkpoint,
        n_procs=n_procs, batch=batch, n_nodes=n_nodes,
        workers_per_node=workers_per_node, seed=seed,
    )


def _check_target(keyword: str, path) -> None:
    """Make the directory of a telemetry target exist, or fail before the run.

    Only the directory is touched: a file already at ``path`` stays intact
    until the sink writes, so a run that fails leaves the old one behind.
    """
    parent = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(parent, exist_ok=True)
        if os.path.isdir(path) or not os.access(parent, os.W_OK | os.X_OK):
            raise PermissionError(f"no file can be created at {os.fspath(path)!r}")
    except OSError as exc:
        raise ConfigurationError(
            f"{keyword}= target cannot be written: {type(exc).__name__}: {exc}"
        ) from exc


def _run(
    a: np.ndarray | TileMatrix, layout: TileLayout, plan, ib: int, kind: TreeKind, h: int,
    shifted: bool, backend: str,
    *, session=None, policy: str = "lazy", trace=None, metrics=None, events=None,
    registry=None, fault_plan=None, on_failure: str = "raise", checkpoint=None,
    skip=None, preloaded_ts=None, parent_run_id: str | None = None, **launch,
) -> QRFactorization:
    """The run envelope: the one way from a validated input to ``run_backend``.

    :func:`qr_factor` and :func:`~repro.qr.persist.resume_factorization`
    both end here (the latter with ``skip`` / ``preloaded_ts`` /
    ``parent_run_id``).  ``a`` is the input — a finite float64 array or a
    :class:`TileMatrix`, of geometry ``layout``, never mutated — and
    ``plan()`` returns the schedule entry to run; it
    is called inside the recording window, after every check below.  Once
    per run, in order: the ``on_failure`` check, ``checkpoint=`` coercion
    and capability check, the telemetry targets (:func:`_check_target` —
    nothing runs if one cannot be written), a fresh run id activated with
    :func:`use_run`, the
    recording window with its sinks (``run.start`` / ``run.end`` only when
    this call owns the window), the one copy of ``a`` into the tiles the
    backend works on (:func:`~repro.qr.backends.stage_input` — for
    ``parallel`` the job's shared segment), the pristine copy a degraded
    run restarts from, ``checkpoint.bind``, ``run_backend``, the
    ``ReproError`` -> :func:`~repro.qr.parallel.serial_fallback`
    degradation — the checkpoint store re-bound to the pristine copy and
    handed on, so a degraded run still ends with an all-ops-done archive —
    and the :class:`QRFactorization` with its trace / registry write-out.
    ``launch`` (``n_procs``, ``batch``, ``n_nodes``, ``workers_per_node``,
    ``seed``) goes to :func:`~repro.qr.backends.run_backend` untouched.
    """
    require(on_failure in ("raise", "fallback"),
            f"on_failure must be 'raise' or 'fallback', got {on_failure!r}")
    ckpt = None
    if checkpoint is not None:
        require_capability(backend, "checkpoint")
        from .persist import as_checkpoint_store

        ckpt = as_checkpoint_store(checkpoint)
    for keyword, target in (("trace", trace), ("metrics", metrics),
                            ("events", events), ("registry", registry)):
        if isinstance(target, (str, os.PathLike)):
            _check_target(keyword, target)
    # Degradation needs a pristine input: the pulsar build hands tiles to
    # the VSA, so snapshot before any backend touches them.  Serial only
    # needs one when the SDC guard is armed (SilentCorruptionError is the
    # sole serial failure mode on valid parameters).
    can_fail = backend != "serial" or (fault_plan is not None and fault_plan.faulty_sdc)
    pristine = store = None

    # Every run gets an identity, traced or not: it names the registry
    # record, travels to worker processes and PULSAR packets, and is
    # archived by checkpoints so a resume can name its parent run.
    run_id = _obs_context.mint_run_id()
    geometry = dict(m=layout.m, n=layout.n, nb=layout.nb, ib=ib, tree=kind.value, h=h)
    status = "error"  # until the backend, or the degraded re-run, returns
    t_run0 = time.perf_counter()

    # The recording window covers only the backend execution: factor
    # assembly and any later apply_q/solve calls stay out of the evidence.
    record = trace is not None or metrics is not None or events is not None
    ctx = (
        _obs_record.recording(run_id=run_id) if record else nullcontext(None)
    )
    entry = None
    with _obs_context.use_run(run_id, parent_run_id), ctx as recorder:
        sampler = None
        if recorder is not None:
            if events is not None:
                recorder.events.open_sink(events)
            recorder.event("run.start", backend=backend, **geometry)
        if metrics is not None:
            from ..obs.sampler import MetricsSampler

            sampler = MetricsSampler(recorder, metrics).start()
        try:
            entry = plan()
            tm, store = stage_input(backend, a, layout, entry, ib, session=session,
                                    n_procs=launch.get("n_procs"), recycle=fault_plan is None)
            if store is not None:
                store.run_id = run_id
            if on_failure == "fallback" and can_fail:
                pristine = tm.copy()
            if ckpt is not None:
                ckpt.bind(tm, entry.ops, ib, kind.value, h, shifted)
            factors, stats = run_backend(
                backend, tm, entry, ib, store=store, session=session, policy=policy,
                fault_plan=fault_plan, checkpoint=ckpt,
                skip=skip, preloaded_ts=preloaded_ts, **launch,
            )
            status = "ok"
        except ReproError as exc:
            # A bad parameter would fail on the serial path too, and a plan
            # that did not certify leaves nothing to re-run.
            if pristine is None or entry is None or isinstance(exc, ConfigurationError):
                raise
            what = "backend" if skip is None else "resume"
            reason = f"{backend} {what} failed: {type(exc).__name__}: {exc}"
            if ckpt is not None:  # restart the archive from the pristine tiles
                ckpt.bind(pristine, entry.ops, ib, kind.value, h, shifted)
            factors, stats = serial_fallback(
                pristine, entry.ops, ib, reason, policy, checkpoint=ckpt,
                skip=skip, preloaded_ts=preloaded_ts,
            )
            status = "fallback"
        finally:
            if store is not None and session is None:
                # The backend took the name away itself, unless the run never
                # got that far (a bad ``policy``, a checkpoint that cannot bind).
                store.destroy()
            if sampler is not None:
                sampler.stop()
            if recorder is not None:
                recorder.event(
                    "run.end", backend=backend, status=status,
                    wall_s=round(time.perf_counter() - t_run0, 6),
                )
                recorder.events.close_sink()
    wall_s = time.perf_counter() - t_run0
    f = QRFactorization(
        factors, kind, backend, stats=stats, ops=entry.ops, ib=ib,
        recorder=recorder, run_id=run_id, parent_run_id=parent_run_id,
    )
    f.ops_skipped = len(skip or ())
    if session is not None:
        session.last_run_id = run_id
        if store is not None and factors is store.factors:  # not a degraded run's copy
            f._segment = (store, store.generation)
    if trace is not None:
        from ..obs.export import write_chrome_trace

        write_chrome_trace(
            trace, recorder.spans, counters=f.counters, clock=recorder.clock,
            lane_names=recorder.lane_names, run_id=run_id,
        )
    if registry is not None:
        from ..obs.registry import RunRegistry, build_record

        reg = registry if isinstance(registry, RunRegistry) else RunRegistry(registry)
        reg.append(build_record(
            run_id=run_id, parent_run_id=parent_run_id, backend=backend,
            geometry=geometry, wall_s=wall_s, counters=f.counters, status=status,
            events=recorder.events.totals() if recorder is not None else None,
        ))
    return f


def lstsq(
    a: np.ndarray,
    b: np.ndarray,
    **kw,
) -> np.ndarray:
    """Solve the overdetermined system ``min_x ||A x - b||_2`` via tree QR.

    The paper's motivating application (Section I).  Keyword arguments are
    forwarded to :func:`qr_factor`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import lstsq
    >>> a = np.arange(48.0).reshape(12, 4) + 10.0 * np.eye(12, 4)
    >>> x = lstsq(a, a @ np.ones(4), nb=4, ib=2)
    >>> bool(np.allclose(x, np.ones(4)))
    True
    """
    return qr_factor(a, **kw).solve(b)

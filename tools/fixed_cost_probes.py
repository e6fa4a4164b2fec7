#!/usr/bin/env python3
"""The measurements behind docs/performance.md "Fixed costs": how much of a
factorization is per-op Python, and whether this host's CPUs add throughput
for kernels of tile size.

Six probes, each printing one table; BLAS is pinned to one thread first::

    PYTHONPATH=src python tools/fixed_cost_probes.py glue       # per-op Python
    PYTHONPATH=src python tools/fixed_cost_probes.py scaling    # 1 vs 2 CPUs
    PYTHONPATH=src python tools/fixed_cost_probes.py timeline   # worker overlap
    PYTHONPATH=src python tools/fixed_cost_probes.py oneshot    # per-call phases
    PYTHONPATH=src python tools/fixed_cost_probes.py qt         # Q^T b per record
    PYTHONPATH=src python tools/fixed_cost_probes.py cold       # a fresh process

``glue`` runs each benchmark geometry four ways — the execution core
(``execute_ops``), a bare loop over SciPy's f2py LAPACK wrappers with every
operand pre-resolved, the same loop through ``ctypes`` on
``scipy.linalg.cython_lapack.__pyx_capi__`` (no GIL, no wrapper), and a pool
worker's job loop (``_serve_job``, in this process) over the one-rank share
on a segment — checks that all four produce bit-equal ``R``, and reports
the difference per op: the worker loop's column is what firing on flags
(look-ahead, readiness test, the fence on both sides of each flag) adds to
the core.
``scaling`` times one routine at several tile sizes on one and on two
workers (processes for ``np.dot``, threads for the GIL-free ``ctypes``
``dtpmqrt``).  ``timeline`` traces a serial and a one-shot
``backend="parallel"`` run and reports how long both workers' kernel spans
overlap and how much longer the same ops take when two CPUs run them.
``oneshot`` splits a one-shot ``backend="parallel"`` call into its phases —
copy-in (``TileMatrix.from_dense`` and ``SharedTileStore.load``, whichever the
checkout goes through), segment create (``create`` or, on a checkout that
rebuilds the views of a segment an earlier call left mapped, ``recycle``,
less the load inside it; the ``recycled`` row counts the calls, one-shot and
warm session alike, whose run said ``stats.segment_recycled``), pool lease,
the window in which ops run (lease start to terminators, ``stats.elapsed_s``:
workers fire from the moment they read their header, so the lease is inside
it), pool shutdown and release (``destroy`` plus letting go of the result —
owned arrays, or the mapping of a segment that is the result) — next to a
warm ``QRSession`` call and ``serial``, by timing the public methods from
outside (it runs unchanged against another checkout's ``src`` on
``PYTHONPATH``).  The window is split per worker into seconds inside kernels
and seconds with nothing ready (``stats.per_worker_busy_s`` /
``per_worker_wait_s``) and the seconds it took from its header to its attach
echo (``per_worker_attach_s``: mapping and view building, nothing on a segment
it maps already), next to the parent's CPU time over the whole call
(copy-in and release included, not the window alone), and
followed by the run's own traffic counts: the messages the parent sent and
read on worker pipes and the bytes it tiled into and copied out of the
segment (``stats.pipe_messages`` / ``bytes_in``, and ``bytes_out`` — bytes
copied out — on a checkout whose runs count it; a row whose field the
checkout lacks is left out) — all from the call with the shortest window.  Every
table ends with this host's two-process probe: how much longer two CPU-bound
children take than one, once with the children unbound and once with each
bound to a CPU of its own.  The unbound reading alone cannot tell "two cores
delivered" (1.0) from two CPUs that queue both children on one of them (2.0,
until the balancer splits them); the bound reading is near 1.0 wherever two
cores are delivered (below it when the second CPU runs faster than the
first, on which the lone child runs).  Under each table ``oneshot`` also prints every kept
worker's CPU set and the CPU it last ran on (field 39 of
``/proc/<pid>/stat``).
``qt`` times ``f.qt_matmul(b)`` (16 columns) on each bench geometry against a
bare loop of the same f2py calls with every operand pre-resolved on one
reused buffer, checks the two bit-equal and prints microseconds per record;
it uses only the public result and its records, so it too runs against
another checkout.
``cold`` runs the benchmark's ``setup_s`` probe (a ``QRSession``, one
``batch="wavefront"`` factor of the workload's input, one solve, close) in
fresh interpreters and splits each one's wall time into interpreter start,
NumPy, the LAPACK module (``repro/kernels/_lapack.py`` run on its own, or
``scipy.linalg.lapack`` on a checkout without it), the rest of ``repro``,
inputs, cold factor, first solve, close, stopping multiprocessing's resource
tracker the way ``bench/__main__.py`` does, and exit, with the modules
loaded (all, and those of ``repro`` with their lines of source), peak RSS,
whether ``scipy.linalg`` was imported and whether a resource tracker ran;
the clock (``perf_counter``, i.e. ``CLOCK_MONOTONIC``) is shared by parent
and child.  ``PYTHONDONTWRITEBYTECODE=1`` in the environment makes every
child compile ``repro`` from source, as a fresh checkout does; the header of
each table says which.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402
import multiprocessing as mp  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402

import numpy as np  # noqa: E402
from scipy.linalg import cython_lapack, lapack  # noqa: E402

# The benchmark's own workload table (imports no NumPy, runs nothing).
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from bench.workloads import WORKLOADS  # noqa: E402


def best(fn, reps=7):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


# -- ctypes binding of the four routines ---------------------------------------

_N_ARGS = {"dgeqrt": 9, "dgemqrt": 14, "dtpqrt": 12, "dtpmqrt": 17}
ctypes.pythonapi.PyCapsule_GetName.restype = ctypes.c_char_p
ctypes.pythonapi.PyCapsule_GetName.argtypes = [ctypes.py_object]
ctypes.pythonapi.PyCapsule_GetPointer.restype = ctypes.c_void_p
ctypes.pythonapi.PyCapsule_GetPointer.argtypes = [ctypes.py_object, ctypes.c_char_p]


def bind(name):
    """The Fortran routine as a ctypes function: every argument by reference."""
    capsule = cython_lapack.__pyx_capi__[name]
    address = ctypes.pythonapi.PyCapsule_GetPointer(
        capsule, ctypes.pythonapi.PyCapsule_GetName(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * _N_ARGS[name])(address)


def ref(value):
    """A by-reference scalar: the address of a kept-alive int or char cell."""
    cell = ctypes.c_char(value) if isinstance(value, bytes) else ctypes.c_int(value)
    return ctypes.cast(ctypes.pointer(cell), ctypes.c_void_p), cell


def ptr(array):
    return ctypes.c_void_p(array.ctypes.data)


# -- glue ----------------------------------------------------------------------


def _call_lists(tm, ops, ib):
    """Per op, one pre-resolved f2py call and one pre-bound ctypes call, both
    on ``tm``'s own tiles (full tiles only: the bench geometries are not ragged)."""
    from repro.tiles.shared import t_factor_key

    c_fn = {name: bind(name) for name in _N_ARGS}
    ts, keep, f2py_calls, c_calls = {}, [], [], []
    work = np.empty(4 * 128 * 128)
    side, trans = ref(b"L"), ref(b"T")
    info = ctypes.c_int(0)
    keep += [work, side, trans, info]
    p_work, p_info = ptr(work), ctypes.cast(ctypes.pointer(info), ctypes.c_void_p)

    def scalars(*values):
        cells = [ref(v) for v in values]
        keep.extend(cells)
        return [c[0] for c in cells]

    for op in ops:
        key = t_factor_key(op)
        nb = min(ib, op.k)
        if op.is_factor:
            t = ts[key] = np.zeros((nb, op.k), order="F")
        else:
            t = ts[key]
        if op.kind == "GEQRT":
            a = tm.tile(op.i, op.j)
            m, n, pnb, lda, ldt = scalars(a.shape[0], a.shape[1], nb, a.shape[0], nb)
            f2py_calls.append((lapack.dgeqrt, (nb, a), dict(overwrite_a=1), t))
            c_calls.append((c_fn["dgeqrt"], (m, n, pnb, ptr(a), lda, ptr(t), ldt, p_work, p_info)))
        elif op.kind == "ORMQR":
            v, c = tm.tile(op.i, op.j), tm.tile(op.i, op.l)
            m, n, k, pnb, ldv, ldt, ldc = scalars(
                c.shape[0], c.shape[1], op.k, nb, v.shape[0], nb, c.shape[0])
            f2py_calls.append((lapack.dgemqrt, (v[:, :op.k], t, c),
                               dict(trans=b"T", overwrite_c=1), None))
            c_calls.append((c_fn["dgemqrt"], (side[0], trans[0], m, n, k, pnb, ptr(v), ldv,
                                              ptr(t), ldt, ptr(c), ldc, p_work, p_info)))
        elif op.is_factor:  # TSQRT / TTQRT
            r, b = tm.tile(op.i, op.j), tm.tile(op.k2, op.j)
            el = 0 if op.kind == "TSQRT" else op.m2
            m, n, pl, pnb, lda, ldb, ldt = scalars(
                op.m2, op.k, el, nb, r.shape[0], b.shape[0], nb)
            f2py_calls.append((lapack.dtpqrt, (el, nb, r, b),
                               dict(overwrite_a=1, overwrite_b=1), t))
            c_calls.append((c_fn["dtpqrt"], (m, n, pl, pnb, ptr(r), lda, ptr(b), ldb,
                                             ptr(t), ldt, p_work, p_info)))
        else:  # TSMQR / TTMQR
            v, c1, c2 = tm.tile(op.k2, op.j), tm.tile(op.i, op.l), tm.tile(op.k2, op.l)
            el = 0 if op.kind == "TSMQR" else op.m2
            m, n, k, pl, pnb, ldv, ldt, lda, ldb = scalars(
                op.m2, op.q, op.k, el, nb, v.shape[0], nb, c1.shape[0], c2.shape[0])
            f2py_calls.append((lapack.dtpmqrt, (el, v, t, c1, c2),
                               dict(trans=b"T", overwrite_a=1, overwrite_b=1), None))
            c_calls.append((c_fn["dtpmqrt"], (side[0], trans[0], m, n, k, pl, pnb, ptr(v), ldv,
                                              ptr(t), ldt, ptr(c1), lda, ptr(c2), ldb,
                                              p_work, p_info)))
    return f2py_calls, c_calls, info, keep


def _serve_share(a, sched, ib):
    """A pool worker's job loop (``_serve_job``) run in this process over
    the one-rank share, on a segment of its own: the seconds it took and
    the ``R`` it left.  The terminator waits on the pipe from the start, so
    the loop reads it once the share is done."""
    from repro.qr import parallel
    from repro.tiles.shared import SharedTileStore

    store = SharedTileStore.create(a, sched, ib)
    parent, child = mp.Pipe()
    try:
        parent.send(("endjob",))
        t0 = time.perf_counter()
        end = parallel._serve_job(store, sched.ops, ib, None, 0, 0, child,
                                  sched.assignment(1, "lazy")[0], 10**6)
        dt = time.perf_counter() - t0
        if end != ("endjob",) or parent.recv()[0] != "done":
            raise RuntimeError(f"the job loop ended on {end!r}")
        return dt, store.matrix().upper_triangular()
    finally:
        parent.close()
        child.close()
        store.destroy()


def probe_glue():
    from repro.qr import execute
    from repro.qr.reference import execute_ops
    from repro.qr.schedule import schedule_for
    from repro.tiles.matrix import TileMatrix
    from repro.trees import TreeKind

    print(f"{'workload':18s} {'ops':>5s} {'core ms':>8s} {'f2py ms':>8s} {'ctypes ms':>9s} "
          f"{'core-f2py us/op':>16s} {'core-ctypes us/op':>18s} {'driver alone us/op':>19s} "
          f"{'worker loop us/op':>18s}")
    for name, w in WORKLOADS.items():
        a = np.random.default_rng(0).standard_normal((w.m, w.n))
        sched = schedule_for(TreeKind.coerce(w.tree), w.m, w.n, w.nb, w.ib, w.h, True)
        ops = sched.ops
        results = {}

        def run(which):
            if which == "worker loop":
                dt, results[which] = _serve_share(a, sched, w.ib)
                return dt
            tm = TileMatrix.from_dense(a, w.nb)
            if which == "core":
                t0 = time.perf_counter()
                execute_ops(tm, ops, w.ib)
                dt = time.perf_counter() - t0
            else:
                f2py_calls, c_calls, info, keep = _call_lists(tm, ops, w.ib)
                t0 = time.perf_counter()
                if which == "f2py":
                    for fn, args, kw, t in f2py_calls:
                        out = fn(*args, **kw)
                        if out[-1] != 0:
                            raise RuntimeError("LAPACK info != 0")
                        if t is not None:
                            t[...] = out[-2]
                else:
                    for fn, args in c_calls:
                        fn(*args)
                        if info.value != 0:
                            raise RuntimeError("LAPACK info != 0")
                dt = time.perf_counter() - t0
                del keep
            results[which] = tm.upper_triangular()
            return dt

        # Interleaved rounds, minimum of each: a loaded phase of the host then
        # costs every variant a round, not one variant its whole sample.
        secs = {which: float("inf") for which in ("core", "f2py", "ctypes", "worker loop")}
        for _ in range(9):
            for which in secs:
                secs[which] = min(secs[which], run(which))
        for which in ("f2py", "ctypes", "worker loop"):
            assert np.array_equal(results["core"], results[which]), f"{which} is not bit-equal"
        # The driver with every kernel stubbed out: operand views, T store,
        # step loop — what the core adds per op, free of LAPACK's variance.
        real, t_stub = dict(execute.KERNELS), np.zeros((w.ib, w.nb), order="F")
        execute.KERNELS.update({k: (lambda *args: t_stub) for k in real})
        try:
            tm = TileMatrix.from_dense(a, w.nb)
            driver = best(lambda: execute_ops(tm, ops, w.ib))
        finally:
            execute.KERNELS.update(real)
        per_op = lambda other: (secs["core"] - secs[other]) / len(ops) * 1e6  # noqa: E731
        print(f"{name:18s} {len(ops):5d} {secs['core'] * 1e3:8.2f} {secs['f2py'] * 1e3:8.2f} "
              f"{secs['ctypes'] * 1e3:9.2f} {per_op('f2py'):16.2f} {per_op('ctypes'):18.2f} "
              f"{driver / len(ops) * 1e6:19.2f} {-per_op('worker loop'):18.2f}")


# -- scaling -------------------------------------------------------------------


def _dot_loop(nb, reps, barrier, out):
    a = np.random.default_rng(nb).standard_normal((nb, nb))
    b, c = a.copy(), np.empty((nb, nb))
    barrier.wait()
    t0 = time.perf_counter()
    for _ in range(reps):
        np.dot(a, b, out=c)
    out.put(time.perf_counter() - t0)


def _tpmqrt_call(nb, ib=32):
    """A pre-bound, GIL-free ``dtpmqrt`` on private ``nb x nb`` tiles."""
    rng = np.random.default_rng(nb)
    r = np.asfortranarray(np.triu(rng.standard_normal((nb, nb))))
    v = np.asfortranarray(rng.standard_normal((nb, nb)))
    _, v, t, info = lapack.dtpqrt(0, ib, r, v)
    assert info == 0
    c1, c2 = (np.asfortranarray(rng.standard_normal((nb, nb))) for _ in range(2))
    work, info_cell = np.empty(nb * ib), ctypes.c_int(0)
    cells = [ref(x) for x in (b"L", b"T", nb, nb, nb, 0, ib, nb, ib, nb, nb)]
    side, trans, m, n, k, el, pnb, ldv, ldt, lda, ldb = (c[0] for c in cells)
    args = (side, trans, m, n, k, el, pnb, ptr(v), ldv, ptr(t), ldt, ptr(c1), lda, ptr(c2), ldb,
            ptr(work), ctypes.cast(ctypes.pointer(info_cell), ctypes.c_void_p))
    return bind("dtpmqrt"), args, (cells, v, t, c1, c2, work, info_cell)


def _interleaved_minima(wall, rounds=5):
    """``(min wall(1), min wall(2))`` over alternating rounds, so a loaded
    phase of the host costs both worker counts a round."""
    one = two = float("inf")
    for _ in range(rounds):
        one, two = min(one, wall(1)), min(two, wall(2))
    return one, two


def probe_scaling():
    ctx = mp.get_context("fork")
    print("np.dot in processes: seconds for `reps` products each, 1 vs 2 workers")
    print(f"{'nb':>4s} {'reps':>7s} {'1 proc s':>9s} {'2 procs s':>10s} {'aggregate x':>12s}")
    for nb, reps in ((32, 100000), (64, 30000), (128, 6000), (256, 1000)):
        def wall(n_workers):
            barrier, out = ctx.Barrier(n_workers), ctx.Queue()
            procs = [ctx.Process(target=_dot_loop, args=(nb, reps, barrier, out))
                     for _ in range(n_workers)]
            for p in procs:
                p.start()
            times = [out.get(timeout=120) for _ in procs]
            for p in procs:
                p.join(timeout=30)
            return max(times)

        one, two = _interleaved_minima(wall)
        print(f"{nb:4d} {reps:7d} {one:9.3f} {two:10.3f} {2 * one / two:12.2f}")

    print("ctypes dtpmqrt (GIL released) in threads, private tiles per thread")
    print(f"{'nb':>4s} {'reps':>7s} {'us/call':>8s} {'f2py us':>10s} {'1 thread s':>11s} "
          f"{'2 threads s':>12s} {'aggregate x':>12s}")
    for nb, reps in ((32, 50000), (64, 15000), (128, 3000)):
        def wall(n_workers):
            bound = [_tpmqrt_call(nb) for _ in range(n_workers)]
            barrier, spans = threading.Barrier(n_workers), []

            def loop(fn, args):
                barrier.wait()
                t0 = time.perf_counter()
                for _ in range(reps):
                    fn(*args)
                spans.append(time.perf_counter() - t0)

            threads = [threading.Thread(target=loop, args=b[:2]) for b in bound]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert len(spans) == n_workers
            return max(spans)

        one, two = _interleaved_minima(wall)
        fn, args, keep = _tpmqrt_call(nb)
        v, t, c1, c2 = keep[1:5]

        def f2py_loop():
            for _ in range(reps):
                lapack.dtpmqrt(0, v, t, c1, c2, trans=b"T", overwrite_a=1, overwrite_b=1)

        f2py = best(f2py_loop, reps=5) / reps
        print(f"{nb:4d} {reps:7d} {one / reps * 1e6:8.1f} {f2py * 1e6:10.1f} {one:11.3f} "
              f"{two:12.3f} {2 * one / two:12.2f}")


# -- timeline ------------------------------------------------------------------


def probe_timeline():
    from repro import qr_factor
    from repro.obs.adapters import KERNEL_CATEGORY

    kernel_cats = set(KERNEL_CATEGORY.values())

    def kernel_spans(f):
        lanes = {}
        for s in f.recorder.spans:
            if s.cat in kernel_cats:
                lanes.setdefault(s.worker, []).append((s.start, s.end))
        return lanes

    print(f"{'workload':18s} {'serial kernels ms':>18s} {'wall ms':>8s} {'busy w0 ms':>11s} "
          f"{'busy w1 ms':>11s} {'both busy ms':>13s} {'busy inflation x':>17s}")
    for name, w in WORKLOADS.items():
        a = np.random.default_rng(0).standard_normal((w.m, w.n))
        best_run = None
        for _ in range(3):  # the quietest of three traced pairs
            serial = kernel_spans(qr_factor(a, trace=os.devnull, **w.geometry))[0]
            f = qr_factor(a, backend="parallel", n_procs=2, trace=os.devnull, **w.geometry)
            lanes = kernel_spans(f)
            row = (f.stats.elapsed_s, sum(e - s for s, e in serial), lanes)
            if best_run is None or row[0] < best_run[0]:
                best_run = row
        wall, serial_busy, lanes = best_run
        busy = {w: sum(e - s for s, e in lanes.get(w, ())) for w in (0, 1)}
        # Sweep both lanes' intervals for the time covered by one of each.
        events = sorted([(s, 1, w) for w in busy for s, _ in lanes.get(w, ())]
                        + [(e, -1, w) for w in busy for _, e in lanes.get(w, ())])
        depth, both, last = {0: 0, 1: 0}, 0.0, 0.0
        for t, step, w in events:
            if depth[0] and depth[1]:
                both += t - last
            depth[w] += step
            last = t
        print(f"{name:18s} {serial_busy * 1e3:18.1f} {wall * 1e3:8.1f} {busy[0] * 1e3:11.1f} "
              f"{busy[1] * 1e3:11.1f} {both * 1e3:13.1f} "
              f"{(busy[0] + busy[1]) / serial_busy:17.2f}")


# -- qt ------------------------------------------------------------------------


def _bare_qt(fac, q):
    """``Q^T c`` as a bare loop of the factorization's f2py calls, one per
    record, every operand pre-resolved on one reused ``(mt, q, nb)`` buffer
    (full tiles only: the bench geometries are not ragged)."""
    grid, nb, mt = fac.a.grid, fac.a.nb, fac.a.mt
    assert fac.m == mt * nb, "ragged tile rows"
    buf = np.empty((mt, q, nb))
    blocks = list(buf.transpose(0, 2, 1))
    calls = []
    for rec in fac.records:
        if rec.kind == "GEQRT":
            v = grid[rec.i][rec.j]
            k = min(v.shape)
            calls.append((lapack.dgemqrt, (v[:, :k], rec.t[:k], blocks[rec.i], b"L", b"T", 1)))
        else:
            v = grid[rec.k2][rec.j][: rec.m2, : rec.k]
            el = 0 if rec.kind == "TSQRT" else v.shape[0]
            calls.append((lapack.dtpmqrt, (el, v, rec.t[: rec.k], blocks[rec.i][: rec.k],
                                           blocks[rec.k2], b"L", b"T", 1, 1)))

    def run(c):
        buf.transpose(0, 2, 1)[...] = c.reshape(mt, nb, q)
        for fn, args in calls:
            if fn(*args)[-1] != 0:
                raise RuntimeError("LAPACK info != 0")
        out = np.empty((fac.m, q), order="F")
        out.T.reshape(q, mt, nb)[...] = buf.transpose(1, 0, 2)
        return out

    return run


def probe_qt(rounds=40, q=16):
    from repro import qr_factor

    print(f"{'workload':18s} {'records':>7s} {'qt_matmul ms':>12s} {'bare ms':>8s} "
          f"{'qt_matmul us/rec':>16s} {'bare us/rec':>11s} {'gap us/rec':>10s}")
    for name, w in WORKLOADS.items():
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((w.m, w.n)), rng.standard_normal((w.m, q))
        f = qr_factor(a, **w.geometry)
        fac = f._factors
        bare = _bare_qt(fac, q)
        assert np.array_equal(f.qt_matmul(b), bare(b)), "bare loop is not bit-equal"
        # Interleaved calls, median of each: a loaded phase of the host then
        # costs both sides a round.
        lib, loop = [], []
        for _ in range(rounds):
            for fn, times in ((f.qt_matmul, lib), (bare, loop)):
                t0 = time.perf_counter()
                fn(b)
                times.append(time.perf_counter() - t0)
        n_rec = len(fac.records)
        lib_s, loop_s = statistics.median(lib), statistics.median(loop)
        print(f"{name:18s} {n_rec:7d} {lib_s * 1e3:12.3f} {loop_s * 1e3:8.3f} "
              f"{lib_s / n_rec * 1e6:16.2f} {loop_s / n_rec * 1e6:11.2f} "
              f"{(lib_s - loop_s) / n_rec * 1e6:10.2f}")


# -- oneshot -------------------------------------------------------------------


def probe_oneshot(calls=7):
    from repro import QRSession, qr_factor
    from repro.qr import parallel
    from repro.qr.parallel import WorkerPool
    from repro.tiles.matrix import TileMatrix
    from repro.tiles.shared import SharedTileStore

    spent = {}  # phase -> seconds (or a count of the run's) during the current call
    stack = []  # stopwatches going, innermost last: a phase is charged its self time

    def timed(owner, method, phase):
        """Replace ``owner.method`` with itself plus a stopwatch on ``phase``
        (less what nested stopwatches take)."""
        raw = owner.__dict__[method]
        inner = raw.__func__ if isinstance(raw, classmethod) else raw

        def wrapper(*args, **kw):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = inner(*args, **kw)
            finally:
                took = time.perf_counter() - t0
                spent[phase] = spent.get(phase, 0.0) + took - stack.pop()
                if stack:
                    stack[-1] += took
            return out

        setattr(owner, method, classmethod(wrapper) if inner is not raw else wrapper)

    # Copy-in is whatever tiles the input or puts tiles into a segment;
    # ``create`` is charged what is left of it once its ``load`` is taken out.
    # (``from_dense`` less its validation, where the checkout has split the two.)
    tiler = "_from_validated" if hasattr(TileMatrix, "_from_validated") else "from_dense"
    timed(TileMatrix, tiler, "copy-in")
    timed(SharedTileStore, "load", "copy-in")
    timed(SharedTileStore, "create", "segment create")
    if hasattr(SharedTileStore, "recycle"):  # the same phase on a mapping that is there
        timed(SharedTileStore, "recycle", "segment create")
    timed(WorkerPool, "lease", "pool.lease")
    timed(WorkerPool, "shutdown", "pool.shutdown")
    timed(SharedTileStore, "destroy", "release")

    # What the run counted itself (``ParallelRunStats``), as the table names it.
    counts = {row: field for row, field in (
        ("pipe messages", "pipe_messages"), ("bytes copied in", "bytes_in"),
        ("bytes copied out", "bytes_out")) if hasattr(parallel.ParallelRunStats, field)}
    window = ["  kernels w0", "  kernels w1", "  nothing ready w0", "  nothing ready w1",
              "  worker attach w0", "  worker attach w1", "parent CPU, whole call", *counts]
    phases = ["total", "copy-in", "segment create", "recycled", "pool.lease", "window", *window,
              "pool.shutdown", "release"]

    def measure(call):
        """Per phase, the minimum over ``calls`` calls after one warm-up; the
        rows of ``window`` are those of the call with the shortest window."""
        best_of, recycled = {}, 0
        for i in range(calls + 1):
            spent.clear()
            cpu0, t0 = time.process_time(), time.perf_counter()
            f = call()
            t1 = time.perf_counter()
            cpu, st = time.process_time() - cpu0, f.stats
            # Letting go of the result is part of the call's price: owned
            # arrays to free, or the mapping of a segment that is the result.
            t2 = time.perf_counter()
            del f
            t3 = time.perf_counter()
            spent["release"] = spent.get("release", 0.0) + t3 - t2
            spent["total"] = t1 - t0 + t3 - t2
            if getattr(st, "mode", None) == "parallel":
                spent["window"] = st.elapsed_s
                spent["parent CPU, whole call"] = cpu
                for w in (0, 1):
                    spent[f"  kernels w{w}"] = st.per_worker_busy_s[w]
                    spent[f"  nothing ready w{w}"] = st.per_worker_wait_s[w]
                    if hasattr(st, "per_worker_attach_s"):
                        spent[f"  worker attach w{w}"] = st.per_worker_attach_s[w]
                recycled += bool(i and getattr(st, "segment_recycled", False))
                spent.update((row, getattr(st, field)) for row, field in counts.items()
                             if hasattr(st, field))
            if i:
                shortest = spent.get("window", 0.0) <= best_of.get("window", float("inf"))
                for phase, value in spent.items():
                    if phase in window:
                        if shortest:
                            best_of[phase] = value
                    else:
                        best_of[phase] = min(best_of.get(phase, float("inf")), value)
        if hasattr(st, "segment_recycled"):
            best_of["recycled"] = f"{recycled}/{calls}"
        return best_of

    for name, w in WORKLOADS.items():
        a = np.random.default_rng(0).standard_normal((w.m, w.n))
        lapack_s = best(lambda: np.linalg.qr(a, mode="r"))
        with QRSession(n_procs=2) as sess:
            columns = {
                "one-shot": measure(lambda: qr_factor(a, backend="parallel", n_procs=2,
                                                      **w.geometry)),
                "warm session": measure(lambda: sess.factor(a, **w.geometry)),
                "serial": measure(lambda: qr_factor(a, **w.geometry)),
            }
        print(f"{name}  (ms per call, minimum of {calls} after a warm-up; "
              f"LAPACK {lapack_s * 1e3:.2f})")
        print(f"  {'phase':22s}" + "".join(f"{c:>14s}" for c in columns))
        for phase in phases:
            cells = []
            for col in columns.values():
                if phase not in col:
                    cells.append(f"{'-':>14s}")
                elif phase in counts or phase == "recycled":
                    cells.append(f"{col[phase]:>14}")
                else:
                    cells.append(f"{col[phase] * 1e3:14.2f}")
            print(f"  {phase:22s}" + "".join(cells))
        # The same calls as the recorder sees them: where a trace puts the lease.
        # (A checkout without kept workers has nothing to end: every call forks.)
        getattr(parallel, "shutdown_workers", lambda: None)()
        traced = [qr_factor(a, backend="parallel", n_procs=2, trace=os.devnull, **w.geometry)
                  for _ in range(calls)]
        lease_ms = [1e3 * (s.end - s.start) for f in traced for s in f.recorder.spans
                    if s.name == "pool.lease"]
        spawns = [int(f.counters.get("pool.spawns", 0)) for f in traced]
        print(f"  traced: pool.lease span {lease_ms[0]:.2f} ms on the first call, median "
              f"{statistics.median(lease_ms[1:]):.2f} ms on {calls - 1} repeats; "
              f"pool.spawns per call {spawns}")
        print("  workers: " + "; ".join(
            f"{p.name} on CPUs {_cpu_list(os.sched_getaffinity(p.pid))}, "
            f"last ran on {_last_cpu(p.pid)}"
            for p in sorted(mp.active_children(), key=lambda p: p.name)))
        # Beside every table: what the host delivered while it was taken.
        getattr(parallel, "shutdown_workers", lambda: None)()
        print("  two-process probe: two CPU-bound children take "
              + ", ".join(f"{two / one:.2f}x as long as one {how}" for how, (one, two) in (
                  ("unbound", _interleaved_minima(_burn_wall, rounds=3)),
                  ("bound", _interleaved_minima(partial(_burn_wall, bound=True), rounds=3)))))


# -- cold ----------------------------------------------------------------------

COLD_CHILD = """
import time
t = [time.perf_counter()]
import importlib.util, json, os, resource, sys
import numpy as np
t.append(time.perf_counter())
repro_dir = importlib.util.find_spec("repro").submodule_search_locations[0]
loader = os.path.join(repro_dir, "kernels", "_lapack.py")
if os.path.exists(loader):  # it imports nothing of repro, so it runs on its own
    spec = importlib.util.spec_from_file_location("lapack_probe", loader)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
else:
    import scipy.linalg.lapack
t.append(time.perf_counter())
from repro import QRSession
t.append(time.perf_counter())
sys.path.insert(0, {root!r})
from bench.workloads import WORKLOADS, make_inputs, worker_count
w = WORKLOADS[{name!r}]
a, b = make_inputs(w, 0)
t.append(time.perf_counter())
sess = QRSession(n_procs=worker_count())
f = sess.factor(a, batch="wavefront", **w.geometry)
t.append(time.perf_counter())
f.solve(b)
t.append(time.perf_counter())
sess.close()
t.append(time.perf_counter())
# What bench/__main__.py does on its way out: stop multiprocessing's
# resource tracker, waiting for it, if anything started one.
from multiprocessing import resource_tracker
tracker = resource_tracker._resource_tracker
tracker_ran = tracker._pid is not None
tracker._stop()
t.append(time.perf_counter())
ours = [m for m in list(sys.modules.values()) if m.__name__.split(".")[0] == "repro"]
lines = 0
for m in ours:
    with open(m.__file__, "rb") as fh:
        lines += fh.read().count(b"\\n")
print(json.dumps(dict(t=t, modules=len(sys.modules), scipy_linalg="scipy.linalg" in sys.modules,
                      rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                      tracker=tracker_ran, repro_modules=len(ours), repro_lines=lines)))
"""

COLD_PHASES = ("interpreter", "NumPy", "LAPACK module", "repro", "inputs", "cold factor",
               "first solve", "close", "tracker stop", "exit")


def _bytecode_state() -> str:
    """Whether a fresh child finds ``repro``'s bytecode cached or compiles it."""
    import importlib.util

    spec = importlib.util.find_spec("repro")
    files = list(pathlib.Path(spec.submodule_search_locations[0]).rglob("*.py"))
    cached = sum(pathlib.Path(importlib.util.cache_from_source(str(f))).exists() for f in files)
    if cached == len(files):
        return "bytecode cached"
    if os.environ.get("PYTHONDONTWRITEBYTECODE"):
        return f"{cached} of {len(files)} files cached: every child compiles what it imports"
    return "bytecode written by the first child"


def probe_cold(runs=9):
    import json
    import subprocess

    root = str(pathlib.Path(__file__).resolve().parent.parent)
    for name in WORKLOADS:
        bytecode = _bytecode_state()
        code = COLD_CHILD.format(root=root, name=name)
        rows, walls, facts = {phase: [] for phase in COLD_PHASES}, [], []
        for _ in range(runs):
            t0 = time.perf_counter()
            out = subprocess.run([sys.executable, "-c", code], check=True,
                                 capture_output=True, text=True).stdout
            t1 = time.perf_counter()
            child = json.loads(out)
            stamps = [t0, *child["t"], t1]
            for phase, start, end in zip(COLD_PHASES, stamps, stamps[1:]):
                rows[phase].append(end - start)
            walls.append(t1 - t0)
            facts.append((child["modules"], child["rss_mib"], child["scipy_linalg"],
                          child["tracker"], child["repro_modules"], child["repro_lines"]))
        print(f"{name}  (ms, median of {runs} fresh processes; {bytecode})")
        for phase in COLD_PHASES:
            print(f"  {phase:16s}{statistics.median(rows[phase]) * 1e3:10.1f}")
        print(f"  {'total':16s}{statistics.median(walls) * 1e3:10.1f}")
        modules, rss, linalg, tracker, ours, lines = (statistics.median(col) for col in zip(*facts))
        print(f"  modules {modules:.0f} (repro {ours:.0f}, {lines:.0f} lines), "
              f"peak RSS {rss:.1f} MiB, scipy.linalg imported: {bool(linalg)}, "
              f"resource tracker ran: {bool(tracker)}")


def _cpu_list(cpus) -> str:
    return ",".join(map(str, sorted(cpus)))


def _last_cpu(pid) -> str:
    """The CPU process ``pid`` last ran on: field 39 of ``/proc/<pid>/stat``
    (counted after the parenthesised name, which may hold spaces)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[36]
    except (OSError, IndexError):
        return "?"


def _burn(out, n=2_000_000, cpu=None):
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    t0, x = time.perf_counter(), 0
    for i in range(n):
        x += i
    out.put(time.perf_counter() - t0)


def _burn_wall(n_workers, bound=False):
    """Wall seconds of the slowest of ``n_workers`` CPU-bound children, each
    bound to a CPU of its own (``k % n`` of this process's) when ``bound``."""
    ctx = mp.get_context("fork")
    out = ctx.Queue()
    cpus = sorted(os.sched_getaffinity(0))
    procs = [ctx.Process(target=_burn, args=(out,),
                         kwargs=dict(cpu=cpus[k % len(cpus)] if bound else None))
             for k in range(n_workers)]
    for p in procs:
        p.start()
    times = [out.get(timeout=120) for _ in procs]
    for p in procs:
        p.join(timeout=30)
    return max(times)


if __name__ == "__main__":
    probes = {"glue": probe_glue, "scaling": probe_scaling, "timeline": probe_timeline,
              "oneshot": probe_oneshot, "qt": probe_qt, "cold": probe_cold}
    if len(sys.argv) != 2 or sys.argv[1] not in probes:
        sys.exit(f"usage: fixed_cost_probes.py {{{'|'.join(probes)}}}")
    probes[sys.argv[1]]()

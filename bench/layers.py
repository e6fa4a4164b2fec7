"""The traced pass: one probe per layer, named after the repo's modules.

Each probe imports its target lazily and times calls into that layer's
public functions from outside; a probe whose target moved reports its
metrics as ``null`` with the reason and counts one failed operation, and
every other probe still runs.  The pass ends with interleaved rounds that
replay the batched pipeline by hand under the harness's own span recorder
next to untraced ``qr_factor`` / ``solve`` / LAPACK reference calls, so the
ratios below compare numbers that saw the same load.
"""

from __future__ import annotations

import math
import statistics
import tempfile
import time
import uuid

from .timing import SpanRecorder, Stopwatch, Tally, self_times, shm_segments
from .workloads import SCRATCH, Workload, make_inputs, worker_count

#: Rounds of the replay/reference loop measured whatever ``--seconds`` says.
MIN_ROUNDS = 2


class _Pass:
    """State shared by the probes of one traced pass."""

    def __init__(self, w: Workload, seed: int, seconds: float):
        import numpy as np

        self.np = np
        self.w = w
        self.g = w.geometry
        self.a, self.b = make_inputs(w, seed)
        self.procs = worker_count()
        self.tally = Tally()
        self.watch = Stopwatch(self.tally)
        #: A probe stops repeating once it has used this much time, so cheap
        #: probes are min-of-5 and second-long ones are single shots.
        self.probe_budget_s = seconds / 40.0
        self.values: dict[str, float] = {}
        self.reasons: dict[str, str] = {}
        #: Times that are not metrics themselves but feed derived ones.
        self.raw: dict[str, float] = {}
        self._schedule = None

    def timed(self, what: str, fn):
        """``(seconds, result)`` of one call; a failed call ends the probe."""
        t, out = self.watch.time(what, fn)
        if t is None:
            raise RuntimeError(self.tally.failures[-1])
        return t, out

    def best(self, what: str, fn, reps: int = 5):
        """``(min seconds, last result)`` over up to ``reps`` calls of ``fn``."""
        times = []
        while len(times) < reps and sum(times) <= self.probe_budget_s:
            t, out = self.timed(what, fn)
            times.append(t)
        return min(times), out

    def schedule(self):
        """``(layout, plans, ops, graph, wavefronts)`` of the workload, built once."""
        if self._schedule is None:
            from repro.qr.dag import op_dependency_graph
            from repro.qr.ops import expand_plans
            from repro.qr.wavefront import compute_wavefronts
            from repro.tiles.layout import TileLayout
            from repro.trees.plan import plan_all_panels

            w = self.w
            layout = TileLayout(w.m, w.n, w.nb)
            plans = plan_all_panels(w.tree, layout.mt, layout.nt, h=w.h, shifted=True)
            ops = expand_plans(layout, plans)
            graph = op_dependency_graph(ops)
            self._schedule = (layout, plans, ops, graph, compute_wavefronts(ops, graph))
        return self._schedule

    def tiled(self):
        from repro.tiles.matrix import TileMatrix

        return TileMatrix.from_dense(self.a, self.w.nb)


# -- single-shot probes --------------------------------------------------------


def probe_tiles(p: _Pass) -> dict:
    from repro.tiles.matrix import TileMatrix
    from repro.tiles.shared import SharedTileStore

    ops = p.schedule()[2]
    tm = p.tiled()

    def shared_create():
        store = SharedTileStore.create(tm, ops, p.w.ib)
        store.close()
        store.unlink()

    return {
        "tiles.from_dense_s": p.best("tiles.from_dense", lambda: TileMatrix.from_dense(p.a, p.w.nb))[0],
        "tiles.to_dense_s": p.best("tiles.to_dense", tm.to_dense)[0],
        "tiles.shared_create_s": p.best("tiles.shared_create", shared_create)[0],
        "tiles.bytes": 8 * p.w.m * p.w.n,  # computed from the array size
    }


def probe_trees(p: _Pass) -> dict:
    from repro.trees.plan import plan_all_panels
    from repro.trees.stats import summarize_plans

    layout = p.schedule()[0]
    t, plans = p.best(
        "trees.plan",
        lambda: plan_all_panels(p.w.tree, layout.mt, layout.nt, h=p.w.h, shifted=True),
    )
    stats = summarize_plans(plans)
    return {"trees.plan_s": t, "trees.ts_elims": stats.ts, "trees.tt_elims": stats.tt}


def probe_schedule(p: _Pass) -> dict:
    from repro.kernels.flops import kernel_flops, qr_useful_flops
    from repro.qr.dag import op_dependency_graph
    from repro.qr.ops import expand_plans
    from repro.qr.wavefront import compute_wavefronts, wavefront_stats

    layout, plans, ops, graph, wavefronts = p.schedule()
    per_op = [kernel_flops(op.kind, op.m2, op.k, op.q, p.w.ib) for op in ops]
    flops = sum(per_op)
    critical = op_dependency_graph(ops, durations=per_op).critical_path()
    stats = wavefront_stats(ops, wavefronts)
    return {
        "schedule.expand_s": p.best("schedule.expand", lambda: expand_plans(layout, plans))[0],
        "schedule.dag_s": p.best("schedule.dag", lambda: op_dependency_graph(ops))[0],
        "schedule.wavefronts_s": p.best(
            "schedule.wavefronts", lambda: compute_wavefronts(ops, graph))[0],
        "schedule.ops": len(ops),
        "schedule.flops": flops,
        "schedule.useful_flops": qr_useful_flops(p.w.m, p.w.n),
        "schedule.critical_path_flops": critical,
        "schedule.speedup_ceiling": flops / critical,
        "schedule.wavefronts": stats["n_wavefronts"],
        "schedule.mean_width": stats["mean_width"],
        "schedule.max_width": stats["max_width"],
        "schedule.batched_fraction": stats["batched_fraction"],
    }


def _stack_depth(ops, wavefronts) -> int:
    """Median size of the same-signature groups the batched executor fuses."""
    sizes = []
    for wf in wavefronts:
        groups: dict[tuple, int] = {}
        for idx in wf:
            op = ops[idx]
            key = (op.kind, op.m2, op.k, op.q)
            groups[key] = groups.get(key, 0) + 1
        sizes.extend(groups.values())
    return max(2, int(statistics.median(sizes)))


def probe_kernels(p: _Pass) -> dict:
    from repro import kernels as K
    from repro.kernels import batched as BK

    np, nb, ib = p.np, p.w.nb, p.w.ib
    _, _, ops, _, wavefronts = p.schedule()
    depth = _stack_depth(ops, wavefronts)
    rng = np.random.default_rng(0)

    def tiles():
        return rng.standard_normal((depth, nb, nb))

    # Operands in the state the executors see them: reflectors and T factors
    # produced by the factor kernels themselves.
    v_ge = tiles()
    t_ge = BK.geqrt_batched(v_ge, ib)
    r = np.triu(v_ge)
    v_ts, r_ts = tiles(), r.copy()
    t_ts = BK.tsqrt_batched(r_ts, v_ts, ib)
    v_tt, r_tt = np.triu(tiles()), r.copy()
    tri = v_tt.copy()
    t_tt = BK.ttqrt_batched(r_tt, v_tt, ib)
    c1, c2 = tiles(), tiles()

    # kind -> (fresh arguments, trailing ib argument); factor kernels
    # overwrite their operands, so each timed call gets its own copies.
    cases = {
        "geqrt": (lambda: (tiles(),), (ib,)),
        "ormqr": (lambda: (v_ge, t_ge, c1), ()),
        "tsqrt": (lambda: (r.copy(), tiles()), (ib,)),
        "tsmqr": (lambda: (v_ts, t_ts, c1, c2), ()),
        "ttqrt": (lambda: (r.copy(), tri.copy()), (ib,)),
        "ttmqr": (lambda: (v_tt, t_tt, c1, c2), ()),
    }
    def per_call(what, fn, fresh, calls):
        """Min over 5 samples of ``calls`` back-to-back calls on fresh operands."""
        samples = []
        for _ in range(5):
            batch = [fresh() for _ in range(calls)]
            samples.append(p.timed(what, lambda: [fn(*args) for args in batch])[0] / calls)
        return min(samples)

    out: dict = {"kernels.stack_depth": depth}
    seconds_per_op: dict[str, tuple[float, float]] = {}
    for kind, (fresh, tail) in cases.items():
        flops = K.kernel_flops(kind.upper(), nb, nb, nb, ib)
        scalar, stacked = getattr(K, kind), getattr(BK, kind + "_batched")
        t1 = per_call(
            f"kernels.{kind}", lambda *stacks: scalar(*(x[0] for x in stacks), *tail), fresh, 3)
        tb = per_call(
            f"kernels.{kind}_batched", lambda *stacks: stacked(*stacks, *tail), fresh, 1)
        seconds_per_op[kind.upper()] = (t1, tb / depth)
        out[f"kernels.{kind}_gflops"] = flops / t1 / 1e9
        out[f"kernels.{kind}_batched_gflops"] = flops * depth / tb / 1e9

    # Same-shape matmul measured in the same run: the roofline the kernel
    # rates above are read against.
    x, y = c1[0], c2[0]
    mm = 2.0 * nb**3

    def matmul_loop(u, v, n):
        for _ in range(n):
            np.matmul(u, v)

    out["kernels.matmul_gflops"] = mm / (p.best("matmul", lambda: matmul_loop(x, y, 50))[0] / 50) / 1e9
    out["kernels.matmul_batched_gflops"] = (
        mm * depth / (p.best("matmul batched", lambda: matmul_loop(c1, c2, 10))[0] / 10) / 1e9
    )
    counts: dict[str, int] = {}
    for op in ops:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    out["kernels.model_serial_s"] = sum(n * seconds_per_op[k][0] for k, n in counts.items())
    out["kernels.model_batched_s"] = sum(n * seconds_per_op[k][1] for k, n in counts.items())
    return out


def probe_executor(p: _Pass) -> dict:
    from repro import QRSession, qr_factor
    from repro.qr.reference import execute_ops

    ops = p.schedule()[2]
    tm = p.tiled()
    serial_s, _ = p.timed("executor.serial", lambda: execute_ops(tm, ops, p.w.ib))
    p.raw["serial_s"], _ = p.timed("serial", lambda: qr_factor(p.a, **p.g))
    p.raw["parallel_s"], f = p.timed(
        "parallel", lambda: qr_factor(p.a, backend="parallel", n_procs=p.procs, **p.g))
    st = f.stats
    busy = list(st.per_worker_busy_s.values())
    mean_busy = sum(busy) / len(busy) if busy else 0.0
    with QRSession(n_procs=p.procs) as sess:
        def warm():
            return sess.factor(p.a, batch="wavefront", **p.g)

        cold_s, _ = p.timed("session cold", warm)
        p.raw["session_warm_s"] = min(p.timed("session warm", warm)[0] for _ in range(2))
        hits = sess.health()["plan_cache"]["hits"]
    return {
        "executor.serial_s": serial_s,
        "executor.parallel_elapsed_s": st.elapsed_s,
        "executor.parallel_spawn_s": st.spawn_s,
        "executor.parallel_dispatch_s": st.dispatch_s,
        "executor.parallel_busy_fraction": mean_busy / st.elapsed_s if st.elapsed_s else 0.0,
        "executor.parallel_imbalance": max(busy) / mean_busy if mean_busy else 1.0,
        # 1 when f.stats.mode says real worker processes ran, 0 on serial fallback.
        "executor.parallel_mode": 1.0 if st.mode == "parallel" else 0.0,
        "executor.session_cold_s": cold_s,
        "executor.session_plan_hits": hits,
    }


def probe_apply(p: _Pass) -> dict:
    from repro.qr.wavefront import execute_ops_batched

    _, _, ops, _, wavefronts = p.schedule()
    factors = execute_ops_batched(p.tiled(), ops, p.w.ib, wavefronts=wavefronts)
    return {
        "apply.qt_s": p.best("apply.qt", lambda: factors.apply_qt(p.b))[0],
        "apply.r_s": p.best("apply.r", factors.r_factor)[0],
        "apply.q_thin_s": p.best("apply.q_thin", factors.q_thin)[0],
    }


def probe_pulsar(p: _Pass) -> dict:
    from repro import qr_factor
    from repro.qr.vsa3d import build_qr_vsa

    plans = p.schedule()[1]
    tm = p.tiled()
    build_s, _ = p.timed(
        "pulsar.build", lambda: build_qr_vsa(tm, plans, ib=p.w.ib, total_workers=2))
    run_s, f = p.timed(
        "pulsar.run",
        lambda: qr_factor(p.a, backend="pulsar", n_nodes=2, workers_per_node=1, **p.g))
    st = f.stats
    # Words the TSQR lower bound of arXiv:0809.2407 allows: (n^2/2) log2(nodes).
    bound_words = p.w.n**2 / 2.0 * math.log2(st.n_nodes)
    return {
        "pulsar.build_s": build_s,
        "pulsar.run_s": run_s,
        "pulsar.firings": st.firings,
        "pulsar.messages": st.messages_sent,
        "pulsar.bytes": st.bytes_sent,
        "pulsar.us_per_firing": st.elapsed_s / st.firings * 1e6,
        "pulsar.words_over_tsqr_bound": st.bytes_sent / 8.0 / bound_words,
    }


def probe_obs(p: _Pass) -> dict:
    """Telemetry-on times; the rounds turn them into ratios over ``batched_s``."""
    from repro import qr_factor

    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        trace = dict(trace=f"{tmp}/t.json")
        full = dict(trace, metrics=f"{tmp}/m.jsonl", events=f"{tmp}/e.jsonl",
                    registry=f"{tmp}/r.jsonl")
        # Unmeasured: the first telemetry-on call imports the exporters.
        qr_factor(p.a[: 2 * p.w.nb, : p.w.nb], **full, **p.g)
        p.raw["obs.trace"], _ = p.best(
            "obs.trace", lambda: qr_factor(p.a, backend="batched", **trace, **p.g), 2)
        p.raw["obs.full"], _ = p.best(
            "obs.full", lambda: qr_factor(p.a, backend="batched", **full, **p.g), 2)
    return {}


def probe_resilience(p: _Pass) -> dict:
    """Guarded and checkpointed times (ratios are formed after the rounds)."""
    from repro import FaultPlan, qr_factor
    from repro.qr.persist import CheckpointStore

    n_ops = len(p.schedule()[2])
    plan = FaultPlan(flip_rate=1e-12)
    if any(plan.flip(i) for i in range(n_ops)):
        raise RuntimeError("the armed-but-idle fault plan would inject a flip")
    p.raw["resilience.sdc_guard"], _ = p.best(
        "resilience.sdc_guard",
        lambda: qr_factor(p.a, backend="batched", fault_plan=plan, **p.g), 2)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        stores = []

        def checkpointed():
            # Cadence by ops only, so the bytes written repeat exactly.
            stores.append(CheckpointStore(
                f"{tmp}/run.ckpt.npz", every_ops=max(1, n_ops // 2), every_s=1e9))
            return qr_factor(p.a, backend="batched", checkpoint=stores[-1], **p.g)

        p.raw["resilience.checkpoint"], _ = p.best("resilience.checkpoint", checkpointed, 2)
    return {"resilience.checkpoint_bytes": stores[-1].bytes_written}


def probe_analysis(p: _Pass) -> dict:
    from repro.analysis.races import certify_schedule

    _, _, ops, graph, wavefronts = p.schedule()
    t, cert = p.best(
        "analysis.certify", lambda: certify_schedule(ops, graph=graph, wavefronts=wavefronts), 2)
    p.tally.check(cert.ok, "schedule failed certification")
    return {"analysis.certify_s": t}


def probe_dessim(p: _Pass) -> dict:
    from repro.dessim import simulate
    from repro.machine.model import kraken
    from repro.qr.dag import build_qr_taskgraph

    layout, plans = p.schedule()[:2]
    build_s, qg = p.best(
        "dessim.build", lambda: build_qr_taskgraph(layout, plans, kraken(), 24, p.w.ib), 2)
    sim_s, res = p.best("dessim.simulate", lambda: simulate(qg.graph, n_workers=qg.n_workers), 2)
    return {
        "dessim.build_s": build_s,
        "dessim.simulate_s": sim_s,
        "dessim.tasks_per_s": res.n_tasks / sim_s,
        "dessim.model_gflops": res.gflops(qg.useful_flops),
    }


#: Layer name -> probe; the name is the prefix of the metrics it reports.
PROBES = {
    "schedule": probe_schedule,
    "trees": probe_trees,
    "tiles": probe_tiles,
    "kernels": probe_kernels,
    "executor": probe_executor,
    "apply": probe_apply,
    "pulsar": probe_pulsar,
    "obs": probe_obs,
    "resilience": probe_resilience,
    "analysis": probe_analysis,
    "dessim": probe_dessim,
}


# -- the traced replay ---------------------------------------------------------


def replay(p: _Pass, rec: SpanRecorder):
    """The batched pipeline and the solve, layer by layer, under spans.

    Returns the wall time around both root spans and the solution.
    """
    import scipy.linalg

    from repro.qr.dag import op_dependency_graph
    from repro.qr.ops import expand_plans
    from repro.qr.wavefront import compute_wavefronts, execute_ops_batched
    from repro.tiles.matrix import TileMatrix
    from repro.trees.plan import plan_all_panels

    w = p.w
    t0 = time.perf_counter()
    with rec.span("factor"):
        with rec.span("tiles.from_dense"):
            tm = TileMatrix.from_dense(p.a, w.nb)
        with rec.span("trees.plan"):
            plans = plan_all_panels(w.tree, tm.mt, tm.nt, h=w.h, shifted=True)
        with rec.span("schedule.expand"):
            ops = expand_plans(tm.layout, plans)
        with rec.span("schedule.dag"):
            graph = op_dependency_graph(ops)
        with rec.span("schedule.wavefronts"):
            wavefronts = compute_wavefronts(ops, graph)
        with rec.span("executor.batched"):
            factors = execute_ops_batched(tm, ops, w.ib, wavefronts=wavefronts)
        with rec.span("apply.r"):
            r = factors.r_factor()
    with rec.span("solve"):
        with rec.span("apply.qt"):
            y = factors.apply_qt(p.b)[: w.n]
        with rec.span("solve.triangular"):
            x = scipy.linalg.solve_triangular(r, y, lower=False)
    return time.perf_counter() - t0, x


def _rounds(p: _Pass, seconds: float, started: float, rec: SpanRecorder):
    """Interleaved reference/replay rounds until ``seconds`` have passed.

    Returns the per-name minima, the summed wall time of all replays and
    the spans of the fastest one, or ``None`` when a call failed (already
    on the tally).
    """
    from repro import qr_factor

    np = p.np
    best: dict[str, float] = {}

    def keep(name, t):
        best[name] = min(t, best.get(name, t))

    n_rounds, round_s, walls = 0, 0.0, 0.0
    x_ref, fastest = None, []
    try:
        while n_rounds < MIN_ROUNDS or time.perf_counter() - started + round_s / 2 < seconds:
            t_round = time.perf_counter()
            t, f = p.timed("batched", lambda: qr_factor(p.a, backend="batched", **p.g))
            keep("batched_s", t)
            t, x = p.timed("solve", lambda: f.solve(p.b))
            keep("solve_s", t)
            x_ref = x if x_ref is None else x_ref
            keep("lapack_s", p.timed("lapack", lambda: np.linalg.qr(p.a, mode="r"))[0])
            first = len(rec.spans)
            _, (wall, x) = p.timed("replay", lambda: replay(p, rec))
            p.tally.check(np.array_equal(x, x_ref), "replayed pipeline disagrees with qr_factor")
            if wall <= best.get("trace.wall_s", wall):
                fastest = rec.spans[first:]
            keep("trace.wall_s", wall)
            walls += wall
            for s in rec.spans[first:]:
                if s["name"] == "executor.batched":
                    keep("executor.batched_s", s["end"] - s["start"])
            n_rounds += 1
            round_s = time.perf_counter() - t_round
    except RuntimeError:
        return None
    return best, walls, fastest


def _derive(p: _Pass, best: dict, walls: float, rec: SpanRecorder) -> None:
    """Metrics that need numbers from more than one probe."""
    v, raw = p.values, p.raw
    batched_s, solve_s, lapack_s = best["batched_s"], best["solve_s"], best["lapack_s"]
    v["executor.batched_s"] = best["executor.batched_s"]
    v["baseline.lapack_s"] = lapack_s
    v["baseline.batched_over_lapack"] = batched_s / lapack_s
    ours = [batched_s] + [raw[k] for k in ("serial_s", "parallel_s", "session_warm_s") if k in raw]
    v["baseline.best_over_lapack"] = min(ours) / lapack_s
    for name in ("obs.trace", "obs.full", "resilience.sdc_guard", "resilience.checkpoint"):
        if name in raw:
            v[name + "_ratio"] = raw[name] / batched_s
    if "executor.serial_s" in v and "kernels.model_serial_s" in v:
        over = v["executor.serial_s"] - v["kernels.model_serial_s"]
        v["executor.serial_overhead_s"] = over
        v["executor.serial_us_per_op"] = over / len(p.schedule()[2]) * 1e6
    if "kernels.model_batched_s" in v:
        v["executor.batched_overhead_s"] = v["executor.batched_s"] - v["kernels.model_batched_s"]
    planning = ("tiles.from_dense_s", "trees.plan_s", "schedule.expand_s",
                "schedule.dag_s", "schedule.wavefronts_s")
    if all(name in v for name in planning):
        glue = batched_s - sum(v[name] for name in planning) - v["executor.batched_s"]
        v["executor.api_glue_s"] = glue
        v["trace.unattributed_share"] = abs(glue) / batched_s
    v["trace.wall_s"] = best["trace.wall_s"]
    v["trace.overhead_ratio"] = best["trace.wall_s"] / (batched_s + solve_s)
    try:
        attributed = sum(self_times(rec.spans).values())
    except ValueError as exc:
        p.tally.check(False, f"span tree: {exc}")
    else:
        p.tally.check(
            abs(attributed - walls) <= 0.02 * walls,
            f"layer self times sum to {attributed:.4f} s, replay walls to {walls:.4f} s")


def run(w: Workload, seed: int, seconds: float, declared: list[str]) -> dict:
    """The traced pass over workload ``w``.

    ``declared`` are the per-layer metric names of ``BENCHMARK.json``: the
    ones a failed probe reports as missing, with its reason.
    """
    started = time.perf_counter()
    before = shm_segments()
    SCRATCH.mkdir(exist_ok=True)
    p = _Pass(w, seed, seconds)
    for layer, probe in PROBES.items():
        try:
            p.values.update(probe(p))
        except Exception as exc:  # boundary: one moved layer must not end the pass
            reason = f"{type(exc).__name__}: {exc}"
            p.tally.check(False, f"probe {layer}: {reason}")
            p.reasons.update((n, reason) for n in declared if n.startswith(layer + "."))
    rec = SpanRecorder(run_id=f"{w.name}-{uuid.uuid4().hex[:12]}")
    measured = _rounds(p, seconds, started, rec)
    spans = []
    if measured is not None:
        best, walls, spans = measured
        _derive(p, best, walls, rec)
    leaked = sorted(shm_segments() - before)
    p.tally.check(not leaked, f"leaked /dev/shm segments: {leaked}")
    for name in declared:
        if name not in p.values:
            p.reasons.setdefault(name, "not measured: a call it depends on failed")
    return {
        "values": p.values,
        "reasons": p.reasons,
        "attempted": p.tally.attempted,
        "failed": p.tally.failed,
        "failures": p.tally.failures,
        "run_id": rec.run_id,
        # Every replay is checked above; the file keeps the fastest one's spans.
        "replays": sum(s["name"] == "factor" for s in rec.spans),
        "spans": spans,
    }

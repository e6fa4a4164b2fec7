"""Benchmark trajectory and regression checks behind ``tools/bench_gate.py``.

The trajectory file (``results/BENCH_qr.json``) is an append-only record:
one entry per gate run, stamped with the commit hash, the host fingerprint,
the pinned configuration, measured wall times, and deterministic derived
counters.  The gate compares a fresh entry against the **minimum** of the
most recent entries with the *same configuration on the same host* — the
minimum, so one slow historical run (a loaded CI machine, an injected
failure) can never lower the bar — and fails on:

* a wall time above ``baseline * (1 + tolerance)`` (the noise band), or
* any drift in the derived counters (op/flop totals are schedule facts:
  they must be *exactly* reproducible, and a change means the generated
  operation list itself changed).

Cross-host comparisons are meaningless for wall time, so entries from a
different fingerprint are recorded but never used as a baseline; the first
run on a new host passes and seeds its baseline.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

from ..qr.api import qr_factor
from ..util.errors import ConfigurationError

__all__ = [
    "run_qr_benchmark",
    "load_trajectory",
    "append_entry",
    "baseline_for",
    "check_regression",
    "SMOKE_CONFIG",
    "FULL_CONFIG",
]

#: Tiny pinned problem for CI (seconds end to end).
SMOKE_CONFIG = dict(m=480, n=96, nb=16, ib=8, tree="hier", h=2, procs=2, repeats=2)
#: Developer-machine pinned problem (tens of seconds).
FULL_CONFIG = dict(m=4096, n=512, nb=64, ib=32, tree="hier", h=4, procs=4, repeats=3)

#: Wall-time keys subject to the noise band.
TIME_KEYS = (
    "serial_s", "batched_s", "parallel_s", "session_warm_s", "checkpoint_s",
    "telemetry_off_s",
)
#: Counter keys that must reproduce exactly.
COUNTER_KEYS = ("ops.total", "flops.total")


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except OSError:
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def host_fingerprint() -> dict:
    """What must match for two wall times to be comparable."""
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def run_qr_benchmark(
    *,
    m: int,
    n: int,
    nb: int,
    ib: int,
    tree: str = "hier",
    h: int = 4,
    procs: int = 2,
    repeats: int = 2,
    seed: int = 0,
) -> dict:
    """Factor one pinned matrix on the serial and parallel backends.

    Returns a trajectory entry: best-of-``repeats`` wall time per backend
    (the minimum is the least noisy location estimator for wall clocks),
    derived counters from the operation list, and enough identity (commit,
    host, config) for :func:`baseline_for` to find comparable history.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    kw = dict(nb=nb, ib=ib, tree=tree, h=h)

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    serial_s = best(lambda: qr_factor(a, **kw))
    batched_s = best(lambda: qr_factor(a, **kw, backend="batched"))
    f = [None]

    def run_parallel():
        f[0] = qr_factor(a, **kw, backend="parallel", n_procs=procs)

    # Plain vs checkpointed parallel runs, *interleaved* (docs/robustness.md):
    # the checkpointed run adds a mid-run snapshot every ~half the schedule
    # plus the final one, and ``checkpoint_overhead_s`` is their difference
    # — so both minima must sample the same machine-load conditions.
    # Timing the two in separate loops lets load drift between them read as
    # checkpoint overhead (or hide it).
    import tempfile

    from ..qr.persist import CheckpointStore

    run_parallel()  # warm-up (also yields n_ops for the snapshot cadence)
    n_ops = int(round(f[0].counters["ops.total"]))
    with tempfile.TemporaryDirectory() as tmp:
        ck_path = os.path.join(tmp, "bench.ckpt.npz")

        def run_checkpointed():
            ck = CheckpointStore(ck_path, every_ops=max(1, n_ops // 2))
            qr_factor(a, **kw, backend="parallel", n_procs=procs, checkpoint=ck)

        plain_times, ckpt_times = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            run_parallel()
            plain_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            run_checkpointed()
            ckpt_times.append(time.perf_counter() - t0)
        parallel_s = min(plain_times)
        checkpoint_s = min(ckpt_times)

    # Warm persistent-session calls (docs/sessions.md): one unmeasured cold
    # call pays spawn + plan derivation, then the measured calls reuse the
    # pool, arena, and cached schedule.
    from ..qr.session import QRSession

    with QRSession(n_procs=procs) as sess:
        sess.factor(a, **kw)  # cold: spawn pool, build plan cache entry
        session_warm_s = best(lambda: sess.factor(a, **kw))

    # Telemetry-disabled overhead microbench: a burst of small serial
    # factorizations where per-call fixed cost (run-id minting, trace-context
    # management, disabled-recorder checks) is a visible fraction of the wall
    # time.  Gated by the same noise band as the other wall times, so growth
    # in the tracing-off fast path fails the gate even when the big pinned
    # problems hide it under kernel time.
    small = rng.standard_normal((4 * nb, 2 * nb))
    small_kw = dict(nb=nb, ib=ib, tree=tree, h=min(h, 2))

    def run_small_burst():
        for _ in range(5):
            qr_factor(small, **small_kw)

    telemetry_off_s = best(run_small_burst)

    counters = f[0].counters
    return {
        "written": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "commit": _git_commit(),
        "host": host_fingerprint(),
        "config": dict(m=m, n=n, nb=nb, ib=ib, tree=tree, h=h, procs=procs),
        "measured": {
            "serial_s": round(serial_s, 6),
            "batched_s": round(batched_s, 6),
            "parallel_s": round(parallel_s, 6),
            "session_warm_s": round(session_warm_s, 6),
            "checkpoint_s": round(checkpoint_s, 6),
            "telemetry_off_s": round(telemetry_off_s, 6),
            "parallel_mode": f[0].stats.mode if f[0].stats else "parallel",
        },
        # Rounded so summation-order float noise can't trip the exact-match
        # drift check (op/flop totals are integral in exact arithmetic).
        "counters": {k: int(round(counters[k])) for k in COUNTER_KEYS},
        "derived": {
            "speedup": round(serial_s / parallel_s, 3) if parallel_s > 0 else None,
            "batched_speedup": (
                round(serial_s / batched_s, 3) if batched_s > 0 else None
            ),
            "session_speedup": (
                round(parallel_s / session_warm_s, 3)
                if session_warm_s > 0 else None
            ),
            "serial_gflops": round(counters["flops.total"] / serial_s / 1e9, 3),
            "checkpoint_overhead_s": round(checkpoint_s - parallel_s, 6),
        },
    }


def load_trajectory(path: str | os.PathLike) -> list[dict]:
    """All recorded entries, oldest first (empty when the file is missing)."""
    path = Path(path)
    if not path.exists():
        return []
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ConfigurationError(f"{path} is not a benchmark trajectory file")
    return doc["entries"]


def append_entry(path: str | os.PathLike, entry: dict) -> None:
    """Append one entry to the trajectory (creates the file if needed)."""
    path = Path(path)
    entries = load_trajectory(path)
    entries.append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"schema": 1, "entries": entries}, indent=1) + "\n")


def _comparable(old: dict, new: dict) -> bool:
    return old.get("config") == new.get("config") and old.get("host") == new.get("host")


def baseline_for(entries: list[dict], entry: dict, last_k: int = 5) -> dict | None:
    """Baseline from the newest ``last_k`` comparable entries, or ``None``.

    Wall-time baselines are the per-key minimum (robust against recorded
    regressions and injected slowdowns); counters come from the newest
    comparable entry (they must all agree anyway — drift fails the gate).
    """
    same = [e for e in entries if _comparable(e, entry)]
    if not same:
        return None
    recent = same[-last_k:]
    times = {
        key: min(e["measured"][key] for e in recent if key in e.get("measured", {}))
        for key in TIME_KEYS
        if any(key in e.get("measured", {}) for e in recent)
    }
    return {"times": times, "counters": recent[-1].get("counters", {}), "n": len(recent)}


def check_regression(entry: dict, baseline: dict, *, tolerance: float = 0.5) -> list[str]:
    """Problems with ``entry`` vs ``baseline``; empty means the gate passes.

    Two checks, both against history on the same host and config: every
    wall time within ``tolerance`` of the baseline minimum, and the derived
    op/flop counters exactly equal.

    There are no absolute floors between the entry's own times.  Relations
    such as "batched <= serial", "warm session <= one-shot parallel" or
    "checkpointed <= 1.15x parallel" hold only while kernel time dominates
    the pinned problem; with LAPACK factor kernels it does not, and on the
    smoke config those ratios read 0.79-0.95x, 0.95-2.12x and 1.05-1.29x
    run to run on unchanged code (docs/performance.md has the table).
    Cross-backend relations are measured by ``python3 -m bench`` against
    LAPACK, not gated here.
    """
    problems = []
    for key in TIME_KEYS:
        new = entry["measured"].get(key)
        base = baseline["times"].get(key)
        if new is None or base is None:
            continue
        if new > base * (1.0 + tolerance):
            problems.append(
                f"{key} regressed: {new:.4f}s vs baseline {base:.4f}s "
                f"(+{new / base - 1:.0%}, noise band +{tolerance:.0%})"
            )
    for key in COUNTER_KEYS:
        new = entry["counters"].get(key)
        base = baseline["counters"].get(key)
        if base is not None and new != base:
            problems.append(
                f"counter {key} drifted: {new} vs baseline {base} "
                "(the generated operation list changed)"
            )
    return problems

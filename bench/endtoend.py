"""The untraced pass: the end-to-end metrics a user of ``repro`` would see.

Only the public surface is touched here — ``repro.qr_factor``,
``repro.QRSession`` and ``QRFactorization.R / solve / residuals`` — so a
refactor behind that surface cannot break these numbers.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time

from .timing import Stopwatch, Tally, shm_segments, summarize
from .workloads import ROOT, Workload, make_inputs, worker_count

EPS = 2.0**-52
#: Fresh interpreters timed for ``setup_s`` (its value is their median).
SETUP_PROBES = 3
#: Rounds measured even when ``--seconds`` is shorter than that takes.
MIN_ROUNDS = 3

#: Our timed calls; each is reported as a multiple of a LAPACK factorization.
OURS = ("serial", "batched", "parallel", "session_warm", "solve")


def setup_probe(w: Workload, seed: int) -> None:
    """What a fresh process pays before its first warm call: imports (done
    by the caller's interpreter start), inputs, pool spawn, plan derivation,
    the cold factorization, and the first solve."""
    from repro import QRSession

    a, b = make_inputs(w, seed)
    with QRSession(n_procs=worker_count()) as sess:
        sess.factor(a, batch="wavefront", **w.geometry).solve(b)


def _time_setup(w: Workload, seed: int, watch: Stopwatch) -> list[float]:
    cmd = [sys.executable, "-m", "bench", "--setup-probe",
           "--workload", w.name, "--seed", str(seed)]
    samples = []
    for k in range(SETUP_PROBES):
        t, _ = watch.time(
            f"setup probe {k}",
            lambda: subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL),
        )
        if t is not None:
            samples.append(t)
    return samples


def _rel_diff(x, ref) -> float:
    import numpy as np

    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def run(w: Workload, seed: int, seconds: float, slowdown: float = 1.0) -> dict:
    """Measure workload ``w``: its metrics, the operation tally, and the
    plain seconds of every timed call."""
    before = shm_segments()
    tally = Tally()
    watch = Stopwatch(tally, slowdown)
    reference_watch = Stopwatch(tally)  # an injected slowdown is ours, not LAPACK's
    setup_samples = _time_setup(w, seed, watch)

    import numpy as np

    from repro import QRSession, qr_factor

    a, b = make_inputs(w, seed)
    procs = worker_count()
    g = w.geometry
    # Seconds of every timed call, and each call of ours as a multiple of
    # the LAPACK reference timed in the same round.
    samples: dict[str, list[float]] = {name: [] for name in (*OURS, "lapack")}
    ratios: dict[str, list[float]] = {name: [] for name in OURS}
    accuracy = {"factorization": 0.0, "orthogonality": 0.0}

    with QRSession(n_procs=procs) as sess:
        backends = {
            "serial": lambda: qr_factor(a, backend="serial", **g),
            "batched": lambda: qr_factor(a, backend="batched", **g),
            "parallel": lambda: qr_factor(a, backend="parallel", n_procs=procs, **g),
            "session_warm": lambda: sess.factor(a, batch="wavefront", **g),
        }

        # Warm-up: one unmeasured call per backend.  It fills caches and
        # yields the reference factors every later output is checked against.
        warm = {name: watch.time(f"warm-up {name}", fn)[1] for name, fn in backends.items()}
        if any(f is None for f in warm.values()):
            return _result(samples, ratios, setup_samples, accuracy, tally, before)
        r_ref = warm["serial"].R
        for name in ("batched", "parallel", "session_warm"):
            tally.check(np.array_equal(warm[name].R, r_ref), f"{name} R != serial R")
        factors = warm["batched"]
        r_lapack = np.linalg.qr(a, mode="r")
        tally.check(_rel_diff(np.abs(r_ref), np.abs(r_lapack)) <= 1e-10, "|R| vs LAPACK")
        x_ref = factors.solve(b)
        x_lapack = np.linalg.lstsq(a, b, rcond=None)[0]
        tally.check(_rel_diff(x_ref, x_lapack) <= 1e-8, "solve vs numpy.linalg.lstsq")
        accuracy = factors.residuals(a)
        for key, val in accuracy.items():
            tally.check(val <= 1000 * EPS, f"{key} residual {val:.3e} > 1000 eps")

        def lapack_block():
            for _ in range(w.lapack_calls):
                r = np.linalg.qr(a, mode="r")
            return r

        def sample(name, fn, output, reference, calls=w.calls, watch=watch) -> bool:
            """Time ``fn`` and check its output, ``calls`` times; false on a failure."""
            for _ in range(calls):
                t, out = watch.time(name, fn)
                if t is None or not tally.check(
                        np.array_equal(output(out), reference),
                        f"{name}: output differs from warm-up"):
                    return False
                samples[name].append(t)
            return True

        # Interleaved rounds: each round times every call once (``w.calls``
        # times), in fixed order, then the LAPACK reference, so that all of
        # them sample the same load conditions.
        start = time.perf_counter()
        round_s = 0.0
        n_rounds = 0
        while n_rounds < MIN_ROUNDS or time.perf_counter() - start + round_s / 2 < seconds:
            t_round = time.perf_counter()
            first = len(samples["solve"])
            ok = [sample(name, fn, lambda f: f.R, r_ref) for name, fn in backends.items()]
            ok.append(sample("solve", lambda: factors.solve(b), lambda x: x, x_ref))
            ok.append(sample("lapack", lapack_block, np.abs, np.abs(r_lapack), calls=1,
                             watch=reference_watch))
            if not all(ok):
                break  # a failing system is not worth another --seconds of timing
            samples["lapack"][-1] /= w.lapack_calls  # seconds of one factorization
            lapack_s = samples["lapack"][-1]
            for name in OURS:
                ratios[name] += [t / lapack_s for t in samples[name][first:]]
            n_rounds += 1
            round_s = time.perf_counter() - t_round

    return _result(samples, ratios, setup_samples, accuracy, tally, before)


def _result(samples, ratios, setup_samples, accuracy, tally, shm_before) -> dict:
    leaked = sorted(shm_segments() - shm_before)
    tally.check(not leaked, f"leaked /dev/shm segments: {leaked}")
    metrics: dict[str, dict] = {}
    if setup_samples:
        stats = summarize(setup_samples)
        metrics["setup_s"] = dict(stats, value=stats["median"], unit="s")
    for name, vals in ratios.items():
        if len(vals) >= 2:
            # The lower quartile: load only ever adds time to a call of ours,
            # so the quiet quarter of the rounds is the signal (bench/README.md).
            stats = summarize(vals)
            metrics[f"{name}_vs_lapack"] = dict(stats, value=stats["q1"], unit="ratio")
    metrics["backward_error_eps"] = {"value": accuracy["factorization"] / EPS, "unit": "eps"}
    metrics["orthogonality_eps"] = {"value": accuracy["orthogonality"] / EPS, "unit": "eps"}
    # Linux reports ru_maxrss in KiB.
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": rss_kib / 1024.0, "unit": "MiB"}
    return {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        # Not metrics of record (they follow the host's load phases), but what
        # a reader wants next to the ratios: plain seconds of every call.
        "seconds": {name: summarize(vals) for name, vals in samples.items() if vals},
    }

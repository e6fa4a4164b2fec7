"""One measured run (``run_one``) and the whole suite around it (``run_suite``)."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from .workloads import ROOT, SCRATCH, get_workload, worker_count


def fingerprint(seed: int) -> dict:
    """What must match for two result files to be comparable, plus identity."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "workers": worker_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "seed": seed,
    }


#: Fingerprint fields that must agree before two files are compared.
HOST_KEYS = ("usable_cpus", "workers", "blas", "blas_threads", "machine", "python", "numpy")


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: int,
            detail: str | None, slowdown: float) -> int:
    """Measure one workload in this process and print the contract line.

    The last line of standard output is one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics`` — every end-to-end metric of
    ``BENCHMARK.json`` for ``--trace 0``, every per-layer one for ``--trace 1``.
    """
    w = get_workload(workload)
    declared = spec["per_layer" if trace else "end_to_end"]
    if trace:
        from . import layers

        res = layers.run(w, seed, seconds, [m["name"] for m in declared])
        metrics = {
            m["name"]: {"value": res["values"].get(m["name"]), "unit": m["unit"]}
            for m in declared
        }
        for name, reason in res["reasons"].items():
            metrics[name]["reason"] = reason
    else:
        from . import endtoend

        res = endtoend.run(w, seed, seconds, slowdown)
        metrics = {m["name"]: res["metrics"].get(m["name"], {"value": None, "unit": m["unit"]})
                   for m in declared}
    missing = [name for name, m in metrics.items() if m["value"] is None]
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": res["failed"] == 0 and not missing,
        "attempted": res["attempted"], "failed": res["failed"],
        "failures": res["failures"], "metrics": metrics,
    }
    for name, m in metrics.items():
        print(f"{name:36s} {_fmt(m['value']):>14s} {m['unit']:6s}"
              + (f"  ({m['reason']})" if "reason" in m else ""))
    for name, sec in res.get("seconds", {}).items():
        print(f"  seconds.{name:26s} min {sec['min']:.6g}  median {sec['median']:.6g}  n {sec['n']}")
    for failure in res["failures"]:
        print("FAILED:", failure, file=sys.stderr)
    if detail:
        extra = {k: res[k] for k in ("seconds", "run_id", "replays", "spans") if k in res}
        Path(detail).write_text(json.dumps({**record, **extra, "fingerprint": fingerprint(seed)}))
    # The contract line carries numbers only: a metric that could not be
    # measured reads 0 there (and ``correct`` is false); the detail file
    # keeps it as null with the reason.
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"] if m["value"] is not None else 0.0,
                           "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def run_suite(spec: dict, only: str | None, seed: int, seconds: float, out: str | None) -> int:
    """Every workload in its own fresh process: untraced pass, then traced pass."""
    names = [only] if only else [w["name"] for w in spec["workloads"]]
    SCRATCH.mkdir(exist_ok=True)
    result = {"schema": 1, "fingerprint": None, "seconds": seconds, "workloads": {}}
    for name in names:
        passes = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            detail = SCRATCH / f"detail-{name}-{trace}.json"
            print(f"== {name}: {'traced' if trace else 'untraced'} pass", flush=True)
            proc = subprocess.run(
                [sys.executable, "-m", "bench", "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace), "--detail", str(detail)],
                cwd=ROOT,
            )
            if proc.returncode != 0:
                print(f"bench: {name} pass {trace} exited with {proc.returncode}", file=sys.stderr)
                return 1
            passes[key] = json.loads(detail.read_text())
            detail.unlink()
            result["fingerprint"] = passes[key].pop("fingerprint")
        result["workloads"][name] = passes
    out_path = Path(out) if out else SCRATCH / "latest.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out_path}")
    bad = [n for n, p in result["workloads"].items()
           if not (p["end_to_end"]["correct"] and p["per_layer"]["correct"])]
    if bad:
        print("bench: failed operations on", ", ".join(bad), file=sys.stderr)
    return 1 if bad else 0

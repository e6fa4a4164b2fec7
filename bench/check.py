"""``python3 -m bench --check``: the harness checks itself, in seconds.

On a tiny geometry it verifies that a run's output matches what
``BENCHMARK.json`` declares, that the span tree is well formed and accounts
for the traced wall time, that count metrics repeat exactly, and that
``compare`` reports an injected 1.5x slowdown as a regression.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

from .compare import compare, drifted_counts
from .timing import self_times
from .workloads import CHECK_WORKLOAD, ROOT, SCRATCH, load_spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
CHECK_SECONDS = 2.0


def _run(trace: int, detail=None, slowdown: float = 1.0) -> dict:
    """One run of the tiny workload in a fresh process: its detail record, or
    (for the slowed run, which has none) its contract line."""
    cmd = [sys.executable, "-m", "bench", "--workload", CHECK_WORKLOAD.name, "--seed", "0",
           "--seconds", str(CHECK_SECONDS), "--trace", str(trace)]
    if detail is not None:
        cmd += ["--detail", str(detail)]
    if slowdown != 1.0:
        cmd += ["--inject-slowdown", str(slowdown)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    if detail is not None:
        return json.loads(detail.read_text())
    return json.loads(proc.stdout.splitlines()[-1])  # the contract line


def check_spec(spec: dict) -> list[str]:
    """Problems with ``BENCHMARK.json`` itself."""
    problems = []
    e2e, layers = spec["end_to_end"], spec["per_layer"]
    if not 1 <= len(e2e) <= 16:
        problems.append(f"{len(e2e)} end-to-end metrics, allowed 1..16")
    if not 1 <= len(layers) <= 128:
        problems.append(f"{len(layers)} per-layer metrics, allowed 1..128")
    names = [m["name"] for m in e2e + layers] + [w["name"] for w in spec["workloads"]]
    problems += [f"name {n!r} used twice" for n in set(names) if names.count(n) > 1]
    problems += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    problems += [f"bad unit {m['unit']!r} of {m['name']}" for m in e2e + layers
                 if not UNIT.fullmatch(m["unit"])]
    problems += [f"bound of {m['name']} outside (0, 0.25]" for m in e2e
                 if not 0 < m["bound"] <= 0.25]
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in e2e):
        problems.append("no setup_s metric in seconds, lower is better")
    return problems


def check_record(record: dict, declared: list[dict]) -> list[str]:
    """Problems with one run's record against the metrics it must report."""
    problems = [f"failed operation: {f}" for f in record["failures"]]
    if record["attempted"] < 1:
        problems.append("no operation attempted")
    if set(record["metrics"]) != {m["name"] for m in declared}:
        problems.append("reported metrics differ from the declared ones")
    for m in declared:
        got = record["metrics"].get(m["name"], {})
        if got.get("value") is None:
            problems.append(f"{m['name']} has no value ({got.get('reason', 'missing')})")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} reported in {got.get('unit')!r}, declared {m['unit']!r}")
    return problems


def check_spans(record: dict) -> list[str]:
    spans = record["spans"]
    if not spans:
        return ["the traced pass recorded no span"]
    try:
        own = self_times(spans)
    except ValueError as exc:
        return [str(exc)]
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    if abs(sum(own.values()) - roots) > 0.02 * roots:
        return [f"self times sum to {sum(own.values())}, root spans to {roots}"]
    return []


def main() -> int:
    spec = load_spec()
    SCRATCH.mkdir(exist_ok=True)
    problems = check_spec(spec)
    runs = []
    for k in range(2):  # two back-to-back runs: counts must repeat exactly
        passes = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            detail = SCRATCH / f"check-{k}-{trace}.json"
            passes[key] = _run(trace, detail)
            detail.unlink()
            problems += [f"run {k} {key}: {p}" for p in check_record(passes[key], spec[key])]
        problems += [f"run {k}: {p}" for p in check_spans(passes["per_layer"])]
        runs.append({"workloads": {CHECK_WORKLOAD.name: passes}})
    tiny = dict(spec, workloads=[{"name": CHECK_WORKLOAD.name}])
    problems += [f"count not repeatable: {d}" for d in drifted_counts(tiny, *runs)]

    # The slowed run exists only in memory: it is never written to a file.
    slowed = {"workloads": {CHECK_WORKLOAD.name: {"end_to_end": _run(0, slowdown=1.5)}}}
    rows = compare(tiny, runs[0], slowed)
    if not any(r[6] == "regressed" for r in rows):
        problems.append("compare did not flag the injected 1.5x slowdown as regressed")

    for p in problems:
        print("CHECK FAILED:", p)
    print(f"bench --check: {'FAILED' if problems else 'ok'} "
          f"({len(spec['end_to_end'])} end-to-end and {len(spec['per_layer'])} per-layer "
          f"metrics, {len(runs[0]['workloads'][CHECK_WORKLOAD.name]['per_layer']['spans'])} spans)")
    return 1 if problems else 0

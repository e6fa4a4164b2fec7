"""``python3 -m bench compare A.json B.json``: is B worse than A?

One verdict per (end-to-end metric, workload) against the bounds of
``BENCHMARK.json``; one table row per workload, every ratio printed with
its base.  Exit code 1 when any cell regressed, 2 when the files cannot be
compared (different hosts, missing workloads).
"""

from __future__ import annotations

import json
import sys

from .suite import HOST_KEYS
from .workloads import load_spec


def verdict(base: dict, new: dict, bound: float, lower_is_better: bool = True):
    """``(verdict, worsening)`` of one metric, ``base`` and ``new`` being its
    records (``value``, and for timings the ``q1``/``q3`` of the samples
    within the run).

    ``regressed``: worse than the base by more than the bound.
    ``unresolved``: within the bound, but the spread of the samples inside
    either run is wider than the bound, so "unchanged" cannot be claimed.
    """
    if not base["value"] or new["value"] is None:
        return "unresolved", None
    worsening = new["value"] / base["value"] - 1.0
    if not lower_is_better:
        worsening = base["value"] / new["value"] - 1.0 if new["value"] else float("inf")
    if worsening > bound:
        return "regressed", worsening
    spread = max((r["q3"] - r["q1"]) / r["value"] if "q1" in r else 0.0 for r in (base, new))
    return ("unresolved" if spread > bound else "ok"), worsening


def compare(spec: dict, a: dict, b: dict):
    """Rows ``(workload, metric, base, new, worsening, bound, verdict)``."""
    rows = []
    for name in (w["name"] for w in spec["workloads"]):
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        ma = a["workloads"][name]["end_to_end"]["metrics"]
        mb = b["workloads"][name]["end_to_end"]["metrics"]
        for m in spec["end_to_end"]:
            v, worse = verdict(ma[m["name"]], mb[m["name"]], m["bound"], m["better"] == "lower")
            rows.append((name, m["name"], ma[m["name"]]["value"], mb[m["name"]]["value"],
                         worse, m["bound"], v))
    return rows


def drifted_counts(spec: dict, a: dict, b: dict) -> list[str]:
    """Per-layer metrics with unit ``count``/``B``/``flop`` that differ: they
    are facts of the schedule and must repeat exactly."""
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "B", "flop")]
    out = []
    for name in set(a["workloads"]) & set(b["workloads"]):
        la = a["workloads"][name]["per_layer"]["metrics"]
        lb = b["workloads"][name]["per_layer"]["metrics"]
        out += [f"{name}: {m} {la[m]['value']} -> {lb[m]['value']}"
                for m in exact if la[m]["value"] != lb[m]["value"]]
    return sorted(out)


def render(rows) -> str:
    lines = []
    workloads = list(dict.fromkeys(r[0] for r in rows))
    for w in workloads:
        lines.append(w)
        for _, metric, base, new, worse, bound, v in (r for r in rows if r[0] == w):
            change = "n/a" if worse is None else f"{worse:+.1%}"
            lines.append(f"  {metric:20s} base {base:12.6g} new {new:12.6g} "
                         f"worse by {change:>7s} of base (bound {bound:.0%})  {v}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 -m bench compare A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(open(path).read()) for path in argv)
    fa, fb = a["fingerprint"], b["fingerprint"]
    differing = [k for k in HOST_KEYS if fa.get(k) != fb.get(k)]
    if differing:
        print("bench compare: refusing to compare results of different hosts: "
              + ", ".join(f"{k} {fa.get(k)!r} vs {fb.get(k)!r}" for k in differing),
              file=sys.stderr)
        return 2
    spec = load_spec()
    rows = compare(spec, a, b)
    if not rows:
        print("bench compare: the files share no workload", file=sys.stderr)
        return 2
    print(f"base {argv[0]} (commit {fa.get('commit')}, seed {fa.get('seed')})")
    print(f"new  {argv[1]} (commit {fb.get('commit')}, seed {fb.get('seed')})")
    print(render(rows))
    drift = drifted_counts(spec, a, b)
    for line in drift:
        print("count drifted:", line)
    regressed = [r for r in rows if r[6] == "regressed"]
    print(f"{len(rows)} cells: {len(regressed)} regressed, "
          f"{sum(r[6] == 'unresolved' for r in rows)} unresolved; "
          f"{len(drift)} counts drifted")
    return 1 if regressed else 0

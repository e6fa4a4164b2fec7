"""Run registry: append-only per-run summary records with diff and flags.

Spans and events answer "what happened inside run X"; the registry
answers "how does run X compare to every run before it".  Each completed
``qr_factor`` call with ``registry=`` appends **one JSON line** — run
identity, geometry, backend, wall time, counter totals, event totals —
to a registry file.  Append-only and line-oriented on purpose: concurrent
runs append without coordination, a killed run costs at most its own
line, and the file greps like a log.

Inspect from the shell::

    python -m repro.obs.registry list runs.jsonl
    python -m repro.obs.registry show runs.jsonl <run-prefix>
    python -m repro.obs.registry diff runs.jsonl <run-a> <run-b>

``list`` prints one row per run, newest last, with anomaly flags computed
against the trailing window of *comparable* runs (same backend, same
geometry): a wall time far above the trailing minimum, fault/SDC/retry
activity where the history had none, or a serial fallback.  ``diff``
prints every counter and event total that changed between two runs — the
tool for "this run retried 14 times, the last one retried zero".

Doctest::

    >>> import tempfile, os
    >>> from repro.obs.registry import RunRegistry, diff_records
    >>> reg = RunRegistry(os.path.join(tempfile.mkdtemp(), "runs.jsonl"))
    >>> base = {"run": "a", "backend": "parallel", "wall_s": 1.0,
    ...         "counters": {"ops.total": 9.0}, "events": {}}
    >>> reg.append(base)
    >>> reg.append({**base, "run": "b", "wall_s": 1.5,
    ...             "counters": {"ops.total": 9.0, "worker.dead": 1.0}})
    >>> d = diff_records(*reg.load())
    >>> d["counters"]["worker.dead"]
    (0.0, 1.0)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from ..util.errors import ConfigurationError
from ..util.formatting import format_table

__all__ = [
    "RunRegistry",
    "build_record",
    "diff_records",
    "anomaly_flags",
    "main",
]

#: Counter keys summed into the per-family fault totals shown by ``list``
#: and scanned by :func:`anomaly_flags`.
_FAMILIES = {
    "faults": ("fault.drop", "fault.duplicate", "fault.delay", "fault.crash",
               "worker.dead", "worker.restart", "retry.redispatch",
               "fallback.serial"),
    "sdc": ("sdc.injected", "sdc.detected", "sdc.recovered"),
    "retries": ("retry.resend", "retry.dup_suppressed"),
    "ckpt": ("ckpt.writes",),
}


def build_record(
    *,
    run_id: str,
    backend: str,
    geometry: dict,
    wall_s: float,
    counters: dict,
    events: dict | None = None,
    parent_run_id: str | None = None,
    status: str = "ok",
) -> dict:
    """One registry record (a flat, JSON-serialisable dict)."""
    return {
        "run": run_id,
        "parent_run": parent_run_id,
        "written": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "backend": backend,
        "geometry": dict(geometry),
        "status": status,
        "wall_s": round(float(wall_s), 6),
        "counters": {k: round(float(v), 6) for k, v in sorted(counters.items())},
        "events": dict(events or {}),
    }


def family_totals(record: dict) -> dict[str, float]:
    """Fault/SDC/retry/checkpoint totals of one record, by family."""
    counters = record.get("counters", {})
    return {
        fam: sum(counters.get(k, 0.0) for k in keys)
        for fam, keys in _FAMILIES.items()
    }


class RunRegistry:
    """Append-only JSON-lines store of run records.

    Accepts a path (parent directories are created on first append); an
    existing file is always appended to, never rewritten.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)

    def append(self, record: dict) -> None:
        """Append one record as a single flushed line."""
        if not record.get("run"):
            raise ConfigurationError("registry records must carry a 'run' id")
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
            f.flush()

    def load(self) -> list[dict]:
        """Every record, oldest first (missing file reads as empty)."""
        if not self.path.exists():
            return []
        out = []
        with open(self.path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line:
                    out.append(json.loads(line))
        return out

    def find(self, run_prefix: str) -> dict:
        """The unique record whose run id starts with ``run_prefix``."""
        hits = [r for r in self.load() if str(r.get("run", "")).startswith(run_prefix)]
        if not hits:
            raise ConfigurationError(f"no run matching {run_prefix!r} in {self.path}")
        ids = {r["run"] for r in hits}
        if len(ids) > 1:
            raise ConfigurationError(
                f"run prefix {run_prefix!r} is ambiguous: {sorted(ids)}"
            )
        return hits[-1]  # a resumed-and-reregistered run keeps the newest line


def _comparable(a: dict, b: dict) -> bool:
    return a.get("backend") == b.get("backend") and a.get("geometry") == b.get("geometry")


def diff_records(a: dict, b: dict) -> dict:
    """What changed between two records.

    Returns ``{"runs": (id_a, id_b), "wall_s": (a, b), "counters": {key:
    (a, b)}, "events": {type: (a, b)}, "comparable": bool}`` where the
    counter/event maps contain only keys whose values differ.  Counter
    deltas are exactly how injected faults surface: a crash-plan run
    differs from a clean one on ``fault.crash`` / ``worker.dead`` /
    ``worker.restart`` / ``retry.redispatch``.
    """
    def changed(ka: dict, kb: dict) -> dict:
        out = {}
        for key in sorted(set(ka) | set(kb)):
            va, vb = ka.get(key, 0.0), kb.get(key, 0.0)
            if va != vb:
                out[key] = (va, vb)
        return out

    return {
        "runs": (a.get("run"), b.get("run")),
        "comparable": _comparable(a, b),
        "wall_s": (a.get("wall_s"), b.get("wall_s")),
        "counters": changed(a.get("counters", {}), b.get("counters", {})),
        "events": changed(a.get("events", {}), b.get("events", {})),
    }


#: :func:`anomaly_flags` consults the newest ``ANOMALY_WINDOW`` comparable
#: runs and flags a wall time over ``WALL_FACTOR`` times their best.
ANOMALY_WINDOW = 5
WALL_FACTOR = 1.5


def anomaly_flags(record: dict, history: list[dict]) -> list[str]:
    """Why ``record`` looks unusual against its trailing history.

    ``history`` is every earlier record (any mix); only the newest
    ``ANOMALY_WINDOW`` *comparable* ones (same backend + geometry) are
    consulted.
    An empty comparable history yields no flags — the first run of a
    configuration seeds its own baseline, exactly like the bench gate.
    """
    flags = []
    if record.get("status") not in (None, "ok"):
        flags.append(f"status:{record['status']}")
    fams = family_totals(record)
    same = [r for r in history if _comparable(r, record)][-ANOMALY_WINDOW:]
    if not same:
        return flags
    best = min(r.get("wall_s", float("inf")) for r in same)
    wall = record.get("wall_s")
    if wall is not None and best > 0 and wall > best * WALL_FACTOR:
        flags.append(f"wall:{wall / best:.2f}x")
    for fam, total in fams.items():
        past = max(family_totals(r).get(fam, 0.0) for r in same)
        if total > 0 and past == 0:
            flags.append(f"{fam}:{total:g}")
    return flags


# -- CLI ---------------------------------------------------------------------

def _geometry_str(g: dict) -> str:
    if not g:
        return "-"
    core = f"{g.get('m')}x{g.get('n')} nb={g.get('nb')} ib={g.get('ib')}"
    tree = g.get("tree")
    return f"{core} {tree}" if tree else core


def _cmd_list(reg: RunRegistry) -> int:
    records = reg.load()
    if not records:
        print("no runs recorded")
        return 0
    rows = []
    for i, r in enumerate(records):
        flags = anomaly_flags(r, records[:i])
        rows.append([
            r.get("run", "?"),
            r.get("backend", "?"),
            _geometry_str(r.get("geometry", {})),
            f"{r.get('wall_s', 0.0):.4f}",
            f"{r.get('counters', {}).get('ops.total', 0.0):g}",
            ",".join(flags) or "-",
        ])
    print(format_table(["run", "backend", "geometry", "wall_s", "ops", "flags"], rows))
    return 0


def _cmd_show(reg: RunRegistry, run_prefix: str) -> int:
    print(json.dumps(reg.find(run_prefix), indent=1, sort_keys=True))
    return 0


def _cmd_diff(reg: RunRegistry, run_a: str, run_b: str) -> int:
    d = diff_records(reg.find(run_a), reg.find(run_b))
    a, b = d["runs"]
    print(f"diff {a} -> {b}" + ("" if d["comparable"] else "  [different config]"))
    wa, wb = d["wall_s"]
    if wa is not None and wb is not None:
        print(f"wall_s: {wa:.4f} -> {wb:.4f} ({wb - wa:+.4f})")
    for label, group in (("counter", d["counters"]), ("event", d["events"])):
        if not group:
            continue
        rows = [
            [key, f"{va:g}", f"{vb:g}", f"{vb - va:+g}"]
            for key, (va, vb) in group.items()
        ]
        print(format_table([label, a, b, "delta"], rows))
    if not d["counters"] and not d["events"]:
        print("no counter or event differences")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.registry",
        description="Inspect an append-only run registry (JSON-lines).",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_list = sub.add_parser("list", help="one row per run with anomaly flags")
    p_list.add_argument("path", type=Path)
    p_show = sub.add_parser("show", help="full record of one run")
    p_show.add_argument("path", type=Path)
    p_show.add_argument("run", help="run id (unique prefix accepted)")
    p_diff = sub.add_parser("diff", help="counter/event deltas between two runs")
    p_diff.add_argument("path", type=Path)
    p_diff.add_argument("run_a")
    p_diff.add_argument("run_b")
    args = parser.parse_args(argv)
    reg = RunRegistry(args.path)
    try:
        if args.cmd == "list":
            return _cmd_list(reg)
        if args.cmd == "show":
            return _cmd_show(reg, args.run)
        return _cmd_diff(reg, args.run_a, args.run_b)
    except (ConfigurationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

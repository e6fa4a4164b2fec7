"""Summarise, tail, or dashboard a run's metrics and event files.

Summary mode (default) reads the whole metrics file and prints one table of
every gauge and rate (min / mean / max / last) plus the final counter
values::

    python -m repro.obs.monitor metrics.jsonl

Follow mode tails the file while a run is in progress, printing one line
per new sample — like ``tail -f`` but rendered::

    python -m repro.obs.monitor metrics.jsonl --follow

``--follow`` polls until interrupted (Ctrl-C) or, with ``--timeout S``,
until the file has not grown for ``S`` seconds (useful in scripts).  When
a later run rewrites the file, following starts again from its first line.

Dashboard mode renders a live health view — run identity, the newest
gauge/rate values (worker liveness, queue depths, wavefront progress),
cumulative counters, and the tail of the structured event log when the run
was started with ``qr_factor(events=...)``::

    python -m repro.obs.monitor metrics.jsonl --dashboard --events events.jsonl

With ``--follow`` the dashboard re-renders as the files grow (same
``--timeout`` exit rule); without it, one snapshot is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from ..util.formatting import format_table
from .events import read_events

__all__ = ["summarize", "render_dashboard", "main"]


def summarize(samples: list[dict]) -> str:
    """Render min/mean/max/last for every gauge and rate, plus counters."""
    if not samples:
        return "no samples"
    series: dict[str, list[float]] = {}
    for s in samples:
        for group in ("gauges", "rates"):
            for key, value in s.get(group, {}).items():
                series.setdefault(key, []).append(float(value))
    out = [
        f"{len(samples)} samples over {samples[-1]['t'] - samples[0]['t']:.3f}s"
    ]
    if series:
        rows = [
            [key, f"{min(v):.6g}", f"{sum(v) / len(v):.6g}", f"{max(v):.6g}", f"{v[-1]:.6g}"]
            for key, v in sorted(series.items())
        ]
        out.append(format_table(["metric", "min", "mean", "max", "last"], rows))
    counters = samples[-1].get("counters", {})
    if counters:
        rows = [[key, f"{value:.6g}"] for key, value in sorted(counters.items())]
        out.append(format_table(["counter", "final"], rows))
    return "\n\n".join(out)


def _format_sample(sample: dict) -> str:
    parts = [f"t={sample.get('t', 0):.3f}s"]
    for key, value in sorted(sample.get("gauges", {}).items()):
        parts.append(f"{key}={value:g}")
    for key, value in sorted(sample.get("rates", {}).items()):
        parts.append(f"{key}={value:.4g}")
    return "  ".join(parts)


def _follow(path: Path, timeout: float | None, poll: float = 0.1) -> int:
    pos = 0
    quiet_since = time.monotonic()
    buffer = ""
    while True:
        try:
            with open(path, encoding="utf-8") as f:
                if os.fstat(f.fileno()).st_size < pos:
                    # A new run rewrote the file (the sampler opens it "w"):
                    # start over rather than resume mid-line.
                    pos, buffer = 0, ""
                f.seek(pos)
                chunk = f.read()
                pos = f.tell()
        except FileNotFoundError:
            chunk = ""
        if chunk:
            quiet_since = time.monotonic()
            buffer += chunk
            *lines, buffer = buffer.split("\n")
            for line in lines:
                if line.strip():
                    print(_format_sample(json.loads(line)), flush=True)
        elif timeout is not None and time.monotonic() - quiet_since > timeout:
            return 0
        try:
            time.sleep(poll)
        except KeyboardInterrupt:
            return 0


_ENVELOPE = ("t", "type", "run", "worker", "op", "span")


def _format_event_rows(events: list[dict]) -> list[list[str]]:
    rows = []
    for e in events:
        ident = " ".join(f"{k}={e[k]}" for k in ("worker", "op", "span") if k in e)
        data = " ".join(
            f"{k}={v}" for k, v in sorted(e.items()) if k not in _ENVELOPE
        )
        rows.append([f"{e.get('t', 0.0):.3f}", e.get("type", "?"), ident, data])
    return rows


#: Trailing structured events the dashboard lists.
N_EVENTS = 10


def render_dashboard(samples: list[dict], events: list[dict] | None = None) -> str:
    """Render one health snapshot from sampler output and an event log.

    Pure function of its inputs (the CLI re-renders it in follow mode; the
    tests call it directly): a run-identity header, the newest sample's
    gauges and rates (liveness and progress), the cumulative counters, and
    the last ``N_EVENTS`` structured events.
    """
    blocks = []
    if not samples:
        blocks.append("no samples yet")
    else:
        first, last = samples[0], samples[-1]
        run = last.get("run")
        header = f"run {run}  |  " if run else ""
        header += f"{len(samples)} samples over {last['t'] - first['t']:.3f}s"
        blocks.append(header)
        rows = [[k, f"{v:g}"] for k, v in sorted(last.get("gauges", {}).items())]
        rows += [
            [k, f"{v:.4g}/s"] for k, v in sorted(last.get("rates", {}).items())
        ]
        if rows:
            blocks.append(format_table(["metric", "now"], rows))
        counters = last.get("counters", {})
        if counters:
            rows = [[k, f"{v:.6g}"] for k, v in sorted(counters.items())]
            blocks.append(format_table(["counter", "total"], rows))
    if events:
        blocks.append(
            f"last {min(N_EVENTS, len(events))} of {len(events)} events\n"
            + format_table(
                ["t", "event", "who", "data"], _format_event_rows(events[-N_EVENTS:])
            )
        )
    return "\n\n".join(blocks)


def _load_optional(path: Path | None) -> list[dict]:
    if path is None or not path.exists():
        return []
    return read_events(path)


def _dashboard(
    metrics: Path, events: Path | None, *, follow: bool, timeout: float | None,
    poll: float = 0.5,
) -> int:
    last_counts = (-1, -1)
    quiet_since = time.monotonic()
    while True:
        samples = _load_optional(metrics)
        evs = _load_optional(events)
        counts = (len(samples), len(evs))
        if counts != last_counts:
            last_counts = counts
            quiet_since = time.monotonic()
            if follow:
                print("\x1b[2J\x1b[H", end="")
            print(render_dashboard(samples, evs), flush=True)
        if not follow:
            return 0
        if timeout is not None and time.monotonic() - quiet_since > timeout:
            return 0
        try:
            time.sleep(poll)
        except KeyboardInterrupt:
            return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.monitor",
        description="Summarise or tail a sampler metrics .jsonl file.",
    )
    parser.add_argument("path", type=Path, help="metrics JSON-lines file")
    parser.add_argument(
        "--follow", action="store_true", help="tail new samples instead of summarising"
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="with --follow: exit after the file stops growing for this many seconds",
    )
    parser.add_argument(
        "--dashboard",
        action="store_true",
        help="render a health dashboard instead of the summary/tail views",
    )
    parser.add_argument(
        "--events",
        type=Path,
        default=None,
        help="with --dashboard: structured event log (qr_factor(events=...)) "
        "to show the tail of",
    )
    args = parser.parse_args(argv)
    if args.events is not None and not args.dashboard:
        parser.error("--events requires --dashboard")
    if args.dashboard:
        return _dashboard(
            args.path, args.events, follow=args.follow, timeout=args.timeout
        )
    if args.follow:
        return _follow(args.path, args.timeout)
    if not args.path.exists():
        print(f"error: {args.path} does not exist", file=sys.stderr)
        return 2
    print(summarize(read_events(args.path)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — normal CLI shutdown.
        sys.exit(0)

#!/usr/bin/env python3
"""Benchmark regression gate over the append-only trajectory file.

Runs the pinned QR benchmark (serial + batched + parallel backends, warm
persistent-session calls, plus a telemetry-disabled small-factorization
burst that bounds the tracing-off fast path), appends the entry to
``results/BENCH_qr.json``, and fails when wall time regresses beyond the
noise band — or when the derived op/flop counters drift at all — against
the minimum of the last few comparable entries (same pinned config, same
host fingerprint).  Those two history-relative checks are all it enforces.
The three absolute floors it used to carry (batched <= serial, warm session
<= one-shot parallel, checkpointed <= 1.15x parallel) assumed kernel time
dominates the pinned problem, which stopped being true when the factor
kernels became LAPACK calls: over four ``--smoke`` runs of unchanged code
the three ratios read 0.79-0.95x, 0.95-2.12x and 1.05-1.29x while every
absolute time was 1.3-6x better than before.  See ``docs/performance.md``,
``docs/sessions.md``, and ``docs/robustness.md``.

Usage::

    python tools/bench_gate.py --smoke              # CI-sized problem
    python tools/bench_gate.py                      # full pinned sweep
    python tools/bench_gate.py --smoke --inject-slowdown 2.0   # self-test

``--inject-slowdown F`` multiplies the measured wall times by ``F`` after
the run: with history present the gate must then fail, which is how CI
proves the gate can actually catch a regression.  Injected entries are
**never** appended to the trajectory, so the poisoned numbers cannot
contaminate future baselines.

Exit status: 0 = pass (entry recorded), 1 = regression detected.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.perf.bench import (  # noqa: E402
    FULL_CONFIG,
    SMOKE_CONFIG,
    append_entry,
    baseline_for,
    check_regression,
    load_trajectory,
    run_qr_benchmark,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the CI-sized pinned problem instead of the full one",
    )
    parser.add_argument(
        "--out", default="results/BENCH_qr.json",
        help="trajectory file (default: %(default)s)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.5,
        help="wall-time noise band as a fraction (default: %(default)s)",
    )
    parser.add_argument(
        "--inject-slowdown", type=float, default=None, metavar="FACTOR",
        help="multiply measured times by FACTOR (gate self-test; "
        "the entry is not recorded)",
    )
    parser.add_argument(
        "--last-k", type=int, default=5,
        help="baseline = min over the newest K comparable entries "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)

    config = dict(SMOKE_CONFIG if args.smoke else FULL_CONFIG)
    label = "smoke" if args.smoke else "full"
    print(f"bench_gate: running {label} config {config}")
    entry = run_qr_benchmark(**config)
    if args.inject_slowdown is not None:
        for key in (
            "serial_s", "batched_s", "parallel_s", "session_warm_s",
            "checkpoint_s", "telemetry_off_s",
        ):
            entry["measured"][key] = round(
                entry["measured"][key] * args.inject_slowdown, 6
            )
        print(f"bench_gate: injected {args.inject_slowdown}x slowdown (not recorded)")
    m = entry["measured"]
    print(
        f"bench_gate: serial {m['serial_s']:.4f}s, "
        f"batched {m['batched_s']:.4f}s "
        f"({entry['derived']['batched_speedup']}x), "
        f"parallel {m['parallel_s']:.4f}s "
        f"({m['parallel_mode']}), "
        f"session warm {m['session_warm_s']:.4f}s "
        f"({entry['derived']['session_speedup']}x vs one-shot parallel), "
        f"checkpointed {m['checkpoint_s']:.4f}s "
        f"(+{entry['derived']['checkpoint_overhead_s']:.4f}s overhead), "
        f"telemetry-off burst {m['telemetry_off_s']:.4f}s, "
        f"counters {entry['counters']}"
    )

    entries = load_trajectory(args.out)
    baseline = baseline_for(entries, entry, last_k=args.last_k)
    if baseline is None:
        print("bench_gate: no comparable history; recording baseline entry")
        problems = []
    else:
        print(
            f"bench_gate: baseline over last {baseline['n']} comparable "
            f"entries: {baseline['times']}"
        )
        problems = check_regression(entry, baseline, tolerance=args.tolerance)

    if args.inject_slowdown is None:
        append_entry(args.out, entry)
        print(f"bench_gate: recorded entry #{len(entries) + 1} in {args.out}")

    if problems:
        for p in problems:
            print(f"bench_gate: REGRESSION: {p}")
        return 1
    print("bench_gate: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""``python3 -m bench``: see :mod:`bench` for the entry points."""

from __future__ import annotations

import os
import sys

from .workloads import ROOT  # imports no NumPy: the pinning below still comes first

# Before NumPy is imported anywhere: concurrency must come from repro's own
# executors, not from BLAS threads oversubscribing the worker processes
# (tiles are <= 128^2, where BLAS threading adds noise, not speed).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _locate_program() -> None:
    """Put the program under test on the path, for this process and the
    worker processes it starts; the harness measures it from outside."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: the program under test is missing: no {src}/repro")
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])


def main(argv: list[str]) -> int:
    import argparse

    if argv[:1] == ["compare"]:
        from .compare import main as compare_main

        return compare_main(argv[1:])

    ap = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    ap.add_argument("--workload", help="one workload (default: all of BENCHMARK.json)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="measuring time of one run "
                    "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="one run in this process: 0 untraced end-to-end pass, "
                    "1 traced per-layer pass; omit to run the whole suite")
    ap.add_argument("--detail", help="with --trace: also write the run's full record here")
    ap.add_argument("--out", help="suite: result file (default bench/.scratch/latest.json)")
    ap.add_argument("--check", action="store_true", help="run the harness self-test")
    ap.add_argument("--inject-slowdown", type=float, default=1.0, help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _locate_program()
    from .workloads import get_workload, load_spec

    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.check:
        from .check import main as check_main

        return check_main()
    if args.setup_probe:
        from .endtoend import setup_probe

        setup_probe(get_workload(args.workload), args.seed)
        return 0
    if args.trace is None:
        from .suite import run_suite

        return run_suite(spec, args.workload, args.seed, args.seconds, args.out)
    if args.workload is None:
        ap.error("--trace needs --workload")
    if args.inject_slowdown != 1.0 and args.detail:
        ap.error("an injected slowdown is never written to a result file")
    from .suite import run_one

    return run_one(spec, args.workload, args.seed, args.seconds, args.trace,
                   args.detail, args.inject_slowdown)


def _stop_children() -> None:
    """Leave no process behind: stop multiprocessing's resource tracker (it
    otherwise outlives us by the moment it takes to notice we are gone) and
    any worker a failed call abandoned, and wait until each has ended."""
    import signal
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if hasattr(tracker, "_stop"):
        tracker._stop()  # closes its pipe and waits for it
    me = str(os.getpid())
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = fh.read().rsplit(")", 1)[1].split()[1]
            if ppid == me:
                os.kill(int(entry), signal.SIGKILL)
                os.waitpid(int(entry), 0)
        except OSError:  # gone, or already waited for
            continue


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        _stop_children()
    sys.exit(code)

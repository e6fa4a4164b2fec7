#!/usr/bin/env python3
"""CI chaos smoke: fixed-seed faults on every backend, bit-exactness asserted.

Four scenarios, each exiting non-zero unless recovery machinery was both
*exercised* (faults actually landed) and *correct* (factors bit-identical
to a clean serial run):

* pulsar under a fixed-seed packet-fault plan (drops + duplicates + delays);
* parallel with one scheduled worker kill;
* silent data corruption — deterministic bit flips injected into kernel
  output tiles on the serial, batched, and parallel backends; every flip
  must be detected by the ABFT checksum guard and repaired by
  re-execution (zero undetected corruptions);
* kill/resume — a checkpointed run is hard-killed (``os._exit``) after
  its first checkpoint write, then resumed from the archive; the resumed
  run must skip at least one completed op and still match bit-exactly.

Usage::

    PYTHONPATH=src python tools/chaos_smoke.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

import numpy as np

from repro import FaultPlan, qr_factor
from repro.obs import recording
from repro.obs.record import K_SDC_DETECTED, K_SDC_INJECTED
from repro.qr import resume_factorization

NB, IB, H = 16, 8, 2
M, N = 12 * NB, 4 * NB
FLIP_RATE = 0.15
KILL_EXIT = 42

#: Child process for the kill/resume scenario: factor with a checkpoint
#: that hard-kills the process right after its first write — simulating a
#: machine loss mid-factorization (no cleanup, no atexit, no flush).
_KILL_CHILD = """
import os
import numpy as np
from repro import qr_factor
from repro.qr import CheckpointStore

a = np.random.default_rng(20140519).standard_normal(({m}, {n}))
ck = CheckpointStore({path!r}, every_ops=10,
                     on_write=lambda n: os._exit({exit_code}))
qr_factor(a, nb={nb}, ib={ib}, tree="hier", h={h}, checkpoint=ck)
raise SystemExit("checkpoint never fired — kill/resume smoke is vacuous")
"""


def _sdc_smoke(a: np.ndarray, clean_r: np.ndarray, failures: list[str]) -> None:
    plan = FaultPlan(seed=17, flip_rate=FLIP_RATE)
    for backend in ("serial", "batched", "parallel"):
        kw: dict = {"backend": backend}
        if backend == "parallel":
            kw.update(n_procs=2)
        with recording() as rec:
            f = qr_factor(a, nb=NB, ib=IB, tree="hier", h=H, fault_plan=plan, **kw)
        if backend == "parallel":
            inj, det = f.stats.sdc_injected, f.stats.sdc_detected
        else:
            inj = int(rec.counters.get(K_SDC_INJECTED, 0))
            det = int(rec.counters.get(K_SDC_DETECTED, 0))
        print(f"sdc/{backend}: injected={inj} detected={det}")
        if inj == 0:
            failures.append(f"sdc/{backend}: no flips injected — smoke is vacuous")
        if det != inj:
            failures.append(
                f"sdc/{backend}: {inj - det} injected flips escaped detection"
            )
        if not np.array_equal(clean_r, f.R):
            failures.append(f"sdc/{backend}: R differs from the clean run")


def _kill_resume_smoke(clean_r: np.ndarray, failures: list[str]) -> None:
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "smoke.ckpt.npz")
        child = _KILL_CHILD.format(
            m=M, n=N, nb=NB, ib=IB, h=H, path=path, exit_code=KILL_EXIT
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True
        )
        if proc.returncode != KILL_EXIT:
            failures.append(
                f"kill/resume: child exited {proc.returncode}, expected {KILL_EXIT} "
                f"(stderr: {proc.stderr.strip()[-200:]})"
            )
            return
        f = resume_factorization(path)
        print(f"kill/resume: child killed after first checkpoint, "
              f"resume skipped {f.ops_skipped} ops")
        if f.ops_skipped < 1:
            failures.append("kill/resume: resume skipped no ops — smoke is vacuous")
        if not np.array_equal(clean_r, f.R):
            failures.append("kill/resume: resumed R differs from the clean run")


def main() -> int:
    a = np.random.default_rng(20140519).standard_normal((M, N))
    clean = qr_factor(a, nb=NB, ib=IB, tree="hier", h=H)
    failures: list[str] = []

    plan = FaultPlan(seed=11, drop_rate=0.08, duplicate_rate=0.04, delay_rate=0.06)
    f = qr_factor(
        a, nb=NB, ib=IB, tree="hier", h=H,
        backend="pulsar", n_nodes=2, workers_per_node=2, fault_plan=plan,
    )
    print(
        f"pulsar : dropped={f.stats.faults_dropped} duplicated={f.stats.faults_duplicated} "
        f"delayed={f.stats.faults_delayed} retransmits={f.stats.retransmits} "
        f"dup_suppressed={f.stats.dup_suppressed}"
    )
    if not np.array_equal(clean.R, f.R):
        failures.append("pulsar R differs from the clean run under packet faults")
    if f.stats.faults_dropped == 0 or f.stats.retransmits == 0:
        failures.append("pulsar chaos run injected no drops — smoke is vacuous")

    plan = FaultPlan(seed=13, crash_workers={0: 2})
    f = qr_factor(
        a, nb=NB, ib=IB, tree="hier", h=H,
        backend="parallel", n_procs=2, fault_plan=plan,
    )
    print(
        f"parallel: died={f.stats.workers_died} respawned={f.stats.workers_respawned} "
        f"redispatched={f.stats.ops_redispatched}"
    )
    if not np.array_equal(clean.R, f.R):
        failures.append("parallel R differs from the clean run after a worker kill")
    if f.stats.workers_died != 1 or f.stats.workers_respawned != 1:
        failures.append("parallel chaos run killed no worker — smoke is vacuous")

    _sdc_smoke(a, clean.R, failures)
    _kill_resume_smoke(clean.R, failures)

    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if not failures:
        print("chaos smoke: every faulty/corrupted/killed run matched the clean run")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

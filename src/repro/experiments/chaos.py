"""Chaos experiment: fault-rate sweep with bit-exactness verification.

Not a paper artefact — a robustness evaluation of this reproduction's
fault-tolerance machinery (:mod:`repro.faults`).  The experiment factors
one matrix three ways:

* a clean serial reference (the ground truth);
* the ``pulsar`` backend under increasing packet drop/duplicate/delay
  rates, exercising the proxy ack/retransmit protocol;
* the ``parallel`` backend under scheduled worker crashes, exercising
  dead-worker detection, op re-dispatch, and respawn.

Every faulty run must produce factors **bit-identical** to the clean one
(the ``exact`` column); the remaining columns quantify what surviving the
faults cost (retransmits, redispatched ops, wall-clock overhead).
"""

from __future__ import annotations

import time

import numpy as np

from ..faults import FaultPlan
from ..obs import recording
from ..obs.record import K_SDC_DETECTED, K_SDC_INJECTED, K_SDC_RECOVERED
from ..qr.api import qr_factor
from .presets import ExperimentConfig
from .report import ExperimentResult

__all__ = ["run_chaos", "run_chaos_sdc"]

#: Fabric fault rates swept on the pulsar backend (drop, duplicate, delay).
_PULSAR_RATES = (0.0, 0.02, 0.05, 0.10)
#: Worker-crash schedules swept on the parallel backend
#: ({rank: ops-before-crash}).
_PARALLEL_CRASHES = ({}, {0: 2}, {0: 1, 1: 3})
#: Bit-flip rates swept on every SDC-guarded backend.
_FLIP_RATES = (0.0, 0.05, 0.20)


def _problem(cfg: ExperimentConfig) -> tuple[np.ndarray, int, int, int]:
    """A small tall-skinny instance: chaos stresses recovery, not scale."""
    nb, ib, h = 16, 8, 2
    m, n = 10 * nb, 4 * nb
    rng = np.random.default_rng(20140519)  # paper conference date
    return rng.standard_normal((m, n)), nb, ib, h


def run_chaos(cfg: ExperimentConfig) -> ExperimentResult:
    """Sweep fault rates on both fault-tolerant backends; verify bit-exactness."""
    a, nb, ib, h = _problem(cfg)
    kw = dict(nb=nb, ib=ib, tree="hier", h=h)
    t0 = time.perf_counter()
    clean = qr_factor(a, **kw)
    t_clean = time.perf_counter() - t0
    r_clean = clean.R

    res = ExperimentResult(
        name=f"chaos sweep ({cfg.name}, m={a.shape[0]}, n={a.shape[1]})",
        headers=[
            "backend", "fault", "exact", "retransmits", "redispatched",
            "respawned", "time_s", "overhead",
        ],
    )

    for rate in _PULSAR_RATES:
        plan = (
            FaultPlan(seed=11, drop_rate=rate, duplicate_rate=rate / 2, delay_rate=rate)
            if rate > 0.0
            else None
        )
        t0 = time.perf_counter()
        f = qr_factor(
            a, **kw, backend="pulsar", n_nodes=2, workers_per_node=2,
            fault_plan=plan,
        )
        dt = time.perf_counter() - t0
        res.add_row(
            "pulsar",
            f"drop={rate:.2f}",
            bool(np.array_equal(r_clean, f.R)),
            f.stats.retransmits,
            0,
            0,
            round(dt, 3),
            f"{dt / t_clean:.1f}x",
        )

    for crashes in _PARALLEL_CRASHES:
        plan = FaultPlan(seed=13, crash_workers=dict(crashes)) if crashes else None
        t0 = time.perf_counter()
        f = qr_factor(a, **kw, backend="parallel", n_procs=3, fault_plan=plan)
        dt = time.perf_counter() - t0
        res.add_row(
            "parallel",
            f"crashes={len(crashes)}",
            bool(np.array_equal(r_clean, f.R)),
            0,
            f.stats.ops_redispatched,
            f.stats.workers_respawned,
            round(dt, 3),
            f"{dt / t_clean:.1f}x",
        )

    exact = all(res.column("exact"))
    res.add_note(f"clean serial reference: {t_clean:.3f}s")
    res.add_note(
        "all faulty runs bit-identical to clean run"
        if exact
        else "BIT-EXACTNESS VIOLATED — recovery corrupted the factors"
    )
    return res


def run_chaos_sdc(cfg: ExperimentConfig) -> ExperimentResult:
    """Sweep bit-flip rates on every SDC-guarded backend.

    The fail-stop chaos sweep (:func:`run_chaos`) loses packets and kills
    workers; this one corrupts *answers*.  A :class:`~repro.faults.FaultPlan`
    with ``flip_rate > 0`` XORs a bit into kernel output tiles after
    selected operations, and the ABFT checksum guard
    (:mod:`repro.qr.checksum`) must catch and repair every flip.  Two
    invariants are verified per row: ``detected == injected`` (no silent
    escape) and bit-exactness against the clean serial reference (recovery
    restored the true answer, not a plausible one).
    """
    a, nb, ib, h = _problem(cfg)
    kw = dict(nb=nb, ib=ib, tree="hier", h=h)
    t0 = time.perf_counter()
    clean = qr_factor(a, **kw)
    t_clean = time.perf_counter() - t0
    r_clean = clean.R

    res = ExperimentResult(
        name=f"chaos SDC sweep ({cfg.name}, m={a.shape[0]}, n={a.shape[1]})",
        headers=[
            "backend", "flip_rate", "exact", "injected", "detected",
            "recovered", "time_s", "overhead",
        ],
    )

    escapes = 0
    for backend in ("serial", "batched", "parallel"):
        for rate in _FLIP_RATES:
            plan = FaultPlan(seed=17, flip_rate=rate) if rate > 0.0 else None
            bkw = dict(kw)
            if backend == "parallel":
                bkw.update(n_procs=3)
            t0 = time.perf_counter()
            with recording() as rec:
                f = qr_factor(a, **bkw, backend=backend, fault_plan=plan)
            dt = time.perf_counter() - t0
            if backend == "parallel":
                inj = f.stats.sdc_injected
                det = f.stats.sdc_detected
                rcv = f.stats.sdc_recovered
            else:
                inj = int(rec.counters.get(K_SDC_INJECTED, 0))
                det = int(rec.counters.get(K_SDC_DETECTED, 0))
                rcv = int(rec.counters.get(K_SDC_RECOVERED, 0))
            escapes += inj - det
            res.add_row(
                backend,
                f"{rate:.2f}",
                bool(np.array_equal(r_clean, f.R)),
                inj,
                det,
                rcv,
                round(dt, 3),
                f"{dt / t_clean:.1f}x",
            )

    exact = all(res.column("exact"))
    res.add_note(f"clean serial reference: {t_clean:.3f}s")
    res.add_note(
        "every injected flip detected (detected == injected on every row)"
        if escapes == 0
        else f"SILENT CORRUPTION ESCAPED — {escapes} injected flips undetected"
    )
    res.add_note(
        "all corrupted runs repaired to bit-exact factors"
        if exact
        else "BIT-EXACTNESS VIOLATED — recovery corrupted the factors"
    )
    return res

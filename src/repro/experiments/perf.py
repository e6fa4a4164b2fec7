"""Performance analytics experiment: four backends, one matrix, three lenses.

Not a paper artefact — an evaluation of this reproduction's performance
analytics (:mod:`repro.obs.analysis`) on live runs.  The experiment factors one
fixed matrix on the ``serial``, ``batched``, ``pulsar`` and ``parallel``
backends with tracing on, then prints for each:

* the realized critical path (which kernel kinds the measured
  longest dependency chain actually runs through, and for how long);
* per-lane attribution (busy running kernels vs runtime overhead vs idle —
  the three always sum to the lane's wall time);
* the model-vs-measured gap (each kind's measured time against the Kraken
  machine model's prediction, normalised so the host-vs-Kraken speed
  factor divides out).

See ``docs/performance.md`` for how to read the columns.
"""

from __future__ import annotations

import os

import numpy as np

from ..obs.analysis import analyze_factorization
from ..qr.api import qr_factor
from .presets import ExperimentConfig
from .report import ExperimentResult

__all__ = ["run_perf"]

#: backend name -> extra qr_factor arguments.
_BACKENDS = {
    "serial": {},
    "batched": dict(backend="batched"),
    "pulsar": dict(backend="pulsar", n_nodes=2, workers_per_node=2),
    "parallel": dict(backend="parallel", n_procs=2),
}


def _problem(cfg: ExperimentConfig) -> tuple[np.ndarray, int, int, int]:
    """A small fixed tall-skinny instance: the lenses, not the scale."""
    nb, ib, h = 16, 8, 2
    m, n = 20 * nb, 4 * nb
    rng = np.random.default_rng(20140519)  # paper conference date
    return rng.standard_normal((m, n)), nb, ib, h


def run_perf(cfg: ExperimentConfig) -> list[ExperimentResult]:
    """Trace every backend on one matrix and run the three analyses."""
    a, nb, ib, h = _problem(cfg)
    kw = dict(nb=nb, ib=ib, tree="hier", h=h)
    analyses = {}
    for backend, extra in _BACKENDS.items():
        f = qr_factor(a, **kw, **extra, trace=os.devnull)
        analyses[backend] = analyze_factorization(f)

    suffix = f"({cfg.name}, m={a.shape[0]}, n={a.shape[1]})"
    cp = ExperimentResult(
        name=f"realized critical path {suffix}",
        headers=[
            "backend", "kind", "on_path", "total",
            "on_path_ms", "off_path_ms", "path_share",
        ],
    )
    for backend, pa in analyses.items():
        r = pa.critical_path
        for kind, (n_on, s_on) in sorted(r.on_path.items(), key=lambda kv: -kv[1][1]):
            n_all, s_all = r.totals[kind]
            cp.add_row(
                backend, kind, n_on, n_all,
                round(s_on * 1e3, 3), round((s_all - s_on) * 1e3, 3),
                f"{s_on / r.path_s:.0%}" if r.path_s > 0 else "-",
            )
        cp.add_note(f"{backend}: {r.summary()}")

    lanes = ExperimentResult(
        name=f"per-lane attribution {suffix}",
        headers=[
            "backend", "lane", "kernels", "busy_ms", "overhead_ms",
            "idle_ms", "wall_ms", "busy",
        ],
    )
    for backend, pa in analyses.items():
        for u in pa.lanes:
            lanes.add_row(
                backend, u.label, u.n_kernels,
                round(u.busy_s * 1e3, 3), round(u.overhead_s * 1e3, 3),
                round(u.idle_s * 1e3, 3), round(u.wall_s * 1e3, 3),
                f"{u.busy_frac:.0%}",
            )
    lanes.add_note("busy + overhead + idle = wall, exactly, per lane")

    gap = ExperimentResult(
        name=f"model-vs-measured gap {suffix}",
        headers=[
            "backend", "kind", "ops", "model_ms", "measured_ms",
            "ratio", "normalized", "gap",
        ],
    )
    for backend, pa in analyses.items():
        for row in pa.gap.rows:
            gap.add_row(
                backend, row.kind, row.count,
                round(row.predicted_s * 1e3, 3), round(row.measured_s * 1e3, 3),
                f"{row.ratio:.1f}", f"{row.normalized:.3f}",
                "FLAG" if row.flagged else "ok",
            )
        gap.add_note(f"{backend}: {pa.gap.summary()}")

    return [cp, lanes, gap]

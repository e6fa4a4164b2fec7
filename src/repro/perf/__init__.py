"""Performance analytics: model-vs-measured gaps for traced runs.

Built on the evidence the observability layer records (:mod:`repro.obs`):

* :func:`gap_report` replays an operation list through the machine model
  (:mod:`repro.machine`) and compares predicted against measured time per
  kernel kind and per tree phase, flagging kernels whose efficiency
  deviates from the model beyond a threshold;
* :func:`analyze_factorization` bundles the critical-path, lane-attribution
  and gap analyses for one traced :func:`repro.qr_factor` run.

See ``docs/performance.md`` for how to read the reports, and
``python -m repro.experiments perf`` for the three-backend comparison.
"""

from .analyze import PerfAnalysis, analyze_factorization
from .gap import GapReport, KernelGap, gap_report

__all__ = [
    "GapReport",
    "KernelGap",
    "gap_report",
    "PerfAnalysis",
    "analyze_factorization",
]

"""Workload table, input generation, and the ``BENCHMARK.json`` spec.

Workload names are permanent: every later issue states its claim against
them.  The reasons each exists are in ``BENCHMARK.json`` and, at length,
in ``bench/README.md``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Everything the harness writes (traces, checkpoints, suite details) goes
#: here, inside the checkout and git-ignored.
SCRATCH = Path(__file__).resolve().parent / ".scratch"


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    n: int
    nb: int
    ib: int
    tree: str
    h: int
    #: Calls of each metric per round, each timed as its own sample.
    calls: int = 1
    #: Back-to-back LAPACK factorizations timed as one reference sample, so
    #: that it lasts about as long as one call of ours.
    lapack_calls: int = 1

    @property
    def geometry(self) -> dict:
        """Keyword arguments selecting this geometry in ``qr_factor``."""
        return dict(nb=self.nb, ib=self.ib, tree=self.tree, h=self.h, shifted=True)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tall_4096x512", 4096, 512, 64, 32, "hier", 4, lapack_calls=5),
        Workload("skinny_16384x128", 16384, 128, 64, 32, "binary", 4, lapack_calls=4),
        Workload("squat_2048x1024", 2048, 1024, 128, 32, "hier", 4, lapack_calls=2),
        Workload("burst_512x128", 512, 128, 32, 16, "hier", 2, calls=5, lapack_calls=20),
    )
}
#: Seconds-long geometry for ``--check``; deliberately not in BENCHMARK.json.
CHECK_WORKLOAD = Workload("check_tiny", 256, 64, 16, 8, "hier", 2, calls=2, lapack_calls=20)

#: Columns of the least-squares right-hand side every workload solves.
RHS_COLUMNS = 16


def get_workload(name: str) -> Workload:
    if name == CHECK_WORKLOAD.name:
        return CHECK_WORKLOAD
    return WORKLOADS[name]


def worker_count() -> int:
    """``P``: worker processes of the pooled backends on this host."""
    return min(4, len(os.sched_getaffinity(0)))


def make_inputs(w: Workload, seed: int):
    """The matrix and right-hand side of one run — a function of the seed only."""
    import numpy as np

    a = np.random.default_rng(seed).standard_normal((w.m, w.n))
    b = np.random.default_rng(seed + 1).standard_normal((w.m, RHS_COLUMNS))
    return a, b


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())

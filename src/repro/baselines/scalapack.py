"""ScaLAPACK / Cray LibSci performance model (paper Section VI-A baseline).

The paper reports that vendor and open-source *block-algorithm* QR
(``pdgeqrf``) lags the tree-based codes by at least 3x on tall-and-skinny
matrices, and by up to an order of magnitude.  The cause is structural: the
block algorithm factors each panel column by column across the full process
column, so every one of the ``n`` columns pays a norm-reduction and a
broadcast over the process grid — a latency-bound critical path that tile
trees simply do not have.

This module prices that algorithm on the same :class:`MachineModel` the DES
uses, with the standard ScaLAPACK cost decomposition (e.g. Blackford et
al., *ScaLAPACK Users' Guide*, ch. 5):

* panel factorization: per column, one allreduce over the process column
  (norm + pivotless Householder generation) plus the rank-1 panel update;
* trailing update: ``T``-assembly broadcast along rows/columns plus the
  GEMM-rich ``pdlarfb`` applied by all processes.

The grid shape is chosen by minimising the model over divisor pairs, which
mirrors how users tune ``P x Q`` in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

from ..kernels.flops import qr_useful_flops
from ..machine.model import MachineModel
from ..util.validation import check_positive_int, require

__all__ = ["ScalapackEstimate", "scalapack_qr_time"]

#: Fraction of peak the panel's BLAS-2 column kernels achieve (matvec +
#: rank-1 update are memory-bound: a few percent of peak on Istanbul).
PANEL_EFFICIENCY = 0.05
#: Fraction of peak of the trailing ``pdlarfb`` at nb=64 distribution
#: blocks (GEMM-rich but thin; well below the tile kernels' 192-wide GEMMs).
UPDATE_EFFICIENCY = 0.40
#: Per-hop software overhead of a blocking MPI collective.  On XT5-class
#: systems an allreduce over a process column of hundreds-to-thousands of
#: ranks costs several hundred microseconds end-to-end (MPI stack + tree
#: stages), i.e. ~60 us per log2 stage; ScaLAPACK's panel issues one
#: norm-allreduce and one reflector broadcast per column, synchronously.
#: This term — absent from the tile trees, which use only point-to-point
#: messages hidden behind compute — is what produces the >= 3x gap the
#: paper reports at scale.
COLLECTIVE_ALPHA_S = 60.0e-6


@dataclass(frozen=True)
class ScalapackEstimate:
    """Predicted execution profile of one ``pdgeqrf`` run."""

    seconds: float
    panel_seconds: float
    update_seconds: float
    grid: tuple[int, int]
    gflops: float

    @property
    def panel_fraction(self) -> float:
        return self.panel_seconds / self.seconds if self.seconds else 0.0


def _grid_candidates(p: int) -> list[tuple[int, int]]:
    out = []
    d = 1
    while d * d <= p:
        if p % d == 0:
            out.append((d, p // d))
            out.append((p // d, d))
        d += 1
    return sorted(set(out))


def _model_time(
    m: int, n: int, nb: int, pr: int, pc: int, machine: MachineModel
) -> tuple[float, float, float]:
    """(total, panel, update) seconds for one grid shape."""
    rate_panel = PANEL_EFFICIENCY * machine.core_peak_gflops * 1e9
    rate_update = UPDATE_EFFICIENCY * machine.core_peak_gflops * 1e9
    lat = machine.latency_s
    bw = machine.bandwidth_bps
    log_pr = max(1.0, log2(pr))
    log_pc = max(1.0, log2(pc))
    t_panel = 0.0
    t_update = 0.0
    n_panels = -(-n // nb)
    for pidx in range(n_panels):
        j = pidx * nb
        jb = min(nb, n - j)
        mj = m - j
        nj = n - j - jb
        # Panel: per column, a blocking norm-allreduce and a reflector
        # broadcast over the process column, then the local BLAS-2 update
        # of the remaining panel columns.  All synchronous, no overlap.
        per_col_comm = 2.0 * COLLECTIVE_ALPHA_S * log_pr + lat * log_pr + (mj / pr) * 8.0 / bw
        local_panel_flops = 4.0 * (mj / pr) * jb / 2.0  # avg trailing width jb/2
        t_panel += jb * (per_col_comm + local_panel_flops / rate_panel)
        if nj <= 0:
            continue
        # Update: broadcast V (col-wise) and W (row-wise), then local GEMMs.
        v_bytes = (mj / pr) * jb * 8.0
        w_bytes = jb * (nj / pc) * 8.0
        t_update += log_pc * (lat + v_bytes / bw) + log_pr * (lat + w_bytes / bw)
        local_update_flops = 4.0 * (mj / pr) * jb * (nj / pc)
        t_update += local_update_flops / rate_update
    return t_panel + t_update, t_panel, t_update


def scalapack_qr_time(
    m: int,
    n: int,
    cores: int,
    machine: MachineModel,
    *,
    nb: int = 64,
) -> ScalapackEstimate:
    """Model ``pdgeqrf`` on ``cores`` processes, best grid.

    ``nb = 64`` is the customary distribution block for XT5-class systems.
    """
    check_positive_int(cores, "cores")
    require(m >= n, f"model requires m >= n, got {m} x {n}")
    best: tuple[float, float, float, tuple[int, int]] | None = None
    for pr, pc in _grid_candidates(cores):
        total, tp, tu = _model_time(m, n, nb, pr, pc, machine)
        if best is None or total < best[0]:
            best = (total, tp, tu, (pr, pc))
    assert best is not None
    total, tp, tu, grid = best
    return ScalapackEstimate(
        seconds=total,
        panel_seconds=tp,
        update_seconds=tu,
        grid=grid,
        gflops=qr_useful_flops(m, n) / total / 1e9,
    )


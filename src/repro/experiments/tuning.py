"""Experiment E5 — Section VI's tuning protocol.

The paper runs every tree with ``nb in {192, 240}``, ``ib = 48``, and the
hierarchical tree with ``h in {6, 12}``, then reports the best.  This
experiment reproduces the sweep and reports every cell plus the per-tree
winner, so the best-of numbers used elsewhere are traceable.
"""

from __future__ import annotations

from dataclasses import replace

from .figure10 import simulate_tree_qr
from .presets import ExperimentConfig, PAPER
from .report import ExperimentResult

__all__ = ["run_tuning"]

NB_CHOICES = (192, 240)
H_CHOICES = (6, 12)


def run_tuning(
    cfg: ExperimentConfig = PAPER, *, m: int | None = None
) -> ExperimentResult:
    """Sweep (tree, nb, h) at one matrix size; report all cells."""
    m = m or cfg.fig10_m[-2]
    result = ExperimentResult(
        name=f"Tuning sweep (m={m}, n={cfg.n}, {cfg.fig10_cores} cores, ib={cfg.ib}, {cfg.name})",
        headers=["tree", "nb", "h", "gflops"],
    )
    best: dict[str, tuple[float, int, int]] = {}
    for tree in cfg.trees:
        h_values = H_CHOICES if tree == "hier" else (cfg.h,)
        for nb in NB_CHOICES:
            for h in h_values:
                c = replace(cfg, nb=nb, h=h)
                res, qtg = simulate_tree_qr(m, cfg.n, cfg.fig10_cores, tree, c)
                g = res.gflops(qtg.useful_flops)
                result.add_row(tree, nb, h if tree == "hier" else "-", round(g, 1))
                if tree not in best or g > best[tree][0]:
                    best[tree] = (g, nb, h)
    for tree, (g, nb, h) in best.items():
        result.add_note(f"best {tree}: {g:.1f} Gflop/s at nb={nb}" + (
            f", h={h}" if tree == "hier" else ""
        ))
    return result


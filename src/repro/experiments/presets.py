"""Canonical experiment configurations.

``PAPER`` is the exact setup of the paper's Section VI (Kraken, nb=192,
ib=48, h=6; Figure 10's m-sweep at 9,216 cores; Figure 11's core sweep at
368,640 x 4,608).  ``scaled(k)`` shrinks every extensive quantity by ``k``
while keeping the tile size, aspect ratios and tiles-per-core roughly
constant, so the *shape* of every result is preserved at a fraction of the
simulation cost — this is what the tests run.  ``python -m
repro.experiments <exp> --scale 1`` (or ``results/run_full.sh``) runs the
paper-size configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machine.model import MachineModel, kraken
from ..util.validation import check_positive_int, require

__all__ = ["ExperimentConfig", "PAPER", "scaled"]


@dataclass(frozen=True)
class ExperimentConfig:
    """One complete parameterisation of the evaluation section."""

    name: str
    nb: int = 192
    ib: int = 48
    h: int = 6
    n: int = 4608
    #: Figure 10 row counts (paper: 23,040 ... 737,280).
    fig10_m: tuple[int, ...] = (23040, 92160, 184320, 368640, 737280)
    #: Figure 10 core count.
    fig10_cores: int = 9216
    #: Figure 11 matrix shape.
    fig11_m: int = 368640
    #: Figure 11 core sweep (paper: 480 ... 15,360).
    fig11_cores: tuple[int, ...] = (480, 1920, 3840, 7680, 15360)
    machine: MachineModel = field(default_factory=kraken)
    trees: tuple[str, ...] = ("flat", "binary", "hier")

    def __post_init__(self) -> None:
        check_positive_int(self.nb, "nb")
        check_positive_int(self.ib, "ib")
        require(self.nb % self.ib == 0, "ib must divide nb")
        for c in (self.fig10_cores, *self.fig11_cores):
            require(
                c % self.machine.cores_per_node == 0,
                f"core count {c} must be a multiple of the node size",
            )


PAPER = ExperimentConfig(name="paper")


def scaled(factor: int) -> ExperimentConfig:
    """A 1/``factor`` configuration with the same shape.

    Rows and cores shrink together so tiles-per-core stays constant;
    ``n`` shrinks so the panel count (and hence pipeline depth) shrinks in
    proportion to available time, keeping simulations fast.
    """
    check_positive_int(factor, "factor")
    if factor == 1:
        return PAPER
    mach = PAPER.machine

    def cores(c: int) -> int:
        nodes = max(1, (c // factor) // mach.cores_per_node)
        return nodes * mach.cores_per_node

    def rows(m: int) -> int:
        return max(2 * PAPER.nb, (m // factor) // PAPER.nb * PAPER.nb)

    return ExperimentConfig(
        name=f"paper/{factor}",
        n=max(2 * PAPER.nb, (PAPER.n // max(1, factor // 4)) // PAPER.nb * PAPER.nb),
        fig10_m=tuple(rows(m) for m in PAPER.fig10_m),
        fig10_cores=cores(PAPER.fig10_cores),
        fig11_m=rows(PAPER.fig11_m),
        fig11_cores=tuple(cores(c) for c in PAPER.fig11_cores),
    )


"""Experiment drivers regenerating every figure/table of the evaluation.

Each ``run_*`` function returns an :class:`ExperimentResult` whose text
rendering mirrors the corresponding paper artefact.  The CLI
(``python -m repro.experiments <name> [--scale 1]``) wraps them, and
``tests/test_experiments.py`` asserts each figure's shape on the same
functions at reduced scale, so the CLI and the checks can never drift apart.
"""

from .chaos import run_chaos, run_chaos_sdc
from .crossover import find_crossover, run_crossover
from .figure7 import run_figure7, trace_gantt
from .mapping_ablation import LAUNCH_CONFIGS, run_mapping_ablation
from .memory_limits import run_memory_limits
from .perf import run_perf
from .figure10 import run_figure10, simulate_tree_qr
from .figure11 import run_figure11
from .presets import PAPER, ExperimentConfig, scaled
from .report import ExperimentResult
from .scheduling import run_scheduling
from .section6a import run_section6a_strong, run_section6a_weak
from .tuning import best_configuration, run_tuning
from .weak import memory_per_node, run_weak_scaling

__all__ = [
    "ExperimentResult",
    "ExperimentConfig",
    "PAPER",
    "scaled",
    "simulate_tree_qr",
    "run_figure10",
    "run_figure11",
    "run_figure7",
    "trace_gantt",
    "run_section6a_strong",
    "run_section6a_weak",
    "run_tuning",
    "best_configuration",
    "run_scheduling",
    "run_weak_scaling",
    "memory_per_node",
    "run_memory_limits",
    "run_mapping_ablation",
    "LAUNCH_CONFIGS",
    "find_crossover",
    "run_crossover",
    "run_chaos",
    "run_chaos_sdc",
    "run_perf",
]

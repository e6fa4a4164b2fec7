"""Fixture: an API layer under qr/ deriving its own schedule per call."""

from repro.qr import dag
from repro.qr.ops import expand_plans
from repro.qr.wavefront import compute_wavefronts
from repro.trees.plan import plan_all_panels


def factor(layout, kind, h):
    # Every call pays plan + expand + DAG + wavefronts again; the memo in
    # repro.qr.schedule exists so that nobody does.
    plans = plan_all_panels(kind, layout.mt, layout.nt, h=h)
    ops = expand_plans(layout, plans)
    graph = dag.op_dependency_graph(ops)
    return ops, compute_wavefronts(ops, graph)

"""Fixture: an executor under qr/ list-scheduling its own assignment per call."""

from repro.qr import schedule
from repro.qr.schedule import list_schedule


def run(ops, graph, ib, n_procs, policy):
    # A fresh tuple every call: the derivation is paid again, and the pool,
    # which compares shares by identity, pickles every worker its list again.
    shares = list_schedule(ops, graph, ib, n_procs, policy)
    return shares or schedule.list_schedule(ops, graph, ib, 2, "lazy")

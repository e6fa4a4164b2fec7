"""The protocol of the process backend as pure code.

:mod:`repro.qr.protocol` holds every decision the pipes carry out, so it
must stay free of what carries them, and the two functions that carry them
must hold no decisions of their own.  The worker's per-op path is the one
place that repeats the walk's rules, inline; it is held here to firing and
reporting exactly as the walk does.  The ledger's death rule is checked on
its own: a death that leaves nothing undone needs no heir.
"""

from __future__ import annotations

import ast
import multiprocessing as mp
import pathlib
import random

import pytest

import repro.qr.parallel as parallel_mod
import repro.qr.protocol as protocol_mod
from repro.qr.protocol import Ledger, Walk
from repro.qr.schedule import list_schedule, schedule_for
from repro.trees import TreeKind
from repro.util import ParallelExecutionError

TRANSPORT = ("multiprocessing", "select", "os", "time", "threading", "mmap",
             "repro.tiles.shared", "repro.obs")


def _tree(module):
    return ast.parse(pathlib.Path(module.__file__).read_text())


def test_the_protocol_imports_no_transport():
    imported = []
    for node in ast.walk(_tree(protocol_mod)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = "repro.qr".split(".")[: 2 - (node.level - 1)] if node.level else []
            imported.append(".".join(package + ([node.module] if node.module else [])))
    assert "repro.util.errors" in imported
    assert [m for m in imported if any(m == t or m.startswith(t + ".") for t in TRANSPORT)] == []


@pytest.mark.parametrize("name", ["execute_ops_parallel", "_serve_job"])
def test_the_transport_defines_no_nested_function(name):
    (fn,) = [node for node in _tree(parallel_mod).body
             if isinstance(node, ast.FunctionDef) and node.name == name]
    assert [node.lineno for node in ast.walk(fn) if node is not fn and isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))] == []


@pytest.fixture(scope="module")
def job():
    """Two ranks' shares of a small hier schedule, and its op list."""
    sched = schedule_for(TreeKind.HIER, 90, 25, 12, 4, 2, True)
    return sched.ops, list_schedule(sched.ops, sched.graph(), 4, 2, "lazy")


def flagged(ops, *shares):
    flags = bytearray(len(ops))
    for share in shares:
        for _, idx, _ in share:
            flags[idx] = 1
    return flags


class _Segment:
    """What ``_serve_job`` reads of a job's segment: the completion flags, the
    pause byte and the readiness test over them."""

    publish = None

    def __init__(self, flags):
        self.flags, self.pause = flags, bytearray(1)

    def ready(self, waits):
        return all(self.flags[p] for p in waits)


def walk_by_hand(share, flags, batch, park_every):
    """A :class:`Walk` stepped as the process backend's workers step it, until
    it stands still or finds nothing ready: the ops it fires, the reports it
    sends, and whether it parked."""
    walk, segment = Walk(share, batch, park_every), _Segment(flags)
    fired, reports = [], []
    while True:
        standing = walk.stands_still(segment.pause[0])
        if walk.report_due(standing):
            reports.append(walk.flush())
        if standing:
            return fired, reports, walk.stand()
        k = walk.pick(segment.ready)
        if not k:
            return fired, reports, False
        fired.append(walk.fire(k))
        flags[fired[-1]] = 1


@pytest.mark.parametrize("batch, park_every", [(1, 0), (3, 0), (10**6, 0), (2, 5)])
@pytest.mark.parametrize("seed", range(4))
def test_the_worker_fires_and_reports_as_the_walk_says(job, monkeypatch, seed, batch, park_every):
    """``_serve_job`` runs the walk's per-op rules inline.  On the same flags —
    rank 1's ops, a random half of them up — it fires the same ops in the same
    order, sends the same reports and parks when the walk does; then it reads
    the terminator waiting on its pipe."""
    ops, shares = job
    rng = random.Random(seed)
    flags = bytearray(len(ops))
    for idx in rng.sample([e[1] for e in shares[1]], len(shares[1]) // 2):
        flags[idx] = 1
    fired, reports, parked = walk_by_hand(shares[0], bytearray(flags), batch, park_every)
    assert fired and (len(fired) < len(shares[0]) or park_every)

    ran = []

    def run_step(store, ops, idxs, ib, guard, publish):
        ran.extend(idxs)
        store.flags[idxs[0]] = 1

    monkeypatch.setattr(parallel_mod, "run_step", run_step)
    parent, child = mp.Pipe()
    parent.send(("endjob",))
    end = parallel_mod._serve_job(_Segment(flags), ops, 4, None, 0, 0, child, shares[0],
                                  batch, park_every)
    sent = []
    while parent.poll(0):
        sent.append(parent.recv())
    assert end == ("endjob",) and ran == fired
    assert [m[2] for m in sent if m[0] == "done"] == reports
    assert [m for m in sent if m[0] == "parked"] == ([("parked", 0)] if parked else [])


@pytest.mark.parametrize("respawn", [True, False], ids=["respawn", "adopt"])
def test_a_death_that_leaves_nothing_undone_needs_no_heir(job, respawn):
    """Rank 1 flagged all it was given and reported none of it: booked from
    the flags, no replacement and no adoption — the budget stays whole."""
    ops, shares = job
    ledger = Ledger(ops, shares, respawn)
    booked, lost, heir = ledger.on_death(1, flagged(ops, shares[1]))
    assert sorted(booked) == sorted(e[1] for e in shares[1])
    assert (lost, heir) == ((), None)
    assert ledger.alive == {0} and ledger.owed == {0: len(shares[0]), 1: 0}
    assert ledger.respawns_left == (2 if respawn else 0)
    assert ledger.given[0] == [shares[0]]


@pytest.mark.parametrize("respawn", [True, False], ids=["respawn", "adopt"])
def test_the_last_death_after_the_last_op_is_no_error(job, respawn):
    """Every rank dies once every op is flagged: nobody is left, nothing is
    undone, and the job is complete rather than failed."""
    ops, shares = job
    ledger = Ledger(ops, shares, respawn)
    ledger.on_report(0, [e[1] for e in shares[0][:3]])
    flags = flagged(ops, *shares)
    assert ledger.on_death(1, flags)[1:] == ((), None)
    assert ledger.on_death(0, flags)[1:] == ((), None)
    assert ledger.alive == set() and ledger.finished()


def test_every_rank_dead_with_work_undone_is_still_the_typed_error(job):
    ops, shares = job
    ledger = Ledger(ops, shares, respawn=False)
    _, lost, heir = ledger.on_death(0, bytearray(len(ops)))
    assert heir == 1 and lost == tuple(sorted(shares[0]))
    with pytest.raises(ParallelExecutionError, match="no workers remain; respawn disabled"):
        ledger.on_death(1, bytearray(len(ops)))

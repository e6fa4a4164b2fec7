"""Fire on flags, not on messages: the protocol of the process backend.

Workers are given their share of the schedule once and fire each op when
the completion flags of its predecessors are up; the parent only listens.

* *Protocol*: the :mod:`repro.qr.protocol` classes the workers and the
  parent run — k ``Walk`` s, one ``Ledger`` and a ``bytearray`` of flags —
  driven under Hypothesis-chosen interleavings, with deaths (replaced or
  adopted), parks and resumes thrown in: a run always terminates, fires
  every op exactly once and never before a predecessor, and every snapshot
  frontier is predecessor-closed.
* *Real processes*: every tree, worker count, policy and report size gives
  the serial factors bit for bit; crashes at the first, a middle and the
  last op of each rank are recovered by a replacement and by a survivor,
  which take over what the dead rank had not *flagged*, however little of
  it the dead rank had reported;
  bit flips never show through a raised flag; checkpoints taken while
  workers park resume bit-exactly; a wedged worker ends in a typed error
  with nothing left behind.
* *Behaviour*: what a repeat call does not derive or pickle, what a clean
  job sends and receives, what a waiting and an idle worker cost, what the
  stats add up to, and the release/acquire pair around the flag.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing as mp
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.qr.checksum as checksum_mod
import repro.qr.execute as core_mod
import repro.qr.parallel as parallel_mod
import repro.qr.schedule as schedule_mod
import repro.tiles.shared as shared_mod
from repro import QRSession, qr_factor
from repro.analysis.races import certify_schedule
from repro.faults import FaultPlan
from repro.kernels.flops import kernel_flops
from repro.qr import CheckpointStore, resume_factorization
from repro.qr.parallel import default_n_procs, execute_ops_parallel, shutdown_workers
from repro.qr.protocol import MAX_REDISPATCH, Ledger, Walk
from repro.qr.schedule import Schedule, list_schedule, schedule_for
from repro.tiles import TileMatrix
from repro.tiles.shared import SharedTileStore
from repro.trees import TreeKind
from repro.util import WatchdogTimeout

pytestmark = pytest.mark.usefixtures("no_new_shm")

needs_fork = pytest.mark.skipif(
    mp.get_start_method() != "fork",
    reason="a monkeypatch reaches workers via fork inheritance only",
)

# Ragged on both edges: 90 = 7*12 + 6 rows, 25 = 2*12 + 1 columns.
SHAPE, NB, IB = (90, 25), 12, 4
TREES = {"flat": dict(tree="flat"), "binary": dict(tree="binary"),
         "hier": dict(tree="hier", h=2)}
N_PROCS = sorted({2, 3, 4, 2 * default_n_procs()})
BATCHES = [1, 3, 32, 10**6, None, "wavefront"]


def geometry(tree):
    return dict(nb=NB, ib=IB, **TREES[tree])


def schedule_key(tree):
    g = TREES[tree]
    return TreeKind.coerce(g["tree"]), *SHAPE, NB, IB, g.get("h", 6), True


def schedule(tree):
    return schedule_for(*schedule_key(tree))


@pytest.fixture(scope="module")
def matrix():
    return np.random.default_rng(23).standard_normal(SHAPE)


@pytest.fixture(scope="module")
def serial(matrix):
    return {tree: qr_factor(matrix, **geometry(tree)) for tree in TREES}


def records(f):
    return [(r.kind, r.i, r.k2, r.j, r.m2, r.k, r.t.tobytes()) for r in f._factors.records]


def same_factors(f, ref):
    return np.array_equal(f.R, ref.R) and records(f) == records(ref)


@pytest.fixture
def no_worker_left():
    yield
    shutdown_workers()
    assert mp.active_children() == []


# -- the protocol, driven without processes ----------------------------------------


class Drive:
    """k :class:`Walk` s, one :class:`Ledger` and a ``bytearray`` of flags: the
    process backend's protocol with each message delivered by hand.  A worker
    reads its inbox only when it naps or stands still, as it reads its pipe;
    ``ops_since`` is the checkpoint's count of ops booked since its last
    capture (``park_every`` 0: no checkpoint)."""

    def __init__(self, ops, shares, graph, batch, respawn, park_every=0,
                 walk=Walk, ledger=Ledger):
        self.n, self.batch, self.park_every, self.walk = len(ops), batch, park_every, walk
        succ_index, succ_task, _ = graph.csr_lists()
        self.preds = [set() for _ in range(self.n)]
        for u in range(self.n):
            for v in succ_task[succ_index[u]:succ_index[u + 1]]:
                self.preds[v].add(u)
        assert all(self.preds[idx] <= set(waits) for share in shares for _, idx, waits in share)
        self.flags, self.pause = bytearray(self.n), bytearray(1)
        self.fired = [0] * self.n  # kernel executions per op
        self.ledger = ledger(ops, shares, respawn)
        self.walks, self.standing, self.inbox = {}, {}, {}
        for w, share in enumerate(shares):
            self.start(w, share)
        self.ops_since = self.snapshots = 0

    def start(self, w, share):
        self.walks[w] = self.walk(share, self.batch, self.park_every)
        self.standing[w], self.inbox[w] = None, []  # standing: None, or whether parked

    def ready(self, waits):
        return all(self.flags[p] for p in waits)

    def book(self, w, idxs):
        assert not any(self.ledger.reported[idx] for idx in idxs), "an op was reported twice"
        self.ledger.on_report(w, idxs)
        self.ops_since += len(idxs)

    def hear(self, w):
        if not self.inbox[w]:
            return False
        if self.walks[w].heard(self.inbox[w].pop(0), bool(self.standing[w])):
            self.standing[w] = None
        return True

    def step(self, w):
        """Rank ``w`` takes its next step, as ``_serve_job`` takes it; False if
        it has none to take."""
        if self.standing[w] is not None:
            return self.hear(w)
        walk = self.walks[w]
        self.pause[0] = self.ledger.pausing  # the parent mirrors it into the byte
        standing = walk.stands_still(self.pause[0])
        reported = walk.report_due(standing)
        if reported:
            self.book(w, walk.flush())
        if standing:
            self.standing[w] = walk.stand()
            if self.standing[w]:
                self.ledger.on_parked(w)
            return True
        k = walk.pick(self.ready)
        if not k:
            return self.hear(w) or reported  # it naps on its pipe
        idx = walk.fire(k)
        assert all(self.flags[p] for p in self.preds[idx]), "fired before a predecessor"
        if not self.flags[idx]:
            self.fired[idx] += 1
            self.flags[idx] = 1
        return True

    def kill(self, w):
        """A confirmed death: what it flagged is booked, the rest goes on."""
        before = self.ledger.completed
        _, lost, heir = self.ledger.on_death(w, self.flags)
        assert not any(self.flags[e[1]] for e in lost), "a finished op was handed on"
        self.ops_since += self.ledger.completed - before
        if heir == w:
            self.start(w, lost)
        elif heir is not None:
            self.inbox[heir].append(("adopt", lost))

    def snapshot_due(self):
        """What the parent finds when it next looks at the checkpoint's count."""
        return bool(self.park_every) and not self.ledger.pausing and self.ops_since >= self.park_every

    def capture(self):
        done = {i for i in range(self.n) if self.flags[i]}
        assert all(self.preds[i] <= done for i in done), "frontier is not predecessor-closed"
        self.snapshots += 1
        self.ops_since = 0
        for w in self.ledger.captured():
            self.inbox[w].append(("resume",))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_model_terminates_fires_each_op_once_and_in_order(data):
    tree = data.draw(st.sampled_from(sorted(TREES)))
    k = data.draw(st.integers(2, 5))
    policy = data.draw(st.sampled_from(["lazy", "aggressive"]))
    sched = schedule(tree)
    shares = list_schedule(sched.ops, sched.graph(), IB, k, policy)
    assert certify_schedule(sched.ops, sched.graph(), assignment=shares).ok
    run = Drive(sched.ops, shares, sched.graph(),
                batch=data.draw(st.sampled_from([1, 3, 10**6])),
                respawn=data.draw(st.booleans()),
                park_every=data.draw(st.sampled_from([0, 1, 7])))
    ledger = run.ledger
    kills_left, pauses_left = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 4))
    for _ in range(20 * run.n):  # far more steps than any legal run takes
        if ledger.finished():
            break
        if ledger.capture_due():
            run.capture()
            continue
        action = data.draw(st.sampled_from(["step", "step", "step", "kill", "pause"]))
        if action == "kill" and kills_left and (ledger.respawns_left or len(ledger.alive) > 1):
            victim = data.draw(st.sampled_from(sorted(ledger.alive)))
            if all(ledger.attempts[e[1]] < MAX_REDISPATCH
                   for entries in ledger.given[victim] for e in entries
                   if not run.flags[e[1]]):  # a finished op is never handed on
                kills_left -= 1
                run.kill(victim)
                continue
        if action == "pause" and pauses_left and not ledger.pausing:
            pauses_left -= 1
            ledger.pause()
            continue
        # The parent reads the checkpoint's count whenever it gets round to
        # it — at the latest when nobody else can move.
        if run.snapshot_due() and data.draw(st.booleans()):
            ledger.pause()
            continue
        alive = sorted(ledger.alive)
        first = data.draw(st.integers(0, len(alive) - 1))
        # Deadlock freedom: while work remains somebody can always move.
        if not any(run.step(w) for w in alive[first:] + alive[:first]):
            assert run.snapshot_due(), "no live worker can fire, park or report"
            ledger.pause()
    assert ledger.finished(), "the model did not terminate"
    assert run.fired == [1] * run.n


def first_idle_schedule(ops, graph, n_procs):
    """The lazy list schedule without home ranks: one ready pool, and the
    worker that falls idle first takes its oldest op, whatever row the op
    writes — the placement ``list_schedule`` made before ops had homes.  Its
    shares leave far more to hand on at a death than row-block shares do,
    which is what the sweep needs to reach a stall."""
    succ_index, succ_task, n_deps = graph.csr_lists()
    deps_left = list(n_deps)
    preds = [[] for _ in ops]
    for u in range(len(ops)):
        for v in succ_task[succ_index[u]:succ_index[u + 1]]:
            preds[v].append(u)
    ready = [idx for idx, left in enumerate(deps_left) if left == 0]
    shares = [[] for _ in range(n_procs)]
    idle, running, now, seq = list(range(n_procs - 1, -1, -1)), [], 0.0, 0
    while ready or running:
        while idle and ready:
            rank, idx = idle.pop(), heapq.heappop(ready)
            op = ops[idx]
            cost = kernel_flops(op.kind, op.m2, op.k, op.q, IB) + schedule_mod.OP_OVERHEAD_FLOPS
            shares[rank].append((seq, idx, tuple(preds[idx])))
            heapq.heappush(running, (now + cost, seq, rank, idx))
            seq += 1
        now, _, rank, idx = heapq.heappop(running)
        idle.append(rank)
        for d in succ_task[succ_index[idx]:succ_index[idx + 1]]:
            deps_left[d] -= 1
            if deps_left[d] == 0:
                heapq.heappush(ready, d)
    return tuple(tuple(share) for share in shares)


def row_block_schedule(ops, graph, n_procs):
    return list_schedule(ops, graph, IB, n_procs, "lazy")


def sweep_survivor_adopts(tree, park_every, walk=Walk, ledger=Ledger, place=row_block_schedule):
    """Rank 0 runs as far ahead as it can, the parent looks at its count as
    late as it can, and rank 1 dies at each step in turn with no replacement
    — among them the runs where the survivor went dry before a snapshot and
    adopts after it, with the two op counts furthest apart.  ``place`` makes
    the two shares."""
    sched = schedule(tree)
    shares = place(sched.ops, sched.graph(), 2)
    assert certify_schedule(sched.ops, sched.graph(), assignment=shares).ok
    for kill_at in range(6 * len(sched.ops)):
        run = Drive(sched.ops, shares, sched.graph(), batch=3, respawn=False,
                    park_every=park_every, walk=walk, ledger=ledger)
        for step in range(20 * run.n):
            if run.ledger.finished():
                break
            if step == kill_at and 1 in run.ledger.alive:
                run.kill(1)
            elif run.ledger.capture_due():
                run.capture()
            elif not any(run.step(w) for w in sorted(run.ledger.alive)):
                assert run.snapshot_due(), f"stalled at step {step}, rank 1 died at {kill_at}"
                run.ledger.pause()
        assert run.ledger.finished() and run.fired == [1] * run.n
        if kill_at > step:
            break  # the run ended before the death: later ones are the same run


@pytest.mark.parametrize("park_every", [2, 3, 5, 7])
@pytest.mark.parametrize("tree", sorted(TREES))
def test_model_survivor_adopts_at_every_point_of_a_checkpointed_run(tree, park_every):
    """Nobody is ever left parked with no snapshot coming, on the shares the
    pool runs and on the first-idle shares that reach the stall below."""
    sweep_survivor_adopts(tree, park_every)
    sweep_survivor_adopts(tree, park_every, place=first_idle_schedule)


class _CountsOnlyParks(Walk):
    def stand(self):
        if self.todo:
            self.since_park = 0
        return bool(self.todo)


class _NoPauseOnParked(Ledger):
    def on_parked(self, w):
        self.parked.add(w)


@pytest.mark.parametrize("tree, park_every", [("flat", 7), ("binary", 5)])
def test_the_sweep_finds_the_stall_of_the_rule_before_review(tree, park_every):
    """Under the rule the review replaced — a worker's count restarts only
    when it parks, and a ``parked`` does not raise the pause — the same sweep
    stalls: it drives the real rule, not a copy of it.  The sweep runs on
    first-idle shares: on row-block shares a death hands on too little for
    any tree and ``park_every`` here to reach the stall."""
    with pytest.raises(AssertionError, match="stalled at step"):
        sweep_survivor_adopts(tree, park_every, _CountsOnlyParks, _NoPauseOnParked,
                              place=first_idle_schedule)


@pytest.mark.parametrize("tree", sorted(TREES))
def test_model_late_deaths_of_successive_owners_hand_on_one_op(tree):
    """One report per job (``batch`` = everything), and rank 1 dies right
    before the last op of its share as often as the retry budget allows: each
    death hands on that one op and charges nothing to the ops before it."""
    sched = schedule(tree)
    shares = list_schedule(sched.ops, sched.graph(), IB, 2, "lazy")
    run = Drive(sched.ops, shares, sched.graph(), batch=10**6, respawn=True)
    deaths = 0
    for _ in range(20 * run.n):
        if run.ledger.finished():
            break
        if deaths < MAX_REDISPATCH and len(run.walks[1].todo) == 1:
            run.kill(1)
            deaths += 1
            attempts = run.ledger.attempts
            assert sum(attempts) == deaths == max(attempts)
            continue
        assert any(run.step(w) for w in sorted(run.ledger.alive))
    assert run.ledger.finished() and deaths == MAX_REDISPATCH and run.fired == [1] * run.n


# -- real processes: every configuration gives the serial factors ---------------------


@pytest.mark.parametrize("n_procs", N_PROCS)
@pytest.mark.parametrize("tree", sorted(TREES))
def test_every_tree_worker_count_policy_and_batch_is_bit_equal(
        matrix, serial, tree, n_procs, no_worker_left):
    for policy in ("lazy", "aggressive"):
        for batch in BATCHES:
            par = qr_factor(matrix, **geometry(tree), backend="parallel",
                            n_procs=n_procs, policy=policy, batch=batch)
            assert par.stats.mode == "parallel"
            assert same_factors(par, serial[tree]), (tree, n_procs, policy, batch)
            assert sum(par.stats.per_worker_ops.values()) == par.stats.n_ops


# -- crashes: a replacement, or a survivor, takes over ---------------------------------

CRASH_BATCH = 4


@pytest.mark.parametrize("respawn", [True, False], ids=["respawn", "adopt"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("rank", [0, 1])
def test_crash_at_any_op_of_any_rank_is_recovered(
        matrix, serial, rank, where, respawn, no_worker_left):
    sched = schedule("hier")
    share = sched.assignment(2, "lazy")[rank]
    at = {"first": 0, "middle": len(share) // 2, "last": len(share) - 1}[where]
    tm = TileMatrix.from_dense(matrix, NB)
    factors, stats = execute_ops_parallel(
        tm, sched, IB, n_procs=2, batch=CRASH_BATCH, respawn=respawn, timeout_s=60.0,
        fault_plan=FaultPlan(crash_workers={rank: at}),
    )
    assert np.array_equal(factors.r_factor(), serial["hier"].R)
    assert (stats.workers_died, stats.workers_respawned) == (1, int(respawn))
    # What the dead worker had not flagged goes on, reported or not (its
    # reports leave in fours); the crash check comes before the op.
    assert stats.ops_redispatched == len(share) - at
    assert sum(stats.per_worker_ops.values()) == stats.n_ops
    if not respawn:
        assert stats.per_worker_ops[1 - rank] == stats.n_ops - at


class _LateDeaths(FaultPlan):
    """Rank 1 dies right before the last op of its share, and its first
    replacement — which is left that one op — right before it again."""

    def worker_crash(self, rank, generation, ops_done):
        return rank == 1 and generation < 2 and ops_done == (
            self.crash_workers[1] if generation == 0 else 0)


@pytest.mark.parametrize("batch", [None, 4])
def test_late_deaths_of_successive_owners_hand_on_one_op_each(matrix, serial, batch,
                                                              no_worker_left):
    """The done mask is the flags: with one report per job nothing of the
    dead rank's share was reported, and still only the op it had not finished
    is handed on, counted, and charged against ``MAX_REDISPATCH``."""
    sched = schedule("hier")
    share = sched.assignment(2, "lazy")[1]
    factors, stats = execute_ops_parallel(
        TileMatrix.from_dense(matrix, NB), sched, IB, n_procs=2, batch=batch,
        timeout_s=60.0, fault_plan=_LateDeaths(crash_workers={1: len(share) - 1}),
    )
    assert np.array_equal(factors.r_factor(), serial["hier"].R)
    assert [np.array_equal(r.t, s.t) for r, s in
            zip(factors.records, serial["hier"]._factors.records)] == [True] * len(factors.records)
    assert (stats.workers_died, stats.workers_respawned, stats.ops_redispatched) == (2, 2, 2)
    assert stats.per_worker_ops == {w: len(s) for w, s in enumerate(sched.assignment(2, "lazy"))}


# -- bit flips: a raised flag never endorses a corrupted tile --------------------------


@needs_fork
def test_a_flipped_op_is_never_seen_as_done(matrix, serial, tmp_path, monkeypatch, no_worker_left):
    """Spies that live in the workers (fork): a flip finds its op's flag down,
    and a flag goes up only for an op whose last verification was clean."""
    seen, dirty = {}, set()
    raw_step, raw_inject = parallel_mod.run_step, checksum_mod.SDCGuard._inject
    raw_verify, raw_publish = checksum_mod.SDCGuard.verify, SharedTileStore.publish

    def run_step(store, *args, **kw):
        seen["store"] = store
        return raw_step(store, *args, **kw)

    def inject(self, op_index, attempt, writes):
        raw_inject(self, op_index, attempt, writes)
        dirty.add(op_index)
        if seen["store"].flags[op_index]:
            (tmp_path / f"flag-up-at-flip-{op_index}").touch()

    def verify(self, op_index, *args):
        raw_verify(self, op_index, *args)
        dirty.discard(op_index)  # returned: the last checksum matched

    def publish(self, idx):
        if idx in dirty:
            (tmp_path / f"published-unverified-{idx}").touch()
        raw_publish(self, idx)

    monkeypatch.setattr(parallel_mod, "run_step", run_step)
    monkeypatch.setattr(checksum_mod.SDCGuard, "_inject", inject)
    monkeypatch.setattr(checksum_mod.SDCGuard, "verify", verify)
    monkeypatch.setattr(SharedTileStore, "publish", publish)
    par = qr_factor(matrix, **geometry("hier"), backend="parallel", n_procs=2,
                    fault_plan=FaultPlan(seed=17, flip_rate=0.3))
    assert par.stats.sdc_injected > 0
    assert par.stats.sdc_detected == par.stats.sdc_recovered == par.stats.sdc_injected
    assert same_factors(par, serial["hier"])
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_flips_stay_inside_what_the_kernel_writes():
    """The strictly-lower part of a TS/TT pivot block is reflector storage an
    unordered update may be reading: no guard flips there.  The same element
    of a view the kernel writes whole is flipped where it lies."""
    ops = schedule("hier").ops
    tsqrt = next(i for i, op in enumerate(ops) if op.kind == "TSQRT")
    geqrt = next(i for i, op in enumerate(ops) if op.kind == "GEQRT")

    def flipped(idx, view):
        class Plan:
            flip_bits = 1
            flip_target = staticmethod(
                lambda op_index, attempt, total: view * 144 + 10 * 12 + 1)  # (10, 1)
            flip_mask = staticmethod(lambda op_index, attempt: 1)

        writes = [np.ones((12, 12), order="F"), np.ones((12, 12))]
        checksum_mod.SDCGuard(Plan, ops)._inject(idx, 0, writes)
        return [tuple(int(x) for x in pos) for pos in np.argwhere(writes[view] != 1.0)]

    assert flipped(tsqrt, 0) == [(1, 10)]
    assert flipped(tsqrt, 1) == [(10, 1)]
    assert flipped(geqrt, 0) == [(10, 1)]


# -- checkpoints: workers park, the frontier is closed, resume is bit-exact -------------


class _Abort(Exception):
    pass


@pytest.mark.parametrize("every_ops", [1, 7])
def test_checkpoint_cadence_under_a_crash_then_resume(
        matrix, serial, tmp_path, every_ops, no_worker_left):
    kw = dict(**geometry("hier"), backend="parallel", n_procs=2)
    crash = FaultPlan(crash_workers={1: 5})
    # To the end: the crash is recovered, snapshots are taken on the way, and
    # the archive left behind is complete.
    done = CheckpointStore(tmp_path / "done.npz", every_ops=every_ops, every_s=3600.0)
    f = qr_factor(matrix, **kw, fault_plan=crash, checkpoint=done)
    assert same_factors(f, serial["hier"]) and f.stats.workers_died == 1
    assert done.writes >= 2
    assert resume_factorization(done.path, backend="parallel", n_procs=2).ops_skipped == f.stats.n_ops

    # Cut short after a few snapshots: a mid-DAG archive resumes bit-exactly.
    def abort(writes):
        if writes >= 3:
            raise _Abort

    mid = CheckpointStore(tmp_path / "mid.npz", every_ops=every_ops, every_s=3600.0,
                          on_write=abort)
    with pytest.raises(_Abort):
        qr_factor(matrix, **kw, fault_plan=crash, checkpoint=mid)
    assert mp.active_children() == []  # a failed job resets the pool
    resumed = resume_factorization(mid.path, backend="parallel", n_procs=2)
    assert 0 < resumed.ops_skipped < f.stats.n_ops
    assert same_factors(resumed, serial["hier"])


@pytest.mark.parametrize("at", [3, 20])
def test_a_survivor_that_ran_dry_adopts_under_a_checkpoint(
        matrix, serial, tmp_path, at, no_worker_left):
    """Rank 0 owns the first six ops — one short of ``every_ops`` — and is out
    of work long before rank 1 dies with no replacement, snapshots in between.
    Whatever the survivor has counted by then, it is never left parked with no
    snapshot coming (``every_s`` is an hour: a stall is a ``WatchdogTimeout``)."""
    sched = schedule("hier")
    order = list_schedule(sched.ops, sched.graph(), IB, 1, "lazy")[0]
    injected = Schedule(None, sched.ops, IB, sched.layout)
    injected._assignments[2, "lazy"] = (order[:6], order[6:])
    tm = TileMatrix.from_dense(matrix, NB)
    ckpt = CheckpointStore(tmp_path / "adopt.npz", every_ops=7, every_s=3600.0)
    ckpt.bind(tm, sched.ops, IB, "hier", 2, True)
    factors, stats = execute_ops_parallel(
        tm, injected, IB, n_procs=2, batch=1, respawn=False, timeout_s=10.0, checkpoint=ckpt,
        fault_plan=FaultPlan(crash_workers={1: at}),
    )
    assert np.array_equal(factors.r_factor(), serial["hier"].R)
    assert (stats.workers_died, stats.workers_respawned) == (1, 0)
    assert stats.per_worker_ops == {0: stats.n_ops - at, 1: at}
    assert ckpt.writes >= 2
    resumed = resume_factorization(ckpt.path, backend="parallel", n_procs=2)
    assert resumed.ops_skipped == stats.n_ops and same_factors(resumed, serial["hier"])


# -- a wedged worker -----------------------------------------------------------------


@needs_fork
def test_wedged_worker_raises_and_the_waiter_is_torn_down(matrix, monkeypatch, no_worker_left):
    """Op 0 is the one root of the flat tree's DAG: its owner sleeps in the
    kernel, the other rank waits on its flag, and neither outlives the
    ``WatchdogTimeout``."""
    sched = schedule("flat")
    raw_run_op = core_mod.run_op
    monkeypatch.setattr(
        core_mod, "run_op",
        lambda store, op, ib: time.sleep(60.0) if op is sched.ops[0] else raw_run_op(store, op, ib))
    t0 = time.perf_counter()
    with pytest.raises(WatchdogTimeout, match="0/44 ops reported, 0 flagged done"):
        execute_ops_parallel(TileMatrix.from_dense(matrix, NB), sched, IB, n_procs=2,
                             timeout_s=1.0)
    assert time.perf_counter() - t0 < 20.0
    assert mp.active_children() == []


# -- behaviour: what a repeat call does not pay ---------------------------------------


@pytest.fixture
def derivations(monkeypatch):
    calls = []
    raw = schedule_mod.list_schedule
    monkeypatch.setattr(schedule_mod, "list_schedule",
                        lambda *args: calls.append(args[3:]) or raw(*args))
    return calls


@pytest.fixture
def segment_plans(monkeypatch, tmp_path):
    """Who derived a segment's offset tables: one pid per derivation, in this
    process or in a worker forked from it (the patch rides in the fork)."""
    log = tmp_path / "segment_plans"
    log.touch()
    raw = shared_mod._segment_plan

    def spy(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return raw(*args)

    monkeypatch.setattr(schedule_mod, "_segment_plan", spy)
    monkeypatch.setattr(shared_mod, "_segment_plan", spy)
    return lambda: [int(pid) for pid in log.read_text().split()]


@needs_fork
def test_repeat_one_shot_call_derives_and_pickles_no_assignment(
        matrix, serial, wire, derivations, segment_plans, no_worker_left):
    sent, _ = wire
    kw = dict(**geometry("hier"), backend="parallel", n_procs=2)
    schedule_for.cache_clear()
    qr_factor(matrix, **kw)
    assert derivations == [(2, "lazy")]
    assert [m for m in sent if isinstance(m, tuple) and m[0] == "job"] == []  # rode in the fork
    # The offset tables of the segment: the parent's schedule and each
    # worker's own derive them once ...
    workers = sorted(p.pid for p in mp.active_children())
    assert sorted(segment_plans()) == sorted([os.getpid(), *workers])
    del sent[:]
    assert same_factors(qr_factor(matrix, **kw), serial["hier"])
    assert derivations == [(2, "lazy")]
    # ... and a repeat call, whose segment is new, derives none anywhere.
    assert len(segment_plans()) == 3
    headers = [m for m in sent if isinstance(m, tuple) and m[0] == "job"]
    assert [(h[3], h[-1]) for h in headers] == [(None, None)] * 2  # no op list, no share
    # Another policy is another assignment: derived once, sent once.
    del sent[:]
    for _ in range(2):
        assert same_factors(qr_factor(matrix, **kw, policy="aggressive"), serial["hier"])
    assert derivations == [(2, "lazy"), (2, "aggressive")]
    headers = [m for m in sent if isinstance(m, tuple) and m[0] == "job"]
    assert [h[-1] is None for h in headers] == [False, False, True, True]


@needs_fork
def test_warm_session_call_derives_and_pickles_no_assignment(
        matrix, serial, wire, derivations, segment_plans):
    sent, _ = wire
    schedule_for.cache_clear()
    with QRSession(n_procs=2) as sess:
        sess.factor(matrix, **geometry("hier"))
        del sent[:]
        for _ in range(3):
            assert same_factors(sess.factor(matrix, **geometry("hier")), serial["hier"])
        assert len(segment_plans()) == 3  # the cold call's: parent and two workers
        assert sess._factored == {schedule_key("hier")}  # no schedule of its own
    assert derivations == [(2, "lazy")]
    headers = [m for m in sent if isinstance(m, tuple) and m[0] == "job"]
    assert len(headers) == 6 and all(h[2] is h[3] is h[-1] is None for h in headers)


@needs_fork
def test_a_warm_session_call_outlives_the_memo(matrix, serial, derivations, segment_plans):
    """A session pins no schedule: once the process memo has dropped the key,
    a warm call derives the assignment and the segment tables again, as a
    one-shot call would, and still runs bit-equal and counts a hit."""
    schedule_for.cache_clear()
    with QRSession(n_procs=2) as sess:
        sess.factor(matrix, **geometry("hier"))
        cold = len(segment_plans())
        schedule_for.cache_clear()
        assert same_factors(sess.factor(matrix, **geometry("hier")), serial["hier"])
        assert sess.health()["plan_cache"] == {"hits": 1, "misses": 1}
    assert derivations == [(2, "lazy")] * 2 and len(segment_plans()) == 2 * cold == 6


@pytest.mark.parametrize("batch", [1, 5, 10**6, None])
def test_clean_job_is_one_assignment_down_and_reports_up(matrix, wire, batch, no_worker_left):
    sent, received = wire
    kw = dict(**geometry("hier"), backend="parallel", n_procs=2, batch=batch)
    qr_factor(matrix, **kw)  # forks the workers
    del sent[:], received[:]
    f = qr_factor(matrix, **kw)
    shares = schedule("hier").assignment(2, "lazy")
    # Nobody reads the parent's count (no recorder, no checkpoint): left to
    # itself a worker reports once, when it stands still.
    size = f.stats.n_ops if batch is None else batch
    # Down: per worker the job header, then nothing until the terminator.
    assert [m[0] for m in sent] == ["job", "job", "endjob", "endjob"]
    # Up: per worker the attach echo and ceil(ops/batch) reports.
    assert sorted(m[0] for m in received) == sorted(
        ["attached"] * 2 + ["done"] * sum(math.ceil(len(s) / size) for s in shares))
    for rank in (0, 1):
        reports = [m for m in received if m[0] == "done" and m[1] == rank]
        assert len(reports) == math.ceil(len(shares[rank]) / size)
        assert all(len(m[2]) <= size for m in reports)
        assert sorted(i for m in reports for i in m[2]) == sorted(e[1] for e in shares[rank])
        assert all(m[7] is None for m in reports)  # per-op stamps: only for a recorder
    assert f.stats.batch == size
    # The run's own count is what went over the pipes, and by default that is
    # header, attach echo, one report and terminator per worker.
    assert f.stats.pipe_messages == len(sent) + len(received)
    if batch is None:
        assert f.stats.pipe_messages == 8


@pytest.mark.parametrize("watcher", ["trace", "checkpoint"])
def test_a_recorder_or_a_checkpoint_keeps_the_report_cadence(
        matrix, serial, wire, watcher, tmp_path, no_worker_left):
    """Gauges and ``checkpoint.note_done`` read the parent's count of completed
    ops, so with either of them a worker reports every few ops as it always
    did — with per-op stamps only where spans are recorded."""
    sent, received = wire
    kw = dict(**geometry("hier"), backend="parallel", n_procs=2)
    if watcher == "trace":
        kw["trace"] = tmp_path / "run.json"
    else:
        kw["checkpoint"] = CheckpointStore(tmp_path / "run.npz", every_ops=10**6, every_s=3600.0)
    qr_factor(matrix, **kw)
    del sent[:], received[:]
    f = qr_factor(matrix, **kw)
    assert same_factors(f, serial["hier"])
    size = max(1, min(32, f.stats.n_ops // 16))
    assert f.stats.batch == size < f.stats.n_ops // 2
    reports = [m for m in received if m[0] == "done"]
    shares = schedule("hier").assignment(2, "lazy")
    assert len(reports) == sum(math.ceil(len(s) / size) for s in shares)
    assert all((m[7] is not None) == (watcher == "trace") for m in reports)
    assert all(m[7] is None or len(m[7]) == len(m[2]) for m in reports)
    assert f.stats.pipe_messages == len(sent) + len(received)


# -- behaviour: what waiting and idling cost --------------------------------------------


def test_a_worker_held_on_a_flag_sleeps(matrix):
    """``_serve_job`` in a thread of this process, held 50 ms on a flag: it
    spins its bounded budget, then naps — CPU used is a small part of it."""
    sched = schedule("hier")
    tm = TileMatrix.from_dense(matrix, NB)
    store = SharedTileStore.create(tm, sched.ops, IB)
    ours, theirs = mp.Pipe()
    out = {}
    try:
        core_mod.run_step(store, sched.ops, [0], IB)  # op 0 ran; its flag stays down
        share = ((1, 1, (0,)),)  # op 1 (an update of op 0's panel) waits on op 0

        def worker():
            cpu0 = time.thread_time()
            out["end"] = parallel_mod._serve_job(
                store, sched.ops, IB, None, 1, 0, theirs, share, 8)
            out["cpu"] = time.thread_time() - cpu0

        thread = threading.Thread(target=worker)
        thread.start()
        time.sleep(0.05)
        assert not store.flags[1]
        store.publish(0)
        assert ours.poll(5.0)
        _, rank, done, sdc, wait_s, busy_s, t_last, stamps = ours.recv()
        assert (rank, done, sdc, stamps) == (1, [1], None, None)
        assert wait_s >= 0.045 and 0.0 < busy_s < wait_s and t_last <= time.perf_counter()
        ours.send(("endjob",))
        thread.join(timeout=5.0)
        assert not thread.is_alive() and out["end"] == ("endjob",)
        assert out["cpu"] < 0.02, f"a waiting worker burned {out['cpu'] * 1e3:.1f} ms of CPU"
        assert store.flags[1]
    finally:
        ours.close()
        theirs.close()
        store.destroy()


def _cpu_ns(pid):
    """Nanoseconds the process has run (the scheduler's own count; the ticks
    of ``/proc/<pid>/stat`` keep creeping up after a fork while it sleeps)."""
    with open(f"/proc/{pid}/schedstat") as fh:
        return int(fh.read().split()[0])


@pytest.mark.skipif(not os.path.exists("/proc/self/schedstat"), reason="needs /proc schedstat")
def test_idle_workers_between_jobs_use_no_cpu(matrix, no_worker_left):
    qr_factor(matrix, **geometry("hier"), backend="parallel", n_procs=2)
    pids = [p.pid for p in mp.active_children()]
    assert len(pids) == 2
    time.sleep(0.05)  # past the endjob
    before = [_cpu_ns(pid) for pid in pids]
    time.sleep(0.4)
    assert [_cpu_ns(pid) for pid in pids] == before  # blocked in recv(), not spinning


# -- behaviour: the window adds up --------------------------------------------------------


def test_busy_plus_wait_accounts_for_the_window():
    """The tall geometry scaled down, on a warm session: per worker, kernel
    seconds + seconds with nothing ready + a few microseconds per op is the
    window the parent measured (a worker fires from the moment it reads its
    header, so the lease — a tenth of a millisecond here — is inside it)."""
    a = np.random.default_rng(2).standard_normal((2048, 256))
    kw = dict(nb=64, ib=32, tree="hier", h=4)
    gaps = []
    with QRSession(n_procs=2) as sess:
        sess.factor(a, **kw)
        for _ in range(5):
            stats = sess.factor(a, **kw).stats
            assert sorted(stats.per_worker_wait_s) == sorted(stats.per_worker_busy_s) == [0, 1]
            for w in (0, 1):
                covered = stats.per_worker_busy_s[w] + stats.per_worker_wait_s[w]
                assert 0.0 <= stats.per_worker_wait_s[w] and covered <= stats.elapsed_s
                gaps.append(1.0 - covered / stats.elapsed_s)
            assert stats.busy_fractions() == {
                w: b / stats.elapsed_s for w, b in stats.per_worker_busy_s.items()}
            assert stats.dispatch_s < stats.elapsed_s
    # The quietest call: what is in neither bucket is per-op loop overhead.
    assert min(gaps) < 0.10, f"unattributed share of the window: {min(gaps):.1%}"


# -- behaviour: the release/acquire pair ----------------------------------------------------


def test_both_sides_of_the_flag_go_through_the_fence(matrix, monkeypatch):
    """Its absence cannot be observed on x86, so it is spied on: the store of
    a flag is preceded by a fence, the load that finds it up followed by one."""
    sched = schedule("hier")
    store = SharedTileStore.create(TileMatrix.from_dense(matrix, NB), sched.ops, IB)
    trail = []
    raw_fence = shared_mod.fence

    def fence():
        trail.append(("fence", bytes(store.flags[:2])))
        raw_fence()

    monkeypatch.setattr(shared_mod, "fence", fence)
    try:
        assert not store.ready((0, 1)) and trail == []  # nothing to acquire yet
        store.publish(0)
        assert trail == [("fence", b"\0\0")]  # release: before the flag goes up
        store.publish(1)
        assert store.ready((0, 1))
        assert trail[2:] == [("fence", b"\1\1")]  # acquire: after the flags were seen up
        assert store.ready(()) and len(trail) == 4
    finally:
        store.destroy()

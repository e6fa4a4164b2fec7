"""The execution core (``repro.qr.execute``): one kernel table, one step
runner, one guarded driver.

Checks the three properties every backend leans on: a step gives the same
bits whether it runs scalar, stacked, or on a shared-memory store; an armed
SDC guard repairs a corrupted member of a stacked step before announcing it
done; and a resumed schedule emits the records an uninterrupted one does.
A structural test pins the design: inside ``src/repro/qr`` the tile kernels
are referenced by the core only.
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.qr.checksum import SDCGuard
from repro.qr.execute import KERNELS, LocalStore, run_schedule, run_step
from repro.qr.ops import FACTOR_KINDS, expand_plans, operand_views
from repro.qr.reference import execute_ops
from repro.qr.wavefront import compute_wavefronts, execute_ops_batched
from repro.tiles import TileMatrix, random_dense
from repro.tiles.shared import SharedTileStore, t_factor_key
from repro.trees import plan_all_panels

NB, IB = 8, 4
QR_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro" / "qr"


def _problem(n=20):
    """76 x 20 with nb=8: ragged last tile row (4 rows) and column (4 cols);
    hier h=2 exercises the TS and the TT kernels.  ``n=4`` makes the first
    panel itself ragged, so wide groups of ragged factor kernels exist."""
    tm = TileMatrix.from_dense(random_dense(76, n, seed=7), NB)
    ops = expand_plans(tm.layout, plan_all_panels("hier", tm.mt, tm.nt, h=2))
    return tm, ops, compute_wavefronts(ops)


def _snapshot(state, tm) -> TileMatrix:
    """An owned copy of the tiles a store currently holds."""
    grid = [[state.tile(i, j).copy() for j in range(tm.nt)] for i in range(tm.mt)]
    return TileMatrix(tm.layout, grid)


def _fork(state, tm) -> LocalStore:
    """An independent in-process store starting from ``state``'s tiles and Ts."""
    store = LocalStore(_snapshot(state, tm))
    store.ts.update(state.ts)
    return store


def _same_state(store, ref, tm, ops, members):
    for i in range(tm.mt):
        for j in range(tm.nt):
            if not np.array_equal(store.tile(i, j), ref.tile(i, j)):
                return False
    return all(
        np.array_equal(store.get_t(t_factor_key(ops[idx])), ref.get_t(t_factor_key(ops[idx])))
        for idx in members if ops[idx].is_factor
    )


def _is_ragged(op):
    return op.m2 < NB or op.k < NB or 0 < op.q < NB


def test_scalar_stacked_and_shared_store_agree_per_kind():
    covered = set()
    for n in (20, 4):
        covered |= _compare_every_wide_step(*_problem(n))
    assert covered == {(kind, ragged) for kind in KERNELS for ragged in (False, True)}


def _compare_every_wide_step(tm, ops, wavefronts):
    """Walk the schedule; run each wide step — a whole wavefront, mixed
    kinds and shapes — three ways from the same state."""
    state = LocalStore(tm.copy())
    covered = set()
    for members in wavefronts:
        if len(members) > 1:
            scalar = _fork(state, tm)
            for idx in members:
                run_step(scalar, ops, [idx], IB)
            stacked = _fork(state, tm)
            run_step(stacked, ops, members, IB)
            shared = SharedTileStore.create(_snapshot(state, tm), ops, IB)
            try:
                for key, t in state.ts.items():
                    shared.put_t(key, t)
                run_step(shared, ops, members, IB)
                assert _same_state(stacked, scalar, tm, ops, members)
                assert _same_state(shared, scalar, tm, ops, members)
            finally:
                shared.close()
                shared.unlink()
            covered |= {(ops[idx].kind, _is_ragged(ops[idx])) for idx in members}
        run_step(state, ops, members, IB)
    return covered


def test_guard_repairs_stacked_member_before_on_done():
    _check_guarded_wide_step(factor=False)


def test_guard_repairs_wide_factor_step_member_before_on_done():
    """A wide factor step runs member by member in place on the tile views
    (no gather/scatter); the guard's snapshot -> verify -> scalar repair and
    the announce-after-verify order hold for it just the same."""
    _check_guarded_wide_step(factor=True)


def _check_guarded_wide_step(factor):
    tm, ops, wavefronts = _problem()
    plan = FaultPlan(seed=3, flip_rate=0.5)
    state = LocalStore(tm.copy())
    hit = None
    for members in wavefronts:
        flipped = [idx for idx in members if plan.flip(idx, 0)]
        if (len(members) > 2 and 0 < len(flipped) < len(members)
                and any(ops[idx].is_factor == factor for idx in flipped)):
            hit = members
            break
        run_step(state, ops, members, IB)
    assert hit is not None, "no such wide step with a partial flip pattern under this seed"

    clean = _fork(state, tm)
    run_step(clean, ops, hit, IB)
    guarded = _fork(state, tm)
    guard = SDCGuard(plan, ops)
    announced = []

    def on_done(idx):
        # The member must already hold its clean bits when it is announced.
        for got, want in zip(operand_views(guarded, ops[idx])[1],
                             operand_views(clean, ops[idx])[1]):
            assert np.array_equal(got, want)
        announced.append(idx)

    run_step(guarded, ops, hit, IB, guard, on_done)
    n_flipped = sum(plan.flip(idx, 0) for idx in hit)
    assert guard.counts() == (n_flipped, n_flipped, n_flipped)
    assert announced == list(hit)
    assert _same_state(guarded, clean, tm, ops, hit)


@pytest.mark.parametrize("n_done", [0, 1, 37, 10**6])
def test_resumed_schedule_emits_the_uninterrupted_records(n_done):
    tm, ops, wavefronts = _problem()
    full = execute_ops(tm.copy(), ops, IB)
    n_done = min(n_done, len(ops))
    # A program-order prefix is predecessor-closed: run it, then resume.
    part = tm.copy()
    ts = run_schedule(part, ops[:n_done], IB)
    skip = set(range(n_done))
    preloaded = {
        idx: ts[t_factor_key(ops[idx])] for idx in skip if ops[idx].kind in FACTOR_KINDS
    }
    for resumed in (
        execute_ops(part.copy(), ops, IB, skip=skip, preloaded_ts=preloaded),
        execute_ops_batched(part.copy(), ops, IB, wavefronts=wavefronts,
                            skip=skip, preloaded_ts=preloaded),
    ):
        assert np.array_equal(resumed.r_factor(), full.r_factor())
        assert len(resumed.records) == len(full.records)
        for got, want in zip(resumed.records, full.records):
            assert (got.kind, got.i, got.k2, got.j, got.m2, got.k) == (
                want.kind, want.i, want.k2, want.j, want.m2, want.k)
            assert np.array_equal(got.t, want.t)


def _kernel_references(path: pathlib.Path):
    """``(enclosing function, name)`` of every tile-kernel reference in ``path``."""
    names = {k.lower() for k in KERNELS} | {k.lower() + "_batched" for k in KERNELS}
    tree = ast.parse(path.read_text())
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append((scope, node.attr))
        if isinstance(node, ast.ImportFrom):
            found.extend((scope, a.name) for a in node.names if a.name in names)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_only_the_core_references_the_tile_kernels():
    """Six kernels, one dispatch table: any other reference inside
    ``repro.qr`` — or any reference to the ``*_batched`` mapped forms, which
    no executor needs — is a second execution path growing back.  Allowed
    besides the core: Q application (``TileQRFactors._apply``) and the
    PULSAR VDP bodies, which fire kernels on channel-delivered tiles."""
    allowed_files = {"execute.py", "vsa3d.py"}
    core = {name for _, name in _kernel_references(QR_DIR / "execute.py")}
    assert core == {k.lower() for k in KERNELS}
    for path in sorted(QR_DIR.glob("*.py")):
        if path.name in allowed_files:
            continue
        stray = [
            ref for ref in _kernel_references(path)
            if not (path.name == "reference.py" and ref[0] == "TileQRFactors._apply")
        ]
        assert not stray, f"{path.name} references tile kernels outside the core: {stray}"

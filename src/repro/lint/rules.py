"""The project rule set.

Each rule is a generator taking a :class:`~repro.lint.FileContext` and
yielding ``(line, col, message)`` triples; the ``@rule`` decorator
registers it.  Rules that need the canonical observability vocabulary
import it lazily from :mod:`repro.obs` so the linter and the runtime
validator share one source of truth.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from typing import Iterator

from . import FileContext, rule

Finding = tuple[int, int, str]


# ---------------------------------------------------------------------------
# determinism: no wall clock / default RNG on hot paths


#: ``random`` module functions that draw from the process-global RNG.
#: Seeded ``random.Random(seed)`` instances are fine; the module-level
#: helpers are not (they make runs order-dependent and unreproducible).
_GLOBAL_RANDOM = frozenset({
    "random", "randint", "randrange", "uniform", "gauss", "normalvariate",
    "shuffle", "sample", "choice", "choices", "seed", "betavariate",
    "expovariate", "triangular", "vonmisesvariate", "getrandbits", "randbytes",
})

#: ``np.random`` attributes that are allowed: explicitly-seeded
#: constructors, not draws from the legacy global state.
_NP_RANDOM_OK = frozenset({"default_rng", "Generator", "SeedSequence",
                           "PCG64", "Philox", "SFC64", "MT19937",
                           "BitGenerator", "RandomState"})


@rule(
    "determinism",
    "no time.time() or global-RNG draws (random.*, np.random.*) in "
    "kernels/ or qr/ — hot paths must be deterministic and replayable",
    scope=("kernels", "qr"),
)
def check_determinism(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = ctx.dotted_name(node.func)
        if name is None:
            continue
        if name in ("time.time", "time.time_ns"):
            yield (node.lineno, node.col_offset,
                   f"{name}() on a hot path; timestamps belong to the obs "
                   "layer (Recorder/clock injection), not kernels or qr")
        elif name.startswith("random.") and name.split(".", 1)[1] in _GLOBAL_RANDOM:
            yield (node.lineno, node.col_offset,
                   f"{name}() draws from the process-global RNG; pass an "
                   "explicit seeded random.Random or numpy Generator")
        elif name.startswith(("np.random.", "numpy.random.")):
            attr = name.rsplit(".", 1)[1]
            if attr not in _NP_RANDOM_OK:
                yield (node.lineno, node.col_offset,
                       f"{name}() uses numpy's legacy global RNG; use "
                       "np.random.default_rng(seed) instead")


# ---------------------------------------------------------------------------
# counter-keys / event-types: obs emits must use the canonical vocabulary


@lru_cache(maxsize=1)
def _canonical_keys() -> frozenset:
    from repro.obs import canonical_counter_keys

    return frozenset(canonical_counter_keys())


@lru_cache(maxsize=1)
def _event_types() -> dict:
    from repro.obs.events import EVENT_TYPES, _RESERVED

    # ``worker``/``op``/``span`` are named parameters of Recorder.event
    # (identity stamps, not schema fields) — always legal as keywords.
    return {etype: fields | _RESERVED for etype, fields in EVENT_TYPES.items()}


_COUNT_METHODS = frozenset({"count", "count_max", "count_packet"})


@rule(
    "counter-keys",
    "string-literal keys passed to Recorder.count/count_max/count_packet "
    "must be in the canonical vocabulary (repro.obs.canonical_counter_keys)",
    # Library code only: tests exercise the generic Counters container with
    # ad-hoc keys (and str.count on string variables is indistinguishable
    # statically).  lint_fixtures is in scope so the rule's own self-test
    # fixture still trips it.
    scope=("repro", "lint_fixtures"),
)
def check_counter_keys(ctx: FileContext) -> Iterator[Finding]:
    keys = None
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _COUNT_METHODS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            continue
        # ``"abc".count("x")`` is str.count, not a Recorder emit.
        if isinstance(node.func.value, ast.Constant):
            continue
        if keys is None:
            keys = _canonical_keys()
        key = node.args[0].value
        if key not in keys:
            yield (node.lineno, node.col_offset,
                   f"counter key {key!r} is not in the canonical vocabulary; "
                   "add a K_* constant to repro.obs.record so "
                   "validate_counters accepts it")


@rule(
    "event-types",
    "string-literal event types passed to Recorder.event/EventLog.emit must "
    "exist in repro.obs.events.EVENT_TYPES, with declared field names only",
)
def check_event_types(ctx: FileContext) -> Iterator[Finding]:
    types = None
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "event"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            continue
        if types is None:
            types = _event_types()
        etype = node.args[0].value
        if etype not in types:
            yield (node.lineno, node.col_offset,
                   f"event type {etype!r} is not declared in EVENT_TYPES; "
                   "emitting it would fail schema validation at runtime")
            continue
        allowed = types[etype]
        for kw in node.keywords:
            if kw.arg is not None and kw.arg not in allowed:
                yield (kw.value.lineno, kw.value.col_offset,
                       f"event {etype!r} has no field {kw.arg!r} "
                       f"(allowed: {sorted(allowed)})")


# ---------------------------------------------------------------------------
# shm-lifecycle: os.memfd_create needs a descriptor close


@rule(
    "shm-lifecycle",
    "a file that calls os.memfd_create must also os.close a descriptor "
    "somewhere — a segment descriptor never closed keeps its pages for as "
    "long as the process, and every child forked from it, lives",
)
def check_shm_lifecycle(ctx: FileContext) -> Iterator[Finding]:
    creations, has_close = [], False
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = ctx.dotted_name(node.func)
        if name is None:
            continue
        if name.split(".")[-2:] == ["os", "close"]:
            has_close = True
        elif name.split(".")[-1] == "memfd_create":
            creations.append(node)
    if not has_close:
        for node in creations:
            yield (node.lineno, node.col_offset,
                   "os.memfd_create without any os.close() call in this "
                   "file; the segment's pages would outlive their last user")


# ---------------------------------------------------------------------------
# atomic-write: os.replace implies os.fsync in the same function


def _enclosing_scopes(tree: ast.Module):
    """Yield (scope_node, body_subtree_calls) for the module and each def."""
    scopes = [tree]
    scopes.extend(n for n in ast.walk(tree)
                  if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return scopes


@rule(
    "atomic-write",
    "os.replace() must be paired with os.fsync() in the same function: "
    "rename-into-place without flushing is a torn write after power loss",
)
def check_atomic_write(ctx: FileContext) -> Iterator[Finding]:
    # Map every call node to its nearest enclosing function (or module).
    parent_scope: dict[ast.AST, ast.AST] = {}

    def assign(scope: ast.AST, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assign(child, child)
            else:
                parent_scope[child] = scope
                assign(scope, child)

    assign(ctx.tree, ctx.tree)
    parent_scope[ctx.tree] = ctx.tree

    replaces: dict[ast.AST, list[ast.Call]] = {}
    fsyncs: set = set()
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = ctx.dotted_name(node.func)
        if name == "os.replace":
            scope = parent_scope.get(node, ctx.tree)
            replaces.setdefault(scope, []).append(node)
        elif name == "os.fsync":
            fsyncs.add(parent_scope.get(node, ctx.tree))
    for scope, nodes in replaces.items():
        # fsync in the same scope, or in a nested helper defined inside it.
        ok = scope in fsyncs or any(
            s in fsyncs for s in ast.walk(scope)
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        if ok:
            continue
        for node in nodes:
            yield (node.lineno, node.col_offset,
                   "os.replace() without os.fsync() in the same function; "
                   "write to a temp file, fsync it, then replace")


# ---------------------------------------------------------------------------
# tile-order: tile storage is allocated in the tiles layer's memory order


#: NumPy constructors that allocate (or copy into) a fresh array.
_ARRAY_ALLOCATORS = frozenset({"zeros", "empty", "ones", "full", "array", "ndarray"})


def _is_tile_shape_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and (
        node.func.attr if isinstance(node.func, ast.Attribute)
        else getattr(node.func, "id", None)
    ) == "tile_shape"


@rule(
    "tile-order",
    "np.zeros/empty/ones/full/array/ndarray of a layout.tile_shape(...) must "
    "pass order=TILE_ORDER (repro.tiles.layout): a tile in any other memory "
    "order is correct but silently runs every kernel on its copy path",
)
def check_tile_order(ctx: FileContext) -> Iterator[Finding]:
    # Names bound to a tile_shape(...) result anywhere in the file.
    shape_names = {
        target.id
        for node in ast.walk(ctx.tree)
        if isinstance(node, ast.Assign) and _is_tile_shape_call(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = ctx.dotted_name(node.func)
        if name is None or name.split(".")[0] not in ("np", "numpy"):
            continue
        if name.split(".")[-1] not in _ARRAY_ALLOCATORS:
            continue
        operands = list(node.args) + [kw.value for kw in node.keywords if kw.arg != "order"]
        if not any(
            _is_tile_shape_call(arg) or (isinstance(arg, ast.Name) and arg.id in shape_names)
            for arg in operands
        ):
            continue
        order = next((kw.value for kw in node.keywords if kw.arg == "order"), None)
        if order is None or (ctx.dotted_name(order) or "").split(".")[-1] != "TILE_ORDER":
            yield (node.lineno, node.col_offset,
                   f"{name}() of a tile_shape without order=TILE_ORDER; "
                   "allocate tiles through TileMatrix / SharedTileStore, or "
                   "pass the tiles layer's order explicitly")


# ---------------------------------------------------------------------------
# derive-once: schedules are derived in one place and memoized there


#: Pure functions of the factorization geometry that ``repro.qr.schedule``
#: memoizes per process.
_DERIVATIONS = frozenset({
    "plan_all_panels", "expand_plans", "op_dependency_graph", "compute_wavefronts",
    "list_schedule", "_segment_plan",
})

#: Files under ``qr/`` that may call them: the memo itself, the modules that
#: define them (whose ``None`` defaults serve direct callers), and the model
#: builders, which are not on the execution path (``dag.build_qr_taskgraph``
#: for the simulator, ``vsa3d`` for the PULSAR array).
_DERIVE_ALLOWED = frozenset({"schedule.py", "ops.py", "dag.py", "wavefront.py", "vsa3d.py"})


@rule(
    "derive-once",
    "inside qr/, plan_all_panels/expand_plans/op_dependency_graph/"
    "compute_wavefronts/list_schedule/_segment_plan are called only by schedule.py (the "
    "process-wide memo), their defining modules and the model builders — an "
    "executor or API layer that derives its own copy pays the fixed cost on "
    "every call, and a pool cannot tell by identity what a worker holds",
    scope=("qr",),
)
def check_derive_once(ctx: FileContext) -> Iterator[Finding]:
    if ctx.path.name in _DERIVE_ALLOWED:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = ctx.dotted_name(node.func)
        if name is not None and name.split(".")[-1] in _DERIVATIONS:
            yield (node.lineno, node.col_offset,
                   f"{name}() outside repro.qr.schedule; take plans, ops, "
                   "graph(), wavefronts(), assignment() and segment_plan() "
                   "from schedule_for(...) instead")


# ---------------------------------------------------------------------------
# mutable-default / bare-except: classic footguns, enforced tree-wide


_MUTABLE_CTORS = frozenset({"list", "dict", "set", "bytearray",
                            "defaultdict", "OrderedDict", "Counter", "deque"})


def _is_mutable_default(node: ast.expr | None) -> bool:
    if node is None:
        return False
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = node.func.id if isinstance(node.func, ast.Name) else (
            node.func.attr if isinstance(node.func, ast.Attribute) else None)
        return name in _MUTABLE_CTORS
    return False


@rule(
    "mutable-default",
    "no mutable default arguments (list/dict/set literals or constructors); "
    "the default is shared across calls",
)
def check_mutable_default(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        for default in list(args.defaults) + list(args.kw_defaults):
            if _is_mutable_default(default):
                yield (default.lineno, default.col_offset,
                       "mutable default argument; use None and create the "
                       "object inside the function")


@rule(
    "bare-except",
    "no bare `except:`; it swallows KeyboardInterrupt/SystemExit — catch "
    "Exception (or narrower) instead",
)
def check_bare_except(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield (node.lineno, node.col_offset,
                   "bare except clause; catch Exception or a narrower type")

"""Static happens-before certification of tile-QR op schedules.

The whole correctness story of this library rests on one claim: the op
dependency DAG (:func:`repro.qr.dag.op_dependency_graph`) orders every
*conflicting* pair of tile accesses, so any data-ready execution order — the
parallel dispatcher's, the wavefront executor's, the PULSAR array's —
produces factors bit-identical to the serial reference.  Until now that
property was only exercised dynamically (bit-exactness tests, chaos runs).
This module *proves* it for a given plan:

1. Every op's tile read/write sets are derived from the kernel semantics in
   :mod:`repro.qr.ops`, refined with **storage regions** (the upper ``R``
   triangle, the strictly-lower reflector storage, the TT upper trapezoid)
   because the DAG's deliberate omission of write-after-read edges is only
   sound when the racing accesses touch disjoint regions (see
   :mod:`repro.qr.dag` and the structure-awareness notes in
   :mod:`repro.kernels.tsqrt`).
2. The DAG's transitive happens-before relation is materialised as a bitset
   ancestor closure — one ``ceil(n/64)``-word row per op, built in a single
   topological sweep, so multi-thousand-op plans certify in well under a
   second and memory stays at ``n^2/8`` bytes.
3. Every conflicting pair is checked against the closure:

   * **write-write**: all writers of a tile must be totally ordered, in
     program order (consecutive-pair checks suffice by transitivity);
   * **read-after-write**: each reader must be ordered after the program-
     order last writer that produced the value it reads;
   * **write-after-read**: a later writer left unordered with an earlier
     reader is legal *only* when their storage regions are provably
     disjoint — these are the "decoupled" pairs the systolic design relies
     on, and the certificate counts them explicitly.

4. An optional wavefront partition (:func:`repro.qr.wavefront.compute_wavefronts`)
   is certified to be a complete partition of the op list into tile-disjoint
   antichains whose concatenation respects every DAG edge.
5. An optional worker assignment (:func:`repro.qr.schedule.list_schedule`) —
   what the process backend's workers walk on their own, firing on
   completion flags — is certified to give every op to exactly one rank, to
   make it wait on every DAG predecessor, and to be deadlock-free: every
   share ascends in one global order that every DAG edge follows, so each
   list is a subsequence of one topological order and the first unfinished
   op of that order can always be fired by its owner.

:func:`self_check` closes the loop on the certifier itself: it mutates a
valid schedule (drops a DAG edge, swaps cross-level wavefronts, drops a wait
and swaps two dependent entries of an assignment) and requires the mutation
to be detected — a certifier that cannot see a planted race
certifies nothing.

Machine-readable output: :meth:`ScheduleCertificate.to_json` serialises the
verdict, the conflict-pair census, and every violation found.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dessim.graph import TaskGraph, TaskGraphBuilder
from ..qr.dag import op_dependency_graph
from ..qr.ops import Op
from ..util.errors import ScheduleCertificationError

__all__ = [
    "ScheduleViolation",
    "ScheduleCertificate",
    "certify_schedule",
    "certify_geometry",
    "op_access_regions",
    "regions_overlap",
    "ancestor_closure",
    "happens_before",
    "graph_edge_list",
    "drop_graph_edge",
    "swap_wavefronts",
    "drop_assignment_wait",
    "swap_dependent_entries",
    "self_check",
]

# -- storage-region model ----------------------------------------------------

#: Whole tile.
FULL = "full"
#: Upper ``k x k`` triangle including the diagonal — where TS/TT factor
#: kernels accumulate the combined ``R`` (``r[j, j:]`` rows only).
RTRI = "rtri"
#: Strictly-lower reflector storage — what ORMQR reads as ``V`` after a
#: GEQRT (the unit diagonal is implicit, so the diagonal is *not* read).
VLOW = "vlow"
#: Upper trapezoid of the first ``m2`` rows — the TT reflector storage;
#: :func:`repro.kernels.tsqrt.ttqrt` masks out everything below it.
TTOP = "ttop"
#: First ``m2`` rows, all columns — the slice a TTMQR update rewrites.
TROWS = "toprows"

#: Region pairs that can never touch the same storage bytes.  Everything
#: else is treated as overlapping (conservative).
_DISJOINT = frozenset({frozenset((RTRI, VLOW)), frozenset((TTOP, VLOW))})


def regions_overlap(r1: str, r2: str) -> bool:
    """May accesses to regions ``r1`` and ``r2`` of one tile share bytes?"""
    return frozenset((r1, r2)) not in _DISJOINT


def op_access_regions(op: Op) -> tuple[tuple, tuple]:
    """``(reads, writes)`` of an op as ``((tile, region), ...)`` tuples.

    This is the kernel-semantics refinement of :meth:`repro.qr.ops.Op.reads`
    / :meth:`~repro.qr.ops.Op.writes`: same tiles (the certifier
    cross-checks), but each access names the storage region the kernel
    actually touches, per the structure-awareness contracts documented in
    :mod:`repro.kernels.geqrt` and :mod:`repro.kernels.tsqrt`:

    * ORMQR reads only the strictly-lower reflectors of the pivot tile;
    * TSQRT/TTQRT write only the upper ``R`` triangle of the pivot tile;
    * TTQRT writes (and TTMQR reads) only the upper trapezoid of the
      second tile — the strictly-lower bytes belong to older reflectors.
    """
    kind = op.kind
    if kind == "GEQRT":
        return (), ((((op.i, op.j)), FULL),)
    if kind == "ORMQR":
        return ((((op.i, op.j)), VLOW),), ((((op.i, op.l)), FULL),)
    if kind == "TSQRT":
        return (), ((((op.i, op.j)), RTRI), (((op.k2, op.j)), FULL))
    if kind == "TSMQR":
        return ((((op.k2, op.j)), FULL),), (
            (((op.i, op.l)), FULL),
            (((op.k2, op.l)), FULL),
        )
    if kind == "TTQRT":
        return (), ((((op.i, op.j)), RTRI), (((op.k2, op.j)), TTOP))
    if kind == "TTMQR":
        return ((((op.k2, op.j)), TTOP),), (
            (((op.i, op.l)), FULL),
            (((op.k2, op.l)), TROWS),
        )
    raise ValueError(f"unknown op kind {kind!r}")


# -- happens-before closure --------------------------------------------------


def graph_edge_list(graph: TaskGraph) -> list[tuple[int, int]]:
    """All ``(src, dst)`` edges of a task graph in CSR order."""
    edges = []
    for u in range(graph.n_tasks):
        lo, hi = int(graph.succ_index[u]), int(graph.succ_index[u + 1])
        for e in range(lo, hi):
            edges.append((u, int(graph.succ_task[e])))
    return edges


def ancestor_closure(graph: TaskGraph) -> np.ndarray | None:
    """Bitset ancestor sets: row ``v`` has bit ``u`` iff ``u`` reaches ``v``.

    One topological sweep over the DAG, OR-ing each task's predecessors'
    rows into its own — ``O(edges * n/64)`` word operations, ``n^2/8``
    bytes.  Returns ``None`` when the graph has a cycle (the caller reports
    it as a violation rather than crashing).
    """
    n = graph.n_tasks
    words = (n + 63) >> 6
    anc = np.zeros((n, words), dtype=np.uint64)
    preds: list[list[int]] = [[] for _ in range(n)]
    indeg = graph.n_deps.copy()
    for u, v in graph_edge_list(graph):
        preds[v].append(u)
    # Kahn topological order (program order for our builders, but mutated
    # graphs are certified too, so do not assume it).
    order: list[int] = [t for t in range(n) if indeg[t] == 0]
    head = 0
    while head < len(order):
        t = order[head]
        head += 1
        lo, hi = int(graph.succ_index[t]), int(graph.succ_index[t + 1])
        for e in range(lo, hi):
            d = int(graph.succ_task[e])
            indeg[d] -= 1
            if indeg[d] == 0:
                order.append(d)
    if len(order) != n:
        return None
    one = np.uint64(1)
    for v in order:
        row = anc[v]
        for u in preds[v]:
            np.bitwise_or(row, anc[u], out=row)
            row[u >> 6] |= one << np.uint64(u & 63)
    return anc


def happens_before(anc: np.ndarray, u: int, v: int) -> bool:
    """Is ``u`` a (transitive) DAG ancestor of ``v``?"""
    return bool((anc[v, u >> 6] >> np.uint64(u & 63)) & np.uint64(1))


# -- certificate -------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleViolation:
    """One certified ordering defect.

    ``kind`` is one of ``cycle``, ``ww-unordered``, ``raw-unordered``,
    ``read-without-writer``, ``war-overlap``, ``wavefront-partition``,
    ``wavefront-antichain``, ``wavefront-tiles``, ``wavefront-order``,
    ``assignment-partition``, ``assignment-wait``, ``assignment-order``.
    """

    kind: str
    tile: tuple[int, int] | None
    ops: tuple[int, ...]
    detail: str

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "tile": list(self.tile) if self.tile is not None else None,
            "ops": list(self.ops),
            "detail": self.detail,
        }


@dataclass
class ScheduleCertificate:
    """Machine-readable verdict of one certification run."""

    ok: bool
    n_ops: int
    n_edges: int
    n_tiles: int
    #: Write-write pairs implied ordered (``sum C(writers_per_tile, 2)``).
    ww_pairs: int
    #: Read-after-write pairs checked (one per read access).
    raw_pairs: int
    #: Read-vs-later-writer pairs examined for the WAR exemption.
    war_pairs: int
    #: WAR pairs left unordered *by design* — proven region-disjoint.
    war_decoupled: int
    #: Wavefronts certified (-1 when no partition was supplied).
    n_wavefronts: int
    #: Ranks of the certified assignment (-1 when none was supplied).
    n_ranks: int = -1
    violations: list[ScheduleViolation] = field(default_factory=list)
    truncated: bool = False

    def summary(self) -> str:
        verdict = "CERTIFIED" if self.ok else f"VIOLATED ({len(self.violations)} finding(s))"
        wf = f", {self.n_wavefronts} wavefronts" if self.n_wavefronts >= 0 else ""
        if self.n_ranks >= 0:
            wf += f", assignment on {self.n_ranks} ranks"
        head = (
            f"[{verdict}] {self.n_ops} ops, {self.n_edges} edges, "
            f"{self.n_tiles} tiles{wf}: {self.ww_pairs} WW + {self.raw_pairs} RAW "
            f"pairs ordered, {self.war_decoupled}/{self.war_pairs} WAR pairs "
            "decoupled by region disjointness"
        )
        if self.ok:
            return head
        lines = [head] + [
            f"  - {v.kind} tile={v.tile} ops={v.ops}: {v.detail}"
            for v in self.violations[:8]
        ]
        if len(self.violations) > 8 or self.truncated:
            lines.append("  - ... (see .violations / to_json())")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "n_ops": self.n_ops,
            "n_edges": self.n_edges,
            "n_tiles": self.n_tiles,
            "ww_pairs": self.ww_pairs,
            "raw_pairs": self.raw_pairs,
            "war_pairs": self.war_pairs,
            "war_decoupled": self.war_decoupled,
            "n_wavefronts": self.n_wavefronts,
            "n_ranks": self.n_ranks,
            "truncated": self.truncated,
            "violations": [v.to_json() for v in self.violations],
        }


# -- the certifier -----------------------------------------------------------

#: Violations collected before the certifier stops listing them (the failed
#: verdict stands; the certificate is marked truncated).
MAX_VIOLATIONS = 100
#: DAG edges :func:`self_check` samples for its drop-an-edge mutations.
SELF_CHECK_EDGES = 12


def certify_schedule(
    ops: list[Op],
    graph: TaskGraph | None = None,
    wavefronts: list[list[int]] | None = None,
    assignment=None,
) -> ScheduleCertificate:
    """Certify that a plan's DAG orders every conflicting tile access.

    Parameters
    ----------
    ops:
        The op list in serial (program) order — the semantics being
        preserved (:func:`repro.qr.ops.expand_plans`).
    graph:
        The dependency DAG to certify; defaults to
        :func:`~repro.qr.dag.op_dependency_graph` of ``ops``.  Pass a
        mutated graph to test detection.
    wavefronts:
        Optional wavefront partition to certify on top (antichains,
        tile-disjoint, level-ordered).
    assignment:
        Optional per-rank shares of ``(seq, idx, waits)`` entries
        (:func:`repro.qr.schedule.list_schedule`) to certify on top:
        an exact partition, complete waits, one deadlock-free order.
    """
    if graph is None:
        graph = op_dependency_graph(ops)
    if graph.n_tasks != len(ops):
        raise ValueError(
            f"graph has {graph.n_tasks} tasks for {len(ops)} ops"
        )
    violations: list[ScheduleViolation] = []
    truncated = False

    def report(kind, tile, op_idx, detail) -> bool:
        nonlocal truncated
        if len(violations) >= MAX_VIOLATIONS:
            truncated = True
            return False
        violations.append(ScheduleViolation(kind, tile, tuple(op_idx), detail))
        return True

    # Access sets, cross-checked against the coarse ops.py tile sets so the
    # region model cannot silently drift from the executor semantics.
    reads_of: list[tuple] = []
    writes_of: list[tuple] = []
    readers: dict[tuple[int, int], list[tuple[int, str]]] = {}
    writers: dict[tuple[int, int], list[tuple[int, str]]] = {}
    for idx, op in enumerate(ops):
        r, w = op_access_regions(op)
        if {t for t, _ in r} != set(op.reads()) or {t for t, _ in w} != set(op.writes()):
            raise ScheduleCertificationError(
                f"region model out of sync with repro.qr.ops for {op.describe()}"
            )
        reads_of.append(r)
        writes_of.append(w)
        for tile, region in r:
            readers.setdefault(tile, []).append((idx, region))
        for tile, region in w:
            writers.setdefault(tile, []).append((idx, region))
    tiles = set(readers) | set(writers)

    edges = graph_edge_list(graph)
    anc = ancestor_closure(graph)
    if anc is None:
        report("cycle", None, (), "dependency graph contains a cycle")
        return ScheduleCertificate(
            ok=False, n_ops=len(ops), n_edges=len(edges), n_tiles=len(tiles),
            ww_pairs=0, raw_pairs=0, war_pairs=0, war_decoupled=0,
            n_wavefronts=-1 if wavefronts is None else len(wavefronts),
            violations=violations,
        )

    ww_pairs = raw_pairs = war_pairs = war_decoupled = 0
    one = np.uint64(1)
    for tile in sorted(tiles):
        w_list = writers.get(tile, [])
        r_list = readers.get(tile, [])
        ww_pairs += len(w_list) * (len(w_list) - 1) // 2
        # (1) Writers totally ordered, in program order.  Consecutive pairs
        # suffice: happens-before is transitive, so a fully ordered chain
        # orders every pair the census above counts.
        for (wa, _), (wb, _) in zip(w_list, w_list[1:]):
            if not happens_before(anc, wa, wb):
                report(
                    "ww-unordered", tile, (wa, wb),
                    f"{ops[wa].describe()} and {ops[wb].describe()} both write "
                    "this tile but the DAG does not order them",
                )
        # Program-order index of each reader's source writer.
        w_idx = np.array([w for w, _ in w_list], dtype=np.int64)
        for ridx, rregion in r_list:
            raw_pairs += 1
            # (2) Read-after-write: the program-order last writer before the
            # reader produced the value it consumes; the DAG must commit to
            # that ordering.
            before = w_idx[w_idx < ridx]
            if len(before) == 0:
                report(
                    "read-without-writer", tile, (ridx,),
                    f"{ops[ridx].describe()} reads this tile before any op "
                    "writes it",
                )
                continue
            src = int(before.max())
            if not happens_before(anc, src, ridx):
                report(
                    "raw-unordered", tile, (src, ridx),
                    f"{ops[ridx].describe()} reads the value written by "
                    f"{ops[src].describe()} but the DAG does not order them",
                )
            # (3) Write-after-read: later writers left unordered with this
            # reader must touch a provably disjoint region — the systolic
            # decoupling the DAG builder documents.  Vectorised bit probe:
            # hb(reader, writer) is bit `ridx` of each writer's ancestor row.
            after = w_idx[w_idx > ridx]
            if len(after) == 0:
                continue
            war_pairs += len(after)
            bits = (anc[after, ridx >> 6] >> np.uint64(ridx & 63)) & one
            unordered = after[bits == 0]
            for widx in unordered:
                widx = int(widx)
                wregion = next(reg for w, reg in w_list if w == widx)
                if regions_overlap(rregion, wregion):
                    report(
                        "war-overlap", tile, (ridx, widx),
                        f"{ops[widx].describe()} overwrites region "
                        f"'{wregion}' while unordered with "
                        f"{ops[ridx].describe()} reading region "
                        f"'{rregion}' — regions may overlap",
                    )
                else:
                    war_decoupled += 1

    n_wf = -1
    if wavefronts is not None:
        n_wf = len(wavefronts)
        _certify_wavefronts(ops, wavefronts, edges, anc, reads_of, writes_of, report)
    if assignment is not None:
        _certify_assignment(ops, assignment, edges, report)

    return ScheduleCertificate(
        ok=not violations,
        n_ops=len(ops),
        n_edges=len(edges),
        n_tiles=len(tiles),
        ww_pairs=ww_pairs,
        raw_pairs=raw_pairs,
        war_pairs=war_pairs,
        war_decoupled=war_decoupled,
        n_wavefronts=n_wf,
        n_ranks=-1 if assignment is None else len(assignment),
        violations=violations,
        truncated=truncated,
    )


def _certify_wavefronts(ops, wavefronts, edges, anc, reads_of, writes_of, report):
    """Certify a wavefront partition: cover, antichains, tiles, ordering."""
    n = len(ops)
    wf_of = np.full(n, -1, dtype=np.int64)
    for wi, wf in enumerate(wavefronts):
        for idx in wf:
            if not (0 <= idx < n):
                report("wavefront-partition", None, (idx,),
                       f"wavefront {wi} names op {idx}, outside 0..{n - 1}")
                continue
            if wf_of[idx] >= 0:
                report("wavefront-partition", None, (idx,),
                       f"op appears in wavefronts {int(wf_of[idx])} and {wi}")
            wf_of[idx] = wi
    missing = np.flatnonzero(wf_of < 0)
    for idx in missing[:8]:
        report("wavefront-partition", None, (int(idx),),
               "op missing from every wavefront")
    words = anc.shape[1]
    one = np.uint64(1)
    for wi, wf in enumerate(wavefronts):
        members = [idx for idx in wf if 0 <= idx < n]
        # Antichain: no member may be an ancestor of another.
        mask = np.zeros(words, dtype=np.uint64)
        for idx in members:
            mask[idx >> 6] |= one << np.uint64(idx & 63)
        for idx in members:
            hit = anc[idx] & mask
            if hit.any():
                other = int(
                    np.flatnonzero(hit)[0] * 64
                    + int(hit[np.flatnonzero(hit)[0]]).bit_length() - 1
                )
                if not report(
                    "wavefront-antichain", None, (other, idx),
                    f"wavefront {wi} contains dependent ops "
                    f"({ops[other].describe()} happens-before "
                    f"{ops[idx].describe()})",
                ):
                    return
        # Tile-disjointness: no two members may touch the same tile.
        seen: dict[tuple[int, int], int] = {}
        for idx in members:
            for tile, _ in reads_of[idx] + writes_of[idx]:
                prev = seen.get(tile)
                if prev is not None and prev != idx:
                    if not report(
                        "wavefront-tiles", tile, (prev, idx),
                        f"wavefront {wi} has two ops touching one tile",
                    ):
                        return
                seen[tile] = idx
    # Level ordering: concatenating wavefronts must respect every DAG edge.
    for u, v in edges:
        if wf_of[u] < 0 or wf_of[v] < 0:
            continue
        if wf_of[u] >= wf_of[v]:
            if not report(
                "wavefront-order", None, (u, v),
                f"edge {ops[u].describe()} -> {ops[v].describe()} runs from "
                f"wavefront {int(wf_of[u])} to {int(wf_of[v])}",
            ):
                return


def _certify_assignment(ops, assignment, edges, report):
    """Certify per-rank shares: partition, waits, one deadlock-free order."""
    n = len(ops)
    seq_of: dict[int, int] = {}
    waits_of: dict[int, frozenset] = {}
    for rank, share in enumerate(assignment):
        for seq, idx, waits in share:
            if not (0 <= idx < n):
                report("assignment-partition", None, (idx,),
                       f"rank {rank} is given op {idx}, outside 0..{n - 1}")
            elif idx in seq_of:
                report("assignment-partition", None, (idx,),
                       f"op given out twice (again to rank {rank})")
            else:
                seq_of[idx], waits_of[idx] = seq, frozenset(waits)
        # A worker fires the entries of its list in this order (a short
        # look-ahead aside) and a survivor merges adopted ones by ``seq``.
        for (s0, i0, _), (s1, i1, _) in zip(share, share[1:]):
            if s0 >= s1:
                report("assignment-order", None, (i0, i1),
                       f"rank {rank}'s list does not ascend in the global order "
                       f"(seq {s0} before {s1})")
    for idx in [i for i in range(n) if i not in seq_of][:8]:
        report("assignment-partition", None, (idx,), "op given to no rank")
    for u, v in edges:
        if u not in seq_of or v not in seq_of:
            continue
        if u not in waits_of[v]:
            if not report(
                "assignment-wait", None, (u, v),
                f"{ops[v].describe()} does not wait on its predecessor "
                f"{ops[u].describe()}",
            ):
                return
        # With every share ascending, an edge that runs backwards in the
        # global order is what closes a wait cycle between two ranks.
        if seq_of[u] >= seq_of[v]:
            if not report(
                "assignment-order", None, (u, v),
                f"edge {ops[u].describe()} -> {ops[v].describe()} runs backwards "
                f"in the global order (seq {seq_of[u]} to {seq_of[v]})",
            ):
                return


# -- adversarial self-check --------------------------------------------------


def drop_graph_edge(graph: TaskGraph, edge_index: int):
    """Rebuild ``graph`` without its ``edge_index``-th edge (CSR order).

    Returns ``(mutated_graph, (src, dst))``.  Used by the self-check and
    the adversarial property tests: a certifier worth shipping must flag
    the schedule this produces whenever the edge was load-bearing.
    """
    edges = graph_edge_list(graph)
    if not (0 <= edge_index < len(edges)):
        raise ValueError(f"edge index {edge_index} outside 0..{len(edges) - 1}")
    b = TaskGraphBuilder()
    for t in range(graph.n_tasks):
        b.add_task(
            float(graph.duration[t]), int(graph.worker[t]),
            kind=int(graph.kind[t]), meta=graph.meta[t],
        )
    ei = 0
    for u in range(graph.n_tasks):
        lo, hi = int(graph.succ_index[u]), int(graph.succ_index[u + 1])
        for e in range(lo, hi):
            if ei != edge_index:
                b.add_edge(u, int(graph.succ_task[e]), float(graph.succ_delay[e]))
            ei += 1
    return b.build(), edges[edge_index]


def swap_wavefronts(wavefronts: list[list[int]], i: int, j: int) -> list[list[int]]:
    """A copy of ``wavefronts`` with entries ``i`` and ``j`` exchanged."""
    out = [list(wf) for wf in wavefronts]
    out[i], out[j] = out[j], out[i]
    return out


def drop_assignment_wait(assignment):
    """A copy of ``assignment`` whose first waiting entry waits on one op
    fewer.  Returns ``(mutated, (dropped, idx))``."""
    shares = [list(share) for share in assignment]
    for share in shares:
        for pos, (seq, idx, waits) in enumerate(share):
            if waits:
                share[pos] = (seq, idx, waits[1:])
                return tuple(tuple(sh) for sh in shares), (waits[0], idx)
    raise ValueError("no entry of the assignment waits on anything")


def swap_dependent_entries(assignment):
    """A copy of ``assignment`` in which one rank runs an op before one of its
    own predecessors: the two keep their ``seq`` and ``waits`` and trade
    places in the list.  Returns ``(mutated, (idx_a, idx_b))``."""
    shares = [list(share) for share in assignment]
    for share in shares:
        at = {entry[1]: pos for pos, entry in enumerate(share)}
        for pos, (_, idx, waits) in enumerate(share):
            for pred in waits:
                if pred in at:
                    share[at[pred]], share[pos] = share[pos], share[at[pred]]
                    return tuple(tuple(sh) for sh in shares), (pred, idx)
    raise ValueError("no rank owns both ends of a dependency")


def self_check(ops) -> dict:
    """Prove the certifier detects planted violations on this very plan:
    ``ops``, an op list, or the :class:`~repro.qr.schedule.Schedule` holding
    one, whose DAG, wavefronts and assignment are then the ones checked.

    Four stages, raising :class:`ScheduleCertificationError` on any miss:

    1. the unmutated schedule (DAG + wavefronts) must certify clean;
    2. dropping a DAG edge must be flagged **iff** it actually breaks
       reachability between its endpoints (transitively redundant edges
       leave the schedule correct, and the certifier must say so) — and at
       least one sampled edge must be load-bearing;
    3. swapping the first and last wavefronts (guaranteed cross-level for
       any plan with a dependency) must be flagged;
    4. a two-rank assignment must certify clean, and must be flagged once
       one entry waits on a predecessor fewer, and once a rank runs an op
       before its own predecessor.

    The inner block size only weights the list schedule (for a bare op list
    half the tile width); any value yields an assignment the same checks
    apply to.  Nothing of a given schedule is changed: every mutation is
    made on a copy.

    Returns a report dict for logging / CI output.
    """
    from ..qr.schedule import Schedule

    sched = ops if isinstance(ops, Schedule) else Schedule(None, ops, max(1, ops[0].k // 2), None)
    ops, graph, wavefronts = sched.ops, sched.graph(), sched.wavefronts()
    assignment = sched.assignment(2, "lazy")
    base = certify_schedule(ops, graph, wavefronts, assignment)
    if not base.ok:
        raise ScheduleCertificationError(
            "self-check aborted: baseline schedule does not certify:\n"
            + base.summary()
        )
    edges = graph_edge_list(graph)
    step = max(1, len(edges) // SELF_CHECK_EDGES)
    tried = detected = redundant = 0
    for k in range(0, len(edges), step):
        mutated, (u, v) = drop_graph_edge(graph, k)
        cert = certify_schedule(ops, mutated)
        anc = ancestor_closure(mutated)
        still_ordered = anc is not None and happens_before(anc, u, v)
        tried += 1
        if still_ordered:
            redundant += 1
            if not cert.ok:
                raise ScheduleCertificationError(
                    f"false positive: dropping redundant edge ({u}, {v}) was "
                    "flagged although reachability is intact"
                )
        else:
            detected += 1
            if cert.ok:
                raise ScheduleCertificationError(
                    f"blind spot: dropping edge ({u}, {v}) broke the ordering "
                    "of a conflicting pair but the certifier passed it"
                )
    if detected == 0:
        raise ScheduleCertificationError(
            "self-check sampled no load-bearing edge; widen SELF_CHECK_EDGES"
        )
    swap_detected = False
    if len(wavefronts) >= 2:
        swapped = swap_wavefronts(wavefronts, 0, len(wavefronts) - 1)
        cert = certify_schedule(ops, graph, swapped)
        if cert.ok:
            raise ScheduleCertificationError(
                "blind spot: swapping the first and last wavefronts was not "
                "flagged"
            )
        swap_detected = True
    planted = {}
    for name, mutate in (("assignment_wait_drop_detected", drop_assignment_wait),
                         ("assignment_swap_detected", swap_dependent_entries)):
        try:
            mutated, pair = mutate(assignment)
        except ValueError:  # a plan too small to plant this one in
            planted[name] = False
            continue
        if certify_schedule(ops, graph, assignment=mutated).ok:
            raise ScheduleCertificationError(
                f"blind spot: {mutate.__name__} on ops {pair} was not flagged"
            )
        planted[name] = True
    return {
        "ok": True,
        "edges_tried": tried,
        "edges_detected": detected,
        "edges_redundant": redundant,
        "wavefront_swap_detected": swap_detected,
        **planted,
    }


# -- convenience entry point -------------------------------------------------


def _geometry_schedule(m: int, n: int, nb: int, tree: str, h: int, shifted: bool):
    """The memoized :class:`~repro.qr.schedule.Schedule` that
    :func:`repro.qr.api.qr_factor` runs on this geometry, with the inner
    block size at half the tile width; a geometry ``qr_factor`` refuses
    raises :class:`~repro.util.errors.ConfigurationError` here too."""
    from ..qr.schedule import schedule_for
    from ..trees.plan import TreeKind
    from ..util.validation import require

    require(m >= n, f"tall-skinny QR requires m >= n, got {m} x {n}")
    return schedule_for(TreeKind.coerce(tree), m, n, nb, max(1, nb // 2), h, shifted)


def certify_geometry(
    m: int,
    n: int,
    nb: int,
    *,
    tree: str = "hier",
    h: int = 6,
    shifted: bool = True,
    wavefronts: bool = True,
) -> ScheduleCertificate:
    """Certify the schedule :func:`repro.qr.api.qr_factor` runs on one geometry.

    The objects certified are the memo's own, those of ``schedule_for(kind,
    m, n, nb, max(1, nb // 2), h, shifted)``: its ``ops``, ``graph()``,
    ``wavefronts()`` and the two-rank ``lazy`` worker assignment
    ``assignment(2, "lazy")`` — the one :func:`self_check` mutates; used by
    the module CLI and the CI schedule-certifier smoke.  To certify the
    assignment of another worker count or policy, hand the parts of the same
    schedule to :func:`certify_schedule`::

        s = schedule_for(kind, m, n, nb, ib, h, shifted)
        certify_schedule(s.ops, s.graph(), s.wavefronts(), s.assignment(k, policy))
    """
    s = _geometry_schedule(m, n, nb, tree, h, shifted)
    return certify_schedule(s.ops, s.graph(), s.wavefronts() if wavefronts else None,
                            s.assignment(2, "lazy"))

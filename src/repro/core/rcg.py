"""The Reachable Checkpoint Graph (paper §III-A1).

For one *run* — a maximal subsequence of not-yet-analyzed atoms along the
path being analyzed — the RCG has a node per candidate checkpoint position,
plus virtual ``start``/``end`` nodes for the run boundaries. An edge
``(c_i, c_j)`` exists iff the segment of atoms between the two positions can
execute within the energy budget ``EB`` under its energy-optimal memory
allocation; the edge carries that allocation (a :class:`SegmentPlan`) and
its energy cost (restore at ``c_i`` + execution + save at ``c_j``). The
shortest ``start -> end`` path (Dijkstra) yields the enabled checkpoints and
final allocations for the run.

Checkpoint positions are indexed 0..m for a run of m atoms: position ``p``
sits on the region edge entering atom ``p`` (position 0 = the run's left
boundary edge, position m = its right boundary edge). Barrier atoms
(checkpoint-bearing calls/loops, §III-B) force enabled checkpoints at both
their incident positions; no segment spans them.

Boundary handling implements §III-A3: when the run adjoins already-analyzed
atoms, the start-side criterion is the predecessor's *energy left* instead
of ``EB``, and the end-side criterion is ``EB`` minus the successor's
*energy to leave*; the adjacent segment's allocation is inherited.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import telemetry
from repro.core.allocation import (
    SegmentContext,
    SegmentFold,
    SegmentPlan,
    plan_segment,
)
from repro.core.region import Atom
from repro.ir.values import MemorySpace


@dataclass
class Boundary:
    """One end of a run.

    kind ``"fresh"``: the run starts at the region entry (resp. ends at the
    region exit); ``"atom"``: the boundary is an already-analyzed atom.

    ``energy``: on the left, the guaranteed energy available when the run
    starts (predecessor's E_left, or EB at a fresh entry); on the right, the
    energy that must remain when the run hands over (successor's E_to_leave,
    or the region's exit need).

    ``alloc``: the allocation flowing across the boundary (adjacent analyzed
    segment's allocation, or the canonical region entry/exit allocation once
    one exists). ``has_edge``: a checkpoint may sit on the boundary edge.
    ``mandatory_ckpt``: the right boundary itself must be a checkpoint
    (program exit of the entry function).
    """

    kind: str
    energy: float = 0.0
    alloc: Optional[Dict[str, MemorySpace]] = None
    has_edge: bool = True
    mandatory_ckpt: bool = False


@dataclass
class CheckpointSpec:
    """A checkpoint the RCG decided to enable, with runtime metadata."""

    position: int  # 0..m within the run
    save_names: Tuple[str, ...]
    restore_names: Tuple[str, ...]
    alloc_after: Dict[str, MemorySpace]


@dataclass
class SegmentDecision:
    """One checkpoint-free segment of the chosen RCG path.

    ``start_pos == -1``: the segment flows in from the left boundary without
    a checkpoint. ``end_pos == m + 1``: it flows out into the right boundary
    without one.
    """

    start_pos: int
    end_pos: int
    plan: SegmentPlan
    atom_uids: Tuple[int, ...]


@dataclass
class RunResult:
    """Outcome of solving one run's RCG."""

    enabled_positions: List[int]
    checkpoints: List[CheckpointSpec]
    segments: List[SegmentDecision]
    total_cost: float
    # Entry requirement when the run starts fresh at the region entry:
    entry_vm: Tuple[str, ...] = ()
    entry_restore: Tuple[str, ...] = ()
    entry_alloc: Dict[str, MemorySpace] = field(default_factory=dict)
    # Exit state when the run ends fresh at the region exit:
    exit_alloc: Dict[str, MemorySpace] = field(default_factory=dict)
    exit_vm: Tuple[str, ...] = ()
    exit_dirty: Tuple[str, ...] = ()


class RCGInfeasibleError(Exception):
    """No start->end path exists in the RCG (EB too small for some atom)."""


@dataclass
class _EdgeInfo:
    cost: float
    plan: Optional[SegmentPlan] = None
    #: save set for the checkpoint at the edge's destination when it is not
    #: derived from a segment plan (boundary saves, barrier exit saves).
    save_override: Optional[Tuple[str, ...]] = None


class RCG:
    """Builds and solves the reachable checkpoint graph for one run."""

    def __init__(
        self,
        ctx: SegmentContext,
        eb: float,
        atoms: Sequence[Atom],
        left: Boundary,
        right: Boundary,
        live_at_position: Callable[[int], Set[str]],
    ):
        self.ctx = ctx
        self.model = ctx.model
        self.eb = eb
        self.atoms = list(atoms)
        self.left = left
        self.right = right
        self.live_at_position = live_at_position
        self.m = len(self.atoms)
        self.barrier_positions = [
            i for i, atom in enumerate(self.atoms) if atom.is_barrier
        ]
        self._edges: Dict[Tuple[object, object], _EdgeInfo] = {}
        self._succs: Dict[object, List[object]] = {}
        # Build/solve statistics as plain ints — this path is hot, so no
        # telemetry calls happen here; path_analysis flushes these into
        # the telemetry counters after each solve() when tracing is on.
        self.stat_nodes = 0
        self.stat_edges = 0
        self.stat_edges_rejected_eb = 0
        self.stat_plans = 0
        self.stat_pushes = 0

    # ------------------------------------------------------------------ utils

    def _add_edge(self, src: object, dst: object, info: _EdgeInfo) -> None:
        self.stat_edges += 1
        key = (src, dst)
        existing = self._edges.get(key)
        if existing is not None and existing.cost <= info.cost:
            return
        self._edges[key] = info
        self._succs.setdefault(src, [])
        if dst not in self._succs[src]:
            self._succs[src].append(dst)

    def _positions(self) -> List[int]:
        positions = []
        if self.left.has_edge:
            positions.append(0)
        positions.extend(range(1, self.m))
        if self.right.has_edge or self.right.mandatory_ckpt:
            positions.append(self.m)
        return positions

    def _next_barrier(self, pos: int) -> Optional[int]:
        for b in self.barrier_positions:
            if b >= pos:
                return b
        return None

    def _plan(
        self,
        fold: SegmentFold,
        start_pos: int,
        end_pos: int,
        has_start_ckpt: bool,
        has_end_ckpt: bool,
        exact: Optional[Dict[str, MemorySpace]] = None,
    ) -> Optional[SegmentPlan]:
        """Plan the segment ``atoms[start_pos:end_pos]``, first extending
        ``fold`` (the atoms from ``start_pos`` planned so far) to it."""
        self.stat_plans += 1
        for atom in self.atoms[start_pos + len(fold):end_pos]:
            fold.extend(atom)
        live_at_end = self.live_at_position(end_pos)
        ctx = self.ctx
        if exact is not None:
            ctx = SegmentContext(
                model=ctx.model,
                vm_capacity=ctx.vm_capacity,
                variables=ctx.variables,
                inherited=dict(exact),
                gain_amortization=ctx.gain_amortization,
                trim_with_liveness=ctx.trim_with_liveness,
            )
            # Fully constrained allocation: no packing of new VM variables.
            return plan_segment(
                ctx, fold, live_at_end, has_start_ckpt, has_end_ckpt,
                allow_packing=False,
            )
        return plan_segment(ctx, fold, live_at_end, has_start_ckpt, has_end_ckpt)

    def _left_exact(self) -> Optional[Dict[str, MemorySpace]]:
        """Exact allocation constraint for segments flowing from the left
        boundary without a checkpoint (None means free/fresh)."""
        if self.left.kind == "atom":
            return dict(self.left.alloc or {})
        return dict(self.left.alloc) if self.left.alloc else None

    # ---------------------------------------------------------------- build

    def build(self) -> None:
        model = self.model
        positions = self._positions()
        # Every position in 1..m-1 is a candidate, so the end positions
        # past a start are the consecutive run up to the last candidate.
        last_position = positions[-1] if positions else 0
        # Each atom's cheapest conceivable execution energy (everything in
        # VM, capacity ignored). Summed left to right from the segment's
        # first atom, they bound a segment's energy from below; the bound
        # is monotone in the end position, so it prunes the j loops.
        vm_cost = model.access_cost_in_space(MemorySpace.VM)
        lower_terms = [
            atom.base_energy
            + (sum(atom.counts.reads.values())
               + sum(atom.counts.writes.values())) * vm_cost
            for atom in self.atoms
        ]

        # ---- S -> c_0: checkpoint on the boundary edge itself ---------------
        if self.left.has_edge:
            prev_alloc = self.left.alloc or {}
            prev_vm = [n for n, s in prev_alloc.items() if s is MemorySpace.VM]
            live = self.live_at_position(0)
            save_names = tuple(
                sorted(
                    n
                    for n in prev_vm
                    if n in live and not self.ctx.variables[n].is_const
                )
            )
            save_bytes = sum(
                self.ctx.variables[n].size_bytes for n in save_names
            )
            save_e = model.save_energy(save_bytes)
            if self.left.kind != "atom" or self.left.energy >= save_e:
                self._add_edge(
                    "S", ("c", 0), _EdgeInfo(save_e, save_override=save_names)
                )

        # ---- S -> c_j / S -> B / S -> T: the prefix segment ------------------
        left_mandatory = self.left.mandatory_ckpt and self.left.has_edge
        first_barrier = self._next_barrier(0)
        prefix_limit = first_barrier if first_barrier is not None else self.m
        fresh_left = self.left.kind == "fresh"
        left_exact = self._left_exact()
        fold = SegmentFold()
        lower_bound = 0.0
        for j in range(1, min(prefix_limit, last_position) + 1):
            if left_mandatory:
                break
            lower_bound += lower_terms[j - 1]
            if lower_bound > self.left.energy:
                break
            plan = self._plan(
                fold, 0, j,
                has_start_ckpt=fresh_left and left_exact is None,
                has_end_ckpt=True,
                exact=left_exact if not fresh_left else left_exact,
            )
            if plan is None:
                continue
            restore = (
                model.restore_energy(plan.restore_bytes) if fresh_left else 0.0
            )
            cost = restore + plan.exec_energy + model.save_energy(plan.save_bytes)
            if cost <= self.left.energy:
                self._add_edge(
                    "S", ("c", j),
                    _EdgeInfo(cost, plan=plan),
                )
            else:
                self.stat_edges_rejected_eb += 1
        if first_barrier is not None and not left_mandatory:
            self._edge_into_barrier("S", fold, 0, first_barrier)
        if (
            first_barrier is None
            and not self.right.mandatory_ckpt
            and not left_mandatory
        ):
            self._edge_to_end("S", fold, 0)

        # ---- interior segments c_i -> {c_j, B, T} -----------------------------
        for i in positions:
            if i >= self.m:
                continue
            barrier = self._next_barrier(i)
            limit = barrier if barrier is not None else self.m
            fold = SegmentFold()
            lower_bound = 0.0
            for j in range(i + 1, min(limit, last_position) + 1):
                lower_bound += lower_terms[j - 1]
                lower = (
                    model.restore_energy(0)
                    + lower_bound
                    + model.save_energy(0)
                )
                if lower > self.eb:
                    break
                plan = self._plan(
                    fold, i, j, has_start_ckpt=True, has_end_ckpt=True
                )
                if plan is None:
                    continue
                cost = (
                    model.restore_energy(plan.restore_bytes)
                    + plan.exec_energy
                    + model.save_energy(plan.save_bytes)
                )
                if cost <= self.eb:
                    self._add_edge(("c", i), ("c", j), _EdgeInfo(cost, plan=plan))
                else:
                    self.stat_edges_rejected_eb += 1
            if barrier is not None:
                self._edge_into_barrier(("c", i), fold, i, barrier)
            if barrier is None and not self.right.mandatory_ckpt:
                self._edge_to_end(("c", i), fold, i)

        # ---- barrier exits ------------------------------------------------------
        for b in self.barrier_positions:
            atom = self.atoms[b]
            assert atom.ckpt is not None
            node = ("b", b)
            exit_bytes = sum(
                self.ctx.variables[n].size_bytes
                for n in atom.ckpt.exit_dirty
                if n in self.ctx.variables
            )
            exit_save = model.save_energy(exit_bytes)
            if atom.ckpt.e_from_last + exit_save > self.eb:
                continue  # the barrier cannot hand over safely at all
            exit_pos = b + 1
            if exit_pos == self.m and not (
                self.right.has_edge or self.right.mandatory_ckpt
            ):
                # Fresh region exit right after the barrier: hand over
                # directly; the enclosing analysis places the exit save.
                self._add_edge(
                    node, "T",
                    _EdgeInfo(atom.ckpt.internal_energy),
                )
                continue
            self._add_edge(
                node,
                ("c", exit_pos),
                _EdgeInfo(
                    atom.ckpt.internal_energy + exit_save,
                    save_override=atom.ckpt.exit_dirty,
                ),
            )

        # ---- terminal checkpoint position --------------------------------------
        if (self.right.has_edge or self.right.mandatory_ckpt) and (
            self.m in positions
        ):
            self._add_edge(("c", self.m), "T", _EdgeInfo(0.0))

    def _edge_into_barrier(
        self, src: object, fold: SegmentFold, start_pos: int, b: int
    ) -> None:
        """Edge ``src -> B_b``: the segment ending at the barrier's entry
        checkpoint, the entry save, and the entry restore of the barrier's
        VM set. ``fold`` holds the atoms from ``start_pos`` planned so
        far."""
        model = self.model
        atom = self.atoms[b]
        assert atom.ckpt is not None
        entry_restore_bytes = sum(
            self.ctx.variables[n].size_bytes
            for n in atom.ckpt.entry_restore
            if n in self.ctx.variables
        )
        if model.restore_energy(entry_restore_bytes) + atom.ckpt.e_to_first > self.eb:
            return  # the barrier cannot start on a full budget: infeasible

        if src == "S":
            fresh = self.left.kind == "fresh"
            exact = self._left_exact()
            budget = self.left.energy
            if start_pos == b:
                # The barrier is the first atom: the entry checkpoint sits
                # on the boundary edge (must exist).
                if not self.left.has_edge:
                    # Fresh region entry directly into a barrier: its entry
                    # state becomes the region's entry requirement.
                    self._add_edge(
                        "S", ("b", b), _EdgeInfo(0.0)
                    )
                return
            plan = self._plan(
                fold, start_pos, b,
                has_start_ckpt=fresh and exact is None,
                has_end_ckpt=True,
                exact=exact,
            )
            if plan is None:
                return
            restore = model.restore_energy(plan.restore_bytes) if fresh else 0.0
            cost = restore + plan.exec_energy + model.save_energy(plan.save_bytes)
        else:
            pos = start_pos
            if pos == b:
                # Checkpoint right on the barrier's entry edge: no segment.
                self._add_edge(src, ("b", b), _EdgeInfo(
                    model.restore_energy(entry_restore_bytes)
                ))
                return
            plan = self._plan(
                fold, pos, b, has_start_ckpt=True, has_end_ckpt=True
            )
            if plan is None:
                return
            budget = self.eb
            cost = (
                model.restore_energy(plan.restore_bytes)
                + plan.exec_energy
                + model.save_energy(plan.save_bytes)
            )
        if cost > budget:
            self.stat_edges_rejected_eb += 1
            return
        total = cost + model.restore_energy(entry_restore_bytes)
        self._add_edge(src, ("b", b), _EdgeInfo(total, plan=plan))

    def _edge_to_end(
        self, src: object, fold: SegmentFold, start_pos: int
    ) -> None:
        """Edge ``src -> T``: the suffix segment flowing into the right
        boundary without a checkpoint at the boundary. ``fold`` holds the
        atoms from ``start_pos`` planned so far."""
        model = self.model
        right = self.right
        fresh_left_seg = src == "S" and self.left.kind == "fresh"
        exact: Optional[Dict[str, MemorySpace]]
        if src == "S":
            exact = self._left_exact()
            budget = self.left.energy
        else:
            exact = None
            budget = self.eb

        if right.kind == "atom":
            # Merge the exactness constraints of both boundaries.
            merged = dict(exact or {})
            for name, space in (right.alloc or {}).items():
                if merged.get(name, space) is not space:
                    return
                merged[name] = space
            plan = self._plan(
                fold, start_pos, self.m,
                has_start_ckpt=(src != "S"),
                has_end_ckpt=False,
                exact=merged,
            )
            if plan is None:
                return
            restore = (
                model.restore_energy(plan.restore_bytes) if src != "S" else (
                    model.restore_energy(plan.restore_bytes)
                    if fresh_left_seg
                    else 0.0
                )
            )
            cost = restore + plan.exec_energy
            if cost + right.energy <= budget:
                self._add_edge(src, "T", _EdgeInfo(cost, plan=plan))
            else:
                self.stat_edges_rejected_eb += 1
        else:
            # Fresh region exit. Use has_end_ckpt=True so the plan computes
            # the exit dirty set (the *enclosing* analysis pays that save);
            # the cost here excludes it.
            plan = self._plan(
                fold, start_pos, self.m,
                has_start_ckpt=(src != "S") or (fresh_left_seg and exact is None),
                has_end_ckpt=True,
                exact=exact if src == "S" else (right.alloc or None),
            )
            if plan is None:
                return
            restore = (
                model.restore_energy(plan.restore_bytes)
                if (src != "S" or fresh_left_seg)
                else 0.0
            )
            cost = restore + plan.exec_energy
            if cost + right.energy + model.save_energy(plan.save_bytes) <= budget:
                self._add_edge(src, "T", _EdgeInfo(cost, plan=plan))
            else:
                self.stat_edges_rejected_eb += 1

    # ---------------------------------------------------------------- solve

    def solve(self) -> RunResult:
        with telemetry.span("placer.rcg.build", atoms=self.m):
            self.build()
        nodes: Set[object] = set()
        for src, dst in self._edges:
            nodes.add(src)
            nodes.add(dst)
        self.stat_nodes = len(nodes)
        dist: Dict[object, float] = {"S": 0.0}
        prev: Dict[object, object] = {}
        heap: List[Tuple[float, int, object]] = [(0.0, 0, "S")]
        counter = 1
        done: Set[object] = set()
        with telemetry.span("placer.rcg.dijkstra", nodes=self.stat_nodes):
            while heap:
                d, _, node = heapq.heappop(heap)
                if node in done:
                    continue
                done.add(node)
                if node == "T":
                    break
                for succ in self._succs.get(node, []):
                    cost = self._edges[(node, succ)].cost
                    nd = d + cost
                    if nd < dist.get(succ, float("inf")):
                        dist[succ] = nd
                        prev[succ] = node
                        heapq.heappush(heap, (nd, counter, succ))
                        counter += 1
        self.stat_pushes = counter
        if "T" not in done:
            raise RCGInfeasibleError(
                f"no feasible checkpoint placement for a run of {self.m} "
                f"atoms with EB={self.eb:.1f} nJ"
            )
        path: List[object] = ["T"]
        while path[-1] != "S":
            path.append(prev[path[-1]])
        path.reverse()
        return self._decisions(path, dist["T"])

    # ------------------------------------------------------------ decisions

    def _decisions(self, path: List[object], total: float) -> RunResult:
        segments: List[SegmentDecision] = []
        enabled: List[int] = []
        #: position -> save names decided by the construct *ending* there
        saves: Dict[int, Tuple[str, ...]] = {}
        #: position -> (restore names, alloc_after) decided by what follows
        restores: Dict[int, Tuple[Tuple[str, ...], Dict[str, MemorySpace]]] = {}
        first_plan: Optional[SegmentPlan] = None
        first_from_fresh_start = False
        last_plan: Optional[SegmentPlan] = None
        last_into_fresh_exit = False
        exits_through_barrier: Optional[Atom] = None

        for a, b in zip(path, path[1:]):
            info = self._edges[(a, b)]
            # Segment boundaries implied by this edge.
            if a == "S":
                seg_start = -1
            elif isinstance(a, tuple) and a[0] == "c":
                seg_start = a[1]
            else:  # barrier node
                seg_start = a[1] + 1

            if b == "T":
                seg_end = self.m + 1
            elif isinstance(b, tuple) and b[0] == "c":
                seg_end = b[1]
            else:  # barrier node
                seg_end = b[1]

            if isinstance(b, tuple) and b[0] == "c":
                if b[1] not in enabled:
                    enabled.append(b[1])
            if isinstance(b, tuple) and b[0] == "b":
                # The barrier's entry checkpoint at position b[1] (unless it
                # coincides with a fresh region entry with no edge).
                bpos = b[1]
                atom = self.atoms[bpos]
                assert atom.ckpt is not None
                if not (a == "S" and bpos == 0 and not self.left.has_edge):
                    if bpos not in enabled:
                        enabled.append(bpos)
                alloc_after = dict(atom.ckpt.entry_forced)
                for name in atom.ckpt.entry_vm:
                    alloc_after[name] = MemorySpace.VM
                restores[bpos] = (tuple(atom.ckpt.entry_restore), alloc_after)
            if isinstance(a, tuple) and a[0] == "b" and b == "T":
                exits_through_barrier = self.atoms[a[1]]

            if info.plan is not None:
                atom_start = max(seg_start, 0)
                atom_end = min(seg_end, self.m)
                segments.append(
                    SegmentDecision(
                        start_pos=seg_start,
                        end_pos=seg_end,
                        plan=info.plan,
                        atom_uids=tuple(
                            atom.uid for atom in self.atoms[atom_start:atom_end]
                        ),
                    )
                )
                if isinstance(b, tuple):
                    saves[seg_end] = info.plan.save_names
                if isinstance(a, tuple) and a[0] == "c":
                    restores[a[1]] = (info.plan.restore_names, dict(info.plan.alloc))
                if isinstance(a, tuple) and a[0] == "b":
                    restores[a[1] + 1] = (
                        info.plan.restore_names,
                        dict(info.plan.alloc),
                    )
                if first_plan is None:
                    first_plan = info.plan
                    first_from_fresh_start = a == "S" and self.left.kind == "fresh"
                last_plan = info.plan
                last_into_fresh_exit = b == "T" and self.right.kind == "fresh"
            if info.save_override is not None and isinstance(b, tuple):
                saves.setdefault(
                    b[1] if b[0] == "c" else b[1], info.save_override
                )

        enabled.sort()
        checkpoints = [
            CheckpointSpec(
                position=pos,
                save_names=saves.get(pos, ()),
                restore_names=restores.get(pos, ((), {}))[0],
                alloc_after=restores.get(pos, ((), {}))[1],
            )
            for pos in enabled
        ]

        entry_vm: Tuple[str, ...] = ()
        entry_restore: Tuple[str, ...] = ()
        entry_alloc: Dict[str, MemorySpace] = {}
        if self.left.kind == "fresh":
            if path[1] == ("b", 0):
                atom = self.atoms[0]
                assert atom.ckpt is not None
                entry_vm = atom.ckpt.entry_vm
                entry_restore = atom.ckpt.entry_restore
                entry_alloc = dict(atom.ckpt.entry_forced)
                for name in entry_vm:
                    entry_alloc[name] = MemorySpace.VM
            elif first_plan is not None and first_from_fresh_start:
                entry_vm = first_plan.vm_names
                entry_restore = first_plan.restore_names
                entry_alloc = dict(first_plan.alloc)

        exit_alloc: Dict[str, MemorySpace] = {}
        exit_vm: Tuple[str, ...] = ()
        exit_dirty: Tuple[str, ...] = ()
        if self.right.kind == "fresh":
            if exits_through_barrier is not None:
                ckpt = exits_through_barrier.ckpt
                assert ckpt is not None
                exit_alloc = dict(ckpt.exit_forced)
                for name in ckpt.exit_vm:
                    exit_alloc[name] = MemorySpace.VM
                exit_vm = ckpt.exit_vm
                exit_dirty = ckpt.exit_dirty
            elif last_plan is not None and last_into_fresh_exit:
                exit_alloc = dict(last_plan.alloc)
                exit_vm = last_plan.vm_names
                exit_dirty = last_plan.save_names

        return RunResult(
            enabled_positions=enabled,
            checkpoints=checkpoints,
            segments=segments,
            total_cost=total,
            entry_vm=entry_vm,
            entry_restore=entry_restore,
            entry_alloc=entry_alloc,
            exit_alloc=exit_alloc,
            exit_vm=exit_vm,
            exit_dirty=exit_dirty,
        )

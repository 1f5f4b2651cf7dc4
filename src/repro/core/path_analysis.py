"""Region analysis: iterate over paths, solve RCGs, commit final decisions.

Implements §III-A3: paths are analyzed by decreasing frequency; only the
not-yet-analyzed segments of each new path are explored; decisions are
final; after each path the *energy left* (``eavail_after``) and *energy to
leave* (``eneed_before``) bounds are recomputed and constrain later runs.

A final *consistency pass* handles region edges that no analyzed path
traversed: if the VM-resident sets of the two endpoint atoms differ, a
migration checkpoint is enabled on the edge (allocation may only change at
checkpoints); barrier atoms get enabled checkpoints on every incident edge.
An independent safety check then recomputes worst-case energy-since-last-
checkpoint over the whole region and verifies it never exceeds ``EB``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.telemetry import metrics
from repro.core.allocation import SegmentContext
from repro.core.rcg import RCG, Boundary, CheckpointSpec, RCGInfeasibleError, RunResult
from repro.core.region import Atom, InsertPoint, RegionGraph
from repro.errors import InfeasibleBudgetError, PlacementError
from repro.ir.values import MemorySpace


@dataclass
class PlacedCheckpoint:
    """A checkpoint committed on a region edge (or at a region exit)."""

    points: List[InsertPoint]
    save_names: Tuple[str, ...]
    restore_names: Tuple[str, ...]
    alloc_after: Dict[str, MemorySpace]
    #: (src_uid, dst_uid); dst_uid == -1 for an exit checkpoint.
    edge: Tuple[int, int]


@dataclass
class RegionOutcome:
    """Everything the enclosing analysis needs about an analyzed region."""

    checkpoints: List[PlacedCheckpoint]
    atom_alloc: Dict[int, Dict[str, MemorySpace]]
    #: VM residency at each exit atom, keyed by its block label (loop-body
    #: regions expose this so exit-edge checkpoints can save per exit point).
    exit_vm_by_label: Dict[str, Tuple[str, ...]]
    #: Union of every atom's allocation. For *plain* regions this is the
    #: single region-wide allocation that must be imposed on the enclosing
    #: segment (a variable only touched on a cold path still has a final
    #: placement that the outside world must respect).
    combined_alloc: Dict[str, MemorySpace]
    entry_vm: Tuple[str, ...]
    entry_restore: Tuple[str, ...]
    entry_alloc: Dict[str, MemorySpace]
    exit_alloc: Dict[str, MemorySpace]
    exit_vm: Tuple[str, ...]
    exit_dirty: Tuple[str, ...]
    e_to_first: float
    e_from_last: float
    total_energy: float
    vm_bytes_peak: int

    @property
    def plain(self) -> bool:
        return not self.checkpoints


class RegionAnalysis:
    """Analyzes one region (function body or loop body)."""

    def __init__(
        self,
        region: RegionGraph,
        ctx: SegmentContext,
        eb: float,
        live_at_edge: Callable[[int, int], Set[str]],
        exit_live: Set[str],
        exit_need: float,
        exit_is_checkpoint: bool,
    ):
        """``live_at_edge(src_uid, dst_uid)`` returns the variables live on
        a region edge; ``exit_live`` those live when the region exits.
        ``exit_is_checkpoint`` marks the entry function, whose region exit
        is a mandatory checkpoint (the program-end flush)."""
        self.region = region
        self.ctx = ctx
        self.model = ctx.model
        self.eb = eb
        self.live_at_edge = live_at_edge
        self.exit_live = exit_live
        self.exit_need = exit_need
        self.exit_is_checkpoint = exit_is_checkpoint

        self.analyzed: Set[int] = set()
        self.atom_alloc: Dict[int, Dict[str, MemorySpace]] = {}
        self.eavail_after: Dict[int, float] = {}
        self.eneed_before: Dict[int, float] = {}
        #: (src_uid, dst_uid) -> checkpoints on that edge (one per
        #: insertion point when a barrier loop exit needs per-point saves)
        self.enabled: Dict[Tuple[int, int], List[PlacedCheckpoint]] = {}
        self.disabled: Set[Tuple[int, int]] = set()
        self.entry_vm: Tuple[str, ...] = ()
        self.entry_restore: Tuple[str, ...] = ()
        self.entry_alloc: Dict[str, MemorySpace] = {}
        self.exit_alloc: Optional[Dict[str, MemorySpace]] = None
        self.exit_vm: Tuple[str, ...] = ()
        self.exit_dirty: Tuple[str, ...] = ()
        self._exit_checkpoints: List[PlacedCheckpoint] = []

    # ------------------------------------------------------------------ public

    def analyze(self, paths: Sequence[Sequence[int]]) -> RegionOutcome:
        """Analyze paths (most frequent first), then reconcile leftovers."""
        for path in paths:
            self._analyze_path(list(path))
        self._cover_remaining()
        self._consistency_pass()
        self._recompute_bounds()
        return self._outcome()

    # ------------------------------------------------------------- path walk

    def _analyze_path(self, path: List[int]) -> None:
        region = self.region
        if not path or path[0] != region.entry_uid:
            raise PlacementError(
                f"region {region.region_id}: path must start at the entry atom"
            )
        i = 0
        changed = False
        while i < len(path):
            if path[i] in self.analyzed:
                i += 1
                continue
            j = i
            while j < len(path) and path[j] not in self.analyzed:
                j += 1
            self._analyze_run(path, i, j)
            changed = True
            i = j
        if changed:
            self._recompute_bounds()

    def _analyze_run(self, path: List[int], i: int, j: int) -> None:
        region = self.region
        run_uids = path[i:j]
        atoms = [region.atom(uid) for uid in run_uids]
        m = len(atoms)

        # Left boundary.
        if i == 0:
            left = Boundary(
                kind="fresh",
                energy=self.eb,
                alloc=dict(self.entry_alloc) if self.entry_alloc else None,
                has_edge=False,
            )
        else:
            prev = path[i - 1]
            prev_atom = region.atom(prev)
            left = Boundary(
                kind="atom",
                energy=self.eavail_after.get(prev, 0.0),
                alloc=dict(self.atom_alloc.get(prev, {})),
                has_edge=True,
                # A barrier loop's exit residency differs per exit edge, so
                # flowing through the boundary without a checkpoint is not
                # allowed: the edge checkpoint resolves the save per point.
                mandatory_ckpt=prev_atom.is_barrier,
            )

        # Right boundary.
        at_exit = j == len(path)
        if at_exit:
            right = Boundary(
                kind="fresh",
                energy=self.exit_need,
                alloc=dict(self.exit_alloc) if self.exit_alloc else None,
                has_edge=self.exit_is_checkpoint,
                mandatory_ckpt=self.exit_is_checkpoint,
            )
        else:
            nxt = path[j]
            nxt_atom = region.atom(nxt)
            if nxt_atom.is_barrier:
                # A barrier requires a checkpoint on its entry edge.
                alloc_after = dict(nxt_atom.ckpt.entry_forced)  # type: ignore[union-attr]
                for name in nxt_atom.ckpt.entry_vm:  # type: ignore[union-attr]
                    alloc_after[name] = MemorySpace.VM
                right = Boundary(
                    kind="atom",
                    energy=0.0,
                    alloc=alloc_after,
                    has_edge=True,
                    mandatory_ckpt=True,
                )
            else:
                right = Boundary(
                    kind="atom",
                    energy=self.eneed_before.get(nxt, 0.0),
                    alloc=dict(self.atom_alloc.get(nxt, {})),
                    has_edge=True,
                )

        def live_at_position(p: int) -> Set[str]:
            if p <= 0:
                if i == 0:
                    return self.live_at_edge(-1, run_uids[0])
                return self.live_at_edge(path[i - 1], run_uids[0])
            if p >= m:
                if at_exit:
                    return set(self.exit_live)
                return self.live_at_edge(run_uids[-1], path[j])
            return self.live_at_edge(run_uids[p - 1], run_uids[p])

        rcg = RCG(self.ctx, self.eb, atoms, left, right, live_at_position)
        try:
            result = rcg.solve()
        except RCGInfeasibleError as exc:
            raise InfeasibleBudgetError(
                f"region {self.region.region_id}: {exc}"
            ) from exc
        finally:
            mm = metrics.get()
            if mm is not None:
                mm.counter("placer.rcg.runs").add(1)
                mm.counter("placer.rcg.nodes").add(rcg.stat_nodes)
                mm.counter("placer.rcg.edges").add(rcg.stat_edges)
                mm.counter("placer.rcg.edges_rejected_eb").add(
                    rcg.stat_edges_rejected_eb
                )
                mm.counter("placer.rcg.plans_evaluated").add(rcg.stat_plans)
                mm.counter("placer.rcg.dijkstra_pushes").add(rcg.stat_pushes)
                mm.histogram("placer.rcg.atoms_per_run").record(m)
        self._commit(path, i, j, run_uids, atoms, result, at_exit)

    # --------------------------------------------------------------- commit

    def _commit(
        self,
        path: List[int],
        i: int,
        j: int,
        run_uids: List[int],
        atoms: List[Atom],
        result: RunResult,
        at_exit: bool,
    ) -> None:
        region = self.region
        m = len(atoms)

        # Atom allocations from segment plans.
        for seg in result.segments:
            for uid in seg.atom_uids:
                self.atom_alloc[uid] = dict(seg.plan.alloc)
                self.analyzed.add(uid)
        # Barrier atoms: record their exit-side allocation.
        for atom in atoms:
            if atom.is_barrier:
                assert atom.ckpt is not None
                alloc = dict(atom.ckpt.exit_forced)
                for name in atom.ckpt.exit_vm:
                    alloc[name] = MemorySpace.VM
                self.atom_alloc[atom.uid] = alloc
                self.analyzed.add(atom.uid)
        # Any atom of the run not covered by a segment plan (can happen for
        # the single-atom-run edge cases) gets an all-NVM allocation.
        for uid in run_uids:
            if uid not in self.analyzed:
                self.atom_alloc[uid] = {}
                self.analyzed.add(uid)

        # Entry/exit canonical state.
        if i == 0 and not self.entry_alloc:
            self.entry_alloc = dict(result.entry_alloc)
            self.entry_vm = result.entry_vm
            self.entry_restore = result.entry_restore
        if at_exit and self.exit_alloc is None:
            self.exit_alloc = dict(result.exit_alloc)
            self.exit_vm = result.exit_vm
            self.exit_dirty = result.exit_dirty

        # Enabled checkpoints.
        enabled_set = set(result.enabled_positions)
        for spec in result.checkpoints:
            self._commit_checkpoint(path, i, j, run_uids, spec, at_exit)
        # Disabled positions: every interior edge of the run not enabled.
        for p in range(1, m):
            if p not in enabled_set:
                self.disabled.add((run_uids[p - 1], run_uids[p]))
        if i > 0 and 0 not in enabled_set:
            self.disabled.add((path[i - 1], run_uids[0]))
        if not at_exit and m not in enabled_set:
            self.disabled.add((run_uids[-1], path[j]))

    def _commit_checkpoint(
        self,
        path: List[int],
        i: int,
        j: int,
        run_uids: List[int],
        spec: CheckpointSpec,
        at_exit: bool,
    ) -> None:
        region = self.region
        m = len(run_uids)
        p = spec.position
        save_names = spec.save_names
        restore_names = spec.restore_names
        alloc_after = dict(spec.alloc_after)

        if p == 0:
            if i == 0:
                return  # fresh region entry has no edge (cannot happen)
            edge = (path[i - 1], run_uids[0])
            points = region.edge_points(*edge)
        elif p == m:
            if at_exit:
                # Mandatory exit checkpoint of the entry function: insert
                # before the exit atom's terminator.
                exit_atom = region.atom(run_uids[-1])
                block = region.function.blocks[exit_atom.label]
                point = InsertPoint.at_instruction(
                    exit_atom.label, len(block.instructions) - 1
                )
                self._exit_checkpoints.append(
                    PlacedCheckpoint(
                        points=[point],
                        save_names=save_names,
                        restore_names=(),
                        alloc_after={},
                        edge=(run_uids[-1], -1),
                    )
                )
                return
            edge = (run_uids[-1], path[j])
            points = region.edge_points(*edge)
            nxt_atom = region.atom(path[j])
            if not alloc_after:
                alloc_after = dict(self.atom_alloc.get(path[j], {}))
            if not restore_names:
                restore_names = tuple(
                    sorted(
                        n
                        for n, s in alloc_after.items()
                        if s is MemorySpace.VM
                    )
                )
        else:
            edge = (run_uids[p - 1], run_uids[p])
            points = region.edge_points(*edge)

        self.enabled[edge] = self._placed_for_edge(
            edge, save_names, restore_names, alloc_after
        )

    # ----------------------------------------------------------- coverage

    def _cover_remaining(self) -> None:
        """Analyze paths through every atom no traced path reached
        (§III-A3: "Paths are formed from these never-executed codes ... and
        are analyzed at the end of the algorithm to ensure complete code
        coverage")."""
        pending = [
            uid for uid in self.region.topological() if uid not in self.analyzed
        ]
        guard = 0
        while pending:
            guard += 1
            if guard > len(self.region.atoms) + 8:
                raise PlacementError(
                    f"region {self.region.region_id}: coverage loop failed "
                    "to converge"
                )
            target = pending[0]
            path = self._path_through(target)
            self._analyze_path(path)
            pending = [
                uid
                for uid in self.region.topological()
                if uid not in self.analyzed
            ]

    def _path_through(self, target: int) -> List[int]:
        """A region path entry -> target -> exit (BFS both ways)."""
        region = self.region

        def bfs(start: int, goal_test, neighbors) -> List[int]:
            from collections import deque

            queue = deque([[start]])
            seen = {start}
            while queue:
                current = queue.popleft()
                node = current[-1]
                if goal_test(node):
                    return current
                for nxt in neighbors(node):
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(current + [nxt])
            raise PlacementError(
                f"region {region.region_id}: atom {target} unreachable"
            )

        prefix = bfs(
            target,
            lambda n: n == region.entry_uid,
            lambda n: region.preds[n],
        )
        prefix.reverse()
        suffix = bfs(
            target,
            lambda n: n in region.exit_uids or not region.succs[n],
            lambda n: region.succs[n],
        )
        return prefix + suffix[1:]

    # ------------------------------------------------------ consistency pass

    def _vm_set(self, uid: int) -> Tuple[str, ...]:
        alloc = self.atom_alloc.get(uid, {})
        return tuple(
            sorted(n for n, s in alloc.items() if s is MemorySpace.VM)
        )

    def _consistency_pass(self) -> None:
        """Enable migration checkpoints on edges no analyzed path used when
        the two endpoint allocations disagree, and on every edge incident to
        a barrier atom."""
        region = self.region
        for src, dst in region.edges():
            edge = (src, dst)
            dst_atom = region.atom(dst)
            src_atom = region.atom(src)
            if edge in self.enabled:
                continue
            needs_ckpt = False
            if dst_atom.is_barrier or src_atom.is_barrier:
                needs_ckpt = True
            elif edge in self.disabled:
                if self._vm_set(src) != self._vm_set(dst):
                    # Both endpoints were analyzed on different paths with
                    # different residency: migrate here.
                    needs_ckpt = True
                else:
                    continue
            else:
                # Edge never traversed by an analyzed path.
                if self._vm_set(src) == self._vm_set(dst):
                    self.disabled.add(edge)
                    continue
                needs_ckpt = True
            if not needs_ckpt:
                continue
            self.disabled.discard(edge)
            self.enabled[edge] = self._migration_checkpoint(src, dst)


    def _migration_checkpoint(self, src: int, dst: int) -> List[PlacedCheckpoint]:
        region = self.region
        dst_atom = region.atom(dst)
        live = self.live_at_edge(src, dst)
        src_vm = self._vm_set(src)
        save_names = tuple(
            sorted(
                n
                for n in src_vm
                if n in live and not self.ctx.variables[n].is_const
            )
        )
        if dst_atom.is_barrier:
            assert dst_atom.ckpt is not None
            alloc_after = dict(dst_atom.ckpt.entry_forced)
            for name in dst_atom.ckpt.entry_vm:
                alloc_after[name] = MemorySpace.VM
            restore_names = tuple(dst_atom.ckpt.entry_restore)
        else:
            alloc_after = dict(self.atom_alloc.get(dst, {}))
            restore_names = self._vm_set(dst)
        return self._placed_for_edge(
            (src, dst), save_names, restore_names, alloc_after
        )

    def _placed_for_edge(
        self,
        edge: Tuple[int, int],
        save_names: Tuple[str, ...],
        restore_names: Tuple[str, ...],
        alloc_after: Dict[str, MemorySpace],
    ) -> List[PlacedCheckpoint]:
        """Checkpoints for one region edge. When the edge leaves a barrier
        loop, the VM residency differs per internal exit point, so each
        insertion point gets its own checkpoint saving exactly what is
        resident there (CkptBearing.exit_states)."""
        src, dst = edge
        region = self.region
        points = region.edge_points(src, dst)
        src_atom = region.atom(src)
        states = {}
        default_vm: Tuple[str, ...] = ()
        if src_atom.is_barrier and src_atom.ckpt is not None:
            states = src_atom.ckpt.exit_states
            default_vm = src_atom.ckpt.exit_vm
        if not states:
            return [
                PlacedCheckpoint(
                    points=list(points),
                    save_names=save_names,
                    restore_names=restore_names,
                    alloc_after=dict(alloc_after),
                    edge=edge,
                )
            ]
        live = self.live_at_edge(src, dst)
        result = []
        for point in points:
            label = point.src if point.kind == "edge" else point.label
            vm = states.get(label, default_vm)
            save = tuple(
                sorted(
                    n
                    for n in vm
                    if n in live and not self.ctx.variables[n].is_const
                )
            )
            result.append(
                PlacedCheckpoint(
                    points=[point],
                    save_names=save,
                    restore_names=restore_names,
                    alloc_after=dict(alloc_after),
                    edge=edge,
                )
            )
        return result

    def _edge_save_cost(self, ckpts: List[PlacedCheckpoint]) -> float:
        return max(self._save_cost(c) for c in ckpts)

    def _edge_restore_cost(self, ckpts: List[PlacedCheckpoint]) -> float:
        return max(self._restore_cost(c) for c in ckpts)

    # ------------------------------------------------------------- bounds

    def _atom_energy(self, uid: int) -> float:
        atom = self.region.atom(uid)
        if atom.is_barrier:
            return atom.ckpt.internal_energy  # type: ignore[union-attr]
        return atom.energy_under(self.model, self.atom_alloc.get(uid, {}))

    def _save_cost(self, ckpt: PlacedCheckpoint) -> float:
        payload = sum(
            self.ctx.variables[n].size_bytes for n in ckpt.save_names
        )
        return self.model.save_energy(payload)

    def _restore_cost(self, ckpt: PlacedCheckpoint) -> float:
        payload = sum(
            self.ctx.variables[n].size_bytes for n in ckpt.restore_names
        )
        return self.model.restore_energy(payload)

    def _recompute_bounds(self) -> None:
        """Fixpoint-free DAG passes for eavail_after and eneed_before,
        restricted to analyzed atoms (§III-A3: "The energy left and energy
        to leave are recomputed and propagated after each new path analysis.
        ... the energy left can only decrease while the energy to leave can
        only increase")."""
        region = self.region
        order = [u for u in region.topological() if u in self.analyzed]
        model = self.model

        entry_restore_cost = model.restore_energy(
            sum(self.ctx.variables[n].size_bytes for n in self.entry_restore)
        )

        avail: Dict[int, float] = {}
        for uid in order:
            atom = region.atom(uid)
            in_avail: Optional[float] = None
            if uid == region.entry_uid:
                in_avail = self.eb - entry_restore_cost
            for pred in region.preds[uid]:
                if pred not in self.analyzed:
                    continue
                edge = (pred, uid)
                if edge in self.enabled:
                    candidate = self.eb - self._edge_restore_cost(self.enabled[edge])
                elif edge in self.disabled:
                    candidate = avail.get(pred, self.eb)
                else:
                    continue
                in_avail = candidate if in_avail is None else min(in_avail, candidate)
            if in_avail is None:
                in_avail = self.eb
            if atom.is_barrier:
                assert atom.ckpt is not None
                avail[uid] = self.eb - atom.ckpt.e_from_last
            else:
                avail[uid] = in_avail - self._atom_energy(uid)
        self.eavail_after = avail

        need: Dict[int, float] = {}
        for uid in reversed(order):
            atom = region.atom(uid)
            out_need = 0.0
            is_exit = uid in region.exit_uids or not region.succs[uid]
            if is_exit:
                if self.exit_is_checkpoint:
                    exit_ckpts = [
                        c for c in self._exit_checkpoints if c.edge[0] == uid
                    ]
                    out_need = max(
                        (self._save_cost(c) for c in exit_ckpts),
                        default=model.save_energy(0),
                    )
                else:
                    out_need = self.exit_need
            for succ in region.succs[uid]:
                if succ not in self.analyzed:
                    continue
                edge = (uid, succ)
                if edge in self.enabled:
                    candidate = self._edge_save_cost(self.enabled[edge])
                elif edge in self.disabled:
                    candidate = need.get(succ, 0.0)
                else:
                    continue
                out_need = max(out_need, candidate)
            if atom.is_barrier:
                assert atom.ckpt is not None
                entry_cost = model.restore_energy(
                    sum(
                        self.ctx.variables[n].size_bytes
                        for n in atom.ckpt.entry_restore
                        if n in self.ctx.variables
                    )
                )
                need[uid] = entry_cost + atom.ckpt.e_to_first
            else:
                need[uid] = self._atom_energy(uid) + out_need
        self.eneed_before = need

    # ------------------------------------------------------------- outcome

    def _outcome(self) -> RegionOutcome:
        region = self.region
        model = self.model

        # Safety: every analyzed atom must satisfy avail >= need-after-it...
        # the canonical check: worst energy-since-checkpoint never exceeds EB.
        worst = self._worst_since_checkpoint()
        for uid, value in worst.items():
            if value > self.eb + 1e-6:
                raise InfeasibleBudgetError(
                    f"region {region.region_id}: atom {region.atom(uid)} can "
                    f"accumulate {value:.1f} nJ since the last checkpoint, "
                    f"exceeding EB={self.eb:.1f} nJ"
                )

        e_to_first = self.eneed_before.get(region.entry_uid, 0.0)
        e_from_last = max(
            (worst[uid] for uid in region.exit_uids if uid in worst),
            default=max(worst.values(), default=0.0),
        )
        total = self._total_energy()
        combined_alloc: Dict[str, MemorySpace] = {}
        for uid, alloc in self.atom_alloc.items():
            for name, space in alloc.items():
                previous = combined_alloc.get(name, space)
                if previous is not space and not self.enabled:
                    raise PlacementError(
                        f"region {self.region.region_id}: conflicting final "
                        f"placements for @{name} in a checkpoint-free region"
                    )
                # In regions *with* checkpoints the allocation legitimately
                # differs per segment; combined_alloc is only consumed for
                # plain regions, so keep the first decision.
                combined_alloc.setdefault(name, space)
        exit_vm_by_label = {
            self.region.atom(uid).label: self._vm_set(uid)
            for uid in self.region.exit_uids
        }
        checkpoints = [
            ckpt for group in self.enabled.values() for ckpt in group
        ] + self._exit_checkpoints
        vm_peak = 0
        for alloc in self.atom_alloc.values():
            used = sum(
                self.ctx.variables[n].size_bytes
                for n, s in alloc.items()
                if s is MemorySpace.VM and n in self.ctx.variables
            )
            vm_peak = max(vm_peak, used)
        return RegionOutcome(
            checkpoints=checkpoints,
            atom_alloc=dict(self.atom_alloc),
            exit_vm_by_label=exit_vm_by_label,
            combined_alloc=combined_alloc,
            entry_vm=self.entry_vm,
            entry_restore=self.entry_restore,
            entry_alloc=dict(self.entry_alloc),
            exit_alloc=dict(self.exit_alloc or self.entry_alloc),
            exit_vm=self.exit_vm,
            exit_dirty=self.exit_dirty,
            e_to_first=e_to_first,
            e_from_last=e_from_last,
            total_energy=total,
            vm_bytes_peak=vm_peak,
        )

    def _worst_since_checkpoint(self) -> Dict[int, float]:
        """Worst-case energy accumulated since the last completed checkpoint,
        measured *after* executing each atom."""
        region = self.region
        model = self.model
        entry_restore_cost = model.restore_energy(
            sum(self.ctx.variables[n].size_bytes for n in self.entry_restore)
        )
        worst: Dict[int, float] = {}
        for uid in region.topological():
            if uid not in self.analyzed:
                continue
            atom = region.atom(uid)
            incoming = 0.0
            has_in = False
            if uid == region.entry_uid:
                incoming = entry_restore_cost
                has_in = True
            for pred in region.preds[uid]:
                if pred not in self.analyzed:
                    continue
                edge = (pred, uid)
                if edge in self.enabled:
                    ckpts = self.enabled[edge]
                    candidate = self._edge_restore_cost(ckpts)
                    # The save before the sleep must also fit the previous
                    # window; checked below via the save constraint.
                    prev_total = worst.get(pred, 0.0) + self._edge_save_cost(
                        ckpts
                    )
                    if prev_total > self.eb + 1e-6:
                        raise InfeasibleBudgetError(
                            f"region {region.region_id}: save at edge "
                            f"{edge} overruns EB"
                        )
                else:
                    candidate = worst.get(pred, 0.0)
                incoming = max(incoming, candidate)
                has_in = True
            if not has_in:
                incoming = 0.0
            if atom.is_barrier:
                assert atom.ckpt is not None
                if incoming + atom.ckpt.e_to_first > self.eb + 1e-6:
                    raise InfeasibleBudgetError(
                        f"region {region.region_id}: barrier {atom} entry "
                        "overruns EB"
                    )
                worst[uid] = atom.ckpt.e_from_last
            else:
                worst[uid] = incoming + self._atom_energy(uid)
        return worst

    def _total_energy(self) -> float:
        """Worst-case energy of one region traversal (checkpoint overheads
        included) — the longest path through the analyzed DAG."""
        region = self.region
        total: Dict[int, float] = {}
        for uid in region.topological():
            if uid not in self.analyzed:
                continue
            best_in = 0.0
            for pred in region.preds[uid]:
                if pred not in self.analyzed:
                    continue
                edge = (pred, uid)
                extra = 0.0
                if edge in self.enabled:
                    ckpts = self.enabled[edge]
                    extra = self._edge_save_cost(ckpts) + self._edge_restore_cost(
                        ckpts
                    )
                best_in = max(best_in, total.get(pred, 0.0) + extra)
            total[uid] = best_in + self._atom_energy(uid)
        return max(total.values(), default=0.0)

"""Region graphs: the acyclic atom-level view SCHEMATIC analyzes.

A *region* is either a whole function with its top-level loops collapsed, or
one loop body with the back edge removed and its inner loops collapsed
(§III-B2 Step 1 operates "on the loop body with the back-edge removed";
nested structures are summarized by earlier analyses).

Region nodes are *atoms*:

- ``SLICE`` — a call-free instruction range of one basic block. Blocks are
  split around call sites, and oversized slices are further split so that
  every atom fits the energy budget on its own (paper footnote 2: "basic
  blocks requiring more than EB are split to fit in the energy budget").
- ``CALL`` — one call site, carrying the callee's
  :class:`~repro.core.summaries.FunctionResult`.
- ``LOOP`` — a collapsed inner loop, carrying its
  :class:`~repro.core.summaries.LoopResult`.

Region edges are the candidate checkpoint locations; each maps to concrete
program positions (:class:`InsertPoint`) used by the transformation pass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.accesses import AccessCounts
from repro.analysis.cfg import CFG
from repro.analysis.liveness import FunctionAccessSummaries
from repro.analysis.loops import Loop, LoopNest
from repro.core.summaries import CkptBearing, FunctionResult, LoopResult, SharedAlloc
from repro.energy.model import EnergyModel
from repro.errors import InfeasibleBudgetError, PlacementError
from repro.ir.function import Function
from repro.ir.instructions import Call, Instruction, Load, Store
from repro.ir.values import MemorySpace


class AtomKind(enum.Enum):
    SLICE = "slice"
    CALL = "call"
    LOOP = "loop"


@dataclass(frozen=True)
class InsertPoint:
    """A concrete program position where a checkpoint can be inserted.

    ``kind == "inst"``: before ``function.blocks[label].instructions[index]``.
    ``kind == "edge"``: on the CFG edge ``src -> dst`` (edge splitting).
    """

    kind: str
    label: str = ""
    index: int = 0
    src: str = ""
    dst: str = ""

    @classmethod
    def at_instruction(cls, label: str, index: int) -> "InsertPoint":
        return cls(kind="inst", label=label, index=index)

    @classmethod
    def on_edge(cls, src: str, dst: str) -> "InsertPoint":
        return cls(kind="edge", src=src, dst=dst)


def energy_under_alloc(
    base_energy: float,
    totals: Sequence[Tuple[str, int]],
    alloc: Dict[str, MemorySpace],
    vm_cost: float,
    nvm_cost: float,
) -> float:
    """One atom's energy with each of its ``totals`` accesses priced per
    ``alloc`` (absent entries default to NVM), folded left to right from
    ``base_energy``. The single definition behind
    :meth:`Atom.energy_under` and segment execution energies."""
    energy = base_energy
    for name, count in totals:
        space = alloc.get(name, MemorySpace.NVM)
        energy += count * (vm_cost if space is MemorySpace.VM else nvm_cost)
    return energy


@dataclass
class Atom:
    """One region node. See module docstring for the three kinds."""

    uid: int
    kind: AtomKind
    label: str  # owning block (SLICE/CALL) or loop header (LOOP)
    start: int = 0  # first instruction index (SLICE); call index (CALL)
    end: int = 0  # one past the last instruction (SLICE)
    call: Optional[Call] = None
    loop: Optional[Loop] = None
    # -- costing (filled at construction) --
    #: energy that does not depend on the enclosing segment's allocation:
    #: instruction cycles, pinned-NVM accesses, callee/loop internals.
    base_energy: float = 0.0
    #: allocatable accesses: var name -> counts (Eq. 1's nR/nW source).
    counts: AccessCounts = field(default_factory=AccessCounts)
    #: constraints imposed by an inner analysis (plain CALL/LOOP atoms).
    shared: Optional[SharedAlloc] = None
    #: barrier summary (checkpoint-bearing CALL/LOOP atoms).
    ckpt: Optional[CkptBearing] = None

    @property
    def is_barrier(self) -> bool:
        return self.ckpt is not None

    def worst_case_energy(self, model: EnergyModel) -> float:
        """Energy with every allocatable access in NVM (the conservative
        bound used for slice splitting and the safety verifier)."""
        nvm_cost = model.access_cost_in_space(MemorySpace.NVM)
        accesses = sum(self.counts.reads.values()) + sum(
            self.counts.writes.values()
        )
        return self.base_energy + accesses * nvm_cost

    def access_totals(self) -> Tuple[Tuple[str, int], ...]:
        """``(name, reads + writes)`` per counted variable, in name order
        — the order :func:`energy_under_alloc` folds them in."""
        counts = self.counts
        return tuple((name, counts.total(name)) for name in counts.variables())

    def energy_under(
        self, model: EnergyModel, alloc: Dict[str, MemorySpace]
    ) -> float:
        """Energy with each counted variable placed per ``alloc`` (absent
        entries default to NVM)."""
        return energy_under_alloc(
            self.base_energy,
            self.access_totals(),
            alloc,
            model.access_cost_in_space(MemorySpace.VM),
            model.access_cost_in_space(MemorySpace.NVM),
        )

    def __repr__(self) -> str:
        if self.kind is AtomKind.SLICE:
            return f"Atom#{self.uid}(.{self.label}[{self.start}:{self.end}])"
        if self.kind is AtomKind.CALL:
            assert self.call is not None
            return f"Atom#{self.uid}(call @{self.call.callee} in .{self.label})"
        return f"Atom#{self.uid}(loop .{self.label})"


class RegionGraph:
    """Acyclic graph of atoms for one region."""

    def __init__(self, region_id: str, function: Function):
        self.region_id = region_id
        self.function = function
        self.atoms: Dict[int, Atom] = {}
        self.succs: Dict[int, List[int]] = {}
        self.preds: Dict[int, List[int]] = {}
        self.entry_uid: int = -1
        self.exit_uids: List[int] = []
        #: block label -> its atom uids in program order (expanded blocks)
        self.block_atoms: Dict[str, List[int]] = {}
        #: block label -> uid of the collapsing LOOP atom
        self.loop_atom_of: Dict[str, int] = {}
        #: (src_uid, dst_uid) -> concrete insertion points
        self._edge_points: Dict[Tuple[int, int], List[InsertPoint]] = {}

    # -- construction helpers ---------------------------------------------------

    def add_atom(self, atom: Atom) -> Atom:
        self.atoms[atom.uid] = atom
        self.succs.setdefault(atom.uid, [])
        self.preds.setdefault(atom.uid, [])
        return atom

    def add_edge(self, src: int, dst: int, points: List[InsertPoint]) -> None:
        if dst not in self.succs[src]:
            self.succs[src].append(dst)
            self.preds[dst].append(src)
            self._edge_points[(src, dst)] = list(points)
        else:
            self._edge_points[(src, dst)].extend(points)

    # -- queries -----------------------------------------------------------------

    def atom(self, uid: int) -> Atom:
        return self.atoms[uid]

    def edge_points(self, src: int, dst: int) -> List[InsertPoint]:
        return self._edge_points[(src, dst)]

    def edges(self) -> List[Tuple[int, int]]:
        return [(u, v) for u in self.succs for v in self.succs[u]]

    def topological(self) -> List[int]:
        """Atoms in topological order (the region graph is acyclic)."""
        indegree = {uid: len(self.preds[uid]) for uid in self.atoms}
        ready = [uid for uid, deg in indegree.items() if deg == 0]
        order: List[int] = []
        while ready:
            ready.sort()
            uid = ready.pop(0)
            order.append(uid)
            for succ in self.succs[uid]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.atoms):
            raise PlacementError(
                f"region {self.region_id}: cycle among atoms (region graphs "
                "must be acyclic)"
            )
        return order

    def head_atom(self, label: str) -> int:
        """First atom of a (possibly collapsed) block."""
        if label in self.loop_atom_of:
            return self.loop_atom_of[label]
        return self.block_atoms[label][0]

    def tail_atom(self, label: str) -> int:
        if label in self.loop_atom_of:
            return self.loop_atom_of[label]
        return self.block_atoms[label][-1]

    def __repr__(self) -> str:
        return f"RegionGraph({self.region_id}, {len(self.atoms)} atoms)"


@dataclass
class CostEnv:
    """Everything region construction needs to cost atoms."""

    model: EnergyModel
    eb: float
    summaries: FunctionAccessSummaries
    function_results: Dict[str, FunctionResult]
    loop_results: Dict[str, LoopResult]  # keyed by header label (this func)

    @property
    def slice_budget(self) -> float:
        """Max worst-case energy of a single atom so that
        restore + atom + save still fits EB with headroom for per-variable
        traffic."""
        fixed = self.model.save_energy(0) + self.model.restore_energy(0)
        budget = (self.eb - fixed) * 0.5
        if budget <= 0:
            raise InfeasibleBudgetError(
                f"EB={self.eb} nJ cannot fund a save/restore pair plus any "
                "computation"
            )
        return budget


class RegionBuilder:
    """Builds (and costs) the region graph for a function or a loop body."""

    def __init__(
        self,
        function: Function,
        cfg: CFG,
        nest: LoopNest,
        env: CostEnv,
    ):
        self.function = function
        self.cfg = cfg
        self.nest = nest
        self.env = env
        self._uid = 0

    def _next_uid(self) -> int:
        self._uid += 1
        return self._uid

    # -- public entry points ------------------------------------------------------

    def build_function_region(self) -> RegionGraph:
        """Region for the whole function, top-level loops collapsed."""
        members = set(self.cfg.labels)
        collapsed = self.nest.top_level()
        region = RegionGraph(self.function.name, self.function)
        self._populate(
            region,
            members=members,
            collapsed=collapsed,
            entry_label=self.cfg.entry,
            removed_edges=set(),
        )
        region.exit_uids = [
            region.tail_atom(label)
            for label in self.cfg.exit_labels()
            if label in region.block_atoms or label in region.loop_atom_of
        ]
        return region

    def build_loop_region(self, loop: Loop) -> RegionGraph:
        """Region for one loop body, back edges removed, children collapsed."""
        members = set(loop.body)
        collapsed = loop.children
        removed = {(latch, loop.header) for latch in loop.latches}
        region = RegionGraph(
            f"{self.function.name}:{loop.header}", self.function
        )
        self._populate(
            region,
            members=members,
            collapsed=collapsed,
            entry_label=loop.header,
            removed_edges=removed,
        )
        # Exits: the latch's tail atom plus every atom with a CFG edge out
        # of the loop.
        exit_uids: Set[int] = set()
        for latch in loop.latches:
            exit_uids.add(region.tail_atom(latch))
        for label in sorted(loop.body):
            for succ in self.cfg.succs[label]:
                if succ not in loop.body:
                    exit_uids.add(region.tail_atom(label))
        region.exit_uids = sorted(exit_uids)
        return region

    # -- population --------------------------------------------------------------

    def _populate(
        self,
        region: RegionGraph,
        members: Set[str],
        collapsed: Sequence[Loop],
        entry_label: str,
        removed_edges: Set[Tuple[str, str]],
    ) -> None:
        collapsed_blocks: Dict[str, Loop] = {}
        for loop in collapsed:
            for label in loop.body:
                collapsed_blocks[label] = loop

        # 1. Atoms.
        loop_atoms: Dict[str, int] = {}  # header -> uid
        for loop in collapsed:
            atom = self._make_loop_atom(loop)
            region.add_atom(atom)
            loop_atoms[loop.header] = atom.uid
            for label in loop.body:
                region.loop_atom_of[label] = atom.uid

        for label in sorted(members):
            if label in collapsed_blocks:
                continue
            atoms = self._expand_block(label)
            for atom in atoms:
                region.add_atom(atom)
            region.block_atoms[label] = [a.uid for a in atoms]

        # 2. Intra-block edges (between consecutive atoms of one block).
        for label, uids in region.block_atoms.items():
            for left, right in zip(uids, uids[1:]):
                right_atom = region.atom(right)
                index = (
                    right_atom.start
                    if right_atom.kind is AtomKind.SLICE
                    else right_atom.start
                )
                region.add_edge(
                    left, right, [InsertPoint.at_instruction(label, index)]
                )

        # 3. Cross-block edges.
        seen_loop_pairs: Set[Tuple[int, int]] = set()
        for src in sorted(members):
            for dst in self.cfg.succs[src]:
                if dst not in members or (src, dst) in removed_edges:
                    continue
                src_in = collapsed_blocks.get(src)
                dst_in = collapsed_blocks.get(dst)
                if src_in is not None and dst_in is not None and src_in is dst_in:
                    continue  # edge internal to one collapsed loop
                src_uid = region.tail_atom(src)
                dst_uid = region.head_atom(dst)
                if src_uid == dst_uid:
                    continue
                point = InsertPoint.on_edge(src, dst)
                key = (src_uid, dst_uid)
                if key in seen_loop_pairs:
                    region.add_edge(src_uid, dst_uid, [point])
                else:
                    seen_loop_pairs.add(key)
                    region.add_edge(src_uid, dst_uid, [point])

        region.entry_uid = region.head_atom(entry_label)

    # -- atom construction ---------------------------------------------------------

    def _expand_block(self, label: str) -> List[Atom]:
        """Split a block into SLICE and CALL atoms (and split oversized
        slices so each fits the per-atom energy budget)."""
        block = self.function.blocks[label]
        atoms: List[Atom] = []
        run_start = 0
        for i, inst in enumerate(block.instructions):
            if isinstance(inst, Call):
                if i > run_start:
                    atoms.extend(self._make_slices(label, run_start, i))
                atoms.append(self._make_call_atom(label, i, inst))
                run_start = i + 1
        if run_start < len(block.instructions) or not atoms:
            atoms.extend(
                self._make_slices(label, run_start, len(block.instructions))
            )
        return atoms

    def _splittable_at(self, label: str, index: int) -> bool:
        """A slice boundary at ``index`` is forbidden strictly inside an
        atomic section (paper §VI: checkpoint placement is forbidden there,
        and checkpoint locations are exactly the atom boundaries)."""
        for range_label, start, end in self.function.atomic_ranges:
            if range_label == label and start < index < end:
                return False
        return True

    def _make_slices(self, label: str, start: int, end: int) -> List[Atom]:
        """One or more SLICE atoms covering ``[start, end)`` of ``label``,
        each within the per-atom budget. Boundaries never land strictly
        inside an atomic section; when the budget forces one to, the split
        falls back to the last legal index (the section's start). An atomic
        section that alone overruns the budget is a hard error: no legal
        checkpoint location can make it fit (paper §VI)."""
        block = self.function.blocks[label]
        budget = self.env.slice_budget
        worst = []
        for i in range(start, end):
            w = self._instruction_worst_energy(block.instructions[i])
            if w > budget:
                raise InfeasibleBudgetError(
                    f"{self.function.name}/.{label}[{i}]: a single "
                    f"instruction needs {w:.1f} nJ, more than the per-atom "
                    f"budget {budget:.1f} nJ"
                )
            worst.append(w)

        boundaries = [start]
        chunk_energy = 0.0
        i = start
        while i < end:
            w = worst[i - start]
            if chunk_energy + w > budget and i > boundaries[-1]:
                split = None
                for candidate in range(i, boundaries[-1], -1):
                    if self._splittable_at(label, candidate):
                        split = candidate
                        break
                if split is None:
                    raise InfeasibleBudgetError(
                        f"{self.function.name}/.{label}: an atomic section "
                        f"around index {i} exceeds the per-atom budget "
                        f"({budget:.1f} nJ); a larger capacitor is required "
                        "(paper §VI)"
                    )
                boundaries.append(split)
                chunk_energy = sum(
                    worst[k - start] for k in range(split, i)
                )
                continue  # retry adding instruction i to the new chunk
            chunk_energy += w
            i += 1

        atoms: List[Atom] = []
        for chunk_start, chunk_end in zip(boundaries, boundaries[1:] + [end]):
            chunk = self._empty_slice(label, chunk_start)
            for k in range(chunk_start, chunk_end):
                self._cost_instruction_into(chunk, block.instructions[k])
            chunk.end = chunk_end
            atoms.append(chunk)
        return atoms

    def _empty_slice(self, label: str, start: int) -> Atom:
        return Atom(
            uid=self._next_uid(),
            kind=AtomKind.SLICE,
            label=label,
            start=start,
            end=start,
        )

    def _instruction_worst_energy(self, inst: Instruction) -> float:
        model = self.env.model
        if isinstance(inst, (Load, Store)):
            base = (
                model.load_base_cycles
                if isinstance(inst, Load)
                else model.store_base_cycles
            )
            return (
                base + model.nvm_access_cycles
            ) * model.energy_per_cycle + model.nvm_access_energy
        return model.instruction_cycles(inst) * model.energy_per_cycle

    def _cost_instruction_into(self, atom: Atom, inst: Instruction) -> None:
        model = self.env.model
        if isinstance(inst, (Load, Store)):
            var = inst.var
            base = (
                model.load_base_cycles
                if isinstance(inst, Load)
                else model.store_base_cycles
            )
            atom.base_energy += base * model.energy_per_cycle
            if var.pinned_nvm or var.is_ref:
                # Pinned accesses are always NVM: fold the full access cost.
                atom.base_energy += (
                    model.nvm_access_cycles * model.energy_per_cycle
                    + model.nvm_access_energy
                )
                # Base cycles already charged; access part is fixed.
            elif isinstance(inst, Load):
                atom.counts.add_read(var.name)
            else:
                atom.counts.add_write(var.name, full=not var.is_array)
        else:
            atom.base_energy += (
                model.instruction_cycles(inst) * model.energy_per_cycle
            )

    def _make_call_atom(self, label: str, index: int, call: Call) -> Atom:
        model = self.env.model
        result = self.env.function_results.get(call.callee)
        if result is None:
            raise PlacementError(
                f"call to @{call.callee} before its analysis (call-graph "
                "order violated)"
            )
        atom = Atom(
            uid=self._next_uid(),
            kind=AtomKind.CALL,
            label=label,
            start=index,
            end=index + 1,
            call=call,
        )
        atom.base_energy = (
            model.call_cycles * model.energy_per_cycle + result.base_energy
        )
        mapping = self.env.summaries.ref_mapping(call)
        atom.counts = _substitute_counts(
            self.env.summaries.counts_at_call(call), mapping
        )
        if result.shared is not None:
            atom.shared = _substitute_shared(result.shared, mapping)
        if result.ckpt is not None:
            atom.ckpt = _substitute_ckpt(result.ckpt, mapping)
        # Remove forced variables from the allocatable counts: their access
        # energy is decided by the forced placement, which energy_under
        # handles because the merged allocation carries the forced entries.
        return atom

    def _make_loop_atom(self, loop: Loop) -> Atom:
        result = self.env.loop_results.get(loop.header)
        if result is None:
            raise PlacementError(
                f"loop .{loop.header} collapsed before its analysis "
                "(loop-nest order violated)"
            )
        atom = Atom(
            uid=self._next_uid(),
            kind=AtomKind.LOOP,
            label=loop.header,
            loop=loop,
        )
        atom.base_energy = result.total_energy
        atom.shared = result.shared
        atom.ckpt = result.ckpt
        return atom


# -- summary substitution helpers ---------------------------------------------------


def _substitute_counts(
    counts: AccessCounts, mapping: Dict[str, str]
) -> AccessCounts:
    if not mapping:
        return counts
    result = AccessCounts()
    for name, value in counts.reads.items():
        result.add_read(mapping.get(name, name), value)
    for name, value in counts.writes.items():
        result.add_write(mapping.get(name, name), value)
    return result


def _substitute_shared(shared: SharedAlloc, mapping: Dict[str, str]) -> SharedAlloc:
    if not mapping:
        return shared
    return SharedAlloc(
        forced={mapping.get(k, k): v for k, v in shared.forced.items()},
        vm_names=tuple(mapping.get(n, n) for n in shared.vm_names),
        restore_names=tuple(mapping.get(n, n) for n in shared.restore_names),
        dirty_names=tuple(mapping.get(n, n) for n in shared.dirty_names),
        private_reserve=shared.private_reserve,
    )


def _substitute_ckpt(ckpt: CkptBearing, mapping: Dict[str, str]) -> CkptBearing:
    if not mapping:
        return ckpt
    return CkptBearing(
        e_to_first=ckpt.e_to_first,
        e_from_last=ckpt.e_from_last,
        internal_energy=ckpt.internal_energy,
        entry_forced={mapping.get(k, k): v for k, v in ckpt.entry_forced.items()},
        entry_vm=tuple(mapping.get(n, n) for n in ckpt.entry_vm),
        entry_restore=tuple(mapping.get(n, n) for n in ckpt.entry_restore),
        exit_forced={mapping.get(k, k): v for k, v in ckpt.exit_forced.items()},
        exit_vm=tuple(mapping.get(n, n) for n in ckpt.exit_vm),
        exit_dirty=tuple(mapping.get(n, n) for n in ckpt.exit_dirty),
        exit_states={
            label: tuple(mapping.get(n, n) for n in names)
            for label, names in ckpt.exit_states.items()
        },
        private_reserve=ckpt.private_reserve,
    )

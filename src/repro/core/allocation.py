"""Memory-allocation selection for one segment (paper §III-A2).

A *segment* is the code between two (potential) checkpoint locations along
an analyzed path: a sequence of atoms sharing one memory allocation. For
each allocatable variable the gain of placing it in VM is (Eq. 1):

    gain_v = dE_W * nW + dE_R * nR - E_save/restore

with the liveness-trimmed overhead (Eq. 2):

    E_save/restore = E_restore * live_c1 + E_save * live_c2

Variables are packed into VM by decreasing gain/size ratio until the list
of positive-gain variables is exhausted or VM is full. Const variables never
pay a save cost (their NVM home is never stale); a variable whose first
segment access is a full write pays no restore; a variable that is never
written (clean) or dead after the segment pays no save.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.accesses import AccessCounts
from repro.core.region import Atom, energy_under_alloc
from repro.energy.model import EnergyModel
from repro.ir.values import MemorySpace, Variable


@dataclass
class SegmentPlan:
    """The outcome of allocating one segment.

    ``None`` is returned instead when the segment is infeasible (conflicting
    forced placements from two inner analyses).
    """

    #: full placement for every variable relevant to the segment (VM entries
    #: plus explicit NVM entries for forced/inherited variables).
    alloc: Dict[str, MemorySpace]
    #: names resident in VM during the segment.
    vm_names: Tuple[str, ...]
    #: execution energy of the segment's atoms under ``alloc``.
    exec_energy: float
    #: variables to load at the segment's starting checkpoint, and their
    #: total size (register file excluded — the model adds it).
    restore_names: Tuple[str, ...]
    restore_bytes: int
    #: variables to save at the segment's ending checkpoint.
    save_names: Tuple[str, ...]
    save_bytes: int
    #: VM bytes used (packing + forced + inherited residents).
    vm_bytes: int
    #: extra VM transiently used inside atoms (callees' private sets).
    private_reserve: int


@dataclass
class SegmentContext:
    """Inputs to segment allocation that do not vary with atom choice."""

    model: EnergyModel
    vm_capacity: int
    variables: Dict[str, Variable]  # name -> Variable (module-wide)
    #: placements fixed by earlier decisions that flow into this segment
    #: without an intervening checkpoint (§III-A3 inheritance). The VM
    #: entries remain resident and count against capacity.
    inherited: Dict[str, MemorySpace] = field(default_factory=dict)
    #: Eq. 2 liveness trimming: when False, every VM resident is restored
    #: at the segment start and saved (non-const) at its end regardless of
    #: liveness — the ablation of §III-A2's optimization.
    trim_with_liveness: bool = True
    #: Multiplier on the per-access gain of Eq. 1. Inside a loop body the
    #: analyzed segment is one iteration, but its save/restore overhead is
    #: paid once per *conditional-checkpoint window* of ~numit iterations
    #: (§III-B2) — so the access gain amortizes by that factor. 1.0 outside
    #: loops. Affects allocation choice only, never feasibility energies.
    gain_amortization: float = 1.0


class SegmentFold:
    """The atoms of one segment, ``atoms[i:j]``, folded left to right.

    :meth:`extend` appends the next atom and updates every aggregate
    :func:`plan_segment` reads, so a caller that grows ``j`` for a fixed
    ``i`` pays for each atom once instead of re-aggregating the prefix on
    every call:

    - ``counts``: the sequential access counts. Plain inner atoms
      (collapsed loops/callees) contribute their restore requirements as
      first-access *reads* first, so that a variable read inside a loop is
      not mistaken for write-first by a later store in the segment.
    - ``forced``: the union of the placements plain inner atoms impose;
      ``None`` once two of them conflict (the segment is infeasible and
      needs a checkpoint between the conflicting atoms), and for every
      longer segment from then on.
    - ``private_reserve``: the largest transient VM reserve of any atom.
    - ``shared_restore``: inner restore requirements that no earlier part
      of the segment voids by a full overwrite. A variable's first access
      is fixed once it has one, so the test is exact when the atom is
      added.
    - ``shared_dirty``: the inner atoms' dirty VM variables.
    - ``terms``: each atom's ``(base_energy, access totals)``, the inputs
      of its :func:`~repro.core.region.energy_under_alloc` fold.
    """

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        self.counts = AccessCounts()
        self.forced: Optional[Dict[str, MemorySpace]] = {}
        self.private_reserve = 0
        self.shared_restore: Set[str] = set()
        self.shared_dirty: Set[str] = set()
        self.terms: List[Tuple[float, Tuple[Tuple[str, int], ...]]] = []
        for atom in atoms:
            self.extend(atom)

    def __len__(self) -> int:
        return len(self.terms)

    def extend(self, atom: Atom) -> None:
        """Fold ``atom`` in as the segment's new last atom."""
        shared = atom.shared
        if shared is not None:
            first_access = self.counts.first_access
            for name in shared.restore_names:
                first_access.setdefault(name, "r")
            self.shared_restore.update(
                n for n in shared.restore_names if first_access[n] != "w"
            )
            self.shared_dirty.update(shared.dirty_names)
            self.private_reserve = max(
                self.private_reserve, shared.private_reserve
            )
            forced = self.forced
            if forced is not None:
                for name, space in shared.forced.items():
                    if forced.get(name, space) is not space:
                        self.forced = None
                        break
                    forced[name] = space
        self.counts.merge_sequential(atom.counts)
        self.terms.append((atom.base_energy, atom.access_totals()))


def plan_segment(
    ctx: SegmentContext,
    fold: SegmentFold,
    live_at_end: Set[str],
    has_start_ckpt: bool,
    has_end_ckpt: bool,
    allow_packing: bool = True,
) -> Optional[SegmentPlan]:
    """Choose the energy-optimal allocation for the segment ``fold``.

    ``has_start_ckpt``/``has_end_ckpt`` control whether restore/save sets
    are computed (and billed by the caller). ``allow_packing=False`` freezes
    the allocation to the inherited/forced placements — used when the
    segment flows into or out of already-analyzed code whose allocation is
    final (§III-A3: decisions along a path are never reconsidered).

    Returns None when forced placements conflict, when inherited VM
    residents no longer fit together with forced ones, or when a forced
    placement contradicts the inherited one.
    """
    model = ctx.model
    forced = fold.forced
    if forced is None:
        return None
    for name, space in ctx.inherited.items():
        if forced.get(name, space) is not space:
            return None

    counts = fold.counts
    private_reserve = fold.private_reserve

    # Resident sets that are not up for packing.
    resident: Dict[str, MemorySpace] = {}
    resident.update(forced)
    if not has_start_ckpt or not allow_packing:
        # Either no checkpoint separates us from the previous segment (its
        # VM residents remain resident), or the allocation is frozen.
        for name, space in ctx.inherited.items():
            resident.setdefault(name, space)

    vm_bytes = private_reserve
    for name, space in resident.items():
        if space is MemorySpace.VM:
            vm_bytes += ctx.variables[name].size_bytes
    if vm_bytes > ctx.vm_capacity:
        return None

    # Candidate variables for Eq. 1 packing.
    candidates: List[Tuple[float, float, str]] = []  # (ratio, gain, name)
    if allow_packing:
        for name in counts.variables():
            if name in resident:
                continue
            var = ctx.variables.get(name)
            if var is None or var.pinned_nvm or var.is_ref:
                continue
            gain = _gain(ctx, counts, live_at_end, name, var,
                         has_start_ckpt, has_end_ckpt)
            if gain > 0:
                candidates.append((gain / var.size_bytes, gain, name))
        candidates.sort(key=lambda item: (-item[0], item[2]))

    alloc: Dict[str, MemorySpace] = dict(resident)
    for _unused_ratio, _unused_gain, name in candidates:
        size = ctx.variables[name].size_bytes
        if vm_bytes + size <= ctx.vm_capacity:
            alloc[name] = MemorySpace.VM
            vm_bytes += size
    for name in counts.variables():
        alloc.setdefault(name, MemorySpace.NVM)

    vm_names = tuple(
        sorted(n for n, s in alloc.items() if s is MemorySpace.VM)
    )

    # Restore set at the starting checkpoint: VM variables whose first
    # access reads their old value, plus forced restore requirements.
    restore: Set[str] = set()
    if has_start_ckpt:
        for name in vm_names:
            if not ctx.trim_with_liveness or counts.first_access.get(name) == "r":
                restore.add(name)
        # Inner structures' restore requirements (those an earlier part of
        # this segment does not fully overwrite).
        restore.update(fold.shared_restore)

    # Save set at the ending checkpoint: dirty VM variables still live.
    save: Set[str] = set()
    if has_end_ckpt:
        for name in vm_names:
            var = ctx.variables[name]
            if var.is_const:
                continue
            if not ctx.trim_with_liveness:
                save.add(name)
                continue
            dirty = counts.writes.get(name, 0) > 0
            inherited_resident = not has_start_ckpt and name in ctx.inherited
            if inherited_resident:
                # We do not know whether earlier segments dirtied it;
                # conservatively save if live.
                dirty = True
            if dirty and name in live_at_end:
                save.add(name)
        save.update(n for n in fold.shared_dirty if n in live_at_end)

    vm_cost = model.access_cost_in_space(MemorySpace.VM)
    nvm_cost = model.access_cost_in_space(MemorySpace.NVM)
    exec_energy = sum(
        energy_under_alloc(base_energy, totals, alloc, vm_cost, nvm_cost)
        for base_energy, totals in fold.terms
    )
    restore_bytes = sum(ctx.variables[n].size_bytes for n in restore)
    save_bytes = sum(ctx.variables[n].size_bytes for n in save)

    return SegmentPlan(
        alloc=alloc,
        vm_names=vm_names,
        exec_energy=exec_energy,
        restore_names=tuple(sorted(restore)),
        restore_bytes=restore_bytes,
        save_names=tuple(sorted(save)),
        save_bytes=save_bytes,
        vm_bytes=vm_bytes,
        private_reserve=private_reserve,
    )


def _gain(
    ctx: SegmentContext,
    counts: AccessCounts,
    live_at_end: Set[str],
    name: str,
    var: Variable,
    has_start_ckpt: bool,
    has_end_ckpt: bool,
) -> float:
    """Eq. 1 with Eq. 2's liveness trimming for one candidate variable."""
    model = ctx.model
    n_reads = counts.reads.get(name, 0)
    n_writes = counts.writes.get(name, 0)
    gain = (
        model.read_gain * n_reads + model.write_gain * n_writes
    ) * ctx.gain_amortization

    restore_needed = has_start_ckpt and (
        not ctx.trim_with_liveness or counts.first_access.get(name) == "r"
    )
    if restore_needed:
        gain -= model.variable_restore_energy(var.size_bytes)
    save_needed = has_end_ckpt and not var.is_const and (
        not ctx.trim_with_liveness
        or (n_writes > 0 and name in live_at_end)
    )
    if save_needed:
        gain -= model.variable_save_energy(var.size_bytes)
    return gain

"""Program rewriting: apply placement/allocation decisions to the IR.

Two final passes, as in the paper (§IV-A: "The two final passes modify the
program by setting the memory targeted by load/store operations according
to the computed memory allocations and inserting save/restore operations"):

1. every ``load``/``store`` gets its decided :class:`MemorySpace`;
2. :class:`Checkpoint`/:class:`CondCheckpoint` instructions are inserted at
   the enabled locations — mid-block positions directly, CFG edges by edge
   splitting (a fresh block holding the checkpoint plus a jump).

A last repair step (:func:`_restore_saved_residents`) closes a gap between
the two: a save copies a variable's VM image to NVM whether or not that
image holds its value, so a checkpoint must not save a VM resident that an
earlier checkpoint left unrestored.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.core.function_analysis import FunctionPlan
from repro.errors import PlacementError
from repro.ir.function import Function
from repro.ir.instructions import (
    Branch,
    Checkpoint,
    CondCheckpoint,
    Instruction,
    Jump,
    Load,
    Store,
)
from repro.ir.module import Module
from repro.ir.values import MemorySpace


class _CheckpointFactory:
    """Allocates module-unique checkpoint ids."""

    def __init__(self) -> None:
        self.next_id = 1

    def make(
        self,
        save: Iterable[str],
        restore: Iterable[str],
        alloc_after: Dict[str, MemorySpace],
        every: int = 0,
        skippable: bool = True,
    ) -> Instruction:
        ckpt_id = self.next_id
        self.next_id += 1
        save_t = tuple(sorted(save))
        restore_t = tuple(sorted(restore))
        if every > 1:
            return CondCheckpoint(
                ckpt_id=ckpt_id,
                every=every,
                save_vars=save_t,
                restore_vars=restore_t,
                alloc_after=dict(alloc_after),
            )
        return Checkpoint(
            ckpt_id=ckpt_id,
            save_vars=save_t,
            restore_vars=restore_t,
            alloc_after=dict(alloc_after),
            skippable=skippable,
        )


def _filter_concrete(module: Module, names: Iterable[str]) -> List[str]:
    """Keep only concrete (non-ref) variables that exist in the module —
    ref formals are pinned to NVM and never checkpointed."""
    result = []
    for name in names:
        try:
            var = module.find_variable(name)
        except Exception:
            continue
        if not var.is_ref:
            result.append(name)
    return result


def _concrete_alloc(
    module: Module, alloc: Dict[str, MemorySpace]
) -> Dict[str, MemorySpace]:
    keep = set(_filter_concrete(module, alloc))
    return {n: s for n, s in alloc.items() if n in keep}


def apply_plans(
    module: Module,
    plans: Dict[str, FunctionPlan],
) -> int:
    """Rewrite ``module`` in place according to the per-function plans.

    Returns the number of checkpoint instructions inserted."""
    factory = _CheckpointFactory()

    for name, plan in plans.items():
        func = module.functions[name]
        _rewrite_spaces(func, plan)

    for name, plan in plans.items():
        func = module.functions[name]
        _insert_checkpoints(module, func, plan, factory)

    # Safety net: no AUTO access may survive to run time.
    for func in module.functions.values():
        for block in func.blocks.values():
            for inst in block:
                if isinstance(inst, (Load, Store)) and inst.space is MemorySpace.AUTO:
                    inst.space = MemorySpace.NVM

    for func in module.functions.values():
        _restore_saved_residents(module, func)
    return factory.next_id - 1


def _rewrite_spaces(func: Function, plan: FunctionPlan) -> None:
    for (label, idx), space in plan.access_spaces.items():
        inst = func.blocks[label].instructions[idx]
        if not isinstance(inst, (Load, Store)):
            raise PlacementError(
                f"{func.name}/.{label}[{idx}]: space decision targets "
                f"{type(inst).__name__}, not a load/store"
            )
        inst.space = space


def _insert_checkpoints(
    module: Module,
    func: Function,
    plan: FunctionPlan,
    factory: _CheckpointFactory,
) -> None:
    #: (label, index) -> checkpoint instructions to insert before index
    inst_points: Dict[Tuple[str, int], List[Instruction]] = {}
    #: (src, dst) -> checkpoint instruction for the split block
    edge_points: List[Tuple[str, str, Instruction]] = []

    def make(save, restore, alloc_after, every: int = 0) -> Instruction:
        return factory.make(
            _filter_concrete(module, save),
            _filter_concrete(module, restore),
            _concrete_alloc(module, alloc_after),
            every=every,
        )

    if plan.entry_restore or plan.entry_alloc:
        entry_label = func.entry.label
        inst_points.setdefault((entry_label, 0), []).append(
            make((), plan.entry_restore, plan.entry_alloc)
        )
    elif func.name == module.entry:
        inst_points.setdefault((func.entry.label, 0), []).append(
            make((), (), {})
        )

    for placed in plan.checkpoints:
        for point in placed.points:
            ckpt = make(placed.save_names, placed.restore_names, placed.alloc_after)
            if point.kind == "inst":
                inst_points.setdefault((point.label, point.index), []).append(ckpt)
            else:
                edge_points.append((point.src, point.dst, ckpt))

    for backedge in plan.backedges:
        for point in backedge.points:
            ckpt = make(
                backedge.save_names,
                backedge.restore_names,
                backedge.alloc_after,
                every=backedge.every,
            )
            if point.kind != "edge":
                raise PlacementError("back-edge checkpoints must be on edges")
            edge_points.append((point.src, point.dst, ckpt))

    # Mid-block insertions, per block from the highest index down so earlier
    # indices stay valid.
    by_label: Dict[str, List[Tuple[int, List[Instruction]]]] = {}
    for (label, idx), ckpts in inst_points.items():
        by_label.setdefault(label, []).append((idx, ckpts))
    for label, entries in by_label.items():
        block = func.blocks[label]
        for idx, ckpts in sorted(entries, key=lambda e: -e[0]):
            for ckpt in reversed(ckpts):
                block.instructions.insert(idx, ckpt)

    # Edge splitting.
    for src, dst, ckpt in edge_points:
        _split_edge(func, src, dst, ckpt)


def _split_edge(func: Function, src: str, dst: str, ckpt: Instruction) -> None:
    """Insert ``ckpt`` on the CFG edge ``src -> dst`` via a fresh block."""
    src_block = func.blocks[src]
    term = src_block.terminator
    if term is None:
        raise PlacementError(f"{func.name}/.{src}: splitting an open block")
    label = f"__ckpt_{getattr(ckpt, 'ckpt_id', 0)}"
    new_block = func.add_block(label)
    new_block.append(ckpt)
    new_block.append(Jump(dst))
    if isinstance(term, Jump):
        if term.target != dst:
            raise PlacementError(
                f"{func.name}/.{src}: jump targets .{term.target}, not .{dst}"
            )
        term.target = label
    elif isinstance(term, Branch):
        changed = False
        if term.if_true == dst:
            term.if_true = label
            changed = True
        if term.if_false == dst:
            term.if_false = label
            changed = True
        if not changed:
            raise PlacementError(
                f"{func.name}/.{src}: branch does not target .{dst}"
            )
    else:
        raise PlacementError(
            f"{func.name}/.{src}: cannot split an edge after "
            f"{type(term).__name__}"
        )


def _restore_saved_residents(module: Module, func: Function) -> None:
    """Add to a checkpoint's restore set every VM resident it leaves
    unrestored that a later checkpoint saves before overwriting it.

    A restore rebuilds only ``restore_vars``; every other VM resident
    holds no value until it is written (the emulator poisons it). A save
    copies the VM image to NVM regardless, so saving such a resident
    would overwrite its NVM home with garbage. This happens when the
    segment after a checkpoint never reads a variable but a later save
    is conservative — a loop's back-edge save covers every live VM
    resident at the latch (:mod:`repro.core.loop_analysis`).

    A forward dataflow over ``func`` tracks, per variable, the
    checkpoints whose unrestored image may still be in VM. A checkpoint
    also passes its incoming state through, since a conditional
    checkpoint that does not fire, a skipped one and a roll-back-mode one
    that does not fail all keep VM intact. A full scalar store in VM
    ends the hazard. Restoring is always sound (NVM holds the value the
    earlier save left), so the repair only adds restores.
    """
    checkpoints = {
        inst.ckpt_id: inst
        for block in func.blocks.values()
        for inst in block
        if isinstance(inst, (Checkpoint, CondCheckpoint))
    }
    if not checkpoints:
        return

    #: variable name -> ids of the checkpoints whose unrestored VM image
    #: of it may reach this point.
    State = Dict[str, FrozenSet[int]]
    missing: Dict[int, Set[str]] = {}

    def transfer(block, state: State, record: bool) -> State:
        state = dict(state)
        for inst in block:
            if isinstance(inst, (Checkpoint, CondCheckpoint)):
                if record:
                    for name in inst.save_vars:
                        for origin in state.get(name, ()):
                            missing.setdefault(origin, set()).add(name)
                restored = set(inst.restore_vars)
                for name, space in inst.alloc_after.items():
                    if space is not MemorySpace.VM or name in restored:
                        continue
                    if module.find_variable(name).is_const:
                        continue
                    state[name] = state.get(name, frozenset()) | {inst.ckpt_id}
            elif (
                isinstance(inst, Store)
                and inst.space is MemorySpace.VM
                and inst.index is None
                and not inst.var.is_array
            ):
                state.pop(inst.var.name, None)
        return state

    def join(states: Iterable[State]) -> State:
        merged: Dict[str, FrozenSet[int]] = {}
        for state in states:
            for name, origins in state.items():
                merged[name] = merged.get(name, frozenset()) | origins
        return merged

    preds: Dict[str, List[str]] = {label: [] for label in func.blocks}
    for label, block in func.blocks.items():
        for succ in block.successor_labels():
            preds[succ].append(label)
    out: Dict[str, State] = {}
    work = list(func.blocks)
    while work:
        label = work.pop()
        new = transfer(
            func.blocks[label], join(out.get(p, {}) for p in preds[label]),
            record=False,
        )
        if new != out.get(label):
            out[label] = new
            work.extend(func.blocks[label].successor_labels())
    for label, block in func.blocks.items():
        transfer(block, join(out.get(p, {}) for p in preds[label]), record=True)

    for ckpt_id, names in missing.items():
        inst = checkpoints[ckpt_id]
        inst.restore_vars = tuple(sorted(set(inst.restore_vars) | names))

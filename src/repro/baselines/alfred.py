"""ALFRED (Maioli & Mottola, SenSys 2021) — the hybrid VM/NVM baseline.

ALFRED "uses both VM and NVM as working memories. It reduces checkpointing
overhead by performing deferred restoration of variables (on their first
read) and anticipated saving of variables (on their last write). ...
When reaching a checkpoint, only the CPU registers are saved in NVM, since
all other volatile data has been saved previously. VM in ALFRED is used as
much as possible" (paper §IV-A). Checkpoints sit on loop latches, like
MEMENTOS's.

We model the deferred/anticipated mechanism at checkpoint granularity with
liveness trimming: the traffic a checkpoint window causes equals saving the
variables *written* in the window that are still live, and restoring the
variables *read* after it — which is what ALFRED's distributed saves/
restores add up to.

Feasibility: "since it uses the same offset to access both data in VM and
data in NVM, a large VM size (identical to NVM size) is needed" — so, like
the all-VM techniques, ALFRED cannot run dijkstra/fft/rc4 on 2 KB of VM
(Table I).
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.cfg import CFG
from repro.analysis.liveness import FunctionAccessSummaries, LivenessInfo
from repro.baselines.common import (
    CompiledTechnique,
    back_edges,
    concrete_variables,
    data_footprint,
    full_alloc,
    insert_backedge_checkpoints,
    insert_entry_checkpoint,
    insert_exit_checkpoints,
    set_all_spaces,
)
from repro.core.transform import _CheckpointFactory
from repro.emulator.runtime import CheckpointPolicy
from repro.energy.platform import Platform
from repro.ir.instructions import Store
from repro.ir.module import Module
from repro.ir.validate import validate_module
from repro.ir.values import MemorySpace


def _written_variables(module: Module) -> Set[str]:
    """Concrete variables written anywhere in the program (directly or
    through a by-reference parameter)."""
    summaries = FunctionAccessSummaries(module, CallGraph(module))
    written: Set[str] = set()
    for func in module.functions.values():
        for block in func.blocks.values():
            for inst in block:
                if isinstance(inst, Store):
                    written.add(inst.var.name)
    # Resolve ref formals to every actual they can bind to (conservative:
    # the summaries' caller-visible write sets already do this at call
    # sites; simply union them).
    for name in module.functions:
        written |= summaries.summary(name).writes
    return written


def _stack_contexts(module: Module, summaries: FunctionAccessSummaries):
    """For each function, the caller locals that may be live on the stack
    while it executes (propagated top-down over the call graph).

    A checkpoint inside a callee must treat those variables as part of the
    volatile state: they are live in VM, belong to suspended frames, and
    would otherwise roll back inconsistently.
    """
    from repro.ir.instructions import Call

    callgraph = CallGraph(module)
    order = list(reversed(callgraph.reverse_topological()))  # callers first
    contexts = {name: set() for name in module.functions}
    liveness = {}
    for name, func in module.functions.items():
        liveness[name] = LivenessInfo(func, module, summaries, CFG(func))
    local_names = {
        name: {
            v.name for v in func.variables.values() if not v.is_ref
        }
        for name, func in module.functions.items()
    }
    for name in order:
        func = module.functions[name]
        live = liveness[name]
        for label, block in func.blocks.items():
            for idx, inst in enumerate(block.instructions):
                if isinstance(inst, Call):
                    survives = live.live_before_instruction(label, idx + 1)
                    passed = (survives & local_names[name]) | contexts[name]
                    contexts[inst.callee] |= passed
    return contexts, liveness


def compile_alfred(module: Module, platform: Platform) -> CompiledTechnique:
    """Instrument ``module`` with the ALFRED scheme."""
    footprint = data_footprint(module)
    policy = CheckpointPolicy.rollback_mode("alfred", supports_vm=True)
    if footprint > platform.vm_size:
        return CompiledTechnique(
            name="alfred",
            module=module,
            policy=policy,
            feasible=False,
            infeasible_reason=(
                f"data footprint {footprint} B exceeds VM size "
                f"{platform.vm_size} B (ALFRED maps VM and NVM at the same "
                "offsets)"
            ),
        )

    work = module.clone()
    set_all_spaces(work, MemorySpace.VM)
    alloc = full_alloc(work, MemorySpace.VM)
    written = _written_variables(work)

    callgraph = CallGraph(work)
    summaries = FunctionAccessSummaries(work, callgraph)
    contexts, liveness_of = _stack_contexts(work, summaries)

    # Per-latch liveness-trimmed save/restore sets. The volatile state at a
    # checkpoint is the function's own live set plus the live locals of
    # every frame that may be suspended underneath it.
    save_for: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}
    local_concrete = {v.name for v in concrete_variables(work)}
    for func in work.functions.values():
        liveness = liveness_of[func.name]
        for latch, header in back_edges(func):
            live = (
                liveness.live_at_edge(latch, header) | contexts[func.name]
            ) & local_concrete
            save = tuple(
                sorted(
                    n
                    for n in live
                    if n in written and not work.find_variable(n).is_const
                )
            )
            restore = tuple(sorted(live))
            save_for[f"{func.name}/{latch}->{header}"] = (save, restore)

    default_save = tuple(
        sorted(
            v.name
            for v in concrete_variables(work)
            if v.name in written and not v.is_const
        )
    )
    save_for["*"] = (default_save, tuple(sorted(local_concrete)))

    factory = _CheckpointFactory()
    insert_entry_checkpoint(
        work, factory, restore=tuple(sorted(local_concrete)), alloc_after=alloc
    )
    insert_backedge_checkpoints(work, factory, save_for, alloc_after=alloc)
    insert_exit_checkpoints(work, factory, save=default_save)
    validate_module(work)
    return CompiledTechnique(
        name="alfred",
        module=work,
        policy=policy,
        checkpoints_inserted=factory.next_id - 1,
    )

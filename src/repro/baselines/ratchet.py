"""RATCHET (Van Der Woude & Hicks, OSDI 2016) — the All-NVM baseline.

"RATCHET is designed for systems only equipped with NVM. To deal with
memory incoherence resulting from re-executions, RATCHET leverages
compile-time instrumentation to place static checkpoints, in order to break
write-after-read dependencies (such as incrementing a variable). Since
RATCHET does not use VM, the CPU registers are the only volatile data to
checkpoint." (paper §IV-A)

The placement is an interprocedural forward dataflow: track the set of
variables *read since the last checkpoint*; any store (or callee write)
that hits the set is a WAR hazard, so a checkpoint is inserted immediately
before it, making every inter-checkpoint segment idempotent and therefore
safe to re-execute after a power failure. Our granularity is the whole
variable (matching the repo-wide allocation granularity), which is
conservative for arrays.

RATCHET does not adapt to the capacitor size: a WAR-free stretch longer
than the energy budget prevents forward progress (Table III, small TBPF).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.cfg import CFG
from repro.analysis.liveness import FunctionAccessSummaries
from repro.baselines.common import (
    CompiledTechnique,
    insert_entry_checkpoint,
    insert_exit_checkpoints,
    set_all_spaces,
)
from repro.core.transform import _CheckpointFactory
from repro.emulator.runtime import CheckpointPolicy
from repro.energy.platform import Platform
from repro.ir.function import Function
from repro.ir.instructions import Call, Load, Store
from repro.ir.module import Module
from repro.ir.validate import validate_module
from repro.ir.values import MemorySpace


class _WarAnalysis:
    """Fixpoint WAR-breaking checkpoint placement for one function.

    ``checkpoint_before``: set of (label, instruction index) that must be
    preceded by a checkpoint. Grows monotonically across iterations, which
    guarantees convergence together with the monotone read-sets.
    """

    def __init__(
        self,
        func: Function,
        summaries: FunctionAccessSummaries,
    ):
        self.func = func
        self.summaries = summaries
        self.cfg = CFG(func)
        self._out_sets: Dict[str, Set[str]] = {}
        self.checkpoint_before: Set[Tuple[str, int]] = set()

    def run(self) -> None:
        """Iterate to fixpoint, starting from an empty read-set at
        function entry."""
        in_sets: Dict[str, Set[str]] = {
            label: set() for label in self.cfg.labels
        }
        changed = True
        while changed:
            changed = False
            for label in self.cfg.reverse_postorder():
                incoming = set(in_sets[label])
                for pred in self.cfg.preds[label]:
                    incoming |= self._out_sets.get(pred, set())
                if incoming != in_sets[label]:
                    in_sets[label] = incoming
                    changed = True
                out, new_ckpts = self._transfer(label, incoming)
                if new_ckpts - self.checkpoint_before:
                    self.checkpoint_before |= new_ckpts
                    changed = True
                previous = self._out_sets.get(label)
                if previous != out:
                    self._out_sets[label] = out
                    changed = True

    def _transfer(
        self, label: str, incoming: Set[str]
    ) -> Tuple[Set[str], Set[Tuple[str, int]]]:
        reads = set(incoming)
        new_ckpts: Set[Tuple[str, int]] = set()
        for idx, inst in enumerate(self.func.blocks[label].instructions):
            if (label, idx) in self.checkpoint_before:
                reads = set()
            if isinstance(inst, Load):
                reads.add(inst.var.name)
            elif isinstance(inst, Store):
                if inst.var.name in reads:
                    new_ckpts.add((label, idx))
                    reads = set()
            elif isinstance(inst, Call):
                # Full (locals-included) effect sets: callee locals are
                # statically allocated, so a read one call leaves exposed
                # aliases the storage a later call to the same function
                # rewrites — a WAR hazard no caller-visible set shows.
                callee_reads, callee_writes = (
                    self.summaries.call_effects_full(inst)
                )
                if callee_writes & reads:
                    new_ckpts.add((label, idx))
                    reads = set()
                # The callee instruments its own internal WARs; its reads
                # join ours (a WAR with a later caller store must still be
                # broken). A callee that certainly checkpoints would clear
                # the set; we stay conservative and keep it.
                reads |= callee_reads
                # Callee writes followed by caller reads+writes are handled
                # by the normal rule once the caller reads them.
        return reads, new_ckpts


def compile_ratchet(module: Module, platform: Platform) -> CompiledTechnique:
    """Instrument ``module`` with the RATCHET scheme."""
    work = module.clone()
    set_all_spaces(work, MemorySpace.NVM)
    callgraph = CallGraph(work)
    summaries = FunctionAccessSummaries(work, callgraph)

    factory = _CheckpointFactory()
    total_positions = 0
    for name in callgraph.reverse_topological():
        func = work.functions[name]
        analysis = _WarAnalysis(func, summaries)
        analysis.run()
        # Insert the checkpoints bottom-up per block so indices stay valid.
        # A position strictly inside an atomic section (paper §VI) is moved
        # to the section's start — checkpoints may not interrupt it.
        def legalize(label: str, idx: int) -> int:
            for range_label, a_start, a_end in func.atomic_ranges:
                if range_label == label and a_start < idx < a_end:
                    return a_start
            return idx

        # Deduplicate post-legalization, then iterate sorted: set order is
        # hash-randomized across processes, and checkpoint ids must not be
        # (the printed module is a content-address for cached reports).
        by_label: Dict[str, List[int]] = {}
        for label, idx in sorted({
            (label, legalize(label, idx))
            for label, idx in analysis.checkpoint_before
        }):
            by_label.setdefault(label, []).append(idx)
        for label, indices in by_label.items():
            block = func.blocks[label]
            for idx in sorted(indices, reverse=True):
                ckpt = factory.make((), (), {})
                block.instructions.insert(idx, ckpt)
                total_positions += 1

    insert_entry_checkpoint(work, factory, restore=(), alloc_after={})
    insert_exit_checkpoints(work, factory, save=())
    validate_module(work)
    return CompiledTechnique(
        name="ratchet",
        module=work,
        policy=CheckpointPolicy.rollback_mode("ratchet", supports_vm=False),
        checkpoints_inserted=factory.next_id - 1,
    )

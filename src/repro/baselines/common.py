"""Shared helpers for the baseline transformations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.cfg import CFG
from repro.analysis.loops import LoopNest
from repro.core.placement import Schematic, SchematicConfig
from repro.core.tracing import InputGenerator, Profile
from repro.core.transform import _CheckpointFactory, _split_edge
from repro.emulator.runtime import CheckpointPolicy
from repro.energy.platform import Platform
from repro.ir.function import Function
from repro.ir.instructions import Load, Ret, Store
from repro.ir.module import Module
from repro.ir.values import MemorySpace, Variable


@dataclass
class CompiledTechnique:
    """A program instrumented by one checkpointing technique."""

    name: str
    module: Module
    policy: CheckpointPolicy
    feasible: bool = True
    infeasible_reason: str = ""
    checkpoints_inserted: int = 0
    extra: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> str:
        status = "ok" if self.feasible else f"infeasible: {self.infeasible_reason}"
        return f"{self.name}: {self.checkpoints_inserted} checkpoints ({status})"


def concrete_variables(module: Module) -> List[Variable]:
    """All non-ref variables (the ones that have storage of their own)."""
    return [v for v in module.all_variables() if not v.is_ref]


def data_footprint(module: Module) -> int:
    return module.data_footprint_bytes()


def set_all_spaces(module: Module, space: MemorySpace) -> None:
    """Direct every load/store in the module at ``space``."""
    for func in module.functions.values():
        for block in func.blocks.values():
            for inst in block:
                if isinstance(inst, (Load, Store)):
                    inst.space = space


def full_alloc(module: Module, space: MemorySpace) -> Dict[str, MemorySpace]:
    return {var.name: space for var in concrete_variables(module)}


def back_edges(func: Function) -> List[Tuple[str, str]]:
    """(latch, header) pairs of every natural loop in ``func``."""
    nest = LoopNest(CFG(func))
    edges: List[Tuple[str, str]] = []
    for loop in nest.loops:
        for latch in loop.latches:
            edges.append((latch, loop.header))
    return edges


def insert_entry_checkpoint(
    module: Module,
    factory: _CheckpointFactory,
    restore: Iterable[str],
    alloc_after: Dict[str, MemorySpace],
) -> None:
    """Boot checkpoint at the start of the entry function: establishes the
    initial allocation (and the restart-from-boot snapshot)."""
    func = module.entry_function
    ckpt = factory.make((), restore, alloc_after, skippable=False)
    func.entry.instructions.insert(0, ckpt)


def insert_exit_checkpoints(
    module: Module,
    factory: _CheckpointFactory,
    save: Iterable[str],
    alloc_after: Optional[Dict[str, MemorySpace]] = None,
) -> None:
    """Final checkpoints before every return of the entry function, so
    results persist in NVM."""
    func = module.entry_function
    for block in func.blocks.values():
        term = block.terminator
        if isinstance(term, Ret):
            ckpt = factory.make(save, (), dict(alloc_after or {}), skippable=False)
            block.instructions.insert(len(block.instructions) - 1, ckpt)


def insert_backedge_checkpoints(
    module: Module,
    factory: _CheckpointFactory,
    save_for: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]],
    alloc_after: Dict[str, MemorySpace],
) -> int:
    """Checkpoints on every loop back edge of every function (the latch
    placement used for MEMENTOS and ALFRED, §IV-A). ``save_for`` maps
    ``function/latch->header`` keys to (save, restore) tuples; missing keys
    fall back to ``save_for['*']``."""
    count = 0
    for func in module.functions.values():
        for latch, header in back_edges(func):
            key = f"{func.name}/{latch}->{header}"
            save, restore = save_for.get(key, save_for["*"])
            ckpt = factory.make(save, restore, alloc_after)
            _split_edge(func, latch, header, ckpt)
            count += 1
    return count


def compile_schematic(
    module: Module,
    platform: Platform,
    input_generator: Optional[InputGenerator] = None,
    profile: Optional[Profile] = None,
    config: Optional[SchematicConfig] = None,
) -> CompiledTechnique:
    """SCHEMATIC itself, through the uniform baseline API."""
    result = Schematic(platform, config).compile(
        module, input_generator=input_generator, profile=profile
    )
    return CompiledTechnique(
        name="schematic",
        module=result.module,
        policy=CheckpointPolicy.wait_mode("schematic", supports_vm=True),
        checkpoints_inserted=result.checkpoints_inserted,
        extra={"result": result},
    )

"""MEMENTOS (Ransford et al., ASPLOS 2011) — the All-VM baseline.

"MEMENTOS only uses VM as working memory and relies on compile-time
selection of potential checkpointing locations. At runtime, MEMENTOS takes
decisions about whether a checkpoint should be skipped or not, given the
energy left. To estimate the energy available, it measures the voltage
across the capacitor." (paper §IV-A). Checkpoints sit on loop latches, as
in the MEMENTOS publication; a checkpoint copies the *entire* volatile
state (all variables plus registers) to NVM.

Feasibility: the whole data set must fit in VM — MEMENTOS "cannot run
benchmarks with cumulated variable size larger than the VM size" (Table I).
"""

from __future__ import annotations

from repro.baselines.common import (
    CompiledTechnique,
    concrete_variables,
    data_footprint,
    full_alloc,
    insert_backedge_checkpoints,
    insert_entry_checkpoint,
    insert_exit_checkpoints,
    set_all_spaces,
)
from repro.core.transform import _CheckpointFactory
from repro.emulator.runtime import MEMENTOS_THRESHOLD, CheckpointPolicy
from repro.energy.platform import Platform
from repro.ir.module import Module
from repro.ir.validate import validate_module
from repro.ir.values import MemorySpace


def compile_mementos(module: Module, platform: Platform) -> CompiledTechnique:
    """Instrument ``module`` with the MEMENTOS scheme."""
    footprint = data_footprint(module)
    policy = CheckpointPolicy.rollback_mode(
        "mementos", skip_threshold=MEMENTOS_THRESHOLD, supports_vm=True
    )
    if footprint > platform.vm_size:
        return CompiledTechnique(
            name="mementos",
            module=module,
            policy=policy,
            feasible=False,
            infeasible_reason=(
                f"data footprint {footprint} B exceeds VM size "
                f"{platform.vm_size} B"
            ),
        )

    work = module.clone()
    set_all_spaces(work, MemorySpace.VM)
    alloc = full_alloc(work, MemorySpace.VM)
    all_names = tuple(sorted(alloc))
    save_names = tuple(
        v.name for v in concrete_variables(work) if not v.is_const
    )

    factory = _CheckpointFactory()
    insert_entry_checkpoint(work, factory, restore=all_names, alloc_after=alloc)
    count = insert_backedge_checkpoints(
        work,
        factory,
        save_for={"*": (save_names, all_names)},
        alloc_after=alloc,
    )
    insert_exit_checkpoints(work, factory, save=save_names)
    validate_module(work)
    return CompiledTechnique(
        name="mementos",
        module=work,
        policy=policy,
        checkpoints_inserted=factory.next_id - 1,
    )

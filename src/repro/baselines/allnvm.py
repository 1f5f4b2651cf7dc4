"""All-NVM: SCHEMATIC with VM allocation disabled (§IV-E ablation).

"We compared the SCHEMATIC algorithm (joint checkpoint placement and memory
allocation) to a modified version of SCHEMATIC called All-NVM, where no
memory allocation in VM is performed (all data is stored in NVM)."
Checkpoint placement is unchanged; only the allocation degenerates.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.common import CompiledTechnique
from repro.core.placement import Schematic, SchematicConfig
from repro.core.tracing import InputGenerator, Profile
from repro.emulator.runtime import CheckpointPolicy
from repro.energy.platform import Platform
from repro.ir.module import Module


def compile_allnvm(
    module: Module,
    platform: Platform,
    input_generator: Optional[InputGenerator] = None,
    profile: Optional[Profile] = None,
) -> CompiledTechnique:
    """SCHEMATIC's placement with every variable pinned to NVM."""
    config = SchematicConfig(all_nvm=True)
    result = Schematic(platform, config).compile(
        module, input_generator=input_generator, profile=profile
    )
    return CompiledTechnique(
        name="allnvm",
        module=result.module,
        policy=CheckpointPolicy.wait_mode("allnvm", supports_vm=False),
        checkpoints_inserted=result.checkpoints_inserted,
        extra={"result": result},
    )

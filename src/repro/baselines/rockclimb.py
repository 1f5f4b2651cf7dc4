"""ROCKCLIMB (Choi et al., RTAS 2022) — compile-time placement, all-NVM.

"The first compiler pass of ROCKCLIMB systematically places checkpoints at
loop headers and before function calls. Its second pass is responsible for
inserting additional checkpoints, if needed, to ensure forward progress: it
traverses the program CFG and adds checkpoints on the paths for which the
energy consumption between successive checkpoints is higher than EB. We
re-implemented ROCKCLIMB and its loop unrolling optimization. That
optimization unrolls loops to avoid saving checkpoints at each loop
iteration (we nonetheless limit the unrolling factor to 10)." (§IV-A)

Like SCHEMATIC, ROCKCLIMB waits for a full capacitor at every checkpoint
(§V: it "shuts down the platform when a checkpoint is reached, and resumes
execution only when the capacitor is full"), so it never rolls back.

This implementation reuses the core placement machinery with VM allocation
disabled and the ROCKCLIMB discipline forced: a (conditional) checkpoint on
every loop back edge with period <= 10 (the unrolling-factor cap expressed
as checkpoint-every-k-iterations, which has the same runtime behaviour as
unrolling by k), checkpoints around every call, and the energy-driven RCG
pass providing the "additional checkpoints" of pass 2.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.common import CompiledTechnique
from repro.core.placement import Schematic, SchematicConfig
from repro.core.tracing import InputGenerator, Profile
from repro.emulator.runtime import CheckpointPolicy
from repro.energy.platform import Platform
from repro.ir.module import Module

#: The paper's unrolling-factor cap.
UNROLL_LIMIT = 10


def compile_rockclimb(
    module: Module,
    platform: Platform,
    input_generator: Optional[InputGenerator] = None,
    profile: Optional[Profile] = None,
) -> CompiledTechnique:
    """Instrument ``module`` with the ROCKCLIMB scheme."""
    config = SchematicConfig(
        all_nvm=True,
        force_loop_checkpoints=True,
        checkpoint_around_calls=True,
        max_numit=UNROLL_LIMIT,
    )
    result = Schematic(platform, config).compile(
        module, input_generator=input_generator, profile=profile
    )
    return CompiledTechnique(
        name="rockclimb",
        module=result.module,
        policy=CheckpointPolicy.wait_mode("rockclimb", supports_vm=False),
        checkpoints_inserted=result.checkpoints_inserted,
        extra={"result": result},
    )

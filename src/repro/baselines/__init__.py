"""The four baselines of the paper's evaluation (§IV-A) plus the All-NVM
ablation (§IV-E), behind one uniform API.

Every ``compile_*`` function takes an untransformed module and a platform
and returns a :class:`CompiledTechnique`: the instrumented program, the
runtime :class:`~repro.emulator.runtime.CheckpointPolicy` it requires, and
a feasibility verdict (Table I: all-VM techniques cannot run programs whose
data exceeds the VM size).

- :mod:`repro.baselines.ratchet` — RATCHET [9]: all-NVM working memory,
  compile-time checkpoints breaking write-after-read dependencies,
  registers-only snapshots, roll-back on failure.
- :mod:`repro.baselines.mementos` — MEMENTOS [8]: all-VM working memory,
  potential checkpoints on loop latches, run-time voltage check decides
  whether to actually save, roll-back on failure.
- :mod:`repro.baselines.rockclimb` — ROCKCLIMB [18]: all-NVM, checkpoints
  at loop back edges (conditional, unrolling factor <= 10) and around
  calls, energy-driven extra checkpoints, wait-for-full-recharge.
- :mod:`repro.baselines.alfred` — ALFRED [17]: VM-preferred allocation
  (requires VM >= data), latch checkpoints, liveness-trimmed deferred
  restore / anticipated save, roll-back on failure.
- :mod:`repro.baselines.allnvm` — SCHEMATIC with VM allocation disabled.
"""

from typing import Optional

from repro.baselines.common import CompiledTechnique, compile_schematic
from repro.baselines.ratchet import compile_ratchet
from repro.baselines.mementos import compile_mementos
from repro.baselines.alfred import compile_alfred
from repro.baselines.rockclimb import compile_rockclimb
from repro.baselines.allnvm import compile_allnvm
from repro.core.tracing import Profile
from repro.energy.platform import Platform
from repro.ir.module import Module

#: Every technique's compiler, in the paper's display order with the
#: All-NVM ablation last.
COMPILERS = {
    "ratchet": compile_ratchet,
    "mementos": compile_mementos,
    "rockclimb": compile_rockclimb,
    "alfred": compile_alfred,
    "schematic": compile_schematic,
    "allnvm": compile_allnvm,
}

#: The techniques of the paper's evaluation in its display order: every
#: compiler but the All-NVM ablation.
ALL_TECHNIQUES = tuple(name for name in COMPILERS if name != "allnvm")

#: Techniques on SCHEMATIC's placement, whose compilers take an execution
#: profile (or an input generator to collect one).
PROFILED_TECHNIQUES = frozenset({"schematic", "rockclimb", "allnvm"})


def compile_for(
    technique: str,
    module: Module,
    platform: Platform,
    input_generator=None,
    profile: Optional[Profile] = None,
) -> CompiledTechnique:
    """Compile ``module`` with one technique through the uniform API.

    The compiler is looked up in :data:`COMPILERS` at call time, so a
    rebinding of its values takes effect here too."""
    if technique not in COMPILERS:
        raise KeyError(
            f"unknown technique {technique!r}; "
            f"choose from {sorted(COMPILERS)}"
        )
    compiler = COMPILERS[technique]
    if technique in PROFILED_TECHNIQUES:
        return compiler(
            module, platform, profile=profile, input_generator=input_generator
        )
    return compiler(module, platform)


__all__ = [
    "CompiledTechnique",
    "compile_ratchet",
    "compile_mementos",
    "compile_rockclimb",
    "compile_alfred",
    "compile_allnvm",
    "compile_schematic",
    "compile_for",
    "ALL_TECHNIQUES",
    "COMPILERS",
    "PROFILED_TECHNIQUES",
]

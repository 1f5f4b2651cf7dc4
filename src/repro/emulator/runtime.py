"""Checkpoint runtime policies and snapshots.

Two families of checkpointing runtimes exist in the paper's evaluation:

- **wait mode** (SCHEMATIC, ROCKCLIMB — Fig. 3): on reaching an enabled
  checkpoint, save volatile data to NVM, sleep until the capacitor is fully
  replenished, restore volatile data, continue. Execution never rolls back.
- **roll-back mode** (RATCHET, MEMENTOS, ALFRED): run until the power
  fails, then restart from the last saved snapshot and *re-execute* the
  lost work. MEMENTOS additionally decides at run time whether to skip a
  checkpoint given the measured remaining energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

#: MEMENTOS saves a checkpoint when the measured remaining energy drops
#: below this fraction of a full capacitor (the paper's "voltage threshold"
#: emulated on the energy budget).
MEMENTOS_THRESHOLD = 0.5


@dataclass(frozen=True)
class CheckpointPolicy:
    """How a technique's runtime treats checkpoint instructions.

    Attributes:
        name: technique name (reporting only).
        wait_for_full_recharge: wait mode if True, roll-back mode otherwise.
        skip_threshold: if not None, a checkpoint is *skipped* unless the
            remaining capacitor fraction is below this value (MEMENTOS's
            dynamic decision). Wait-mode techniques never skip.
        check_energy: small fixed energy (nJ) of the voltage measurement
            performed at each potential checkpoint when ``skip_threshold``
            is set.
        supports_vm: the runtime can hold VM placements; False for the
            techniques that keep every variable in NVM (RATCHET,
            ROCKCLIMB, All-NVM), whose checkpoints must map nothing into
            VM (static rule CONS004).

    Whatever the policy, a checkpoint restore rebuilds exactly the
    checkpoint's ``restore_vars`` (see
    :meth:`repro.emulator.interpreter.Interpreter._apply_restore`); the
    memory-consistency certifier (:mod:`repro.staticcheck.consistency`)
    assumes the same.
    """

    name: str
    wait_for_full_recharge: bool
    skip_threshold: Optional[float] = None
    check_energy: float = 5.0
    supports_vm: bool = True

    @classmethod
    def wait_mode(
        cls, name: str, supports_vm: bool = True
    ) -> "CheckpointPolicy":
        return cls(
            name=name, wait_for_full_recharge=True, supports_vm=supports_vm
        )

    @classmethod
    def rollback_mode(
        cls,
        name: str,
        skip_threshold: Optional[float] = None,
        supports_vm: bool = True,
    ) -> "CheckpointPolicy":
        return cls(
            name=name,
            wait_for_full_recharge=False,
            skip_threshold=skip_threshold,
            supports_vm=supports_vm,
        )


@dataclass
class FrameSnapshot:
    """Serialized activation record."""

    function: str
    block: str
    index: int
    registers: Dict[str, int]
    ref_bindings: Dict[str, str]
    ret_target: Optional[str]  # caller register receiving the return value


@dataclass
class Snapshot:
    """Everything needed to resume after a power failure: the serialized
    call stack at the checkpoint. VM contents are *not* stored — the save
    preceding the snapshot flushed every dirty live variable to its NVM
    home, so the restore path reconstructs VM from NVM (which also models
    the real systems' behaviour: RAM contents never survive an outage).
    """

    ckpt_id: int
    frames: List[FrameSnapshot]
    #: Payload size of the variables the restore is billed for.
    payload_bytes: int = 0

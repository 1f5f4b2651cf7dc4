"""Energy accounting with the paper's four reporting categories.

Fig. 6 splits energy into Computation / Save / Restore / Re-execution, with
computation "excluding the energy costs of re-executions after a power
failure". The meter therefore keeps computation *pending* until the next
successful checkpoint: committed on save, reclassified as re-execution when
a power failure rolls the attempt back. Save/restore energy is committed
immediately (the paper counts every save and every restore, including
repeated ones).

Fig. 7 additionally splits computation into no-memory-access energy,
VM-access energy and NVM-access energy; the meter tracks those (and access
counts) with the same pending/commit discipline.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EnergyBreakdown:
    """Committed energy per category, in nJ."""

    computation: float = 0.0
    save: float = 0.0
    restore: float = 0.0
    reexecution: float = 0.0
    # Fig. 7 split of the computation category:
    cpu: float = 0.0  # computation without memory accesses
    vm_access: float = 0.0
    nvm_access: float = 0.0

    @property
    def total(self) -> float:
        return self.computation + self.save + self.restore + self.reexecution

    @property
    def intermittency_management(self) -> float:
        """Everything that is not useful computation (Fig. 8's shaded part)."""
        return self.save + self.restore + self.reexecution

    def as_dict(self) -> dict:
        return {
            "computation": self.computation,
            "save": self.save,
            "restore": self.restore,
            "reexecution": self.reexecution,
            "total": self.total,
        }


@dataclass
class _Pending:
    computation: float = 0.0
    cpu: float = 0.0
    vm_access: float = 0.0
    nvm_access: float = 0.0
    vm_accesses: int = 0
    nvm_accesses: int = 0

    def reset(self) -> None:
        self.computation = 0.0
        self.cpu = 0.0
        self.vm_access = 0.0
        self.nvm_access = 0.0
        self.vm_accesses = 0
        self.nvm_accesses = 0


class EnergyMeter:
    """Per-category energy accounting for one emulated execution."""

    def __init__(self) -> None:
        self.breakdown = EnergyBreakdown()
        self.pending = _Pending()
        self.vm_accesses = 0
        self.nvm_accesses = 0
        self.saves = 0
        self.restores = 0

    # -- computation (pending until committed) ---------------------------------

    def charge_compute(
        self,
        energy: float,
        access_energy: float = 0.0,
        access_is_vm: bool = False,
        has_access: bool = False,
    ) -> None:
        """Charge one instruction's execution.

        ``energy`` is the full instruction energy; ``access_energy`` is the
        part attributable to the memory access (for the Fig. 7 split)."""
        self.pending.computation += energy
        if has_access:
            if access_is_vm:
                self.pending.vm_access += access_energy
                self.pending.vm_accesses += 1
            else:
                self.pending.nvm_access += access_energy
                self.pending.nvm_accesses += 1
            self.pending.cpu += energy - access_energy
        else:
            self.pending.cpu += energy

    def commit(self) -> None:
        """A checkpoint persisted the progress: pending work is real
        computation."""
        self.breakdown.computation += self.pending.computation
        self.breakdown.cpu += self.pending.cpu
        self.breakdown.vm_access += self.pending.vm_access
        self.breakdown.nvm_access += self.pending.nvm_access
        self.vm_accesses += self.pending.vm_accesses
        self.nvm_accesses += self.pending.nvm_accesses
        self.pending.reset()

    def rollback(self) -> None:
        """A power failure wasted the pending work: re-execution energy."""
        self.breakdown.reexecution += self.pending.computation
        self.pending.reset()

    # -- checkpoint traffic (committed immediately) -----------------------------

    def charge_save(self, energy: float) -> None:
        self.breakdown.save += energy
        self.saves += 1

    def charge_restore(self, energy: float) -> None:
        self.breakdown.restore += energy
        self.restores += 1

    # -- snapshot/fork support ---------------------------------------------------

    def state_dict(self) -> dict:
        """Full meter state as plain floats/ints, for snapshot/fork
        emulation (detached — mutating the meter later does not touch a
        returned dict)."""
        b, p = self.breakdown, self.pending
        return {
            "breakdown": {
                "computation": b.computation,
                "save": b.save,
                "restore": b.restore,
                "reexecution": b.reexecution,
                "cpu": b.cpu,
                "vm_access": b.vm_access,
                "nvm_access": b.nvm_access,
            },
            "pending": {
                "computation": p.computation,
                "cpu": p.cpu,
                "vm_access": p.vm_access,
                "nvm_access": p.nvm_access,
                "vm_accesses": p.vm_accesses,
                "nvm_accesses": p.nvm_accesses,
            },
            "vm_accesses": self.vm_accesses,
            "nvm_accesses": self.nvm_accesses,
            "saves": self.saves,
            "restores": self.restores,
        }

    def restore_state(self, state: dict) -> None:
        self.breakdown = EnergyBreakdown(**state["breakdown"])
        self.pending = _Pending(**state["pending"])
        self.vm_accesses = state["vm_accesses"]
        self.nvm_accesses = state["nvm_accesses"]
        self.saves = state["saves"]
        self.restores = state["restores"]

    # -- queries -----------------------------------------------------------------

    @property
    def total_with_pending(self) -> float:
        return self.breakdown.total + self.pending.computation

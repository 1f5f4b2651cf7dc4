"""Execution reports returned by the emulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.emulator.meter import EnergyBreakdown


@dataclass
class ExecutionReport:
    """Everything an experiment needs to know about one emulated run.

    Attributes:
        technique: name of the checkpoint policy that ran.
        completed: the program ran to termination (Table III's check mark).
        failure_reason: why it did not complete (``"no forward progress"``,
            ``"vm capacity exceeded"``, ...), empty when completed.
        energy: committed energy per category (nJ).
        active_cycles: CPU cycles spent executing (sleep excluded).
        instructions: IR instructions executed (re-executions included).
        power_failures: number of power failures experienced.
        checkpoints_saved / checkpoints_restored: runtime counts.
        checkpoints_skipped: MEMENTOS-style skipped checkpoint decisions.
        vm_accesses / nvm_accesses: committed memory-access counts.
        outputs: final values of every non-const global variable.
        peak_vm_bytes: maximum VM occupancy observed.
        power_mode: the :class:`~repro.emulator.power.PowerMode` value of
            the run's power manager.
        failure_offsets: pre-step timeline offsets (active cycles since
            boot) of each power failure — feeding them into
            ``PowerManager.scheduled`` replays this run's failures
            deterministically (the testkit's shrinker relies on it).
    """

    technique: str
    completed: bool
    failure_reason: str = ""
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    active_cycles: int = 0
    instructions: int = 0
    power_failures: int = 0
    checkpoints_saved: int = 0
    checkpoints_restored: int = 0
    checkpoints_skipped: int = 0
    vm_accesses: int = 0
    nvm_accesses: int = 0
    outputs: Dict[str, List[int]] = field(default_factory=dict)
    peak_vm_bytes: int = 0
    power_mode: str = ""
    failure_offsets: List[int] = field(default_factory=list)

    @property
    def total_energy_uj(self) -> float:
        return self.energy.total / 1000.0

    def eb_for_tbpf(self, tbpf: int) -> float:
        """§IV-C: "For each value of TBPF we set EB to the average amount
        of energy that is consumed by the platform in the interval" —
        this (reference) run's average power times ``tbpf``."""
        power = self.energy.total / max(self.active_cycles, 1)
        return power * tbpf

    def matches_outputs(self, reference: "ExecutionReport") -> bool:
        """Compare final global values against a reference run (memory
        anomalies show up here as mismatches)."""
        return self.outputs == reference.outputs

    def summary(self) -> str:
        status = "completed" if self.completed else f"FAILED ({self.failure_reason})"
        return (
            f"[{self.technique}] {status}: "
            f"{self.energy.total / 1000.0:.2f} uJ "
            f"(comp {self.energy.computation / 1000.0:.2f}, "
            f"save {self.energy.save / 1000.0:.2f}, "
            f"restore {self.energy.restore / 1000.0:.2f}, "
            f"reexec {self.energy.reexecution / 1000.0:.2f}), "
            f"{self.active_cycles} cycles, "
            f"{self.power_failures} failures, "
            f"{self.checkpoints_saved} saves"
        )

"""IR-level intermittent-execution emulator (the SCEPTIC substitute).

The paper evaluates every technique on SCEPTIC, an emulator that "executes
programs at IR level, under intermittent power supply" and "monitors several
program metrics ... in particular the MSP430FR5969 energy consumption"
(§IV-A). This package provides the same observables:

- whether the program terminates (forward progress, Table III),
- energy split into computation / save / restore / re-execution (Fig. 6),
- computation energy split into no-memory / VM-access / NVM-access
  (Fig. 7), and access counts,
- active cycles, number of power failures, checkpoints saved/restored,
- program outputs (global variables), compared against a continuously
  powered reference run to detect memory anomalies.

Power failures are injected by energy budget (the capacitor empties after
``EB`` nJ since the last full recharge) or periodically by active cycles
(TBPF). §IV-C ties the two: "For each value of TBPF we set EB to the
average amount of energy that is consumed by the platform in the interval."
"""

from repro.emulator.memory import MemoryState
from repro.emulator.meter import EnergyBreakdown, EnergyMeter
from repro.emulator.power import PowerManager, PowerMode
from repro.emulator.runtime import CheckpointPolicy, MEMENTOS_THRESHOLD
from repro.emulator.report import ExecutionReport
from repro.emulator.interpreter import (
    EmulatorSnapshot,
    Interpreter,
    run_continuous,
    run_intermittent,
)
from repro.emulator.diffemu import (
    PowerSpec,
    SnapshotTape,
    plan_cell,
    record_tape,
    run_cell,
)

__all__ = [
    "MemoryState",
    "EnergyBreakdown",
    "EnergyMeter",
    "PowerManager",
    "PowerMode",
    "CheckpointPolicy",
    "MEMENTOS_THRESHOLD",
    "ExecutionReport",
    "EmulatorSnapshot",
    "Interpreter",
    "run_continuous",
    "run_intermittent",
    "PowerSpec",
    "SnapshotTape",
    "plan_cell",
    "record_tape",
    "run_cell",
]

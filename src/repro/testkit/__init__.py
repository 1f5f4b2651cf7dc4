"""Fault-injection testkit: exhaustive boundary sweeps, trace-driven
power schedules, and a cross-technique differential oracle.

SCHEMATIC's value proposition is a *guarantee* — forward progress with no
memory anomalies under any power-failure schedule (paper §II-B) — but the
bugs that void such guarantees (WAR anomalies, torn checkpoints, stale
restores) hide at *specific* failure points that random schedules rarely
hit. This package turns the emulator into a crash-consistency harness:

- :mod:`repro.testkit.sweep` — enumerate every fault-injectable boundary
  of a transformed program (via the interpreter's step hook plus a
  recording :class:`~repro.emulator.power.PowerManager`) and re-run the
  program with a failure injected at each one, checking the
  crash-consistency oracle after every run. Supports single and double
  failure injection.
- :mod:`repro.testkit.differential` — the technique x power-mode x TBPF
  grid over the MiBench2 programs: every completed run must reproduce the
  continuous-power reference, wait-mode techniques must always complete,
  and all techniques must agree with each other.
- :mod:`repro.testkit.fuzz` — seeded stochastic (geometric inter-failure)
  schedules modeling RF harvesting.
- :mod:`repro.testkit.shrink` — counterexample minimization: any failing
  run is replayed as an explicit ``SCHEDULED`` failure list and shrunk to
  a minimal schedule (fewest failures, earliest offsets) by greedy
  deletion plus per-offset binary search.
- :mod:`repro.testkit.sabotage` — deliberately broken placements
  (checkpoints removed) used to prove the oracle actually catches bugs.

CLI: ``python -m repro.testkit sweep|diff|fuzz`` (see ``--help``), e.g.::

    python -m repro.testkit sweep --program crc --technique schematic

Deep pytest runs are marked ``sweep`` (``pytest -m sweep``); tier-1 skips
them by default. See ``docs/testing.md``.
"""

from repro.testkit.corpus import (
    CORPUS,
    available_programs,
    compile_for,
    load_program,
)
from repro.testkit.oracle import (
    OUTCOME_ANOMALY,
    OUTCOME_CONTRACT,
    OUTCOME_CRASH,
    OUTCOME_INFEASIBLE,
    OUTCOME_OK,
    OUTCOME_PROGRESS,
    OUTCOME_STUCK,
    ContractCheck,
    OracleVerdict,
    check_schedule,
    classify,
)
from repro.testkit.shrink import shrink_schedule
from repro.testkit.sweep import Boundary, SweepResult, record_boundaries, sweep_technique
from repro.testkit.differential import DiffResult, run_differential
from repro.testkit.fuzz import FuzzResult, run_fuzz
from repro.testkit.sabotage import strip_checkpoint

__all__ = [
    "CORPUS",
    "available_programs",
    "compile_for",
    "load_program",
    "OUTCOME_ANOMALY",
    "OUTCOME_CONTRACT",
    "OUTCOME_CRASH",
    "OUTCOME_INFEASIBLE",
    "OUTCOME_OK",
    "OUTCOME_PROGRESS",
    "OUTCOME_STUCK",
    "ContractCheck",
    "OracleVerdict",
    "check_schedule",
    "classify",
    "shrink_schedule",
    "Boundary",
    "SweepResult",
    "record_boundaries",
    "sweep_technique",
    "DiffResult",
    "run_differential",
    "FuzzResult",
    "run_fuzz",
    "strip_checkpoint",
]

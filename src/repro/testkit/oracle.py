"""The crash-consistency oracle shared by sweep, diff and fuzz.

One emulated run is judged against the continuous-power reference:

- ``ok``: the run completed and its final NVM state (every non-const
  global) equals the reference — no memory anomaly.
- ``anomaly``: the run completed with *different* outputs. Always a bug in
  the transformation or runtime: intermittence must never change results.
- ``progress-violation``: the run did not complete although the power
  schedule guarantees eventual completion (a finite injected schedule, or
  an energy budget the placement was compiled for). A wait-mode technique
  getting stuck here is a placement bug.
- ``stuck``: the run did not complete under a schedule that does *not*
  promise completion (e.g. stochastic harvesting with windows below the
  placement's budget, or a roll-back baseline whose checkpoint spacing
  ignores the platform energy — the paper's Table III crosses).
- ``infeasible``: the technique statically refused the program
  (all-VM techniques on over-VM data, Table I).
- ``crash``: the emulation aborted with an internal error (e.g. a VM
  access with no residency after a broken transformation).
- ``anomaly-outside-contract``: an anomaly (or the crash a replayed
  index can cause) from a wait-mode runtime under a schedule its
  recharge contract excludes, predicted by a static replay hazard and
  healed by undoing it (:class:`ContractCheck`) — recorded, never
  counted.

``anomaly``, ``progress-violation`` and ``crash`` are violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.analysis.regions import analyze_regions
from repro.baselines import CompiledTechnique
from repro.core.verify import VerificationResult, run_against_reference
from repro.emulator.interpreter import Interpreter, InterpreterConfig
from repro.emulator.power import PowerManager
from repro.emulator.report import ExecutionReport
from repro.energy.model import EnergyModel
from repro.energy.platform import Platform
from repro.errors import EmulationError
from repro.staticcheck.common import FindingSink
from repro.staticcheck.consistency import certify_idempotency
from repro.staticcheck.findings import Finding
from repro.testkit.shrink import shrink_schedule

OUTCOME_OK = "ok"
OUTCOME_ANOMALY = "anomaly"
OUTCOME_PROGRESS = "progress-violation"
OUTCOME_STUCK = "stuck"
OUTCOME_INFEASIBLE = "infeasible"
OUTCOME_CRASH = "crash"
#: An anomaly produced outside the technique's recharge contract — a
#: wait-mode runtime killed mid-segment by a stochastic schedule, with
#: the replay hazard statically predicted (see :class:`ContractCheck`).
#: Recorded but not counted as a violation.
OUTCOME_CONTRACT = "anomaly-outside-contract"


@dataclass
class OracleVerdict:
    """One cell of a sweep/diff/fuzz campaign."""

    program: str
    technique: str
    power: str  # human-readable power-schedule description
    outcome: str
    #: The injected schedule (timeline offsets) when one was used.
    schedule: Tuple[int, ...] = ()
    #: Minimal failing schedule after shrinking (violations only).
    shrunk: Tuple[int, ...] = ()
    detail: str = ""
    power_failures: int = 0

    @property
    def violation(self) -> bool:
        return self.outcome in (
            OUTCOME_ANOMALY, OUTCOME_PROGRESS, OUTCOME_CRASH,
        )

    def describe(self) -> str:
        text = (
            f"{self.program}/{self.technique} under {self.power}: "
            f"{self.outcome}"
        )
        if self.detail:
            text += f" ({self.detail})"
        if self.violation and self.shrunk:
            text += f"; minimal failing schedule {list(self.shrunk)}"
        return text


def classify(result: VerificationResult, guarantee: bool) -> str:
    """Map a :class:`VerificationResult` to an oracle outcome.

    ``guarantee``: the power schedule promises eventual completion, so a
    non-terminating run is a violation rather than expected starvation."""
    if result.crashed:
        return OUTCOME_CRASH
    if result.completed:
        return OUTCOME_OK if result.outputs_match else OUTCOME_ANOMALY
    return OUTCOME_PROGRESS if guarantee else OUTCOME_STUCK


#: Crashes a replayed index or divisor can cause. Any other emulation
#: error (a VM access with no residency, an undefined register, a VM
#: overflow) is a placement or runtime bug under every schedule.
REPLAYABLE_FAULTS = (
    "out-of-bounds read", "out-of-bounds write",
    "division by zero", "remainder by zero",
)


class _UndoInterpreter(Interpreter):
    """Each power failure also rolls the ``guarded`` variables' NVM
    images back to their values at the resumed snapshot: the replay
    hazards made idempotent. The images are copied at construction (the
    boot state) and whenever a checkpoint commits a new snapshot, and
    written back at each failure. Between two commits of a wait-mode
    runtime (the only kind :class:`ContractCheck` replays) nothing but
    a store writes an NVM home, so this undoes exactly the stores since
    the snapshot, whichever path made them: a handler's
    ``memory.write`` or a compiled segment's inline store. The schedule
    is finite, so the stuck detector is off: a hazard-free replay redoes
    work the faulty one skipped and may meet several scheduled failures
    in a segment."""

    def __init__(self, *args, guarded: FrozenSet[str], **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._guarded = sorted(guarded & self.memory.nvm.keys())
        self._keep_images()

    def _keep_images(self) -> None:
        nvm = self.memory.nvm
        self._kept = [(name, list(nvm[name])) for name in self._guarded]

    def _take_snapshot(self, inst, plan) -> None:
        super()._take_snapshot(inst, plan)
        self._keep_images()

    def _handle_power_failure(self) -> bool:
        nvm = self.memory.nvm
        for name, values in self._kept:
            nvm[name] = list(values)
        self._attempts_on_snapshot = 0
        return super()._handle_power_failure()


@dataclass
class ContractCheck:
    """Which stochastic anomalies and crashes of one compiled technique
    lie outside its recharge contract.

    Wait-mode runtimes promise consistency only for failures that strike
    at a checkpoint, after a full recharge. A stochastic kill can strike
    mid-segment and replay the segment, which changes the results only
    where a region overwrites storage it read first: the idempotency
    rule CONS001, info under the wait-mode contract. A run is waived
    when CONS001 flags the placed module (computed once), a crash is
    one of :data:`REPLAYABLE_FAULTS`, the failure offsets replayed as a
    fixed schedule reproduce the outcome, and the same replay with the
    flagged variables' writes undone at each failure completes with the
    reference outputs. A runtime, restore or transformation bug
    survives the undo and stays a violation."""

    compiled: CompiledTechnique
    reference_report: ExecutionReport
    plat: Platform
    inputs: Optional[Dict[str, List[int]]]
    max_instructions: int

    @cached_property
    def hazards(self) -> List[Finding]:
        """The placed module's CONS001 findings."""
        sink = FindingSink()
        module, policy = self.compiled.module, self.compiled.policy
        facts = analyze_regions(
            module, policy_may_skip=policy.skip_threshold is not None,
        )
        certify_idempotency(module, facts, sink)
        return sink.findings

    def outside_contract(
        self, run: VerificationResult, outcome: str,
    ) -> Tuple[Optional[str], int]:
        """Why ``run``, classified as ``outcome``, lies outside the
        contract (None: it stays a violation), and the replays run."""
        if (
            not self.compiled.policy.wait_for_full_recharge
            or outcome not in (OUTCOME_ANOMALY, OUTCOME_CRASH)
            or not run.failure_offsets
            or outcome == OUTCOME_CRASH and not any(
                fault in run.failure_reason for fault in REPLAYABLE_FAULTS
            )
            or not self.hazards
        ):
            return None, 0
        schedule = tuple(run.failure_offsets)
        plat, compiled = self.plat, self.compiled
        with telemetry.suspended():
            replay = check_schedule(
                compiled, self.reference_report, plat.model, schedule,
                plat.vm_size, self.inputs, self.max_instructions,
            )
            if classify(replay, guarantee=True) != outcome:
                return None, 1
            undo = _UndoInterpreter(
                compiled.module, plat.model, compiled.policy,
                PowerManager.scheduled(schedule),
                InterpreterConfig(
                    inputs=dict(self.inputs or {}), vm_size=plat.vm_size,
                    max_instructions=self.max_instructions,
                ),
                guarded=frozenset(
                    f.details["variable"] for f in self.hazards
                ),
            )
            try:
                healed = undo.run()
            except EmulationError:
                return None, 2
        if not healed.completed or (
            healed.outputs != self.reference_report.outputs
        ):
            return None, 2
        finding = self.hazards[0]
        return (
            f"mid-segment replay outside the recharge contract, predicted by "
            f"{finding.rule_id} at {finding.location} on "
            f"@{finding.details['variable']} "
            f"({len(self.hazards)} replay hazard(s), healed when undone)"
        ), 2


def check_schedule(
    compiled: CompiledTechnique,
    reference_report: ExecutionReport,
    model: EnergyModel,
    offsets: Tuple[int, ...],
    vm_size: int,
    inputs: Optional[Dict[str, List[int]]] = None,
    max_instructions: int = 100_000_000,
) -> VerificationResult:
    """Run the compiled program with failures injected at ``offsets``.

    A finite schedule leaves the supply continuous after the last failure,
    so completion is always guaranteed (``classify(..., guarantee=True)``).
    """
    return run_against_reference(
        compiled.module,
        compiled.module,  # unused: reference_report short-circuits the run
        model,
        compiled.policy,
        PowerManager.scheduled(offsets),
        vm_size=vm_size,
        inputs=inputs,
        max_instructions=max_instructions,
        reference_report=reference_report,
    )


def shrink_failure(
    compiled: CompiledTechnique,
    reference_report: ExecutionReport,
    plat: Platform,
    inputs: Optional[Dict[str, List[int]]],
    max_instructions: int,
    schedule: Sequence[int],
    outcome: str,
    probe: bool = False,
) -> Tuple[Optional[Tuple[int, ...]], int]:
    """Minimize a failing ``schedule`` while replaying it as a fixed
    failure list still yields ``outcome``; returns ``(shrunk, runs)``.

    ``probe=True`` first replays the unshrunk schedule and returns
    ``(None, 1)`` when that does not reproduce ``outcome``: runtimes that
    consult the remaining charge (MEMENTOS's voltage check) may diverge
    from a stochastic or energy-budget run under replay."""

    def still_fails(candidate: Tuple[int, ...]) -> bool:
        run = check_schedule(
            compiled, reference_report, plat.model, candidate,
            plat.vm_size, inputs, max_instructions,
        )
        return classify(run, guarantee=True) == outcome

    probe_runs = 0
    if probe:
        if not still_fails(tuple(schedule)):
            return None, 1
        probe_runs = 1
    shrunk, runs = shrink_schedule(schedule, still_fails)
    return shrunk, probe_runs + runs

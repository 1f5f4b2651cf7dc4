"""Independent verification of the forward-progress guarantee.

Placement enforces the guarantee statically (worst-case energy between
checkpoints <= EB, checked inside
:meth:`repro.core.path_analysis.RegionAnalysis._worst_since_checkpoint`).
This module re-checks it *dynamically*: run the transformed program in the
emulator under the energy budget and confirm it terminates, never violates
the budget between checkpoints, and produces the same outputs as a
continuously powered reference run (i.e. no memory anomalies, §II-B).

Two layers:

- :func:`run_against_reference` is the general crash-consistency oracle —
  any transformed module, any :class:`~repro.emulator.power.PowerManager`
  (energy budget, periodic, scheduled fault injection, stochastic), with
  the continuous-power run as the ground truth. The fault-injection
  testkit (:mod:`repro.testkit`) drives thousands of these.
- :func:`verify_forward_progress` specializes it to the paper's §II-B
  statement: wait mode under the compile-time energy budget must complete
  with *zero* power failures and matching outputs.

Every (reference, transformed) pair that enters the dynamic oracle is
also *statically* translation-validated: the simulation
relation of :mod:`repro.analysis.simrel` is inferred once per module
pair (memoized on object identity, both modules pinned) and its verdict
counted in :func:`transval_stats` — surfaced by the ``run_all``
manifest. The pass is silent on purpose: it never changes a
:class:`VerificationResult` or any evaluation report, so every report
stays byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.emulator.interpreter import run_continuous, run_intermittent
from repro.emulator.power import PowerManager
from repro.emulator.report import ExecutionReport
from repro.emulator.runtime import CheckpointPolicy
from repro.energy.model import EnergyModel
from repro.errors import EmulationError, ReproError
from repro.ir.module import Module


@dataclass
class VerificationResult:
    """Outcome of one dynamic verification run."""

    completed: bool
    outputs_match: bool
    power_failures: int
    failure_reason: str = ""
    #: The emulation aborted with an internal error (e.g. a VM access to a
    #: non-resident variable after a bad transformation) — always a bug.
    crashed: bool = False
    #: Timeline offsets of the failures experienced (replayable via
    #: ``PowerManager.scheduled``).
    failure_offsets: List[int] = field(default_factory=list)
    #: The full intermittent-run report, for post-mortems.
    report: Optional[ExecutionReport] = None

    @property
    def ok(self) -> bool:
        return self.completed and self.outputs_match and self.power_failures == 0

    @property
    def crash_consistent(self) -> bool:
        """The weaker oracle used under injected faults: *if* the run
        completed, its outputs (the final NVM state of every non-const
        global) must equal the reference — power failures themselves are
        expected, they are the point of the injection."""
        return self.completed and self.outputs_match


# -- silent translation validation -----------------------------------------

#: Per-process counters for the silent validation pass; the run_all
#: manifest mirrors them (workers keep their own, like the cache stats).
_TRANSVAL_STATS: Dict[str, int] = {
    "validated": 0,
    "certified": 0,
    "violations": 0,
    "memo_hits": 0,
    "skipped": 0,
}

#: Identity-keyed memo: id pair -> (source, transformed, verdict). The
#: module objects are pinned in the value so a garbage-collected module
#: cannot hand its id to a different module and alias the entry.
_TRANSVAL_MEMO: Dict[Tuple[int, int], Tuple[Module, Module, Optional[bool]]] = {}
_TRANSVAL_MEMO_CAP = 256


def transval_stats() -> Dict[str, int]:
    """A snapshot of this process's validation counters."""
    return dict(_TRANSVAL_STATS)


def reset_transval_stats() -> None:
    for key in _TRANSVAL_STATS:
        _TRANSVAL_STATS[key] = 0
    _TRANSVAL_MEMO.clear()


def validate_placement(
    source: Module, transformed: Module
) -> Optional[bool]:
    """Infer (memoized) the simulation relation for one module pair and
    record the verdict; None when the pair is out of the validator's
    fragment (e.g. recursion)."""
    key = (id(source), id(transformed))
    entry = _TRANSVAL_MEMO.get(key)
    if entry is not None and entry[0] is source and entry[1] is transformed:
        _TRANSVAL_STATS["memo_hits"] += 1
        return entry[2]
    from repro.analysis.simrel import infer_simulation

    _TRANSVAL_STATS["validated"] += 1
    verdict: Optional[bool]
    try:
        verdict = infer_simulation(source, transformed).refines
    except ReproError:
        _TRANSVAL_STATS["skipped"] += 1
        verdict = None
    else:
        _TRANSVAL_STATS["certified" if verdict else "violations"] += 1
    if len(_TRANSVAL_MEMO) >= _TRANSVAL_MEMO_CAP:
        _TRANSVAL_MEMO.pop(next(iter(_TRANSVAL_MEMO)))
    _TRANSVAL_MEMO[key] = (source, transformed, verdict)
    return verdict


def run_against_reference(
    transformed: Module,
    reference: Module,
    model: EnergyModel,
    policy: CheckpointPolicy,
    power: PowerManager,
    vm_size: int,
    inputs: Optional[Dict[str, List[int]]] = None,
    max_instructions: int = 100_000_000,
    reference_report: Optional[ExecutionReport] = None,
    compiled: bool = True,
) -> VerificationResult:
    """Run ``transformed`` under ``power`` and compare the final NVM state
    against the continuously powered ``reference`` module.

    ``reference_report`` caches the ground-truth run across many injected
    schedules of the same program/inputs (the testkit sweep reruns the
    transformed module hundreds of times against one reference).
    A checkpoint restore rebuilds exactly the checkpoint's restore set
    (see :meth:`repro.emulator.interpreter.Interpreter._apply_restore`),
    so a checkpoint whose restore set misses live VM state is dynamically
    convicted instead of silently healed.
    ``compiled=False`` runs the intermittent run with the interpreter's
    compiled segments off, every instruction on the per-step path (the
    differential oracle re-runs every cell that way to cross-check the
    segments-on run).
    """
    if transformed is not reference:
        validate_placement(reference, transformed)
    if reference_report is None:
        reference_report = run_continuous(
            reference, model, inputs=inputs, max_instructions=max_instructions
        )
    try:
        report = run_intermittent(
            transformed,
            model,
            policy,
            power,
            vm_size=vm_size,
            inputs=inputs,
            max_instructions=max_instructions,
            compiled=compiled,
        )
    except EmulationError as exc:
        return VerificationResult(
            completed=False,
            outputs_match=False,
            power_failures=power.failures,
            failure_reason=f"emulation error: {exc}",
            failure_offsets=list(power.failure_log),
            crashed=True,
        )
    return VerificationResult(
        completed=report.completed,
        outputs_match=report.outputs == reference_report.outputs,
        power_failures=report.power_failures,
        failure_reason=report.failure_reason,
        failure_offsets=list(report.failure_offsets),
        report=report,
    )


def verify_forward_progress(
    transformed: Module,
    reference: Module,
    model: EnergyModel,
    eb: float,
    vm_size: int,
    inputs: Optional[Dict[str, List[int]]] = None,
    technique: str = "schematic",
    max_instructions: int = 100_000_000,
) -> VerificationResult:
    """Run ``transformed`` under budget ``eb`` and compare against the
    continuously powered ``reference`` module.

    A wait-mode program with a correct placement experiences **zero** power
    failures: every inter-checkpoint segment fits the budget and the
    capacitor is refilled at each checkpoint. Any failure observed here is
    a placement bug (or an intentionally undersized budget in tests).
    """
    return run_against_reference(
        transformed,
        reference,
        model,
        CheckpointPolicy.wait_mode(technique),
        PowerManager.energy_budget(eb),
        vm_size=vm_size,
        inputs=inputs,
        max_instructions=max_instructions,
    )

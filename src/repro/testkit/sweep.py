"""Exhaustive boundary sweeps: inject a failure at every step of a run.

The engine first performs a *recording* run — a never-failing
``SCHEDULED`` power manager whose :attr:`record` list captures the
pre-step timeline of every atomic energy-consuming step, while the
interpreter's ``step_hook`` labels each step with its static site
(``function:block:index`` for instructions, ``ckptN:save`` /
``ckptN:voltcheck`` / ``restore`` for runtime steps). Each recorded
boundary is then attacked: the program is re-run with a failure scheduled
exactly there, and the crash-consistency oracle compares the final NVM
state against the continuous-power reference.

Granularities:

- ``all`` — every *dynamic* step (exhaustive; meant for the small corpus
  programs, cost is O(boundaries x run length));
- ``static`` — the first dynamic occurrence of every *static* site, i.e.
  every instruction boundary of the transformed module (the default for
  the MiBench2 benchmarks).

``failures=2`` additionally injects a second failure a few cycles after
the first (``second_gaps``), exercising torn recoveries: a failure during
the restore or immediately after resumption. Double injection stays below
the interpreter's stuck-detection threshold (two attempts per snapshot),
so completion remains guaranteed for finite schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.telemetry import metrics
from repro.baselines import CompiledTechnique
from repro.emulator import PowerManager, run_intermittent
from repro.emulator.report import ExecutionReport
from repro.energy import msp430fr5969_platform
from repro.energy.platform import Platform
from repro.core.verify import run_against_reference
from repro.emulator.interpreter import run_continuous
from repro.errors import EmulationError
from repro.ir.module import Module
from repro.testkit.corpus import compile_for, load_program
from repro.testkit.oracle import (
    OUTCOME_CRASH,
    OUTCOME_OK,
    OUTCOME_PROGRESS,
    OracleVerdict,
    check_schedule,
    classify,
    shrink_failure,
)
from repro.runner.pool import parallel_map
from repro.testkit.sabotage import strip_checkpoint


@dataclass
class Boundary:
    """One fault-injectable step of the recorded run."""

    offset: int  # pre-step timeline (active cycles since boot)
    label: str  # static site, e.g. "main:body:3" or "ckpt2:save"
    cycles: int  # the step's own cycle cost


@dataclass
class SweepResult:
    program: str
    technique: str
    eb: float
    granularity: str
    failures: int
    boundaries: int = 0  # dynamic steps recorded
    points: int = 0  # injection points selected
    runs: int = 0  # oracle runs performed (injections + shrinking)
    outcomes: dict = field(default_factory=dict)  # outcome -> count
    violations: List[OracleVerdict] = field(default_factory=list)
    guarantee: Optional[OracleVerdict] = None

    @property
    def ok(self) -> bool:
        if self.violations:
            return False
        return self.guarantee is None or not self.guarantee.violation

    def render(self) -> str:
        lines = [
            f"sweep {self.program}/{self.technique} "
            f"(eb={self.eb:g} nJ, granularity={self.granularity}, "
            f"failures={self.failures})",
            f"  {self.boundaries} dynamic boundaries, "
            f"{self.points} injection points, {self.runs} oracle runs",
        ]
        if self.guarantee is not None:
            lines.append(f"  guarantee check: {self.guarantee.describe()}")
        for outcome, count in sorted(self.outcomes.items()):
            lines.append(f"  {outcome}: {count}")
        if self.violations:
            lines.append(f"  VIOLATIONS ({len(self.violations)}):")
            for v in self.violations:
                lines.append(f"    {v.describe()}")
        else:
            lines.append("  zero oracle violations")
        return "\n".join(lines)


def record_boundaries(
    compiled: CompiledTechnique,
    model,
    vm_size: int,
    inputs,
    max_instructions: int = 50_000_000,
) -> Tuple[List[Boundary], ExecutionReport]:
    """Run once without failures, enumerating every injectable boundary."""
    power = PowerManager.recording()
    labels: List[Tuple[str, int]] = []
    report = run_intermittent(
        compiled.module,
        model,
        compiled.policy,
        power,
        vm_size=vm_size,
        inputs=inputs,
        max_instructions=max_instructions,
        step_hook=lambda label, cycles: labels.append((label, cycles)),
    )
    if not report.completed:
        raise RuntimeError(
            f"recording run did not complete: {report.failure_reason}"
        )
    offsets = power.record or []
    assert len(offsets) == len(labels), "hook/record logs diverged"
    return (
        [
            Boundary(offset=o, label=label, cycles=c)
            for o, (label, c) in zip(offsets, labels)
        ],
        report,
    )


def select_points(
    boundaries: Sequence[Boundary], granularity: str
) -> List[Boundary]:
    """Choose the boundaries to attack. Zero-cycle steps are skipped —
    with the inclusive boundary semantics a step that advances the
    timeline by nothing can never be the one that crosses an offset."""
    if granularity == "all":
        return [b for b in boundaries if b.cycles > 0]
    if granularity != "static":
        raise ValueError(f"unknown granularity {granularity!r}")
    seen = set()
    points: List[Boundary] = []
    for b in boundaries:
        if b.cycles > 0 and b.label not in seen:
            seen.add(b.label)
            points.append(b)
    return points


def sweep_technique(
    program: str,
    technique: str,
    eb: float = 3000.0,
    vm_size: Optional[int] = None,
    granularity: str = "static",
    failures: int = 1,
    second_gaps: Sequence[int] = (1, 7, 31),
    profile_runs: int = 2,
    max_instructions: int = 50_000_000,
    sabotage: bool = False,
    platform: Optional[Platform] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    jobs: int = 1,
) -> SweepResult:
    """Compile ``program`` with ``technique`` and sweep failure injections
    over its boundaries; ``sabotage=True`` first removes a mid-program
    checkpoint to confirm the oracle catches the broken placement.

    ``jobs > 1`` fans the injection schedules across worker processes;
    results (outcome counts, verdicts, shrunk schedules, run counts) are
    merged in schedule order and identical to a serial sweep."""
    if failures not in (1, 2):
        raise ValueError("failures must be 1 or 2 (deeper stacks would "
                         "trip the emulator's stuck detector)")
    bench = load_program(program)
    plat = platform or msp430fr5969_platform(eb=eb)
    if vm_size is not None:
        plat = plat.with_vm_size(vm_size)
    plat = plat.with_eb(eb)

    compiled = compile_for(
        technique,
        bench.module,
        plat,
        input_generator=bench.input_generator(),
    )
    if not compiled.feasible:
        result = SweepResult(
            program=program, technique=technique, eb=eb,
            granularity=granularity, failures=failures,
        )
        result.outcomes["infeasible"] = 1
        return result
    tm = telemetry.get()
    if tm is not None:
        from repro.experiments.common import emit_segment_bounds

        emit_segment_bounds(tm, compiled, plat.model, eb)
    inputs = bench.default_inputs()
    reference = run_continuous(
        bench.module, plat.model, inputs=inputs,
        max_instructions=max_instructions,
    )

    if sabotage:
        # Prefer a victim whose removal keeps the program runnable under
        # continuous power (so the sweep exercises the *fault* paths, not
        # a module that crashes on the first VM access).
        def _runs_clean(broken: Module) -> bool:
            try:
                rep = run_intermittent(
                    broken, plat.model, compiled.policy,
                    PowerManager.continuous(), vm_size=plat.vm_size,
                    inputs=inputs, max_instructions=max_instructions,
                )
            except EmulationError:
                return False
            return rep.completed and rep.outputs == reference.outputs

        broken, site = strip_checkpoint(
            compiled.module, validate=_runs_clean
        )
        compiled.module = broken
        compiled.extra["sabotaged_checkpoint"] = site

    result = SweepResult(
        program=program, technique=technique, eb=eb,
        granularity=granularity, failures=failures,
    )

    # Guarantee check: the schedule the technique was compiled for. For
    # wait-mode techniques non-completion (or any power failure at all)
    # is a placement bug; roll-back baselines only owe crash consistency.
    wait_mode = compiled.policy.wait_for_full_recharge
    guarantee_run = run_against_reference(
        compiled.module, bench.module, plat.model, compiled.policy,
        PowerManager.energy_budget(eb), vm_size=plat.vm_size,
        inputs=inputs, max_instructions=max_instructions,
    )
    result.runs += 1
    outcome = classify(guarantee_run, guarantee=wait_mode)
    if outcome == OUTCOME_OK and wait_mode and guarantee_run.power_failures:
        # Wait mode under its own budget must see *zero* failures.
        outcome = OUTCOME_PROGRESS
    verdict = OracleVerdict(
        program=program, technique=technique,
        power=f"energy-budget eb={eb:g}", outcome=outcome,
        detail=guarantee_run.failure_reason,
        power_failures=guarantee_run.power_failures,
        schedule=tuple(guarantee_run.failure_offsets),
    )
    if verdict.violation and guarantee_run.failure_offsets:
        verdict.shrunk, runs = shrink_failure(
            compiled, reference, plat, inputs, max_instructions,
            verdict.schedule, outcome,
        )
        result.runs += runs
    result.guarantee = verdict
    if verdict.violation:
        result.violations.append(verdict)

    # Boundary sweep: every selected point, failures injected there.
    try:
        boundaries, _ = record_boundaries(
            compiled, plat.model, plat.vm_size, inputs, max_instructions
        )
    except EmulationError as exc:
        # The module cannot even run without failures (e.g. sabotage
        # removed a checkpoint that established VM residency). That is a
        # violation in itself; there are no boundaries left to sweep.
        verdict = OracleVerdict(
            program=program, technique=technique,
            power="recording run (no failures)", outcome=OUTCOME_CRASH,
            detail=f"emulation error: {exc}",
        )
        result.runs += 1
        result.outcomes[OUTCOME_CRASH] = (
            result.outcomes.get(OUTCOME_CRASH, 0) + 1
        )
        result.violations.append(verdict)
        return result
    points = select_points(boundaries, granularity)
    result.boundaries = len(boundaries)
    result.points = len(points)

    schedules: List[Tuple[Tuple[int, ...], Boundary]] = []
    for b in points:
        schedules.append(((b.offset,), b))
        if failures == 2:
            for gap in second_gaps:
                schedules.append(((b.offset, b.offset + gap), b))

    attacks = _attack_schedules(
        compiled, reference, plat, inputs, max_instructions,
        [schedule for schedule, _ in schedules], jobs, progress,
    )
    for (schedule, b), (outcome, detail, power_failures) in zip(
        schedules, attacks
    ):
        result.runs += 1
        # Parent-side progress counters so serial and parallel sweeps
        # agree (parallel attack workers carry no metrics registry).
        metrics.count("testkit.sweep.injections")
        metrics.count(f"testkit.sweep.outcome.{outcome}")
        result.outcomes[outcome] = result.outcomes.get(outcome, 0) + 1
        if outcome != OUTCOME_OK:
            verdict = OracleVerdict(
                program=program, technique=technique,
                power=f"scheduled {list(schedule)} (at {b.label})",
                outcome=outcome, schedule=schedule,
                detail=detail,
                power_failures=power_failures,
            )
            verdict.shrunk, runs = shrink_failure(
                compiled, reference, plat, inputs, max_instructions,
                schedule, outcome,
            )
            result.runs += runs
            result.violations.append(verdict)
    return result


# -- parallel attack workers -------------------------------------------------

_ATTACK_STATE: Optional[Tuple] = None


def _init_attack_worker(
    compiled: CompiledTechnique, reference: ExecutionReport, model,
    vm_size: int, inputs, max_instructions: int,
) -> None:
    global _ATTACK_STATE
    _ATTACK_STATE = (compiled, reference, model, vm_size, inputs,
                     max_instructions)


def _attack_one(schedule: Tuple[int, ...]) -> Tuple[str, str, int]:
    compiled, reference, model, vm_size, inputs, max_instructions = (
        _ATTACK_STATE
    )
    run = check_schedule(
        compiled, reference, model, schedule, vm_size, inputs,
        max_instructions,
    )
    return classify(run, guarantee=True), run.failure_reason, run.power_failures


def _attack_schedules(
    compiled: CompiledTechnique,
    reference: ExecutionReport,
    plat: Platform,
    inputs,
    max_instructions: int,
    schedules: List[Tuple[int, ...]],
    jobs: int,
    progress: Optional[Callable[[int, int], None]],
) -> List[Tuple[str, str, int]]:
    """Classify every injection schedule, serially or across workers.
    Each attack is an independent deterministic emulation, so the ordered
    result list is identical either way."""
    if jobs > 1 and len(schedules) > 1:
        # Workers re-create the runs from picklable inputs; the (heavy,
        # possibly unpicklable) compiler byproducts in `extra` stay home.
        slim = replace(compiled, extra={})
        return parallel_map(
            _attack_one, schedules, jobs,
            initializer=_init_attack_worker,
            initargs=(slim, reference, plat.model, plat.vm_size, inputs,
                      max_instructions),
            chunksize=8,
        )
    results: List[Tuple[str, str, int]] = []
    for i, schedule in enumerate(schedules):
        if progress is not None:
            progress(i, len(schedules))
        run = check_schedule(
            compiled, reference, plat.model, schedule,
            plat.vm_size, inputs, max_instructions,
        )
        results.append(
            (classify(run, guarantee=True), run.failure_reason,
             run.power_failures)
        )
    return results


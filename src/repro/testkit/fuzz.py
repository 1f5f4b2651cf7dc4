"""Stochastic power-schedule fuzzing (trace-driven RF harvesting model).

Each fuzz case runs one compiled program under a seeded ``STOCHASTIC``
power manager — geometric inter-failure times whose mean is swept across
a range of charge-cycle lengths — and applies the crash-consistency
oracle. Starvation is legitimate under arbitrary harvesting (a window
smaller than a restore's cost can recur forever), so only *anomalies*
(completed with wrong NVM state) are violations; they are replayed as
explicit schedules and shrunk. A wait-mode runtime's anomaly is exempt
when the static idempotency rule predicts it and undoing the predicted
hazard heals the replay: stochastic kills strike mid-segment, outside
the recharge contract (``anomaly-outside-contract``, see
:class:`repro.testkit.oracle.ContractCheck`).

This complements the exhaustive sweep: the sweep nails every single- and
double-failure point, the fuzzer explores long, irregular multi-failure
schedules that compound rollback upon rollback.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro import telemetry
from repro.telemetry import metrics
from repro.core.verify import run_against_reference
from repro.emulator import PowerManager, run_continuous
from repro.baselines import COMPILERS
from repro.energy import msp430fr5969_platform
from repro.testkit.corpus import compile_for, load_program
from repro.testkit.oracle import (
    OUTCOME_ANOMALY,
    OUTCOME_CONTRACT,
    ContractCheck,
    OracleVerdict,
    classify,
    shrink_failure,
)

DEFAULT_FUZZ_TECHNIQUES = tuple(COMPILERS)
DEFAULT_FUZZ_PROGRAMS = ("sumloop", "warloop", "branchy", "calls")


@dataclass
class FuzzResult:
    programs: List[str]
    techniques: List[str]
    seeds: int
    mean_cycles: List[float]
    cases: int = 0
    runs: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)
    violations: List[OracleVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [
            f"fuzz: {len(self.programs)} programs x "
            f"{len(self.techniques)} techniques x {self.seeds} seeds x "
            f"means {self.mean_cycles}",
            f"  {self.cases} cases, {self.runs} oracle runs",
        ]
        for outcome, count in sorted(self.outcomes.items()):
            lines.append(f"  {outcome}: {count}")
        if self.violations:
            lines.append(f"  VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"    {v.describe()}" for v in self.violations)
        else:
            lines.append("  zero oracle violations")
        return "\n".join(lines)


def run_fuzz(
    programs: Sequence[str] = DEFAULT_FUZZ_PROGRAMS,
    techniques: Sequence[str] = DEFAULT_FUZZ_TECHNIQUES,
    seeds: int = 10,
    mean_cycles: Sequence[float] = (500.0, 2_000.0, 10_000.0),
    eb: float = 3000.0,
    max_instructions: int = 50_000_000,
    shrink: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzResult:
    """Fuzz the grid of programs x techniques x seeds x mean windows."""
    result = FuzzResult(
        programs=list(programs),
        techniques=list(techniques),
        seeds=seeds,
        mean_cycles=list(mean_cycles),
    )
    plat = msp430fr5969_platform(eb=eb)
    for program in programs:
        bench = load_program(program)
        inputs = bench.default_inputs()
        reference = run_continuous(
            bench.module, plat.model, inputs=inputs,
            max_instructions=max_instructions,
        )
        for technique in techniques:
            compiled = compile_for(
                technique, bench.module, plat,
                input_generator=bench.input_generator(),
            )
            if not compiled.feasible:
                result.outcomes["infeasible"] = (
                    result.outcomes.get("infeasible", 0) + 1
                )
                continue
            tm = telemetry.get()
            if tm is not None:
                from repro.experiments.common import emit_segment_bounds

                with tm.scope(benchmark=program, technique=technique,
                              eb=round(eb, 3)):
                    emit_segment_bounds(tm, compiled, plat.model, eb)
            contract = ContractCheck(
                compiled, reference, plat, inputs, max_instructions,
            )
            for mean in mean_cycles:
                for seed in range(seeds):
                    if progress is not None:
                        progress(
                            f"{program}/{technique} mean={mean:g} seed={seed}"
                        )
                    power = PowerManager.stochastic(
                        mean_cycles=mean, seed=seed, eb=eb
                    )
                    tm = telemetry.get()
                    scope = (
                        tm.scope(benchmark=program, technique=technique,
                                 eb=round(eb, 3), mean=mean, seed=seed)
                        if tm is not None
                        else nullcontext()
                    )
                    with scope:
                        run = run_against_reference(
                            compiled.module, bench.module, plat.model,
                            compiled.policy, power, vm_size=plat.vm_size,
                            inputs=inputs, max_instructions=max_instructions,
                            reference_report=reference,
                        )
                    result.cases += 1
                    result.runs += 1
                    metrics.count("testkit.fuzz.cases")
                    outcome = classify(run, guarantee=False)
                    if outcome == OUTCOME_ANOMALY:
                        waiver, runs = contract.outside_contract(
                            run, outcome,
                        )
                        result.runs += runs
                        if waiver:
                            outcome = OUTCOME_CONTRACT
                    result.outcomes[outcome] = (
                        result.outcomes.get(outcome, 0) + 1
                    )
                    metrics.count(f"testkit.fuzz.outcome.{outcome}")
                    if outcome == OUTCOME_ANOMALY:
                        verdict = OracleVerdict(
                            program=program, technique=technique,
                            power=f"stochastic mean={mean:g} seed={seed}",
                            outcome=outcome,
                            schedule=tuple(run.failure_offsets),
                            power_failures=run.power_failures,
                        )
                        if shrink:
                            shrunk, runs = shrink_failure(
                                compiled, reference, plat, inputs,
                                max_instructions, verdict.schedule,
                                outcome, probe=True,
                            )
                            verdict.shrunk = shrunk or ()
                            result.runs += runs
                        result.violations.append(verdict)
    return result


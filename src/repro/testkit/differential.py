"""Cross-technique differential oracle over the technique x power-mode x
TBPF grid.

Every cell runs one (program, technique, TBPF, power-mode) combination and
judges it against the continuous-power reference; on top of that, for each
(program, TBPF, power-mode) group the *completed* techniques are compared
against each other — six independent implementations of the same program
must agree bit-for-bit on every output variable, so any disagreement
convicts at least one of them even without trusting the reference.

Power modes per TBPF value (EB derived as in paper §IV-C — the average
energy the reference consumes per TBPF active cycles):

- ``energy``  — capacitor of EB nJ, failure when overdrawn;
- ``periodic``— failure every TBPF active cycles;
- ``stochastic`` — geometric inter-failure times with mean TBPF cycles
  (seeded, deterministic), modeling RF harvesting.

Expectations follow Table III: wait-mode techniques (SCHEMATIC, ROCKCLIMB,
All-NVM) must complete under ``energy`` and ``periodic``; roll-back
baselines may starve (``stuck`` is an expected outcome, e.g. MEMENTOS at
TBPF=1k); nobody may ever complete with wrong outputs. Stochastic windows
can undercut any placement's budget, so there only crash consistency is
required. A wait-mode technique's mid-segment re-execution under
stochastic kills is outside its recharge contract: an anomaly or crash
there whose replay hazard the static idempotency rule predicts, and
which a replay with that hazard undone heals
(:class:`~repro.testkit.oracle.ContractCheck`), is recorded as
``anomaly-outside-contract`` and excluded from the agreement check.
Violations are shrunk to a minimal ``SCHEDULED`` failure list when the
failing run replays deterministically.

Every cell is also checked along three equivalence legs, wherever each
applies. A divergence or finding on any leg is recorded as a
disagreement, exactly like a cross-technique one:

- **compiled loop**: every non-crashed cell is re-run with the
  interpreter's compiled segments off
  (``compiled=False``: every instruction takes the per-step path), the
  reference of the segments-on run the primary cell uses. A report
  divergence convicts the batched accounting or the region
  codegen.
- **differential emulation**: every non-crashed cell whose policy has no
  ``skip_threshold`` is re-run through the snapshot/fork path (one tape
  per technique x TBPF column, the cell resumed from the last safe
  snapshot — see :mod:`repro.emulator.diffemu`). Its
  :class:`~repro.emulator.report.ExecutionReport` must match the cold
  one bit-for-bit.
- **translation validation**: every feasible placement is certified
  statically as a refinement of its source
  (:mod:`repro.staticcheck.transval`).

The legs and the shrinker's replays run with tracing and metrics
suspended (:func:`repro.telemetry.suspended`), so a trace of the grid
and its ``interp.*`` counters describe the primary runs only.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.telemetry import metrics
from repro.baselines import COMPILERS, CompiledTechnique
from repro.core.verify import run_against_reference
from repro.emulator import run_continuous
from repro.emulator.diffemu import PowerSpec, record_tape, run_cell
from repro.emulator.report import ExecutionReport
from repro.energy import msp430fr5969_platform
from repro.programs import BENCHMARK_NAMES
from repro.runner.pool import parallel_map
from repro.staticcheck.transval import check_translation
from repro.testkit.corpus import compile_for, load_program
from repro.testkit.oracle import (
    OUTCOME_CONTRACT,
    ContractCheck,
    OracleVerdict,
    classify,
    shrink_failure,
)

#: Paper §IV-C values.
DEFAULT_TBPF = (1_000, 10_000, 100_000)
DEFAULT_TECHNIQUES = tuple(COMPILERS)
DEFAULT_MODES = ("energy", "periodic", "stochastic")


@dataclass
class DiffResult:
    programs: List[str]
    techniques: List[str]
    tbpf_values: List[int]
    modes: List[str]
    verdicts: List[OracleVerdict] = field(default_factory=list)
    #: Cross-technique disagreements: human-readable descriptions.
    disagreements: List[str] = field(default_factory=list)
    runs: int = 0
    #: Forked-vs-cold pairs checked and how the differential side
    #: planned each one (synthesize / fork / cold).
    diffemu_cells: int = 0
    diffemu_kinds: Dict[str, int] = field(default_factory=dict)
    #: Segments-on vs segments-off run pairs checked.
    compiled_cells: int = 0
    #: (program, technique, TBPF) placements statically certified as
    #: refinements of their source.
    transval_cells: int = 0

    @property
    def violations(self) -> List[OracleVerdict]:
        return [v for v in self.verdicts if v.violation]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.disagreements

    def render(self) -> str:
        counts: Dict[str, int] = {}
        for v in self.verdicts:
            counts[v.outcome] = counts.get(v.outcome, 0) + 1
        lines = [
            "differential oracle: "
            f"{len(self.programs)} programs x {len(self.techniques)} "
            f"techniques x TBPF {self.tbpf_values} x modes {self.modes}",
            f"  {len(self.verdicts)} cells, {self.runs} oracle runs",
        ]
        if self.diffemu_cells:
            kinds = ", ".join(
                f"{kind}: {count}"
                for kind, count in sorted(self.diffemu_kinds.items())
            )
            lines.append(
                f"  diff-emulation pairs: {self.diffemu_cells} ({kinds})"
            )
        if self.compiled_cells:
            lines.append(
                "  compiled-loop pairs: "
                f"{self.compiled_cells} (compiled/predecoded)"
            )
        if self.transval_cells:
            lines.append(
                f"  translation-validated placements: {self.transval_cells}"
            )
        for outcome, count in sorted(counts.items()):
            lines.append(f"  {outcome}: {count}")
        if self.disagreements:
            lines.append(
                f"  CROSS-TECHNIQUE DISAGREEMENTS ({len(self.disagreements)}):"
            )
            lines.extend(f"    {d}" for d in self.disagreements)
        if self.violations:
            lines.append(f"  VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"    {v.describe()}" for v in self.violations)
        else:
            lines.append("  zero oracle violations")
        return "\n".join(lines)


def _spec_for(mode: str, tbpf: int, eb: float, seed: int) -> PowerSpec:
    """The power configuration of one ``mode`` cell of the grid."""
    if mode == "energy":
        return PowerSpec.energy_budget(eb)
    if mode == "periodic":
        return PowerSpec.periodic(tbpf=tbpf, eb=eb)
    if mode == "stochastic":
        return PowerSpec.stochastic(mean_cycles=tbpf, seed=seed, eb=eb)
    raise ValueError(f"unknown power mode {mode!r}")


def run_differential(
    programs: Optional[Sequence[str]] = None,
    techniques: Sequence[str] = DEFAULT_TECHNIQUES,
    tbpf_values: Sequence[int] = DEFAULT_TBPF,
    modes: Sequence[str] = DEFAULT_MODES,
    seed: int = 0,
    max_instructions: int = 50_000_000,
    shrink: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
) -> DiffResult:
    """Run the full grid; see the module docstring for the oracle and
    its equivalence legs.

    ``jobs > 1`` fans the per-program grids across worker processes
    (each program's technique x TBPF x mode block is independent) and
    merges the partial results in program order, so the combined result
    is identical to a serial run."""
    programs = list(programs if programs is not None else BENCHMARK_NAMES)
    result = DiffResult(
        programs=programs,
        techniques=list(techniques),
        tbpf_values=list(tbpf_values),
        modes=list(modes),
    )
    if jobs > 1 and len(programs) > 1:
        partials = parallel_map(
            _diff_one_program, programs, jobs,
            initializer=_init_diff_worker,
            initargs=(list(techniques), list(tbpf_values), list(modes),
                      seed, max_instructions, shrink),
        )
    else:
        partials = [
            _run_program(
                program, techniques, tbpf_values, modes, seed,
                max_instructions, shrink, progress,
            )
            for program in programs
        ]
    for partial in partials:
        result.verdicts.extend(partial.verdicts)
        result.disagreements.extend(partial.disagreements)
        result.runs += partial.runs
        # Parent-side progress counters so serial and parallel grids
        # agree (parallel per-program workers carry no registry).
        metrics.count("testkit.diff.runs", partial.runs)
        metrics.count("testkit.diff.diffemu_cells", partial.diffemu_cells)
        metrics.count("testkit.diff.compiled_cells", partial.compiled_cells)
        metrics.count("testkit.diff.transval_cells", partial.transval_cells)
        result.diffemu_cells += partial.diffemu_cells
        result.compiled_cells += partial.compiled_cells
        result.transval_cells += partial.transval_cells
        for kind, count in partial.diffemu_kinds.items():
            result.diffemu_kinds[kind] = (
                result.diffemu_kinds.get(kind, 0) + count
            )
    return result


_DIFF_STATE: Optional[Tuple] = None


def _init_diff_worker(
    techniques, tbpf_values, modes, seed, max_instructions, shrink,
) -> None:
    global _DIFF_STATE
    _DIFF_STATE = (techniques, tbpf_values, modes, seed, max_instructions,
                   shrink)


def _diff_one_program(program: str) -> DiffResult:
    return _run_program(program, *_DIFF_STATE, progress=None)


def _run_program(
    program: str,
    techniques: Sequence[str],
    tbpf_values: Sequence[int],
    modes: Sequence[str],
    seed: int,
    max_instructions: int,
    shrink: bool,
    progress: Optional[Callable[[str], None]],
) -> DiffResult:
    """One program's technique x TBPF x mode block as a partial result."""
    result = DiffResult(
        programs=[program],
        techniques=list(techniques),
        tbpf_values=list(tbpf_values),
        modes=list(modes),
    )
    platform_proto = msp430fr5969_platform()

    bench = load_program(program)
    inputs = bench.default_inputs()
    reference = run_continuous(
        bench.module, platform_proto.model, inputs=inputs,
        max_instructions=max_instructions,
    )
    for tbpf in tbpf_values:
        eb = reference.eb_for_tbpf(tbpf)
        plat = platform_proto.with_eb(eb)
        compiled: Dict[str, CompiledTechnique] = {}
        for technique in techniques:
            compiled[technique] = compile_for(
                technique, bench.module, plat,
                input_generator=bench.input_generator(),
            )
        # Translation-validation leg: every feasible placement in this
        # TBPF column must certify as a refinement of its source.
        with telemetry.suspended():
            for technique in techniques:
                comp = compiled[technique]
                if not comp.feasible:
                    continue
                tv = check_translation(
                    bench.module, comp.module, technique=technique,
                )
                result.transval_cells += 1
                for finding in tv.findings:
                    result.disagreements.append(
                        f"{program}/{technique} tbpf={tbpf}: translation "
                        f"validation convicts the placement: "
                        f"{finding.render()}"
                    )
        # One snapshot tape per technique column, shared by every power
        # mode of this TBPF (recorded lazily on first eligible cell).
        tapes: Dict[str, object] = {}
        # One contract check per technique column: its static replay
        # hazards are computed once, on the first stochastic fault.
        contracts = {
            technique: ContractCheck(
                compiled[technique], reference, plat, inputs,
                max_instructions,
            )
            for technique in techniques
        }
        for mode in modes:
            group: Dict[str, ExecutionReport] = {}
            for technique in techniques:
                comp = compiled[technique]
                desc = f"{mode} tbpf={tbpf} eb={eb:.0f}"
                if progress is not None:
                    progress(f"{program}/{technique} {desc}")
                if not comp.feasible:
                    result.verdicts.append(OracleVerdict(
                        program=program, technique=technique,
                        power=desc, outcome="infeasible",
                        detail=comp.infeasible_reason,
                    ))
                    continue
                spec = _spec_for(mode, tbpf, eb, seed)
                tm = telemetry.get()
                scope = (
                    tm.scope(benchmark=program, technique=technique,
                             eb=round(eb, 3), tbpf=tbpf, mode=mode)
                    if tm is not None
                    else nullcontext()
                )
                with scope:
                    if tm is not None:
                        from repro.experiments.common import (
                            emit_segment_bounds,
                        )

                        emit_segment_bounds(tm, comp, plat.model, eb)
                    run = run_against_reference(
                        comp.module, bench.module, plat.model, comp.policy,
                        spec.build(), vm_size=plat.vm_size, inputs=inputs,
                        max_instructions=max_instructions,
                        reference_report=reference,
                    )
                result.runs += 1
                # Compiled-loop and diffemu legs: the same cell with
                # segments off (fresh PowerManager: a consumed one is
                # not reusable) and, unless the policy skips, through the
                # fork. Both reports must equal the primary one.
                if not run.crashed:
                    with telemetry.suspended():
                        alt = run_against_reference(
                            comp.module, bench.module, plat.model,
                            comp.policy, spec.build(),
                            vm_size=plat.vm_size, inputs=inputs,
                            max_instructions=max_instructions,
                            reference_report=reference, compiled=False,
                        )
                        result.runs += 1
                        result.compiled_cells += 1
                        if alt.crashed or repr(alt.report) != repr(run.report):
                            result.disagreements.append(
                                f"{program}/{technique} under {desc}: "
                                "segments-off run diverges from the "
                                "compiled-segments run"
                            )
                        if comp.policy.skip_threshold is None:
                            tape = tapes.get(technique)
                            if tape is None:
                                tape = tapes[technique] = record_tape(
                                    comp.module, plat.model, comp.policy,
                                    vm_size=plat.vm_size, inputs=inputs,
                                    max_instructions=max_instructions,
                                )
                            paired, plan = run_cell(
                                comp.module, plat.model, comp.policy,
                                spec, tape, vm_size=plat.vm_size,
                                inputs=inputs,
                                max_instructions=max_instructions,
                            )
                            result.diffemu_cells += 1
                            result.diffemu_kinds[plan.kind] = (
                                result.diffemu_kinds.get(plan.kind, 0) + 1
                            )
                            if repr(paired) != repr(run.report):
                                result.disagreements.append(
                                    f"{program}/{technique} under "
                                    f"{desc}: diff-emulation "
                                    f"({plan.kind}) diverges from cold "
                                    "emulation"
                                )
                guarantee = (
                    comp.policy.wait_for_full_recharge
                    and mode in ("energy", "periodic")
                )
                verdict = OracleVerdict(
                    program=program, technique=technique, power=desc,
                    outcome=classify(run, guarantee=guarantee),
                    schedule=tuple(run.failure_offsets),
                    detail=run.failure_reason,
                    power_failures=run.power_failures,
                )
                # A statically predicted replay hazard under stochastic
                # kills, healed by undoing it, is outside the wait-mode
                # contract: recorded as its own outcome and kept out of
                # the agreement group (its outputs carry no information).
                waiver = None
                if mode == "stochastic":
                    waiver, runs = contracts[technique].outside_contract(
                        run, verdict.outcome,
                    )
                    result.runs += runs
                if waiver:
                    verdict.outcome = OUTCOME_CONTRACT
                    verdict.detail = "; ".join(
                        filter(None, (verdict.detail, waiver))
                    )
                if verdict.violation and shrink and verdict.schedule:
                    with telemetry.suspended():
                        shrunk, runs = shrink_failure(
                            comp, reference, plat, inputs,
                            max_instructions, verdict.schedule,
                            verdict.outcome, probe=True,
                        )
                    result.runs += runs
                    if shrunk is None:
                        verdict.detail = (
                            verdict.detail
                            + " [not replayable as a fixed schedule]"
                        ).strip()
                    else:
                        verdict.shrunk = shrunk
                result.verdicts.append(verdict)
                if run.completed and run.report is not None and not waiver:
                    group[technique] = run.report
            _check_agreement(
                result, program, bench.output_vars,
                f"{mode} tbpf={tbpf}", group,
            )
    return result


def _check_agreement(
    result: DiffResult,
    program: str,
    output_vars: Sequence[str],
    desc: str,
    group: Dict[str, ExecutionReport],
) -> None:
    """All completed techniques must agree on every output variable."""
    by_value: Dict[Tuple, List[str]] = {}
    for technique, report in group.items():
        key = tuple(
            (name, tuple(report.outputs.get(name, ())))
            for name in (output_vars or sorted(report.outputs))
        )
        by_value.setdefault(key, []).append(technique)
    if len(by_value) > 1:
        camps = " vs ".join(
            "{" + ", ".join(sorted(ts)) + "}" for ts in by_value.values()
        )
        result.disagreements.append(
            f"{program} under {desc}: completed techniques disagree: {camps}"
        )

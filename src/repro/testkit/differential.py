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
required — except for the all-NVM wait-mode runtimes (ROCKCLIMB, All-NVM),
whose mid-segment re-execution under stochastic kills is outside their
recharge contract: their anomalies there are recorded as
``anomaly-outside-contract`` and excluded from the agreement check.
Violations are shrunk to a minimal ``SCHEDULED`` failure list when the
failing run replays deterministically.

With ``diff_emulation=True`` every cell additionally becomes a *pair*:
the cold emulation and a differential one (snapshot tape recorded once
per technique x TBPF column, the cell resumed from the last safe
snapshot — see :mod:`repro.emulator.diffemu`). The two full
:class:`~repro.emulator.report.ExecutionReport` objects must match
bit-for-bit; a divergence is recorded as a disagreement, exactly like a
cross-technique one.

With ``compiled_check=True`` every non-crashed cell becomes a *pair*
as well: it is re-run on the plain pre-decoded loop (``compiled=False``),
the per-step reference of the compiled (threaded-code) loop the primary
run uses. Any report divergence convicts the batched accounting or the
superinstruction codegen; it is recorded as a disagreement, exactly
like a cross-technique one.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.telemetry import metrics
from repro.baselines import CompiledTechnique
from repro.core.verify import run_against_reference
from repro.emulator import PowerManager, run_continuous
from repro.emulator.diffemu import PowerSpec, record_tape, run_cell
from repro.emulator.report import ExecutionReport
from repro.energy import msp430fr5969_platform
from repro.programs import BENCHMARK_NAMES
from repro.runner.pool import parallel_map
from repro.testkit.corpus import (
    ALL_NVM_TECHNIQUES,
    WAIT_MODE_TECHNIQUES,
    compile_for,
    load_program,
)
from repro.testkit.oracle import (
    OUTCOME_ANOMALY,
    OUTCOME_CONTRACT,
    OUTCOME_OK,
    OracleVerdict,
    check_schedule,
    classify,
)
from repro.testkit.shrink import shrink_schedule

#: Paper §IV-C values.
DEFAULT_TBPF = (1_000, 10_000, 100_000)
DEFAULT_TECHNIQUES = (
    "ratchet", "mementos", "rockclimb", "alfred", "schematic", "allnvm",
)
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
    #: Forked-vs-cold pairs checked (``diff_emulation=True``) and how the
    #: differential side planned each one (synthesize / fork / cold).
    diffemu_cells: int = 0
    diffemu_kinds: Dict[str, int] = field(default_factory=dict)
    #: Compiled-vs-pre-decoded loop pairs checked
    #: (``compiled_check=True``).
    compiled_cells: int = 0
    #: (program, technique, TBPF) placements statically certified as
    #: refinements of their source (``transval_check=True``).
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


def _power_for(mode: str, tbpf: int, eb: float, seed: int) -> PowerManager:
    if mode == "energy":
        return PowerManager.energy_budget(eb)
    if mode == "periodic":
        return PowerManager.periodic(tbpf=tbpf, eb=eb)
    if mode == "stochastic":
        return PowerManager.stochastic(mean_cycles=tbpf, seed=seed, eb=eb)
    raise ValueError(f"unknown power mode {mode!r}")


def _spec_for(mode: str, tbpf: int, eb: float, seed: int) -> PowerSpec:
    """The :class:`PowerSpec` equivalent of :func:`_power_for`."""
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
    diff_emulation: bool = False,
    compiled_check: bool = False,
    transval_check: bool = False,
) -> DiffResult:
    """Run the full grid; see the module docstring for the oracle.

    ``jobs > 1`` fans the per-program grids across worker processes
    (each program's technique x TBPF x mode block is independent) and
    merges the partial results in program order, so the combined result
    is identical to a serial run.

    ``diff_emulation=True`` runs every cell twice — cold and through the
    snapshot/fork path — and convicts any report divergence.

    ``compiled_check=True`` re-runs every non-crashed cell on the
    pre-decoded interpreter loop and convicts any divergence from the
    compiled-loop report (doubles the grid).

    ``transval_check=True`` additionally certifies every feasible
    (program, technique, TBPF) placement *statically* as a refinement of
    its source (:mod:`repro.staticcheck.transval`) and convicts any TV
    finding — the static validator cross-checked against the same grid
    the dynamic oracle judges."""
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
                      seed, max_instructions, shrink, diff_emulation,
                      compiled_check, transval_check),
        )
    else:
        partials = [
            _run_program(
                program, techniques, tbpf_values, modes, seed,
                max_instructions, shrink, progress,
                diff_emulation=diff_emulation,
                compiled_check=compiled_check,
                transval_check=transval_check,
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
    diff_emulation=False, compiled_check=False, transval_check=False,
) -> None:
    global _DIFF_STATE
    _DIFF_STATE = (techniques, tbpf_values, modes, seed, max_instructions,
                   shrink, diff_emulation, compiled_check, transval_check)


def _diff_one_program(program: str) -> DiffResult:
    (techniques, tbpf_values, modes, seed, max_instructions, shrink,
     diff_emulation, compiled_check, transval_check) = _DIFF_STATE
    return _run_program(
        program, techniques, tbpf_values, modes, seed, max_instructions,
        shrink, progress=None, diff_emulation=diff_emulation,
        compiled_check=compiled_check, transval_check=transval_check,
    )


def _run_program(
    program: str,
    techniques: Sequence[str],
    tbpf_values: Sequence[int],
    modes: Sequence[str],
    seed: int,
    max_instructions: int,
    shrink: bool,
    progress: Optional[Callable[[str], None]],
    diff_emulation: bool = False,
    compiled_check: bool = False,
    transval_check: bool = False,
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
    avg_power = reference.energy.total / max(reference.active_cycles, 1)
    for tbpf in tbpf_values:
        eb = avg_power * tbpf
        plat = platform_proto.with_eb(eb)
        compiled: Dict[str, CompiledTechnique] = {}
        for technique in techniques:
            compiled[technique] = compile_for(
                technique, bench.module, plat,
                input_generator=bench.input_generator(),
            )
        if transval_check:
            from repro.staticcheck.transval import check_translation

            # Static leg of the cross-check: every feasible placement in
            # this TBPF column must certify as a refinement of its
            # source; a TV finding convicts the placement exactly like a
            # cross-technique disagreement.
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
                power = _power_for(mode, tbpf, eb, seed)
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
                        power, vm_size=plat.vm_size, inputs=inputs,
                        max_instructions=max_instructions,
                        reference_report=reference,
                    )
                result.runs += 1
                if compiled_check and not run.crashed:
                    # Same cell on the pre-decoded loop: both hot loops
                    # must produce the identical report (fresh
                    # PowerManager — a consumed manager is not reusable).
                    alt = run_against_reference(
                        comp.module, bench.module, plat.model,
                        comp.policy, _power_for(mode, tbpf, eb, seed),
                        vm_size=plat.vm_size, inputs=inputs,
                        max_instructions=max_instructions,
                        reference_report=reference, compiled=False,
                    )
                    result.runs += 1
                    if alt.crashed or repr(alt.report) != repr(run.report):
                        result.disagreements.append(
                            f"{program}/{technique} under {desc}: "
                            "predecoded loop diverges from the compiled "
                            "loop"
                        )
                    result.compiled_cells += 1
                if (
                    diff_emulation
                    and comp.policy.skip_threshold is None
                    and not run.crashed
                ):
                    tape = tapes.get(technique)
                    if tape is None:
                        tape = tapes[technique] = record_tape(
                            comp.module, plat.model, comp.policy,
                            vm_size=plat.vm_size, inputs=inputs,
                            max_instructions=max_instructions,
                        )
                    paired, plan = run_cell(
                        comp.module, plat.model, comp.policy,
                        _spec_for(mode, tbpf, eb, seed), tape,
                        vm_size=plat.vm_size, inputs=inputs,
                        max_instructions=max_instructions,
                    )
                    result.diffemu_cells += 1
                    result.diffemu_kinds[plan.kind] = (
                        result.diffemu_kinds.get(plan.kind, 0) + 1
                    )
                    if repr(paired) != repr(run.report):
                        result.disagreements.append(
                            f"{program}/{technique} under {desc}: "
                            f"diff-emulation ({plan.kind}) diverges "
                            "from cold emulation"
                        )
                guarantee = (
                    technique in WAIT_MODE_TECHNIQUES
                    and mode in ("energy", "periodic")
                )
                outcome = classify(run, guarantee=guarantee)
                # Stochastic schedules kill all-NVM wait-mode runtimes
                # mid-segment, outside their recharge contract: WAR
                # anomalies there are documented behaviour, recorded
                # as their own outcome and kept out of the agreement
                # group (their outputs carry no information).
                waived = (
                    outcome == OUTCOME_ANOMALY
                    and mode == "stochastic"
                    and technique in ALL_NVM_TECHNIQUES
                )
                if waived:
                    outcome = OUTCOME_CONTRACT
                verdict = OracleVerdict(
                    program=program, technique=technique, power=desc,
                    outcome=outcome,
                    schedule=tuple(run.failure_offsets),
                    detail=run.failure_reason,
                    power_failures=run.power_failures,
                )
                if verdict.violation and shrink:
                    verdict.shrunk, verdict.detail = _shrink_replay(
                        comp, reference, plat, inputs,
                        max_instructions, verdict, result,
                    )
                result.verdicts.append(verdict)
                if run.completed and run.report is not None and not waived:
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


def _shrink_replay(
    comp, reference, plat, inputs, max_instructions,
    verdict: OracleVerdict, result: DiffResult,
) -> Tuple[Tuple[int, ...], str]:
    """Replay the failing run's failure offsets as an explicit schedule
    and shrink. Runtimes that consult the remaining charge (MEMENTOS's
    voltage check) may diverge under replay; in that case the original
    offsets are reported unshrunk."""
    schedule = verdict.schedule
    if not schedule:
        return (), verdict.detail

    def still_fails(candidate: Tuple[int, ...]) -> bool:
        run = check_schedule(
            comp, reference, plat.model, candidate,
            plat.vm_size, inputs, max_instructions,
        )
        return classify(run, guarantee=True) == verdict.outcome

    result.runs += 1
    if not still_fails(schedule):
        return (), (
            verdict.detail + " [not replayable as a fixed schedule]"
        ).strip()
    shrunk, runs = shrink_schedule(schedule, still_fails)
    result.runs += runs
    return shrunk, verdict.detail

"""Shared evaluation infrastructure (paper §IV-A).

The experimental setup:

- platform: MSP430FR5969 (2 KB VM, 64 KB NVM, 16 MHz);
- failure model: periodic power failures parameterized by TBPF, mapped to
  the energy budget as in §IV-C: "For each value of TBPF we set EB to the
  average amount of energy that is consumed by the platform in the
  interval";
- techniques: RATCHET, MEMENTOS, ROCKCLIMB, ALFRED, SCHEMATIC (+ All-NVM);
- benchmarks: the eight MiBench2 kernels with fixed evaluation inputs
  (profiling uses different seeded inputs).

:class:`EvaluationContext` caches reference runs, profiles and compiled
techniques so the table/figure modules do not recompute shared
artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.baselines import (
    ALL_TECHNIQUES,
    PROFILED_TECHNIQUES,
    CompiledTechnique,
    compile_for,
)
from repro.core import verify
from repro.core.tracing import Profile, collect_profile
from repro.emulator import run_continuous, run_intermittent
from repro.emulator.diffemu import PowerSpec
from repro.emulator.report import ExecutionReport
from repro.energy import msp430fr5969_platform
from repro.programs import BENCHMARK_NAMES, Benchmark, get_benchmark
from repro.runner.cache import ArtifactCache

#: The TBPF values of the paper (§IV-C), in cycles.
TBPF_VALUES = (1_000, 10_000, 100_000)

#: Technique display order of the paper's tables/figures.
TECHNIQUE_ORDER = ALL_TECHNIQUES

#: Profiling runs used for SCHEMATIC's path prioritization. The paper uses
#: 1000; ordering converges after a handful on these kernels, and the
#: emulator is the bottleneck.
PROFILE_RUNS = 2


def check(flag: bool) -> str:
    """Render the paper's check/cross marks."""
    return "Y" if flag else "x"


def emit_segment_bounds(tm, compiled, model, eb: float) -> None:
    """Emit the static certifier's per-checkpoint window bounds as
    ``segment-bound`` events — wait-mode placements only (roll-back
    baselines have no segment-fits-EB obligation to certify). Callers
    are expected to hold a :meth:`Telemetry.scope` carrying the grid
    coordinates (benchmark, technique, eb) so the bounds join up with
    the runtime's ``ckpt-save`` events in the headroom report."""
    if not compiled.policy.wait_for_full_recharge:
        return
    from repro.analysis.ranges import infer_module_bounds
    from repro.staticcheck.common import FindingSink
    from repro.staticcheck.energy import certify_energy

    certifier = certify_energy(
        compiled.module, model, eb, FindingSink(),
        inferred_bounds=infer_module_bounds(compiled.module),
    )
    for ckpt_id, bound in sorted(certifier.segment_bounds.items()):
        tm.event(
            "segment-bound", track=telemetry.TRACK_STATIC,
            ckpt=ckpt_id, bound_nj=round(bound, 6), eb_nj=eb,
        )


@dataclass
class RunOutcome:
    """One technique x benchmark x budget emulation."""

    technique: str
    benchmark: str
    eb: float
    feasible: bool
    completed: bool = False
    correct: bool = False
    report: Optional[ExecutionReport] = None
    checkpoints: int = 0

    @property
    def succeeded(self) -> bool:
        return self.feasible and self.completed and self.correct


class EvaluationContext:
    """Caches everything the experiments share."""

    def __init__(
        self,
        benchmarks: Optional[List[str]] = None,
        profile_runs: int = PROFILE_RUNS,
        cache: Optional[ArtifactCache] = None,
    ):
        """``cache``: an optional persistent :class:`ArtifactCache`; when
        set, references, profiles, compiled techniques and run outcomes
        are read from / written to disk, keyed by content (module text,
        platform constants, inputs, power spec), so a warm context — or a
        worker process sharing the cache — skips the emulator."""
        self.benchmark_names = list(benchmarks or BENCHMARK_NAMES)
        self.profile_runs = profile_runs
        self.platform_proto = msp430fr5969_platform()
        self.cache = cache
        self._profiles: Dict[str, Profile] = {}
        self._references: Dict[str, ExecutionReport] = {}
        self._vm_references: Dict[str, ExecutionReport] = {}
        self._compiled: Dict[Tuple[str, str, float], CompiledTechnique] = {}
        self._runs: Dict[Tuple, RunOutcome] = {}
        #: (variant, benchmark, tbpf) -> ablation cell (see ablations.py).
        self._ablations: Dict[Tuple[str, str, int], object] = {}
        self._fingerprints: Dict[str, str] = {}

    # ------------------------------------------------------------- keys

    def _module_fp(self, name: str) -> str:
        """Content hash of a benchmark's untransformed module text: edits
        to the program invalidate every downstream artifact."""
        if name not in self._fingerprints:
            from repro.ir.printer import print_module

            self._fingerprints[name] = ArtifactCache.text_fingerprint(
                print_module(self.benchmark(name).module)
            )
        return self._fingerprints[name]

    def _inputs_fp(self, name: str) -> str:
        inputs = self.benchmark(name).default_inputs()
        return ArtifactCache.text_fingerprint(
            json.dumps(sorted(inputs.items()), separators=(",", ":"))
        )

    def _platform_fp(self) -> str:
        # Frozen-dataclass repr: every model constant and memory size.
        return repr(self.platform_proto)

    def _cache_get(self, category: str, parts: Tuple):
        if self.cache is None:
            return None
        return self.cache.get(category, ArtifactCache.key(*parts))

    def _cache_put(self, category: str, parts: Tuple, value) -> None:
        if self.cache is not None:
            self.cache.put(category, ArtifactCache.key(*parts), value)

    @staticmethod
    def _run_key(
        technique: str, benchmark: str, eb: float, spec: PowerSpec
    ) -> Tuple:
        """In-memory key of one emulation: the whole power spec is part of
        it, so two cells with the same EB under different power models or
        periods never alias (regression: the key used to be (technique,
        benchmark, eb) only, returning stale outcomes)."""
        return (technique, benchmark, eb) + spec.key_parts()

    # ------------------------------------------------------------- pieces

    def benchmark(self, name: str) -> Benchmark:
        return get_benchmark(name)

    def reference(self, name: str) -> ExecutionReport:
        """Continuously-powered run (all data in NVM): output oracle and
        the average-power source for the TBPF -> EB conversion."""
        if name not in self._references:
            parts = (
                "reference", name, self._module_fp(name),
                self._platform_fp(), self._inputs_fp(name),
            )
            report = self._cache_get("reference", parts)
            if report is None:
                bench = self.benchmark(name)
                report = run_continuous(
                    bench.module,
                    self.platform_proto.model,
                    inputs=bench.default_inputs(),
                )
                self._cache_put("reference", parts, report)
            self._references[name] = report
        return self._references[name]

    def vm_reference(self, name: str) -> ExecutionReport:
        """Continuously-powered run with all data in VM — Table II's
        "execution time (in clock cycles, with all data in VM)"."""
        if name not in self._vm_references:
            from repro.ir import MemorySpace

            parts = (
                "vm_reference", name, self._module_fp(name),
                self._platform_fp(), self._inputs_fp(name),
            )
            report = self._cache_get("reference", parts)
            if report is None:
                bench = self.benchmark(name)
                report = run_continuous(
                    bench.module,
                    self.platform_proto.model,
                    default_space=MemorySpace.VM,
                    inputs=bench.default_inputs(),
                )
                self._cache_put("reference", parts, report)
            self._vm_references[name] = report
        return self._vm_references[name]

    def profile(self, name: str) -> Profile:
        if name not in self._profiles:
            parts = (
                "profile", name, self._module_fp(name),
                self._platform_fp(), self.profile_runs,
            )
            profile = self._cache_get("profile", parts)
            if profile is None:
                bench = self.benchmark(name)
                profile = collect_profile(
                    bench.module,
                    self.platform_proto.model,
                    input_generator=bench.input_generator(),
                    runs=self.profile_runs,
                )
                self._cache_put("profile", parts, profile)
            self._profiles[name] = profile
        return self._profiles[name]

    def eb_for_tbpf(self, name: str, tbpf: int) -> float:
        """§IV-C: EB = average energy consumed per TBPF cycles."""
        return self.reference(name).eb_for_tbpf(tbpf)

    # ------------------------------------------------------------- running

    def compile(
        self, technique: str, benchmark: str, eb: float
    ) -> CompiledTechnique:
        key = (technique, benchmark, eb)
        if key not in self._compiled:
            parts = (
                "compiled", technique, benchmark, self._module_fp(benchmark),
                self._platform_fp(), eb, self.profile_runs,
            )
            compiled = self._cache_get("compiled", parts)
            if compiled is None:
                bench = self.benchmark(benchmark)
                platform = self.platform_proto.with_eb(eb)
                profile = (
                    self.profile(benchmark)
                    if technique in PROFILED_TECHNIQUES else None
                )
                compiled = compile_for(
                    technique, bench.module, platform, profile=profile
                )
                self._cache_put("compiled", parts, compiled)
            if compiled.feasible:
                # Silent translation validation of every placement that
                # enters the evaluation (counted in the run_all
                # manifest). Never changes any report.
                verify.validate_placement(
                    self.benchmark(benchmark).module, compiled.module
                )
            self._compiled[key] = compiled
        return self._compiled[key]

    def run(
        self,
        technique: str,
        benchmark: str,
        eb: float,
        spec: Optional[PowerSpec] = None,
    ) -> RunOutcome:
        """Compile (cached) and emulate one cell under ``spec`` — by
        default the energy-budget model at ``eb``, the metric SCHEMATIC's
        guarantee is stated in. The SCEPTIC emulator's literal periodic
        methodology is ``run(t, b, eb, PowerSpec.periodic(tbpf, eb))``.

        Both the in-memory key and the persistent cache key include
        ``spec.key_parts()`` — mode, seed and schedule included — so two
        specs with otherwise equal numbers never share a cached outcome
        (tests/test_diffemu_planner.py pins the schema)."""
        spec = spec or PowerSpec.energy_budget(eb)
        key = self._run_key(technique, benchmark, eb, spec)
        if key not in self._runs:
            parts = (
                "run", technique, benchmark, self._module_fp(benchmark),
                self._platform_fp(), eb, self._inputs_fp(benchmark),
                self.profile_runs,
            ) + spec.key_parts()
            self._runs[key] = self._cell(
                "run", parts, technique, benchmark, eb,
                lambda: self._run_cell(technique, benchmark, eb, spec),
            )
        return self._runs[key]

    def _run_cell(
        self, technique: str, benchmark: str, eb: float, spec: PowerSpec
    ) -> RunOutcome:
        compiled = self.compile(technique, benchmark, eb)
        outcome = RunOutcome(
            technique=technique,
            benchmark=benchmark,
            eb=eb,
            feasible=compiled.feasible,
            checkpoints=compiled.checkpoints_inserted,
        )
        if compiled.feasible:
            report = self.emulate(compiled, benchmark, eb, spec)
            outcome.report = report
            outcome.completed = report.completed
            outcome.correct = report.outputs == self.reference(benchmark).outputs
        return outcome

    def _cell(
        self,
        category: str,
        parts: Tuple,
        technique: str,
        benchmark: str,
        eb: float,
        compute: Callable[[], object],
    ):
        """One cached evaluation cell (a run or an ablation variant).

        Untraced, a persistent-cache hit is returned as is. Traced, the
        read is skipped so the cell actually runs and the trace carries
        its runtime events; ``compute()`` — compile plus emulation — runs
        inside a scope carrying the grid coordinates. The outcome is
        deterministic, so the results are unchanged (a recomputed value
        is re-stored over the identical entry)."""
        tm = telemetry.get()
        if tm is None:
            value = self._cache_get(category, parts)
            if value is not None:
                return value
            value = compute()
        else:
            with tm.scope(benchmark=benchmark, technique=technique,
                          eb=round(eb, 3)):
                value = compute()
        self._cache_put(category, parts, value)
        return value

    def emulate(
        self,
        compiled: CompiledTechnique,
        benchmark: str,
        eb: float,
        spec: PowerSpec,
    ) -> ExecutionReport:
        """Emulate a compiled placement on the benchmark's evaluation
        inputs; when tracing, the certifier's segment bounds go first."""
        tm = telemetry.get()
        if tm is not None:
            emit_segment_bounds(tm, compiled, self.platform_proto.model, eb)
        return run_intermittent(
            compiled.module, self.platform_proto.model, compiled.policy,
            spec.build(), vm_size=self.platform_proto.vm_size,
            inputs=self.benchmark(benchmark).default_inputs(),
        )

    def run_tbpf(self, technique: str, benchmark: str, tbpf: int) -> RunOutcome:
        return self.run(technique, benchmark, self.eb_for_tbpf(benchmark, tbpf))


#: Shared context behind the module-level conveniences. Creating a fresh
#: ``EvaluationContext`` per call silently re-emulated the full continuous
#: reference run every time (the hidden-recompute bug); the singleton makes
#: repeated calls hit the in-memory reference cache instead.
_SHARED_CTX: Optional[EvaluationContext] = None


def shared_context() -> EvaluationContext:
    global _SHARED_CTX
    if _SHARED_CTX is None:
        _SHARED_CTX = EvaluationContext()
    return _SHARED_CTX


def eb_for_tbpf(benchmark: str, tbpf: int, ctx: Optional[EvaluationContext] = None) -> float:
    """Module-level convenience wrapper; memoized via a shared context."""
    return (ctx or shared_context()).eb_for_tbpf(benchmark, tbpf)


def format_matrix(
    title: str,
    row_names: List[str],
    col_names: List[str],
    cell,
) -> str:
    """Render a simple aligned text matrix; ``cell(row, col) -> str``."""
    width = max(10, max(len(c) for c in col_names) + 2)
    lines = [title]
    header = " " * 12 + "".join(f"{c:>{width}}" for c in col_names)
    lines.append(header)
    for row in row_names:
        cells = "".join(f"{cell(row, col):>{width}}" for col in col_names)
        lines.append(f"{row:<12}{cells}")
    return "\n".join(lines)

"""The SCHEMATIC compiler driver.

:class:`Schematic` ties the whole pipeline together: profile -> analyze
functions callee-first (loops bottom-up inside each) -> rewrite the program
(access spaces + checkpoint insertion) -> validate. The input module is
never mutated; a transformed clone is returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro import telemetry
from repro.analysis.callgraph import CallGraph
from repro.analysis.liveness import FunctionAccessSummaries
from repro.analysis.ranges import apply_inferred_bounds
from repro.core.function_analysis import FunctionAnalyzer, FunctionPlan
from repro.core.summaries import FunctionResult
from repro.core.tracing import InputGenerator, Profile, collect_profile
from repro.core.transform import apply_plans
from repro.energy.platform import Platform
from repro.ir.module import Module
from repro.ir.validate import validate_module
from repro.ir.values import Variable


@dataclass
class SchematicConfig:
    """Tuning knobs of the SCHEMATIC pass.

    ``all_nvm`` disables VM allocation entirely (the paper's All-NVM
    ablation, §IV-E): checkpoint placement still runs, but every variable
    stays in NVM. ``profile_runs`` is the number of profiling executions
    used for path prioritization (the paper uses 1000; path *ordering*
    converges after a handful of runs on these benchmarks).
    """

    profile_runs: int = 4
    profile_seed: int = 20240301
    all_nvm: bool = False
    max_profile_instructions: int = 50_000_000
    #: ROCKCLIMB mode (used by repro.baselines.rockclimb): force a
    #: checkpoint on every loop back edge (conditional with period <=
    #: ``max_numit``, the unrolling-factor cap) and around every call.
    force_loop_checkpoints: bool = False
    checkpoint_around_calls: bool = False
    max_numit: Optional[int] = None
    #: Ablation knobs (see repro.experiments.ablations): disable the loop
    #: gain amortization or Eq. 2's liveness trimming.
    amortize_loop_gains: bool = True
    liveness_trimming: bool = True


@dataclass
class SchematicResult:
    """A compiled (transformed) program plus compilation artifacts."""

    module: Module
    function_results: Dict[str, FunctionResult]
    plans: Dict[str, FunctionPlan]
    checkpoints_inserted: int
    analysis_seconds: float
    profile: Profile

    def summary(self) -> str:
        return (
            f"schematic: {self.checkpoints_inserted} checkpoints inserted "
            f"across {len(self.plans)} functions in "
            f"{self.analysis_seconds:.2f}s"
        )


class Schematic:
    """Joint compile-time checkpoint placement and memory allocation."""

    def __init__(self, platform: Platform, config: Optional[SchematicConfig] = None):
        self.platform = platform
        self.config = config or SchematicConfig()

    def compile(
        self,
        module: Module,
        input_generator: Optional[InputGenerator] = None,
        profile: Optional[Profile] = None,
    ) -> SchematicResult:
        """Compile ``module`` for the configured platform.

        ``input_generator`` feeds the profiling runs (run index -> inputs);
        a precomputed ``profile`` skips profiling entirely.
        """
        start = time.perf_counter()
        tm = telemetry.get()
        work = module.clone()
        validate_module(work)

        # Fill missing loop bounds with *proven* trip counts before any
        # loop-aware decision runs: unannotated-but-bounded loops then get
        # real numit windows and back-edge elision instead of the blanket
        # DEFAULT_TRIP_ESTIMATE path. Declared @maxiter values are never
        # overwritten (they are verified separately by BOUND001).
        with telemetry.span("placer.infer-bounds"):
            apply_inferred_bounds(work)

        if profile is None:
            with telemetry.span(
                "placer.profile", runs=self.config.profile_runs
            ):
                profile = collect_profile(
                    work,
                    self.platform.model,
                    input_generator=input_generator,
                    runs=self.config.profile_runs,
                    seed=self.config.profile_seed,
                    max_instructions=self.config.max_profile_instructions,
                )

        with telemetry.span("placer.summaries"):
            callgraph = CallGraph(work)
            summaries = FunctionAccessSummaries(work, callgraph)
        variables: Dict[str, Variable] = {
            var.name: var for var in work.all_variables()
        }
        vm_capacity = 0 if self.config.all_nvm else self.platform.vm_size

        #: RCG counters whose per-function deltas annotate each span.
        _rcg_stats = (
            "placer.rcg.nodes", "placer.rcg.edges",
            "placer.rcg.edges_rejected_eb", "placer.rcg.plans_evaluated",
        )
        function_results: Dict[str, FunctionResult] = {}
        plans: Dict[str, FunctionPlan] = {}
        for name in callgraph.reverse_topological():
            analyzer = FunctionAnalyzer(
                module=work,
                func=work.functions[name],
                model=self.platform.model,
                eb=self.platform.eb,
                vm_capacity=vm_capacity,
                summaries=summaries,
                function_results=function_results,
                profile=profile,
                variables=variables,
                is_entry=(name == work.entry),
                force_loop_checkpoints=self.config.force_loop_checkpoints,
                checkpoint_around_calls=self.config.checkpoint_around_calls,
                max_numit=self.config.max_numit,
                amortize_loop_gains=self.config.amortize_loop_gains,
                liveness_trimming=self.config.liveness_trimming,
            )
            with telemetry.span("placer.function", function=name) as span:
                before = (
                    {s: tm.metrics.counter(s).value for s in _rcg_stats}
                    if tm is not None else {}
                )
                result, plan = analyzer.analyze()
                if tm is not None:
                    span.set(**{
                        s.rsplit(".", 1)[1]:
                            tm.metrics.counter(s).value - before[s]
                        for s in _rcg_stats
                    })
            function_results[name] = result
            plans[name] = plan

        with telemetry.span("placer.transform") as span:
            inserted = apply_plans(work, plans)
            span.set(checkpoints=inserted)
        with telemetry.span("placer.validate"):
            validate_module(work)
        elapsed = time.perf_counter() - start
        return SchematicResult(
            module=work,
            function_results=function_results,
            plans=plans,
            checkpoints_inserted=inserted,
            analysis_seconds=elapsed,
            profile=profile,
        )

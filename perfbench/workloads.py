"""The four workloads: what one pass sets up, runs and checks.

A pass is one closed loop with a single caller: :func:`setup` builds the
state, :func:`steps` lists the calls in order, and each step whose
``op`` is not None is one operation whose outcome is compared with the
golden result (``goldens.json``). ``repro`` is imported only inside
functions, so the driver can load this file without the program.

The sizes below are scaled so a pass takes a few seconds on one core
(see README.md for the reasons and the full-size figures).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from typing import Any, Callable, List, NamedTuple, Optional

#: Benchmarks of the paper workloads and the synthetic CFG sizes of the
#: analysis-cost section (``run_all`` uses all eight and 4..64 chains).
PAPER_BENCHMARKS = ("crc", "randmath")
CHAIN_SIZES = (4, 8, 16)

#: Design sweep: wait-mode columns compiled at EB(TBPF=10k), each swept
#: across 10 EB multipliers, 3 periodic TBPFs and 4 stochastic seeds.
SWEEP_BENCHMARKS = ("crc", "randmath", "basicmath")
SWEEP_TECHNIQUES = ("schematic", "rockclimb", "allnvm")
COLUMN_TBPF = 10_000
EB_MULTIPLIERS = (0.6, 0.8, 1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
PERIODIC_TBPF = (20_000, 50_000, 100_000)
STOCHASTIC_MEAN = 30_000.0
STOCHASTIC_SEEDS = (0, 1, 2, 3)

#: Check matrix: the testkit corpus plus two kernels, every technique,
#: at the staticcheck CLI's default budget.
CHECK_PROGRAMS = ("sumloop", "warloop", "branchy", "calls", "crc",
                  "randmath")
CHECK_EB = 3000.0


class Step(NamedTuple):
    op: Optional[str]           # operation id, None for untimed glue
    fn: Callable[[], Any]
    span: Optional[str] = None  # harness span around the call (traced)


class Workload(NamedTuple):
    name: str
    golden_key: str             # workloads with equal outputs share one
    prepare: Optional[str]      # once per run, before the passes:
                                # "setup" or a whole "pass" (fills cache)
    fresh_cache: bool           # every pass starts from an empty cache
    setup: Callable[[str], Any]
    steps: Callable[[Any, int], List[Step]]
    digest: Callable[[str, Any], str]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


# ------------------------------------------------------------------ paper

_FLOAT = re.compile(r"-?\d+\.\d+")


def _paper_setup(cache_dir: str):
    from repro.experiments.common import EvaluationContext
    from repro.runner.cache import ArtifactCache

    ctx = EvaluationContext(benchmarks=list(PAPER_BENCHMARKS),
                            cache=ArtifactCache(cache_dir))
    for name in ctx.benchmark_names:
        ctx.benchmark(name).module  # frontend belongs to set-up
    return ctx


def _render(result) -> str:
    text = result.render()
    if hasattr(result, "render_chart"):
        text += "\n\n" + result.render_chart()
    return text


def _paper_steps(ctx, _seed: int) -> List[Step]:
    from repro.experiments import analysis_cost, run_all
    from layers import SECTION_KEYS

    steps = []
    for (_title, module), key in zip(run_all.SECTIONS, SECTION_KEYS):
        if module is analysis_cost:
            def op(module=module):
                return _render(module.run(ctx, chain_sizes=CHAIN_SIZES))
        else:
            def op(module=module):
                return _render(module.run(ctx))
        steps.append(Step(key, op, f"experiments.{key}"))
    return steps


def _paper_digest(op: str, text: str) -> str:
    # Every decimal in the analysis-cost section is a wall-clock reading
    # (per-benchmark seconds, average, V=... rows, growth exponent).
    if op == "analysis_cost":
        text = _FLOAT.sub("#", text)
    return _sha(text)


# ----------------------------------------------------------- design sweep

class Column(NamedTuple):
    benchmark: str
    technique: str
    compiled: Any
    platform: Any
    specs: list
    inputs: list                # fresh input dicts: one per cell + tape


def _specs(eb: float):
    from repro.emulator.diffemu import PowerSpec

    specs = [PowerSpec.energy_budget(eb * m) for m in EB_MULTIPLIERS]
    specs += [PowerSpec.periodic(tbpf=t, eb=eb) for t in PERIODIC_TBPF]
    specs += [PowerSpec.stochastic(mean_cycles=STOCHASTIC_MEAN, seed=s,
                                   eb=eb) for s in STOCHASTIC_SEEDS]
    return specs


def _sweep_setup(cache_dir: str) -> List[Column]:
    from repro.experiments.common import EvaluationContext
    from repro.runner.cache import ArtifactCache

    ctx = EvaluationContext(benchmarks=list(SWEEP_BENCHMARKS),
                            cache=ArtifactCache(cache_dir))
    columns = []
    for name in SWEEP_BENCHMARKS:
        bench = ctx.benchmark(name)
        eb = ctx.eb_for_tbpf(name, COLUMN_TBPF)
        platform = ctx.platform_proto.with_eb(eb)
        specs = _specs(eb)
        for technique in SWEEP_TECHNIQUES:
            compiled = ctx.compile(technique, name, eb)
            if compiled.feasible:
                columns.append(Column(
                    name, technique, compiled, platform, specs,
                    [bench.default_inputs() for _ in range(len(specs) + 1)],
                ))
    return columns


def _sweep_steps(columns: List[Column], seed: int) -> List[Step]:
    from repro.emulator.diffemu import record_tape, run_cell

    rng = random.Random(seed)
    order = list(columns)
    rng.shuffle(order)
    tapes = {}
    steps = []
    for col in order:
        key = (col.benchmark, col.technique)

        def record(col=col, key=key):
            tapes[key] = record_tape(
                col.compiled.module, col.platform.model, col.compiled.policy,
                vm_size=col.platform.vm_size, inputs=col.inputs[-1],
            )

        steps.append(Step(None, record))
        cells = list(range(len(col.specs)))
        rng.shuffle(cells)
        for i in cells:
            def cell(col=col, key=key, i=i):
                return run_cell(
                    col.compiled.module, col.platform.model,
                    col.compiled.policy, col.specs[i], tapes[key],
                    vm_size=col.platform.vm_size, inputs=col.inputs[i],
                )

            steps.append(Step(f"{col.benchmark}/{col.technique}/{i}", cell))
    return steps


def _sweep_digest(_op: str, result) -> str:
    report, _plan = result
    return _sha(repr(report))


# ----------------------------------------------------------- check matrix

def _check_setup(_cache_dir: str):
    from repro.energy import msp430fr5969_platform
    from repro.testkit.corpus import load_program

    programs = {name: load_program(name) for name in CHECK_PROGRAMS}
    for bench in programs.values():
        bench.module  # frontend belongs to set-up
    return programs, msp430fr5969_platform(eb=CHECK_EB)


def _check_steps(state, seed: int) -> List[Step]:
    from repro.baselines import COMPILERS
    from repro.staticcheck.checker import check_compiled
    from repro.staticcheck.findings import merge_findings
    from repro.staticcheck.transval import check_translation
    from repro.testkit.corpus import compile_for

    programs, platform = state
    pairs = [(p, t) for p in CHECK_PROGRAMS for t in sorted(COMPILERS)]
    random.Random(seed).shuffle(pairs)

    def verdict(program: str, technique: str):
        """The ``python -m repro.staticcheck --all`` path for one pair."""
        bench = programs[program]
        compiled = compile_for(technique, bench.module, platform,
                               input_generator=bench.input_generator())
        if not compiled.feasible:
            return None
        report = check_compiled(compiled, platform, consistency=True)
        tv = check_translation(bench.module, compiled.module,
                               technique=technique)
        return merge_findings([report.findings, tv.findings])

    return [Step(f"{p}/{t}", lambda p=p, t=t: verdict(p, t))
            for p, t in pairs]


def _check_digest(_op: str, findings) -> str:
    if findings is None:
        return "infeasible"
    return _sha(json.dumps(sorted(
        [f.rule_id, str(f.location)] for f in findings
    )))


WORKLOADS = {
    w.name: w for w in (
        Workload("paper-cold", "paper", None, True, _paper_setup,
                 _paper_steps, _paper_digest),
        Workload("paper-warm", "paper", "pass", False, _paper_setup,
                 _paper_steps, _paper_digest),
        Workload("design-sweep", "design-sweep", "setup", False, _sweep_setup,
                 _sweep_steps, _sweep_digest),
        Workload("check-matrix", "check-matrix", None, False,
                 _check_setup, _check_steps, _check_digest),
    )
}

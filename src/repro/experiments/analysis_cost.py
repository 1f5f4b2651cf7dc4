"""§III-C — cost of SCHEMATIC's analysis.

The paper derives an overall polynomial complexity of O(V * (V^2 + E^2))
and reports ~71 s average wall time on the benchmarks. This experiment
measures (i) compile time per benchmark and (ii) scaling on synthetic
programs of growing CFG size, fitting the empirical growth exponent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis import memo
from repro.baselines import compile_schematic
from repro.core.placement import SchematicConfig
from repro.experiments.common import EvaluationContext
from repro.frontend import compile_source


@dataclass
class AnalysisCostResult:
    benchmark_times: Dict[str, float]  # seconds
    scaling: List[Tuple[int, int, float]]  # (blocks, instructions, seconds)

    def growth_exponent(self) -> Optional[float]:
        """Least-squares slope of log(time) vs log(blocks)."""
        import math

        points = [
            (math.log(blocks), math.log(max(seconds, 1e-6)))
            for blocks, _insts, seconds in self.scaling
            if blocks > 0
        ]
        if len(points) < 2:
            return None
        n = len(points)
        sx = sum(x for x, _ in points)
        sy = sum(y for _, y in points)
        sxx = sum(x * x for x, _ in points)
        sxy = sum(x * y for x, y in points)
        denom = n * sxx - sx * sx
        if abs(denom) < 1e-12:
            return None
        return (n * sxy - sx * sy) / denom

    def render(self) -> str:
        lines = ["Analysis cost (SCHEMATIC compile time)"]
        for name, seconds in self.benchmark_times.items():
            lines.append(f"  {name:<12}{seconds:8.2f}s")
        if self.benchmark_times:
            avg = sum(self.benchmark_times.values()) / len(self.benchmark_times)
            lines.append(f"  average: {avg:.2f}s (paper: ~71s on their infra)")
        lines.append("scaling on synthetic programs:")
        for blocks, insts, seconds in self.scaling:
            lines.append(f"  V={blocks:<5} insts={insts:<7} {seconds:8.3f}s")
        exponent = self.growth_exponent()
        if exponent is not None:
            lines.append(
                f"empirical growth exponent: {exponent:.2f} "
                "(paper bound: O(V^3) worst case)"
            )
        return "\n".join(lines)


def synthetic_program(chains: int) -> str:
    """A program whose CFG grows linearly with ``chains``: a sequence of
    independent if/else diamonds and small loops."""
    parts = ["u32 acc_out;", "u32 seed;", "void main() {", "    u32 acc = seed;"]
    for i in range(chains):
        parts.append(
            f"""
    if ((acc & {1 << (i % 16)}) != 0) {{
        acc = acc * 3 + {i};
    }} else {{
        acc ^= {i * 17 + 1};
    }}
    for (i32 k{i} = 0; k{i} < 4; k{i}++) {{
        acc += (u32) k{i} * {i + 1};
    }}"""
        )
    parts.append("    acc_out = acc;")
    parts.append("}")
    return "\n".join(parts)


def run(
    ctx: Optional[EvaluationContext] = None,
    benchmarks: Optional[List[str]] = None,
    chain_sizes: Tuple[int, ...] = (4, 8, 16, 32, 64),
) -> AnalysisCostResult:
    ctx = ctx or EvaluationContext()
    names = benchmarks if benchmarks is not None else ctx.benchmark_names
    benchmark_times: Dict[str, float] = {}
    platform = ctx.platform_proto.with_eb(3_000.0)
    for name in names:
        bench = ctx.benchmark(name)
        profile = ctx.profile(name)
        # Time a full analysis: range analysis must not be a memo hit.
        memo.forget(memo.source_key(bench.module))
        start = time.perf_counter()
        compile_schematic(bench.module, platform, profile=profile)
        benchmark_times[name] = time.perf_counter() - start

    scaling: List[Tuple[int, int, float]] = []
    for chains in chain_sizes:
        module = compile_source(synthetic_program(chains), f"synthetic{chains}")
        blocks = sum(len(f.blocks) for f in module.functions.values())
        insts = module.instruction_count()
        config = SchematicConfig(profile_runs=1)
        memo.forget(memo.source_key(module))
        start = time.perf_counter()
        compile_schematic(module, platform, config=config)
        scaling.append((blocks, insts, time.perf_counter() - start))
    return AnalysisCostResult(benchmark_times=benchmark_times, scaling=scaling)


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()

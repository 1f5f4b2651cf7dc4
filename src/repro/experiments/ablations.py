"""Ablations of SCHEMATIC's design choices (beyond the paper's All-NVM).

DESIGN.md calls out three load-bearing decisions; each gets an ablated
variant compared against full SCHEMATIC at TBPF = 10k:

- ``no-amortization`` — Eq. 1 gains evaluated over a single loop iteration
  instead of the conditional-checkpoint window (DESIGN.md deviation 2).
  Expected: almost nothing is VM-allocated, energy approaches All-NVM.
- ``no-liveness-trim`` — Eq. 2's trimming disabled: every checkpoint saves
  and restores all VM residents (§III-A2's optimization off). Expected:
  higher save/restore energy, same computation energy.
- ``numit-1`` — the conditional back-edge checkpoint fires every iteration
  (the "straightforward approach" Algorithm 1 improves on, §III-B2).
  Expected: checkpoint traffic dominates on loop-heavy kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.baselines.common import compile_schematic
from repro.core.placement import SchematicConfig
from repro.emulator.diffemu import PowerSpec
from repro.experiments.common import EvaluationContext

DEFAULT_TBPF = 10_000

VARIANTS: Dict[str, SchematicConfig] = {
    "full": SchematicConfig(),
    "no-amortization": SchematicConfig(amortize_loop_gains=False),
    "no-liveness-trim": SchematicConfig(liveness_trimming=False),
    "numit-1": SchematicConfig(force_loop_checkpoints=True, max_numit=1),
    "allnvm": SchematicConfig(all_nvm=True),
}


@dataclass
class AblationCell:
    variant: str
    benchmark: str
    completed: bool
    total: float = 0.0  # nJ
    computation: float = 0.0
    save: float = 0.0
    restore: float = 0.0
    vm_accesses: int = 0


@dataclass
class AblationResult:
    tbpf: int
    cells: Dict[str, Dict[str, AblationCell]]  # variant -> benchmark -> cell
    benchmarks: List[str]

    def total_of(self, variant: str) -> float:
        return sum(
            self.cells[variant][b].total
            for b in self.benchmarks
            if self.cells[variant][b].completed
        )

    def overhead_vs_full(self, variant: str) -> float:
        """Energy of a variant relative to full SCHEMATIC (1.0 = equal)."""
        full = self.total_of("full")
        return self.total_of(variant) / full if full else float("inf")

    def render(self) -> str:
        lines = [
            f"Ablations of SCHEMATIC at TBPF={self.tbpf} (uJ)",
            f"{'benchmark':<12}{'variant':<18}{'total':>9}{'comp':>9}"
            f"{'save':>9}{'restore':>9}{'VM-acc':>9}",
        ]
        for name in self.benchmarks:
            for variant in VARIANTS:
                cell = self.cells[variant][name]
                if not cell.completed:
                    lines.append(f"{name:<12}{variant:<18}{'x':>9}")
                    continue
                lines.append(
                    f"{name:<12}{variant:<18}{cell.total / 1000:>9.1f}"
                    f"{cell.computation / 1000:>9.1f}{cell.save / 1000:>9.1f}"
                    f"{cell.restore / 1000:>9.1f}{cell.vm_accesses:>9}"
                )
        for variant in VARIANTS:
            if variant == "full":
                continue
            lines.append(
                f"{variant} costs {self.overhead_vs_full(variant):.2f}x "
                "the energy of full SCHEMATIC"
            )
        return "\n".join(lines)


def compute_cell(
    ctx: EvaluationContext, variant: str, name: str, tbpf: int
) -> AblationCell:
    """One ablated-variant emulation, memoized by the context (and on
    disk when the context has a persistent cache) so parallel prefills
    and warm re-runs skip it."""
    config = VARIANTS[variant]
    eb = ctx.eb_for_tbpf(name, tbpf)

    def compute() -> AblationCell:
        compiled = compile_schematic(
            ctx.benchmark(name).module, ctx.platform_proto.with_eb(eb),
            profile=ctx.profile(name), config=config,
        )
        report = ctx.emulate(compiled, name, eb, PowerSpec.energy_budget(eb))
        ok = report.completed and report.outputs == ctx.reference(name).outputs
        cell = AblationCell(variant=variant, benchmark=name, completed=ok)
        if ok:
            cell.total = report.energy.total
            cell.computation = report.energy.computation
            cell.save = report.energy.save
            cell.restore = report.energy.restore
            cell.vm_accesses = report.vm_accesses
        return cell

    return ctx.memo(
        ctx.key("ablation", name, variant=variant, tbpf=tbpf), compute,
        scope=dict(benchmark=name, technique=f"ablation:{variant}",
                   eb=round(eb, 3)),
    )


def run(
    ctx: Optional[EvaluationContext] = None, tbpf: int = DEFAULT_TBPF
) -> AblationResult:
    ctx = ctx or EvaluationContext()
    cells: Dict[str, Dict[str, AblationCell]] = {v: {} for v in VARIANTS}
    for name in ctx.benchmark_names:
        for variant in VARIANTS:
            cells[variant][name] = compute_cell(ctx, variant, name, tbpf)
    return AblationResult(
        tbpf=tbpf, cells=cells, benchmarks=list(ctx.benchmark_names)
    )


def main() -> None:
    ctx = EvaluationContext(benchmarks=["basicmath", "crc", "randmath"])
    print(run(ctx).render())


if __name__ == "__main__":
    main()

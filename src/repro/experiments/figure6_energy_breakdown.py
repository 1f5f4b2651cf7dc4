"""Figure 6 — overall energy consumption, split per category (§IV-D).

Every technique runs every benchmark at TBPF = 10k cycles; energy is split
into Computation / Save / Restore / Re-execution. The summary also computes
the headline number: SCHEMATIC's average energy reduction against the four
baselines over the benchmarks each baseline completed (paper: 51 %).
The claims checked on this figure are in :mod:`repro.experiments.claims`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.emulator.meter import EnergyBreakdown
from repro.experiments.common import (
    EvaluationContext,
    TECHNIQUE_ORDER,
)

DEFAULT_TBPF = 10_000


@dataclass
class Figure6Cell:
    technique: str
    benchmark: str
    completed: bool
    energy: Optional[EnergyBreakdown] = None
    active_cycles: int = 0


@dataclass
class Figure6Result:
    tbpf: int
    cells: Dict[str, Dict[str, Figure6Cell]]  # technique -> benchmark -> cell
    benchmarks: List[str] = field(default_factory=list)

    def _reduction(self, baseline: str, measure) -> Optional[float]:
        ratios = []
        for name in self.benchmarks:
            base = self.cells[baseline][name]
            ours = self.cells["schematic"][name]
            if not (base.completed and ours.completed):
                continue
            b, o = measure(base), measure(ours)
            if b is None or o is None or b <= 0:
                continue
            ratios.append(1.0 - o / b)
        return sum(ratios) / len(ratios) if ratios else None

    def _average(self, per_baseline) -> float:
        reductions = [
            r
            for b in TECHNIQUE_ORDER
            if b != "schematic"
            for r in [per_baseline(b)]
            if r is not None
        ]
        return sum(reductions) / len(reductions) if reductions else 0.0

    def reduction_vs(self, baseline: str) -> Optional[float]:
        """SCHEMATIC's mean energy reduction vs one baseline, over the
        benchmarks that baseline completed (the paper compares "on the
        benchmarks that completed only")."""
        return self._reduction(
            baseline, lambda c: None if c.energy is None else c.energy.total
        )

    def average_reduction(self) -> float:
        """Headline: mean reduction across the four baselines."""
        return self._average(self.reduction_vs)

    def time_reduction_vs(self, baseline: str) -> Optional[float]:
        """Execution-time (active cycles) reduction vs one baseline —
        the paper's secondary headline (§IV-D: \"an overall execution time
        reduction of 54%\")."""
        return self._reduction(baseline, lambda c: c.active_cycles)

    def average_time_reduction(self) -> float:
        return self._average(self.time_reduction_vs)

    def render_chart(self) -> str:
        """Paper-style stacked bars (one group per benchmark)."""
        from repro.experiments.charts import stacked_bar_chart

        sections = []
        for name in self.benchmarks:
            rows = []
            for technique in self.cells:
                cell = self.cells[technique][name]
                parts = None
                if cell.completed and cell.energy is not None:
                    e = cell.energy
                    parts = {
                        "computation": e.computation,
                        "save": e.save,
                        "restore": e.restore,
                        "reexecution": e.reexecution,
                    }
                rows.append((technique, parts))
            sections.append(f"-- {name}\n" + stacked_bar_chart(rows))
        return "\n".join(sections)

    def render(self) -> str:
        lines = [
            f"Figure 6: energy breakdown at TBPF={self.tbpf} (uJ)",
            f"{'benchmark':<12}{'technique':<12}{'total':>9}{'comp':>9}"
            f"{'save':>9}{'restore':>9}{'reexec':>9}",
        ]
        for name in self.benchmarks:
            for technique in self.cells:
                cell = self.cells[technique][name]
                if not cell.completed or cell.energy is None:
                    lines.append(
                        f"{name:<12}{technique:<12}{'x (did not complete)':>9}"
                    )
                    continue
                e = cell.energy
                lines.append(
                    f"{name:<12}{technique:<12}{e.total / 1000:>9.1f}"
                    f"{e.computation / 1000:>9.1f}{e.save / 1000:>9.1f}"
                    f"{e.restore / 1000:>9.1f}{e.reexecution / 1000:>9.1f}"
                )
        for baseline in TECHNIQUE_ORDER:
            if baseline == "schematic":
                continue
            red = self.reduction_vs(baseline)
            if red is not None:
                lines.append(
                    f"schematic vs {baseline}: {red * 100:.0f}% less energy"
                )
        lines.append(
            f"average reduction vs baselines: "
            f"{self.average_reduction() * 100:.0f}% (paper: 51%)"
        )
        lines.append(
            f"average execution-time reduction: "
            f"{self.average_time_reduction() * 100:.0f}% (paper: 54%)"
        )
        return "\n".join(lines)


def run(
    ctx: Optional[EvaluationContext] = None, tbpf: int = DEFAULT_TBPF
) -> Figure6Result:
    ctx = ctx or EvaluationContext()
    cells: Dict[str, Dict[str, Figure6Cell]] = {}
    for technique in TECHNIQUE_ORDER:
        cells[technique] = {}
        for name in ctx.benchmark_names:
            outcome = ctx.run_tbpf(technique, name, tbpf)
            cells[technique][name] = Figure6Cell(
                technique=technique,
                benchmark=name,
                completed=outcome.succeeded,
                energy=outcome.report.energy if outcome.report else None,
                active_cycles=(
                    outcome.report.active_cycles if outcome.report else 0
                ),
            )
    return Figure6Result(
        tbpf=tbpf, cells=cells, benchmarks=list(ctx.benchmark_names)
    )


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()

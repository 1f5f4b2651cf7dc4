"""Figure 8 — impact of the capacitor size on benchmark crc (§IV-F).

Each technique runs crc with TBPF in {1k, 10k, 100k} (a small capacitor
means a small TBPF, §IV-F's note on the ScEpTIC methodology). The claims
on intermittency-management energy (save + restore + re-execution) are
in :mod:`repro.experiments.claims`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.emulator.meter import EnergyBreakdown
from repro.experiments.common import (
    EvaluationContext,
    TBPF_VALUES,
    TECHNIQUE_ORDER,
)

DEFAULT_BENCHMARK = "crc"


@dataclass
class Figure8Result:
    benchmark: str
    #: technique -> tbpf -> breakdown (None = did not complete)
    cells: Dict[str, Dict[int, Optional[EnergyBreakdown]]]

    def management_energy(self, technique: str, tbpf: int) -> Optional[float]:
        cell = self.cells[technique][tbpf]
        return cell.intermittency_management if cell is not None else None

    def render_chart(self) -> str:
        """Paper-style stacked bars per technique and TBPF."""
        from repro.experiments.charts import stacked_bar_chart

        rows = []
        for technique in self.cells:
            for tbpf in TBPF_VALUES:
                cell = self.cells[technique][tbpf]
                parts = None
                if cell is not None:
                    parts = {
                        "computation": cell.computation,
                        "save": cell.save,
                        "restore": cell.restore,
                        "reexecution": cell.reexecution,
                    }
                rows.append((f"{technique}@{tbpf}", parts))
        return stacked_bar_chart(rows)

    def render(self) -> str:
        lines = [
            f"Figure 8: capacitor-size impact on {self.benchmark} (uJ)",
            f"{'technique':<12}{'TBPF':>9}{'total':>9}{'comp':>9}{'save':>9}"
            f"{'restore':>9}{'reexec':>9}{'mgmt':>9}",
        ]
        for technique in self.cells:
            for tbpf in TBPF_VALUES:
                cell = self.cells[technique][tbpf]
                if cell is None:
                    lines.append(f"{technique:<12}{tbpf:>9}{'x':>9}")
                    continue
                lines.append(
                    f"{technique:<12}{tbpf:>9}{cell.total / 1000:>9.1f}"
                    f"{cell.computation / 1000:>9.1f}{cell.save / 1000:>9.1f}"
                    f"{cell.restore / 1000:>9.1f}"
                    f"{cell.reexecution / 1000:>9.1f}"
                    f"{cell.intermittency_management / 1000:>9.1f}"
                )
        return "\n".join(lines)


def run(
    ctx: Optional[EvaluationContext] = None,
    benchmark: str = DEFAULT_BENCHMARK,
    tbpf_values=TBPF_VALUES,
) -> Figure8Result:
    ctx = ctx or EvaluationContext()
    cells: Dict[str, Dict[int, Optional[EnergyBreakdown]]] = {}
    for technique in TECHNIQUE_ORDER:
        cells[technique] = {}
        for tbpf in tbpf_values:
            outcome = ctx.run_tbpf(technique, benchmark, tbpf)
            cells[technique][tbpf] = (
                outcome.report.energy
                if outcome.succeeded and outcome.report is not None
                else None
            )
    return Figure8Result(benchmark=benchmark, cells=cells)


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()

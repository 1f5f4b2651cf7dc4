"""Table III — ability to enforce forward progress (§IV-C).

Every technique runs every benchmark under periodic power failures with
TBPF in {1k, 10k, 100k} cycles (EB set to the average energy per interval).
A check mark means the benchmark terminated (with correct outputs). The
claims checked on this table are in :mod:`repro.experiments.claims`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.common import (
    EvaluationContext,
    TBPF_VALUES,
    TECHNIQUE_ORDER,
    check,
)


@dataclass
class Table3Result:
    #: technique -> tbpf -> benchmark -> finished (and correct)
    cells: Dict[str, Dict[int, Dict[str, bool]]]
    benchmarks: List[str]

    def render(self) -> str:
        lines = [
            "Table III: ability to enforce forward progress",
            "benchmarks: " + ", ".join(self.benchmarks),
            f"{'technique':<12}"
            + "".join(f"{f'TBPF={t}':>14}" for t in TBPF_VALUES),
        ]
        for technique in self.cells:
            row = f"{technique:<12}"
            for tbpf in TBPF_VALUES:
                marks = "".join(
                    check(self.cells[technique][tbpf][b])
                    for b in self.benchmarks
                )
                row += f"{marks:>14}"
            lines.append(row)
        return "\n".join(lines)


def run(
    ctx: Optional[EvaluationContext] = None,
    tbpf_values=TBPF_VALUES,
) -> Table3Result:
    ctx = ctx or EvaluationContext()
    cells: Dict[str, Dict[int, Dict[str, bool]]] = {}
    for technique in TECHNIQUE_ORDER:
        cells[technique] = {}
        for tbpf in tbpf_values:
            cells[technique][tbpf] = {}
            for name in ctx.benchmark_names:
                outcome = ctx.run_tbpf(technique, name, tbpf)
                cells[technique][tbpf][name] = outcome.succeeded
    return Table3Result(cells=cells, benchmarks=list(ctx.benchmark_names))


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()

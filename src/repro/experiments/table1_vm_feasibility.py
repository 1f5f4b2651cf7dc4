"""Table I — ability to support limited VM space (§IV-B).

For each technique and benchmark: can the program execute on an
MSP430FR5969-class board (64 KB NVM, 2 KB VM)? The paper's pattern is
``claims.PAPER_TABLE1_INFEASIBLE``: the all-VM techniques cannot run the
benchmarks whose data exceeds 2 KB of VM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.common import (
    EvaluationContext,
    TECHNIQUE_ORDER,
    check,
    format_matrix,
)

#: A budget comfortably above every per-iteration requirement; feasibility
#: here is about VM capacity, not the capacitor.
FEASIBILITY_EB = 10_000.0


@dataclass
class Table1Result:
    #: technique -> benchmark -> feasible and correct
    cells: Dict[str, Dict[str, bool]]
    footprints: Dict[str, int]

    def render(self) -> str:
        benchmarks = list(self.footprints)
        text = format_matrix(
            "Table I: ability to support limited VM space (2 KB)",
            list(self.cells),
            benchmarks,
            lambda t, b: check(self.cells[t][b]),
        )
        sizes = "  ".join(
            f"{b}={s}B" for b, s in self.footprints.items()
        )
        return text + "\nfootprints: " + sizes


def run(ctx: Optional[EvaluationContext] = None) -> Table1Result:
    ctx = ctx or EvaluationContext()
    cells: Dict[str, Dict[str, bool]] = {}
    footprints: Dict[str, int] = {}
    for name in ctx.benchmark_names:
        footprints[name] = ctx.benchmark(name).footprint_bytes()
    for technique in TECHNIQUE_ORDER:
        cells[technique] = {}
        for name in ctx.benchmark_names:
            outcome = ctx.run(technique, name, FEASIBILITY_EB)
            cells[technique][name] = outcome.succeeded
    return Table1Result(cells=cells, footprints=footprints)


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()

"""Export experiment results as machine-readable artifacts (JSON + CSV).

``python -m repro.experiments.export [outdir] [--quick]`` regenerates every
table/figure and writes, per artifact, a ``<name>.json`` (the structured
result) and a flat ``<name>.csv`` for spreadsheet/plotting pipelines, plus
a ``summary.json`` holding the verdict of every paper claim
(:mod:`repro.experiments.claims`). The analysis-cost section is a live
wall-clock measurement, not an artifact, so its claim reads ``n/a``.
"""

from __future__ import annotations

import argparse
import csv
import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments import ablations, claims, run_all
from repro.experiments.common import (
    EvaluationContext,
    TBPF_VALUES,
    TECHNIQUE_ORDER,
)


def _write_csv(path: Path, header: List[str], rows: List[List[object]]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


#: What a writer returns: the JSON payload, the CSV header and its rows.
Artifact = Tuple[Dict, List[str], List[List[object]]]


def _table1(result) -> Artifact:
    payload = {"cells": result.cells, "footprints": result.footprints}
    rows = [
        [technique, benchmark, int(ok)]
        for technique, cells in result.cells.items()
        for benchmark, ok in cells.items()
    ]
    return payload, ["technique", "benchmark", "feasible"], rows


def _table2(result) -> Artifact:
    payload = {
        row.benchmark: {
            "cycles": row.cycles,
            "paper_cycles": row.paper_cycles,
            "failures": {str(t): n for t, n in row.failures.items()},
        }
        for row in result.rows
    }
    rows = [
        [row.benchmark, row.cycles, row.paper_cycles]
        + [row.failures[t] for t in TBPF_VALUES]
        for row in result.rows
    ]
    header = ["benchmark", "cycles", "paper_cycles"] + [
        f"failures_tbpf_{t}" for t in TBPF_VALUES
    ]
    return payload, header, rows


def _table3(result) -> Artifact:
    payload = {
        technique: {
            str(tbpf): cells for tbpf, cells in by_tbpf.items()
        }
        for technique, by_tbpf in result.cells.items()
    }
    rows = [
        [technique, tbpf, benchmark, int(ok)]
        for technique, by_tbpf in result.cells.items()
        for tbpf, cells in by_tbpf.items()
        for benchmark, ok in cells.items()
    ]
    return payload, ["technique", "tbpf", "benchmark", "finished"], rows


def _figure6(result) -> Artifact:
    rows = []
    payload: Dict = {"tbpf": result.tbpf, "cells": {}, "reductions": {}}
    for technique, cells in result.cells.items():
        payload["cells"][technique] = {}
        for benchmark, cell in cells.items():
            entry = {"completed": cell.completed}
            if cell.completed and cell.energy is not None:
                e = cell.energy
                entry.update(e.as_dict())
                rows.append([technique, benchmark, e.total, e.computation,
                             e.save, e.restore, e.reexecution])
            payload["cells"][technique][benchmark] = entry
    for baseline in TECHNIQUE_ORDER:
        if baseline != "schematic":
            payload["reductions"][baseline] = result.reduction_vs(baseline)
    payload["average_reduction"] = result.average_reduction()
    header = ["technique", "benchmark", "total_nj", "computation_nj",
              "save_nj", "restore_nj", "reexecution_nj"]
    return payload, header, rows


def _figure7(result) -> Artifact:
    rows = [
        [benchmark, variant, int(cell.completed), cell.computation,
         cell.cpu, cell.vm_access, cell.nvm_access, cell.save, cell.restore,
         cell.vm_accesses, cell.nvm_accesses]
        for benchmark, variants in result.cells.items()
        for variant, cell in variants.items()
    ]
    payload = {
        "tbpf": result.tbpf,
        "computation_reduction": result.computation_reduction(),
        "vm_access_share": result.vm_access_share(),
        "vm_energy_share": result.vm_energy_share(),
    }
    header = ["benchmark", "variant", "completed", "computation_nj",
              "cpu_nj", "vm_access_nj", "nvm_access_nj", "save_nj",
              "restore_nj", "vm_accesses", "nvm_accesses"]
    return payload, header, rows


def _figure8(result) -> Artifact:
    rows = []
    payload: Dict = {"benchmark": result.benchmark, "cells": {}}
    for technique, by_tbpf in result.cells.items():
        payload["cells"][technique] = {}
        for tbpf, cell in by_tbpf.items():
            payload["cells"][technique][str(tbpf)] = (
                cell.as_dict() if cell is not None else None
            )
            if cell is not None:
                rows.append(
                    [technique, tbpf, cell.total, cell.computation,
                     cell.save, cell.restore, cell.reexecution,
                     cell.intermittency_management]
                )
    header = ["technique", "tbpf", "total_nj", "computation_nj", "save_nj",
              "restore_nj", "reexecution_nj", "management_nj"]
    return payload, header, rows


def _ablations(result) -> Artifact:
    rows = [
        [variant, benchmark, int(cell.completed), cell.total,
         cell.computation, cell.save, cell.restore, cell.vm_accesses]
        for variant, cells in result.cells.items()
        for benchmark, cell in cells.items()
    ]
    payload = {
        "tbpf": result.tbpf,
        "overheads_vs_full": {
            variant: result.overhead_vs_full(variant)
            for variant in ablations.VARIANTS
            if variant != "full"
        },
    }
    header = ["variant", "benchmark", "completed", "total_nj",
              "computation_nj", "save_nj", "restore_nj", "vm_accesses"]
    return payload, header, rows


#: Section title -> (artifact file stem, writer).
WRITERS = {
    "Table I": ("table1_vm_feasibility", _table1),
    "Table II": ("table2_exec_time", _table2),
    "Table III": ("table3_forward_progress", _table3),
    "Figure 6": ("figure6_energy_breakdown", _figure6),
    "Figure 7": ("figure7_allocation_quality", _figure7),
    "Figure 8": ("figure8_capacitor_size", _figure8),
    "Ablations": ("ablations", _ablations),
}


def export_all(
    outdir: Path, benchmarks: Optional[List[str]] = None
) -> Dict[str, Dict]:
    """Run and export every experiment; returns each artifact's payload
    by stem."""
    outdir.mkdir(parents=True, exist_ok=True)
    ctx = EvaluationContext(benchmarks=benchmarks)
    results: Dict[str, object] = {}
    payloads: Dict[str, Dict] = {}
    for title, module in run_all.SECTIONS:
        if title not in WRITERS:
            continue  # the analysis cost is a live timing, not an artifact
        stem, write = WRITERS[title]
        results[title] = module.run(ctx)
        payload, header, rows = write(results[title])
        _write_json(outdir / f"{stem}.json", payload)
        _write_csv(outdir / f"{stem}.csv", header, rows)
        payloads[stem] = payload
    summary = {
        "benchmarks": ctx.benchmark_names,
        "claims": [asdict(v) for v in claims.evaluate(results)],
    }
    _write_json(outdir / "summary.json", summary)
    return payloads


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.export",
        description="Write every table/figure as JSON + CSV artifacts.",
    )
    parser.add_argument("outdir", nargs="?", default="artifacts",
                        help="output directory (default: artifacts)")
    parser.add_argument("--quick", action="store_true",
                        help="the run_all --quick benchmark subset")
    args = parser.parse_args(argv)
    outdir = Path(args.outdir)
    export_all(
        outdir, benchmarks=run_all.QUICK_BENCHMARKS if args.quick else None
    )
    print(f"artifacts written to {outdir}/")


if __name__ == "__main__":
    main()

"""Parallel evaluation engine: fan evaluation cells across worker processes.

The full evaluation is a grid of deterministic, independent cells —
(technique x benchmark x TBPF) emulations, reference/profile artifacts and
ablated variants. The engine *prefills* an :class:`EvaluationContext`'s
memo by computing those cells in a process pool and installing each result
under the content key the context's own lookup builds
(:meth:`EvaluationContext.key`); the table and figure modules then run
unchanged and find every cell in memory, which makes the parallel output
byte-identical to a serial run by construction.

Two stages, because run cells need the EB conversion (and the correctness
oracle) derived from the reference runs:

1. **artifacts** — continuous references, all-VM references and profiles,
   one cell per benchmark;
2. **runs** — every emulation cell of the tables/figures plus the ablation
   variants, deduplicated, with EBs computed in the parent from the merged
   references.

Workers hold their own :class:`EvaluationContext` (created once per
process); results travel back as picklable records
(:class:`~repro.experiments.common.RunOutcome`, reports, profiles,
ablation cells), never live interpreters. When the parent context has a
persistent :class:`~repro.runner.cache.ArtifactCache`, workers share its
directory, so artifacts computed by one worker are disk-cache hits for the
others — and for every later run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.telemetry import metrics
from repro.telemetry.rollup import publish_cache_stats, write_sidecar
from repro.experiments.common import (
    TBPF_VALUES,
    TECHNIQUE_ORDER,
    EvaluationContext,
)
from repro.runner.pool import parallel_map, resolve_jobs


@dataclass(frozen=True)
class Cell:
    """One picklable unit of evaluation work."""

    kind: str  # "reference" | "vm_reference" | "profile" | "run" | "ablation"
    benchmark: str
    technique: str = ""  # run cells
    eb: float = 0.0  # run / ablation cells
    tbpf: Optional[int] = None  # ablation cells
    variant: str = ""  # ablation cells


# ------------------------------------------------------------------ planning


def plan_artifacts(
    ctx: EvaluationContext, extra_benchmarks: Sequence[str] = ()
) -> List[Cell]:
    """Stage-1 cells: the per-benchmark artifacts everything else needs."""
    cells: List[Cell] = []
    for name in list(ctx.benchmark_names) + [
        b for b in extra_benchmarks if b not in ctx.benchmark_names
    ]:
        cells.append(Cell("reference", name))
        cells.append(Cell("vm_reference", name))
        cells.append(Cell("profile", name))
    return cells


def plan_run_all_cells(
    ctx: EvaluationContext,
    tbpf_values: Sequence[int] = TBPF_VALUES,
    figure_tbpf: int = 10_000,
    figure8_benchmark: str = "crc",
) -> List[Cell]:
    """Stage-2 cells: every emulation behind the paper's tables/figures
    and the ablations. Requires the stage-1 references (for the EB
    conversion); duplicates are dropped, first occurrence wins."""
    from repro.experiments.ablations import VARIANTS
    from repro.experiments.table1_vm_feasibility import FEASIBILITY_EB

    cells: List[Cell] = []
    seen = set()

    def add(cell: Cell) -> None:
        if cell not in seen:
            seen.add(cell)
            cells.append(cell)

    def run_cell(technique: str, name: str, eb: float) -> Cell:
        return Cell("run", name, technique=technique, eb=eb)

    # Table I: feasibility at a comfortable budget.
    for technique in TECHNIQUE_ORDER:
        for name in ctx.benchmark_names:
            add(run_cell(technique, name, FEASIBILITY_EB))
    # Table III (all TBPFs) / Figure 6 (TBPF=10k, included above).
    for technique in TECHNIQUE_ORDER:
        for tbpf in tbpf_values:
            for name in ctx.benchmark_names:
                add(run_cell(technique, name, ctx.eb_for_tbpf(name, tbpf)))
    # Figure 7: All-NVM vs SCHEMATIC at the figure TBPF.
    for name in ctx.benchmark_names:
        add(run_cell("allnvm", name, ctx.eb_for_tbpf(name, figure_tbpf)))
    # Figure 8: every technique on one benchmark over all TBPFs (a no-op
    # when that benchmark is already in the sweep above).
    for technique in TECHNIQUE_ORDER:
        for tbpf in tbpf_values:
            add(run_cell(
                technique, figure8_benchmark,
                ctx.eb_for_tbpf(figure8_benchmark, tbpf),
            ))
    # Ablations at the figure TBPF.
    for name in ctx.benchmark_names:
        for variant in VARIANTS:
            add(Cell(
                "ablation", name, variant=variant, tbpf=figure_tbpf,
                eb=ctx.eb_for_tbpf(name, figure_tbpf),
            ))
    return cells


# ------------------------------------------------------------------ workers

_WORKER_CTX: Optional[EvaluationContext] = None
#: Sidecar directory of this worker process, or None when the process is
#: not a metered pool worker (parent / metrics disabled).
_WORKER_METRICS_DIR: Optional[str] = None


def _init_worker(
    benchmarks: List[str],
    profile_runs: int,
    cache_root: Optional[str],
    metrics_dir: Optional[str] = None,
    parent_pid: Optional[int] = None,
) -> None:
    """Build the per-process context (idempotent: the serial fallback of
    parallel_map may call it in a process that already has one).

    When the parent passes a ``metrics_dir``, a genuine pool worker
    (``os.getpid() != parent_pid``) installs a *fresh* metrics
    registry — under the fork start method the child inherits the
    parent's registry object, and accumulating into that copy would
    double-count the parent's totals in the sidecar. The in-process
    serial fallback keeps the parent's registry: its counts land there
    directly and need no sidecar."""
    global _WORKER_CTX, _WORKER_METRICS_DIR
    from repro.runner.cache import ArtifactCache

    cache = ArtifactCache(cache_root) if cache_root else None
    if metrics_dir is not None and os.getpid() != parent_pid:
        metrics.enable(meta={"role": "worker", "pid": os.getpid()})
        _WORKER_METRICS_DIR = metrics_dir
    _WORKER_CTX = EvaluationContext(
        benchmarks=benchmarks,
        profile_runs=profile_runs,
        cache=cache,
    )


def _flush_worker_sidecar() -> None:
    """Rewrite this worker's sidecar from the live registry plus the
    cache's current ``stats_dict``. Idempotent by construction — the
    cache counters are folded into a throwaway copy at every flush, so
    re-flushing never double-counts — and atomic, so the parent's rollup
    always sees a complete snapshot no matter where the worker dies."""
    mm = metrics.get()
    if mm is None or _WORKER_METRICS_DIR is None:
        return
    snapshot = metrics.MetricsRegistry(meta=mm.meta)
    snapshot.merge_records(mm.snapshot())
    ctx = _WORKER_CTX
    if ctx is not None and ctx.cache is not None:
        publish_cache_stats(snapshot, ctx.cache.stats_dict())
    try:
        write_sidecar(snapshot, _WORKER_METRICS_DIR)
    except OSError:
        pass  # metrics are best effort; never fail the evaluation


def _compute_cell(cell: Cell) -> Tuple[Cell, object, int]:
    """Compute one cell; the worker pid rides along so the parent can
    report how evenly the pool spread the work (manifest / telemetry).
    A metered worker re-flushes its sidecar after every cell, also when
    the cell raises."""
    ctx = _WORKER_CTX
    assert ctx is not None, "worker context not initialized"
    try:
        value = _evaluate_cell(ctx, cell)
    except Exception:
        _flush_worker_sidecar()
        raise
    mm = metrics.get()
    if mm is not None:
        mm.counter("engine.worker_cells").add(1)
        mm.counter(f"engine.cells.{cell.kind}").add(1)
    _flush_worker_sidecar()
    return cell, value, os.getpid()


def _evaluate_cell(ctx: EvaluationContext, cell: Cell) -> object:
    if cell.kind == "reference":
        return ctx.reference(cell.benchmark)
    if cell.kind == "vm_reference":
        return ctx.vm_reference(cell.benchmark)
    if cell.kind == "profile":
        return ctx.profile(cell.benchmark)
    if cell.kind == "run":
        return ctx.run(cell.technique, cell.benchmark, cell.eb)
    if cell.kind == "ablation":
        from repro.experiments.ablations import compute_cell

        return compute_cell(ctx, cell.variant, cell.benchmark, cell.tbpf)
    raise ValueError(f"unknown cell kind {cell.kind!r}")


# ------------------------------------------------------------------ merging


def merge_results(
    ctx: EvaluationContext, results: Sequence[Tuple]
) -> None:
    """Install worker results into the parent context's memo under the
    key the parent's own lookup builds (:meth:`EvaluationContext.key`).
    Results arrive in submission order, and the emulator is
    deterministic, so the merged state is identical to what serial
    evaluation would build. Accepts both ``(cell, value)`` and
    ``(cell, value, worker_pid)`` records."""
    for cell, value, *_ in results:
        ctx.artifacts[ctx.key(
            cell.kind, cell.benchmark, technique=cell.technique, eb=cell.eb,
            variant=cell.variant, tbpf=cell.tbpf,
        )] = value


# ------------------------------------------------------------------ driver


def prefill(
    ctx: EvaluationContext,
    jobs,
    tbpf_values: Sequence[int] = TBPF_VALUES,
    figure8_benchmark: str = "crc",
    log: Optional[Callable[[str], None]] = None,
    stats_out: Optional[Dict[str, Any]] = None,
    metrics_dir: Optional[str] = None,
) -> int:
    """Compute every cell of the full evaluation with ``jobs`` workers and
    merge the results into ``ctx``; returns the number of cells computed.
    ``jobs <= 1`` is a no-op: the serial path stays byte-for-byte the
    code that has always run.

    ``stats_out``, when given, receives ``{"artifact_cells", "run_cells",
    "jobs", "worker_cells": {pid: count}}`` — how evenly the pool spread
    the grid (surfaces in the ``--json`` manifest and the trace).

    ``metrics_dir``, when given, makes every pool worker accumulate its
    own metrics registry and flush a JSONL sidecar there after each cell
    (:mod:`repro.telemetry.rollup`). A worker that dies ends the call
    in a ``ReproError`` naming its unfinished cell (``parallel_map``)."""
    jobs = resolve_jobs(jobs)
    if jobs <= 1:
        return 0
    initargs = (
        list(ctx.benchmark_names),
        ctx.profile_runs,
        str(ctx.cache.root) if ctx.cache is not None else None,
        metrics_dir,
        os.getpid(),
    )
    artifacts = plan_artifacts(ctx, extra_benchmarks=[figure8_benchmark])
    if log is not None:
        log(f"prefill: {len(artifacts)} artifact cells on {jobs} workers")
    with telemetry.span("engine.prefill.artifacts", cells=len(artifacts),
                        jobs=jobs):
        artifact_results = parallel_map(
            _compute_cell, artifacts, jobs,
            initializer=_init_worker, initargs=initargs,
        )
    merge_results(ctx, artifact_results)
    runs = plan_run_all_cells(
        ctx, tbpf_values=tbpf_values, figure8_benchmark=figure8_benchmark
    )
    if log is not None:
        log(f"prefill: {len(runs)} run cells on {jobs} workers")
    with telemetry.span("engine.prefill.runs", cells=len(runs), jobs=jobs):
        run_results = parallel_map(
            _compute_cell, runs, jobs,
            initializer=_init_worker, initargs=initargs, chunksize=2,
        )
    merge_results(ctx, run_results)

    worker_cells: Dict[int, int] = {}
    for record in list(artifact_results) + list(run_results):
        if len(record) >= 3:
            pid = record[2]
            worker_cells[pid] = worker_cells.get(pid, 0) + 1
    if stats_out is not None:
        stats_out.update(
            artifact_cells=len(artifacts),
            run_cells=len(runs),
            jobs=jobs,
            worker_cells=dict(sorted(worker_cells.items())),
        )
    mm = metrics.get()
    if mm is not None:
        mm.counter("engine.cells").add(len(artifacts) + len(runs))
        mm.counter("engine.cells.artifact_planned").add(len(artifacts))
        mm.counter("engine.cells.run_planned").add(len(runs))
        mm.gauge("engine.jobs").set(jobs)
        for count in worker_cells.values():
            mm.histogram("engine.cells_per_worker").record(count)
    return len(artifacts) + len(runs)

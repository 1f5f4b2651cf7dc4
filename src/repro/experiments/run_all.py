"""Regenerate every table and figure; writes results to stdout.

Usage::

    python -m repro.experiments.run_all [--quick] [--jobs N|auto]
                                        [--no-cache] [--cache-dir DIR]
                                        [--benchmarks a,b,c]
                                        [--trace] [--trace-dir DIR]
                                        [--metrics] [--metrics-dir DIR]
                                        [--json PATH]

``--quick`` restricts to the four fastest benchmarks (crc, randmath,
basicmath, fft) so the whole sweep finishes in a couple of minutes.

``--jobs N|auto`` fans the evaluation cells across N worker processes
(``auto`` = one per CPU) before rendering; the tables and figures are
byte-identical to a serial run. ``--no-cache`` disables the persistent
artifact cache under ``.repro-cache/`` (see docs/performance.md); with the
cache enabled, a warm re-run skips compilation and emulation entirely.
Progress and cache statistics go to stderr, results to stdout.

``--trace`` records a telemetry trace of the whole evaluation — compiler
phase spans, runtime checkpoint/power events and static segment bounds —
and writes ``run_all.jsonl`` + ``run_all.trace.json`` (Chrome trace
viewer / Perfetto) under ``--trace-dir`` (default ``traces/``); a given
``--trace-dir`` implies ``--trace``. Render the headroom report with
``python -m repro.telemetry report traces/run_all.jsonl``. Worker
processes do not feed the parent's trace: use ``--jobs 1`` for full
runtime-event capture (see docs/observability.md).

``--metrics`` records aggregated metrics (engine cell counts, interpreter
cold-path counters, cache hit/miss totals) without full tracing; every
pool worker writes a per-process ``metrics-<pid>.jsonl`` sidecar under
``--metrics-dir`` (default: the trace directory) and the parent merges
them deterministically — serial and parallel runs roll up to the same
values. Inspect with ``python -m repro.telemetry metrics DIR``. With
metrics on, a flight recorder also captures a bounded event ring and
writes a ``postmortem-<pid>.json`` bundle on crash (``python -m
repro.telemetry postmortem DIR``). Results on stdout stay byte-identical
whether metrics are on or off.

After the sections, ``run_all`` evaluates the paper's claims
(:mod:`repro.experiments.claims`) on their results and prints one claims
block; it exits 1 when a claim fails. Claims whose sections did not run
print ``n/a``.

``--json PATH`` writes a machine-readable manifest of the run: per-section
wall-clock, cache statistics, prefill worker balance, the platform,
module and input fingerprints that key the artifact cache, and (with
``--metrics``) the merged cross-process metrics rollup.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import telemetry
from repro.telemetry import flags as telemetry_flags
from repro.telemetry import flight, metrics
from repro.telemetry.rollup import (
    SIDECAR_PREFIX,
    SIDECAR_SUFFIX,
    publish_cache_stats,
    rollup_directory,
    rollup_json,
    write_sidecar,
)
from repro.analysis import memo as analysis_memo
from repro.core import verify as core_verify
from repro.experiments import claims, common, engine
from repro.experiments import (
    ablations,
    analysis_cost,
    figure6_energy_breakdown,
    figure7_allocation_quality,
    figure8_capacitor_size,
    table1_vm_feasibility,
    table2_exec_time,
    table3_forward_progress,
)
from repro.runner.cache import ArtifactCache
from repro.runner.pool import resolve_jobs

QUICK_BENCHMARKS = ["basicmath", "crc", "fft", "randmath"]

SECTIONS = [
    ("Table I", table1_vm_feasibility),
    ("Table II", table2_exec_time),
    ("Table III", table3_forward_progress),
    ("Figure 6", figure6_energy_breakdown),
    ("Figure 7", figure7_allocation_quality),
    ("Figure 8", figure8_capacitor_size),
    ("Analysis cost", analysis_cost),
    ("Ablations", ablations),
]

#: Manifest format version (the ``--json`` output). v2 renames the
#: version key to ``schema_version`` and adds the merged cross-process
#: ``metrics`` rollup (``null`` when metrics are off); v3 drops the
#: differential-emulation block (every cell is emulated cold); v4 drops
#: the failure-model key (a cell's power model is part of its run key);
#: v5 drops ``transval.enabled`` (the validation pass always runs); v6
#: adds the ``analysis_memo`` hit/miss counters.
MANIFEST_SCHEMA = 6


def _csv(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.run_all",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[telemetry_flags.flag_parser()],
    )
    parser.add_argument("--quick", action="store_true",
                        help="four fastest benchmarks only")
    parser.add_argument("--benchmarks", type=_csv, default=None,
                        help="explicit comma-separated benchmark subset")
    parser.add_argument("--jobs", default="1", metavar="N|auto",
                        help="worker processes for the evaluation cells")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent artifact cache")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact cache directory (default "
                        ".repro-cache or $REPRO_CACHE_DIR)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a machine-readable run manifest")
    return parser


def make_context(args: argparse.Namespace) -> common.EvaluationContext:
    benchmarks: Optional[List[str]] = args.benchmarks
    if benchmarks is None and args.quick:
        benchmarks = QUICK_BENCHMARKS
    cache = None if args.no_cache else ArtifactCache.default(args.cache_dir)
    return common.EvaluationContext(benchmarks=benchmarks, cache=cache)


def render_sections(
    ctx: common.EvaluationContext, out=None
) -> Tuple[List[Tuple[str, float]], Dict[str, Any]]:
    """Run and print every section; returns (title, seconds) per section
    for the ``--json`` manifest, and each section's result by title for
    the claims."""
    out = out if out is not None else sys.stdout
    timings: List[Tuple[str, float]] = []
    results: Dict[str, Any] = {}
    for title, module in SECTIONS:
        start = time.perf_counter()
        with telemetry.span("experiments.section", section=title):
            result = module.run(ctx)
        elapsed = time.perf_counter() - start
        print("=" * 72, file=out)
        print(result.render(), file=out)
        if hasattr(result, "render_chart"):
            print(file=out)
            print(result.render_chart(), file=out)
        print(f"[{title} regenerated in {elapsed:.1f}s]", file=out)
        print(file=out)
        timings.append((title, elapsed))
        results[title] = result
    return timings, results


def build_manifest(
    ctx: common.EvaluationContext,
    jobs: int,
    timings: List[Tuple[str, float]],
    prefill_stats: Dict[str, Any],
    total_seconds: float,
    trace_paths: Optional[Dict[str, Path]],
    metrics_rollup: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Everything needed to compare two runs: what ran, how long each
    piece took, how the cache behaved, the content fingerprints that
    key the artifacts (platform constants, module text, inputs) and —
    when metrics were on — the merged cross-process metrics rollup."""
    return {
        "schema_version": MANIFEST_SCHEMA,
        "tool": "repro.experiments.run_all",
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "jobs": jobs,
        "profile_runs": ctx.profile_runs,
        "benchmarks": list(ctx.benchmark_names),
        "fingerprints": {
            "platform": ArtifactCache.text_fingerprint(ctx._platform_fp()),
            "modules": {
                name: ctx._module_fp(name) for name in ctx.benchmark_names
            },
            "inputs": {
                name: ctx._inputs_fp(name) for name in ctx.benchmark_names
            },
        },
        "sections": [
            {"title": title, "seconds": round(seconds, 3)}
            for title, seconds in timings
        ],
        "prefill": prefill_stats or None,
        "cache": ctx.cache.stats_dict() if ctx.cache is not None else None,
        "transval": core_verify.transval_stats(),
        "analysis_memo": analysis_memo.memo_stats(),
        "trace": (
            {key: str(path) for key, path in trace_paths.items()}
            if trace_paths
            else None
        ),
        "metrics": metrics_rollup,
        "total_seconds": round(total_seconds, 3),
    }


def _clear_sidecars(directory: Path) -> None:
    """Remove metrics sidecars from previous runs so the end-of-run
    rollup merges exactly this run's workers."""
    if not directory.is_dir():
        return
    for stale in directory.glob(f"{SIDECAR_PREFIX}*{SIDECAR_SUFFIX}"):
        try:
            stale.unlink()
        except OSError:
            pass


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    # Each run derives its analyses itself, so a second run in one
    # process emulates what the first did and its manifest counts only
    # its own memo traffic.
    analysis_memo.reset_memo()
    tm, mm = telemetry_flags.enable_from_args(args, meta={
        "tool": "repro.experiments.run_all",
        "argv": list(argv) if argv is not None else sys.argv[1:],
    })
    metrics_out: Optional[Path] = None
    fr = None
    if mm is not None:
        metrics_out = Path(telemetry_flags.metrics_dir(args))
        _clear_sidecars(metrics_out)
        fr = flight.enable()
        fr.record("run-start", jobs=args.jobs, quick=args.quick)
    ctx = make_context(args)
    jobs = resolve_jobs(args.jobs)
    prefill_stats: Dict[str, Any] = {}
    try:
        if jobs > 1:
            start = time.perf_counter()
            cells = engine.prefill(
                ctx, jobs, log=lambda msg: print(msg, file=sys.stderr),
                stats_out=prefill_stats,
                metrics_dir=str(metrics_out) if metrics_out else None,
            )
            prefill_stats["seconds"] = round(time.perf_counter() - start, 3)
            print(
                f"prefilled {cells} cells in "
                f"{time.perf_counter() - start:.1f}s",
                file=sys.stderr,
            )
        timings, results = render_sections(ctx)
    except Exception as exc:
        # Postmortem bundle: the event ring, provider state snapshots and
        # a metrics snapshot, inspectable via
        # ``python -m repro.telemetry postmortem <dir>``.
        if fr is not None and metrics_out is not None:
            bundle = fr.dump(
                str(metrics_out), reason="run_all failed", error=exc
            )
            print(f"postmortem bundle: {bundle}", file=sys.stderr)
        raise
    verdicts = claims.evaluate(results)
    print("=" * 72)
    print(claims.render(verdicts))
    failures = claims.failed(verdicts)
    if ctx.cache is not None:
        from repro.runner.cache import stats_line

        print(stats_line(ctx.cache.stats_dict()), file=sys.stderr)

    metrics_rollup: Optional[Dict[str, Any]] = None
    if mm is not None:
        # The parent's own share of the rollup: registry counters plus
        # its cache statistics (workers publish theirs into their own
        # sidecars).
        if ctx.cache is not None:
            publish_cache_stats(mm, ctx.cache.stats_dict())
        # Merge parent + worker sidecars BEFORE writing the parent's own
        # sidecar, so the directory never feeds a record in twice.
        merged = metrics.MetricsRegistry(meta=mm.meta)
        merged.merge_records(mm.snapshot())
        if metrics_out is not None:
            rollup_directory(str(metrics_out), into=merged)
            sidecar = write_sidecar(mm, str(metrics_out))
            print(f"metrics sidecar:      {sidecar}", file=sys.stderr)
            print(
                "metrics rollup:       "
                f"python -m repro.telemetry metrics {metrics_out}",
                file=sys.stderr,
            )
        metrics_rollup = rollup_json(merged)

    trace_paths = telemetry_flags.finish(tm, mm, args, prefix="run_all")
    if fr is not None:
        flight.disable()

    if args.json:
        manifest = build_manifest(
            ctx, jobs, timings, prefill_stats,
            time.perf_counter() - started, trace_paths, metrics_rollup,
        )
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        print(f"manifest: {path}", file=sys.stderr)
    if failures:
        print("claims failed: " + "; ".join(v.name for v in failures),
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()

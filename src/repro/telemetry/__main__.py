"""Trace and metrics tooling CLI.

Usage::

    # Render the headroom / traffic / phase report of a trace:
    python -m repro.telemetry report traces/run_all.jsonl [--top N]

    # Convert a JSONL trace to Chrome trace-event JSON (Perfetto):
    python -m repro.telemetry convert traces/run_all.jsonl -o out.json

    # Merge metrics sidecars (or a trace's metrics block) and render a
    # table or the JSONL rollup:
    python -m repro.telemetry metrics metrics-dir/ [--format table|jsonl]

Exit codes: ``report`` exits 1 when any observed segment window exceeds
its certified static bound. All commands exit 2 on unreadable or
schema-invalid files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.telemetry import rollup
from repro.telemetry.events import TraceSchemaError
from repro.telemetry.exporters import read_jsonl, write_chrome
from repro.telemetry.metrics import MetricsError, MetricsRegistry
from repro.telemetry.report import analyze, headroom_violations, render


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="render a trace as text")
    report.add_argument("trace", help="JSONL trace file")
    report.add_argument(
        "--top", type=int, default=10,
        help="hottest segments to show (0 = all; default 10)",
    )

    convert = sub.add_parser(
        "convert", help="JSONL trace -> Chrome trace-event JSON"
    )
    convert.add_argument("trace", help="JSONL trace file")
    convert.add_argument(
        "-o", "--output", default=None,
        help="output path (default: <trace>.chrome.json)",
    )

    metrics_cmd = sub.add_parser(
        "metrics",
        help="merge metrics sidecars / extract a trace's metrics block",
    )
    metrics_cmd.add_argument(
        "source",
        help="metrics directory (metrics-*.jsonl sidecars), one sidecar "
             "file, or a JSONL trace",
    )
    metrics_cmd.add_argument(
        "--format", choices=("table", "jsonl"), default="table",
        help="output format (default: human table)",
    )
    metrics_cmd.add_argument(
        "-o", "--output", default=None,
        help="write to a file instead of stdout",
    )

    return parser


def _fmt(value: float) -> str:
    """Render a value: integers without a trailing ``.0``."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or (
        isinstance(value, float) and value.is_integer()
    ):
        return str(int(value))
    return repr(float(value))


def render_table(registry: MetricsRegistry) -> str:
    """The human-facing table behind ``python -m repro.telemetry
    metrics``: counters, gauges, then histogram summaries."""
    records = registry.snapshot()
    if not records:
        return "(no metrics recorded)"
    lines: List[str] = []
    width = max(len(r["name"]) for r in records)
    for record in records:
        name = record["name"].ljust(width)
        if record["kind"] == "counter":
            lines.append(f"{name}  {record['value']}")
        elif record["kind"] == "gauge":
            lines.append(
                f"{name}  {_fmt(record['value'])} (gauge/{record['agg']})"
            )
        else:
            count = record["count"]
            mean = record["total"] / count if count else 0.0
            lines.append(
                f"{name}  n={count} mean={mean:.3f} "
                f"min={_fmt(record['min'] or 0)} "
                f"max={_fmt(record['max'] or 0)}"
            )
    return "\n".join(lines)


def _load_metrics(source: str) -> MetricsRegistry:
    """A registry from a sidecar directory, one sidecar, or a trace."""
    if os.path.isdir(source):
        return rollup.rollup_directory(source)
    with open(source, "r", encoding="utf-8") as fh:
        first = fh.readline()
    try:
        head = json.loads(first) if first.strip() else {}
    except json.JSONDecodeError:
        head = {}
    registry = MetricsRegistry()
    if isinstance(head, dict) and head.get("kind") == "metrics_header":
        registry.merge_records(rollup.read_sidecar(source))
        return registry
    # Fall through: treat as a trace and merge its metrics record(s).
    for record in read_jsonl(source):
        if record.get("kind") == "metrics":
            registry.merge_records(record["metrics"])
    return registry


def _cmd_metrics(args) -> int:
    try:
        registry = _load_metrics(args.source)
    except FileNotFoundError:
        print(f"error: no such file or directory {args.source}",
              file=sys.stderr)
        return 2
    except (MetricsError, TraceSchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "jsonl":
        text = "\n".join(
            json.dumps(record, sort_keys=True)
            for record in registry.snapshot()
        )
        text = text + "\n" if text else ""
    else:
        text = render_table(registry) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "metrics":
        return _cmd_metrics(args)

    try:
        records = read_jsonl(args.trace)
    except FileNotFoundError:
        print(f"error: no such trace {args.trace}", file=sys.stderr)
        return 2
    except (TraceSchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "convert":
        output = args.output or str(
            Path(args.trace).with_suffix("")
        ) + ".chrome.json"
        path = write_chrome(records, output)
        print(f"wrote {path}")
        return 0

    summary = analyze(records)
    try:
        print(render(summary, top=args.top or None))
    except BrokenPipeError:
        # Reader (e.g. ``| head``) went away; the verdict still stands.
        sys.stderr.close()
    return 1 if headroom_violations(summary) else 0


if __name__ == "__main__":
    sys.exit(main())

"""The ``--trace``/``--metrics`` flag group shared by ``run_all`` and
the testkit CLI: a parent parser, the enable step and the trace export.

A given ``--trace-dir`` implies ``--trace``, a given ``--metrics-dir``
implies ``--metrics``, and tracing implies metrics (one shared
registry). Each CLI keeps its own sidecar and manifest handling.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.telemetry import core, metrics
from repro.telemetry.core import Telemetry
from repro.telemetry.metrics import MetricsRegistry

#: Default trace (and metrics sidecar) directory.
DEFAULT_TRACE_DIR = "traces"


def flag_parser() -> argparse.ArgumentParser:
    """A parent parser holding the four telemetry flags."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--trace", action="store_true",
                        help="record a telemetry trace (JSONL + Chrome "
                        "trace JSON)")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="trace output directory (default traces/; "
                        "implies --trace)")
    parser.add_argument("--metrics", action="store_true",
                        help="record aggregated metrics (engine, "
                        "interpreter and cache counters) without full "
                        "tracing and write a JSONL sidecar; tracing "
                        "implies this")
    parser.add_argument("--metrics-dir", default=None, metavar="DIR",
                        help="metrics sidecar directory (default: the "
                        "trace directory; implies --metrics)")
    return parser


def metrics_requested(args: argparse.Namespace) -> bool:
    return args.metrics or args.metrics_dir is not None


def metrics_dir(args: argparse.Namespace) -> str:
    """Where metrics sidecars go: ``--metrics-dir``, else the trace
    directory."""
    return args.metrics_dir or args.trace_dir or DEFAULT_TRACE_DIR


def enable_from_args(
    args: argparse.Namespace, meta: Dict[str, Any]
) -> Tuple[Optional[Telemetry], Optional[MetricsRegistry]]:
    """Turn on what the flags ask for: tracing (whose registry doubles as
    the metrics registry), else metrics alone, else nothing."""
    if args.trace or args.trace_dir is not None:
        tm = core.enable(meta=meta)
        return tm, tm.metrics
    if metrics_requested(args):
        return None, metrics.enable(meta=meta)
    return None, None


def finish(
    tm: Optional[Telemetry],
    mm: Optional[MetricsRegistry],
    args: argparse.Namespace,
    prefix: str,
) -> Optional[Dict[str, Path]]:
    """Turn off what :func:`enable_from_args` turned on. A trace is
    exported under the trace directory as ``<prefix>.jsonl`` and
    ``<prefix>.chrome.json``, its paths printed to stderr and returned."""
    if tm is None:
        if mm is not None:
            metrics.disable()
        return None
    core.disable()
    # Imported here so an untraced run never loads the exporters.
    from repro.telemetry import exporters

    paths = exporters.export(
        tm, args.trace_dir or DEFAULT_TRACE_DIR, prefix=prefix
    )
    print(f"trace (events):       {paths['jsonl']}", file=sys.stderr)
    print(f"trace (chrome/perfetto): {paths['chrome']}", file=sys.stderr)
    return paths

"""Per-process metrics sidecars and the deterministic cross-process merge.

Worker pools (:mod:`repro.experiments.engine`, testkit sweeps) cannot
share one in-memory registry — each process accumulates its own
:class:`~repro.telemetry.metrics.MetricsRegistry` and flushes it to a
*sidecar*: one JSONL file per process in a shared metrics directory,
named ``metrics-<pid>.jsonl`` (collision-free because pids are unique
among live processes and each worker owns exactly one file, rewritten
atomically after every unit of work so a crash never loses more than the
cell in flight).

A sidecar is a header line followed by one snapshot record per metric::

    {"kind": "metrics_header", "schema": 1, "pid": 1234, "meta": {...}}
    {"kind": "counter", "name": "interp.ckpt_saves", "value": 812}
    {"kind": "gauge", "name": "engine.jobs", "value": 2.0, "agg": "max"}
    {"kind": "histogram", "name": "engine.cells_per_worker", ...}

:func:`rollup_directory` reads every ``metrics-*.jsonl`` in sorted
filename order and folds them with the registry's commutative merge, so
serial and parallel runs of the same work produce identical rollups for
deterministic counters (pinned by ``tests/test_metrics_rollup.py``).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from .metrics import (
    METRICS_SCHEMA,
    MetricsError,
    MetricsRegistry,
    validate_metric_record,
)

SIDECAR_PREFIX = "metrics-"
SIDECAR_SUFFIX = ".jsonl"


def sidecar_path(metrics_dir: str, pid: Optional[int] = None) -> str:
    """This process's sidecar path inside ``metrics_dir``."""
    if pid is None:
        pid = os.getpid()
    return os.path.join(metrics_dir, f"{SIDECAR_PREFIX}{pid}{SIDECAR_SUFFIX}")


def write_sidecar(
    registry: MetricsRegistry, metrics_dir: str, pid: Optional[int] = None
) -> str:
    """Atomically (re)write this process's sidecar: full snapshot via a
    temp file + rename, so readers never observe a torn file and a crash
    mid-flush leaves the previous complete snapshot in place."""
    os.makedirs(metrics_dir, exist_ok=True)
    path = sidecar_path(metrics_dir, pid=pid)
    header = {
        "kind": "metrics_header",
        "schema": METRICS_SCHEMA,
        "pid": os.getpid() if pid is None else pid,
        "meta": registry.meta,
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(
        json.dumps(record, sort_keys=True) for record in registry.snapshot()
    )
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
    return path


def read_sidecar(path: str) -> List[Dict[str, Any]]:
    """Parse and validate one sidecar; returns its metric records (header
    excluded). Raises :class:`MetricsError` on malformed content."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MetricsError(
                    f"{path}:{lineno}: not valid JSON ({exc})"
                ) from None
            if lineno == 1:
                if (
                    not isinstance(record, dict)
                    or record.get("kind") != "metrics_header"
                ):
                    raise MetricsError(
                        f"{path}:1: sidecar must start with a "
                        f"metrics_header record"
                    )
                if record.get("schema") != METRICS_SCHEMA:
                    raise MetricsError(
                        f"{path}:1: sidecar schema {record.get('schema')!r} "
                        f"!= supported {METRICS_SCHEMA}"
                    )
                continue
            validate_metric_record(record)
            records.append(record)
    if not records and not os.path.getsize(path):
        raise MetricsError(f"{path}: empty sidecar (no header)")
    return records


def rollup_directory(
    metrics_dir: str, into: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Merge every ``metrics-*.jsonl`` under ``metrics_dir`` (sorted
    filename order — merge order is irrelevant by construction, sorting
    just makes failures reproducible) into ``into`` (or a fresh
    registry)."""
    registry = into if into is not None else MetricsRegistry()
    if not os.path.isdir(metrics_dir):
        return registry
    for name in sorted(os.listdir(metrics_dir)):
        if not (
            name.startswith(SIDECAR_PREFIX) and name.endswith(SIDECAR_SUFFIX)
        ):
            continue
        registry.merge_records(read_sidecar(os.path.join(metrics_dir, name)))
    return registry


def rollup_json(registry: MetricsRegistry) -> Dict[str, Any]:
    """The manifest-embeddable rollup object: schema + sorted records."""
    return {
        "schema": METRICS_SCHEMA,
        "metrics": registry.snapshot(),
    }


# ------------------------------------------------------- stats bridging


def publish_cache_stats(
    registry: MetricsRegistry, stats: Dict[str, Any]
) -> None:
    """Fold an ArtifactCache ``stats_dict()`` into ``registry`` as
    ``cache.*`` counters — the single path both the ``--cache-stats``
    stderr line and the trace/manifest rollups are derived from."""
    for name in ("hits", "misses", "stores", "pruned"):
        value = int(stats.get(name, 0))
        if value:
            registry.counter(f"cache.{name}").add(value)
    for category, triple in sorted(
        (stats.get("categories") or {}).items()
    ):
        for name in ("hits", "misses", "stores"):
            value = int(triple.get(name, 0))
            if value:
                registry.counter(f"cache.{category}.{name}").add(value)


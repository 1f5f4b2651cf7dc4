"""Trace exporters: JSONL event logs and Chrome trace-event JSON.

The JSONL file is the ground truth (schema in
:mod:`repro.telemetry.events`); the Chrome export is a derived view that
loads in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``:

- the **compiler** track (pid 1) shows placer phases as complete (``X``)
  events in real microseconds;
- the **static** track (pid 2) carries certifier results as instants;
- each emulation run gets its own thread on the **runtime** process
  (pid 3, tid = run id): the power timeline restarts at zero per run, so
  sharing one thread would travel back in time. Runtime timestamps are
  *emulated cycles* rendered as µs — wall-clock-meaningless but
  proportional, which is what a timeline viewer needs. Between
  consecutive checkpoint saves the exporter synthesizes ``segment``
  spans so EB windows are visible as bars, not just instant ticks.

Events within one (pid, tid) are emitted sorted by timestamp;
``tests/test_telemetry_exporters.py`` pins both validity and per-track
monotonicity.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.core import (
    TRACK_COMPILER,
    TRACK_RUNTIME,
    TRACK_STATIC,
    Telemetry,
)
from repro.telemetry.events import (
    header_record,
    metrics_record,
    validate_record,
    validate_trace,
)

#: Chrome trace process ids per track; unknown tracks get pid 9.
_TRACK_PIDS = {TRACK_COMPILER: 1, TRACK_STATIC: 2, TRACK_RUNTIME: 3}
_TRACK_NAMES = {
    TRACK_COMPILER: "compiler (real time, us)",
    TRACK_STATIC: "static certifier",
    TRACK_RUNTIME: "runtime (emulated cycles)",
}


# ---------------------------------------------------------------- JSONL


def trace_records(tm: Telemetry) -> List[Dict[str, Any]]:
    """The full record list of one handle: header, events, metrics."""
    records = [header_record(tm.meta)]
    records.extend(tm.events)
    records.append(metrics_record(tm.metrics.snapshot()))
    return records


def write_jsonl(tm: Telemetry, path) -> Path:
    """Write the trace as JSON lines; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in trace_records(tm):
            fh.write(json.dumps(record, separators=(",", ":"),
                                sort_keys=True))
            fh.write("\n")
    return path


def read_jsonl(path) -> List[Dict[str, Any]]:
    """Load and validate a JSONL trace (raises on schema violations)."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            validate_record(record, lineno)
            records.append(record)
    validate_trace(records)
    return records


# ---------------------------------------------------------------- Chrome


def _pid_tid(record: Dict[str, Any]) -> Tuple[int, int]:
    track = record.get("track", "")
    pid = _TRACK_PIDS.get(track, 9)
    tid = 0
    if track == TRACK_RUNTIME:
        tid = int(record.get("attrs", {}).get("run", 0))
    return pid, tid


def chrome_trace(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Render validated trace records as a Chrome trace-event object."""
    meta: Dict[str, Any] = {}
    groups: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
    seen_tracks: Dict[int, str] = {}
    #: (pid, tid) -> ts of the run's last segment boundary, for the
    #: synthesized segment bars.
    last_boundary: Dict[Tuple[int, int], int] = {}

    for record in records:
        kind = record.get("kind")
        if kind == "header":
            meta = record.get("meta", {})
            continue
        if kind == "metrics":
            continue
        pid, tid = _pid_tid(record)
        seen_tracks[pid] = record.get("track", "")
        args = dict(record.get("attrs", {}))
        entry: Dict[str, Any] = {
            "name": record["name"],
            "cat": record.get("track", ""),
            "pid": pid,
            "tid": tid,
            "ts": record["ts"],
            "args": args,
        }
        if kind == "span":
            entry["ph"] = "X"
            entry["dur"] = record["dur"]
        else:
            entry["ph"] = "i"
            entry["s"] = "t"
        bucket = groups.setdefault((pid, tid), [])
        bucket.append(entry)

        # Synthesized segment bars between run boundaries.
        if pid == _TRACK_PIDS[TRACK_RUNTIME] and kind == "event":
            name = record["name"]
            ts = record["ts"]
            if name == "run-begin":
                last_boundary[(pid, tid)] = ts
            elif name in ("ckpt-save", "reboot"):
                start = last_boundary.get((pid, tid))
                if name == "ckpt-save" and start is not None and ts >= start:
                    seg: Dict[str, Any] = {
                        "name": f"segment -> #{args.get('ckpt')}",
                        "cat": "segment",
                        "ph": "X",
                        "pid": pid,
                        "tid": tid,
                        "ts": start,
                        "dur": ts - start,
                        "args": {
                            k: args[k]
                            for k in ("from_ckpt", "ckpt", "window_nj")
                            if k in args
                        },
                    }
                    bucket.append(seg)
                last_boundary[(pid, tid)] = ts

    trace_events: List[Dict[str, Any]] = []
    for pid in sorted(seen_tracks):
        trace_events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": _TRACK_NAMES.get(seen_tracks[pid],
                                              seen_tracks[pid])},
        })
    for (pid, tid) in sorted(groups):
        entries = groups[(pid, tid)]
        entries.sort(key=lambda e: (e["ts"], 0 if e["ph"] == "X" else 1))
        trace_events.extend(entries)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": meta,
    }


def write_chrome(records: List[Dict[str, Any]], path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(records), fh, separators=(",", ":"))
    return path


# ---------------------------------------------------------------- bundle


def export(tm: Telemetry, directory, prefix: str = "trace") -> Dict[str, Path]:
    """Write the standard artifact pair — ``<prefix>.jsonl`` plus
    ``<prefix>.chrome.json`` — into ``directory``."""
    directory = Path(directory)
    jsonl = write_jsonl(tm, directory / f"{prefix}.jsonl")
    chrome = write_chrome(
        trace_records(tm), directory / f"{prefix}.chrome.json"
    )
    return {"jsonl": jsonl, "chrome": chrome}

"""The trace event schema and its validator.

A trace is a JSON-lines file: one header line, then one record per
span/event, then one ``metrics`` line. Every record is a flat JSON
object with a ``kind`` discriminator:

``header``
    ``{"kind": "header", "schema": 1, "meta": {...}}`` — always first.
``span``
    ``{"kind": "span", "track": str, "name": str, "ts": int,
    "dur": int, "attrs": {...}?}`` — a timed phase. ``ts``/``dur`` are
    microseconds of real time on the ``compiler`` track.
``event``
    ``{"kind": "event", "track": str, "name": str, "ts": int,
    "attrs": {...}?}`` — instantaneous. On the ``runtime`` track ``ts``
    is the PowerManager timeline in *emulated cycles* and ``attrs.run``
    numbers the emulation run (each run's timeline restarts at zero).
``metrics``
    ``{"kind": "metrics", "metrics": [...]}`` — the final registry
    snapshot (counters/gauges/histograms as rendered by
    :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot`).

Well-known event names (all optional in a trace):

=====================  =====================================================
name                   attrs
=====================  =====================================================
``run-begin``          ``run``, ``technique``, ``power_mode``
``run-end``            ``run``, ``completed``, ``failures``, ``saves``,
                       ``restores``, ``skips``
``ckpt-save``          ``run``, ``ckpt``, ``from_ckpt`` (None = boot),
                       ``window_nj`` (committed energy of the segment the
                       save closes), ``save_nj``, ``payload_bytes``
``ckpt-restore``       ``run``, ``ckpt``, ``restore_nj``, ``reason``
                       (``wake`` | ``rollback``)
``ckpt-skip``          ``run``, ``ckpt`` (MEMENTOS voltage check passed)
``migrate``            ``run``, ``ckpt``, ``payload_bytes`` (roll-back
                       mode allocation change)
``power-failure``      ``run``, ``attempt``
``reboot``             ``run`` (restart from boot, no snapshot yet)
``segment-bound``      ``ckpt``, ``bound_nj`` (static certifier's proven
                       worst case for windows closing at that ckpt),
                       ``eb_nj`` — on the ``static`` track
=====================  =====================================================

The validator is deliberately structural (types and required fields,
not names): traces may carry new event names without a schema bump.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.telemetry.core import SCHEMA_VERSION

#: Record kinds a trace line may carry.
KINDS = ("header", "span", "event", "metrics")


class TraceSchemaError(ValueError):
    """A trace line violates the schema."""


def header_record(meta: Dict[str, Any]) -> Dict[str, Any]:
    return {"kind": "header", "schema": SCHEMA_VERSION, "meta": dict(meta)}


def metrics_record(metrics: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {"kind": "metrics", "metrics": list(metrics)}


def _require(cond: bool, lineno: int, message: str) -> None:
    if not cond:
        raise TraceSchemaError(f"trace line {lineno}: {message}")


def validate_record(record: Dict[str, Any], lineno: int = 0) -> None:
    """Raise :class:`TraceSchemaError` unless ``record`` is well-formed."""
    _require(isinstance(record, dict), lineno, "record is not an object")
    kind = record.get("kind")
    _require(kind in KINDS, lineno, f"unknown kind {kind!r}")
    if kind == "header":
        _require(
            isinstance(record.get("schema"), int), lineno,
            "header without integer schema",
        )
        _require(
            record["schema"] <= SCHEMA_VERSION, lineno,
            f"trace schema {record['schema']} is newer than "
            f"supported {SCHEMA_VERSION}",
        )
        _require(
            isinstance(record.get("meta"), dict), lineno,
            "header without meta object",
        )
        return
    if kind == "metrics":
        _require(
            isinstance(record.get("metrics"), list), lineno,
            "metrics record without metrics list",
        )
        return
    # span | event
    _require(
        isinstance(record.get("track"), str) and record["track"], lineno,
        "span/event without track",
    )
    _require(
        isinstance(record.get("name"), str) and record["name"], lineno,
        "span/event without name",
    )
    _require(
        isinstance(record.get("ts"), int) and not isinstance(
            record["ts"], bool
        ),
        lineno, "span/event without integer ts",
    )
    if kind == "span":
        _require(
            isinstance(record.get("dur"), int) and record["dur"] >= 0,
            lineno, "span without non-negative integer dur",
        )
    attrs = record.get("attrs")
    if attrs is not None:
        _require(isinstance(attrs, dict), lineno, "attrs is not an object")


def validate_trace(records: List[Dict[str, Any]]) -> None:
    """Validate a full record list: header first, every line well-formed."""
    if not records:
        raise TraceSchemaError("empty trace")
    if records[0].get("kind") != "header":
        raise TraceSchemaError("trace does not start with a header record")
    for lineno, record in enumerate(records, start=1):
        validate_record(record, lineno)

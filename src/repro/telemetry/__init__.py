"""Telemetry: spans, events, metrics and trace exporters.

Instrumentation sites use the tiny module-level surface::

    from repro import telemetry
    from repro.telemetry import metrics

    tm = telemetry.get()            # None when disabled -> emit nothing
    mm = metrics.get()              # ditto, for aggregated counts
    with telemetry.span("placer.profile", runs=4):
        ...

Drivers opt in with :func:`enable` (or ``--trace`` on
``repro.experiments.run_all`` / ``repro.testkit``, whose shared flag
group is :mod:`repro.telemetry.flags`) and export via
:mod:`repro.telemetry.exporters`; metrics-only runs use
``metrics.enable`` (or ``--metrics``) and flush per-process JSONL
sidecars (:mod:`repro.telemetry.rollup`) that merge deterministically
across worker pools. ``python -m repro.telemetry`` has subcommands for
trace reports (``report``/``convert``), the merged metrics table or
Prometheus exposition (``metrics``) and crash forensics
(``postmortem``). See docs/observability.md; performance is measured
by the ``perfbench/`` benchmark (docs/performance.md).
"""

from repro.telemetry.core import (
    NULL_SPAN,
    SCHEMA_VERSION,
    TRACK_COMPILER,
    TRACK_RUNTIME,
    TRACK_STATIC,
    Counter,
    Gauge,
    Histogram,
    Telemetry,
    disable,
    enable,
    enabled,
    get,
    span,
    suspended,
)
from repro.telemetry.metrics import METRICS_SCHEMA, MetricsRegistry

__all__ = [
    "METRICS_SCHEMA",
    "NULL_SPAN",
    "SCHEMA_VERSION",
    "TRACK_COMPILER",
    "TRACK_RUNTIME",
    "TRACK_STATIC",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "disable",
    "enable",
    "enabled",
    "get",
    "span",
    "suspended",
]

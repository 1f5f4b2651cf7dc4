"""The telemetry core: spans, events and a metrics registry.

One process-global :class:`Telemetry` handle collects everything a traced
run produces:

- **spans** — named, timed phases (the placer pipeline, exporter work),
  stamped on the real-time clock in microseconds since :func:`enable`;
- **events** — instantaneous structured records (checkpoint saves,
  power failures, certified segment bounds), stamped either on the real
  clock or on an *emulated* time axis the caller supplies (the
  interpreter passes its :class:`~repro.emulator.power.PowerManager`
  timeline, in cycles);
- **metrics** — cheap named counters, gauges and histograms (RCG sizes,
  cache hits, Dijkstra pops), owned by a
  :class:`~repro.telemetry.metrics.MetricsRegistry` the handle carries.
  Enabling tracing installs that registry as the process-global metrics
  registry too (``metrics.get()``), so a trace always embeds its
  aggregated numbers; metrics can also be enabled *without* tracing via
  :func:`repro.telemetry.metrics.enable` for sidecar-only runs.

Zero overhead when disabled, by construction: the handle is ``None``
until :func:`enable` is called, every instrumentation site guards with
``tm = telemetry.get()`` / ``if tm is not None``, and the emulator's hot
loop is not instrumented at all (only the cold checkpoint/power-failure
paths are, so traced runs keep the compiled loop).
``tests/test_telemetry_identity.py`` pins the bit-identity of emulator
output with telemetry off; the ``perfbench/`` benchmark's untraced
passes measure the wall-clock.

Scoped attributes (:meth:`Telemetry.scope`) attach evaluation-grid
coordinates — benchmark, technique, EB — to every span and event emitted
inside the ``with`` block, so one trace of a full grid stays
self-describing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from . import metrics as metrics_mod
from .metrics import (  # noqa: F401 - re-exported by the package
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

#: Version stamped into every trace header; bump when the event schema
#: changes incompatibly (readers reject newer traces they cannot parse).
#: v2: metric records moved to the fixed-bucket registry shape
#: (histograms carry explicit ``bounds`` + dense ``buckets`` lists).
SCHEMA_VERSION = 2

#: The two standard tracks. Spans default to the compiler track (real
#: time, µs); runtime events carry emulated cycles on their own track.
TRACK_COMPILER = "compiler"
TRACK_RUNTIME = "runtime"
TRACK_STATIC = "static"


class _Span:
    """A live span; closes (and records itself) on ``__exit__``."""

    __slots__ = ("_tm", "name", "track", "attrs", "start_us")

    def __init__(self, tm: "Telemetry", name: str, track: str,
                 attrs: Dict[str, Any]):
        self._tm = tm
        self.name = name
        self.track = track
        self.attrs = attrs
        self.start_us = 0

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span after it opened."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        self.start_us = self._tm.now_us()
        return self

    def __exit__(self, *exc) -> bool:
        self._tm._record_span(self)
        return False


class _NullSpan:
    """The shared do-nothing span returned by the module helpers when
    telemetry is disabled — call sites need no branching."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Telemetry:
    """One trace in the making: events + metrics + scope stack."""

    def __init__(self, meta: Optional[Dict[str, Any]] = None,
                 clock_ns: Optional[Callable[[], int]] = None):
        """``clock_ns`` overrides the real-time source (tests use a fake
        clock for deterministic golden traces)."""
        self._clock_ns = clock_ns or time.perf_counter_ns
        self._t0_ns = self._clock_ns()
        self.meta: Dict[str, Any] = dict(meta or {})
        self.events: List[Dict[str, Any]] = []
        #: The aggregated-numbers half of the trace. ``enable`` installs
        #: this registry as the process-global one, so ``metrics.get()``
        #: and the tracing handle always agree on where counts land.
        self.metrics: MetricsRegistry = MetricsRegistry(meta=self.meta)
        #: Stack of merged scope-attribute dicts; the top applies to every
        #: span/event recorded while it is pushed.
        self._scopes: List[Dict[str, Any]] = []
        self._run_seq = 0

    # ------------------------------------------------------------- time

    def now_us(self) -> int:
        """Microseconds of real time since this handle was created."""
        return (self._clock_ns() - self._t0_ns) // 1000

    # ------------------------------------------------------------- scopes

    @contextmanager
    def scope(self, **attrs: Any) -> Iterator[None]:
        """Attach ``attrs`` to everything recorded inside the block."""
        merged = dict(self._scopes[-1]) if self._scopes else {}
        merged.update(attrs)
        self._scopes.append(merged)
        try:
            yield
        finally:
            self._scopes.pop()

    def scope_attrs(self) -> Dict[str, Any]:
        return self._scopes[-1] if self._scopes else {}

    # ------------------------------------------------------------- spans

    def span(self, name: str, track: str = TRACK_COMPILER,
             **attrs: Any) -> _Span:
        return _Span(self, name, track, attrs)

    def _record_span(self, span: _Span) -> None:
        record: Dict[str, Any] = {
            "kind": "span",
            "track": span.track,
            "name": span.name,
            "ts": span.start_us,
            "dur": max(self.now_us() - span.start_us, 0),
        }
        attrs = dict(self.scope_attrs())
        attrs.update(span.attrs)
        if attrs:
            record["attrs"] = attrs
        self.events.append(record)

    # ------------------------------------------------------------- events

    def event(self, name: str, track: str = TRACK_COMPILER,
              ts: Optional[int] = None, **fields: Any) -> None:
        """Record an instantaneous event. ``ts`` defaults to real time;
        runtime emitters pass their emulated-cycles timeline instead."""
        record: Dict[str, Any] = {
            "kind": "event",
            "track": track,
            "name": name,
            "ts": self.now_us() if ts is None else int(ts),
        }
        attrs = dict(self.scope_attrs())
        attrs.update(fields)
        if attrs:
            record["attrs"] = attrs
        self.events.append(record)

    def next_run_id(self) -> int:
        """A fresh id for one emulation run: runtime timelines restart at
        zero per run, so each run gets its own sub-track."""
        self._run_seq += 1
        return self._run_seq

    # ------------------------------------------------------------- metrics

    # All metric storage lives in the registry; these delegates keep the
    # historical ``tm.counter(...)`` call sites working unchanged.

    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str, agg: str = "max") -> Gauge:
        return self.metrics.gauge(name, agg=agg)

    def histogram(self, name: str) -> Histogram:
        return self.metrics.histogram(name)

    def metrics_snapshot(self) -> List[Dict[str, Any]]:
        return self.metrics.snapshot()


# ---------------------------------------------------------------- global


_ACTIVE: Optional[Telemetry] = None


def enable(meta: Optional[Dict[str, Any]] = None,
           clock_ns: Optional[Callable[[], int]] = None) -> Telemetry:
    """Install (and return) the process-global handle. Re-enabling
    replaces the previous handle. The handle's metrics registry is
    installed as the process-global one too (tracing implies metrics)."""
    global _ACTIVE
    _ACTIVE = Telemetry(meta=meta, clock_ns=clock_ns)
    metrics_mod._install(_ACTIVE.metrics)
    return _ACTIVE


def disable() -> Optional[Telemetry]:
    """Uninstall the global handle; returns it so callers can export.
    The shared metrics registry is uninstalled only if it is still the
    active one (a later, unrelated ``metrics.enable`` wins)."""
    global _ACTIVE
    tm = _ACTIVE
    _ACTIVE = None
    if tm is not None:
        metrics_mod._uninstall(tm.metrics)
    return tm


def get() -> Optional[Telemetry]:
    """The active handle, or None when telemetry is off. Instrumentation
    sites bind this once per compile/run and guard every emission."""
    return _ACTIVE


@contextmanager
def enabled(meta: Optional[Dict[str, Any]] = None,
            clock_ns: Optional[Callable[[], int]] = None) -> Iterator[Telemetry]:
    """``with telemetry.enabled() as tm:`` — enable for a block (tests)."""
    tm = enable(meta=meta, clock_ns=clock_ns)
    try:
        yield tm
    finally:
        disable()


def span(name: str, track: str = TRACK_COMPILER, **attrs: Any):
    """Module-level convenience: a real span when enabled, the shared
    no-op span otherwise. One dict-build + None-check when disabled."""
    tm = _ACTIVE
    if tm is None:
        return NULL_SPAN
    return tm.span(name, track=track, **attrs)


def count(name: str, n: int = 1) -> None:
    tm = _ACTIVE
    if tm is not None:
        tm.counter(name).add(n)

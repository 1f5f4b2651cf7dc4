"""The metrics registry: counters, gauges and exact fixed-bucket histograms.

This is the *aggregated-numbers* half of the telemetry subsystem — the
span/event tracer (:mod:`repro.telemetry.core`) answers "what happened,
when"; the registry answers "how much, in total": cells per second,
cache hit rates, checkpoint traffic, per-rule-family wall-clock.

Design constraints, in order:

- **zero overhead when disabled** — the process-global registry is
  ``None`` until :func:`enable` (or ``telemetry.enable``, which implies
  it) installs one; every instrumentation site binds ``mm = metrics.
  get()`` once and guards each emission with ``if mm is not None``.
  The emulator's hot loop is never instrumented — only cold paths
  (checkpoints, power failures, reboots) count anything, so enabling
  metrics does not change which interpreter loop runs and never changes
  any result (``tests/test_telemetry_metrics.py`` pins bit-identity);
- **deterministic cross-process merge** — evaluation fans out across
  worker processes (:mod:`repro.experiments.engine`), each of which
  accumulates its own registry and emits a JSONL *sidecar*
  (:mod:`repro.telemetry.rollup`). Merging must not depend on worker
  scheduling, so every merge operation is commutative and associative:
  counters and histograms add, gauges keep the maximum (the snapshot
  record names that policy as ``"agg": "max"``);
- **exact histograms** — buckets are a fixed, finite ladder of upper
  bounds chosen at creation (default: powers of two up to 2**20, plus
  overflow). Counts are exact integers, never sampled, so two merges of
  the same sidecars are equal to the last bit.

Metric names are dotted paths (``cache.hits``, ``interp.ckpt_saves``,
``engine.cells``). The instrument catalog lives in
docs/observability.md.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Version stamped into metrics sidecars and rollups; bump when the
#: snapshot record shape changes incompatibly.
METRICS_SCHEMA = 1

#: Default histogram bucket upper bounds: powers of two, 1 .. 2**20.
#: Values above the last bound land in the implicit overflow bucket.
DEFAULT_BOUNDS: Tuple[float, ...] = tuple(float(2 ** b) for b in range(21))


class MetricsError(ValueError):
    """A malformed metric record or an incompatible merge."""


class Counter:
    """A monotonically increasing named integer count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0):
        self.name = name
        self.value = value

    def add(self, n: int = 1) -> None:
        self.value += n

    def to_json(self) -> Dict[str, Any]:
        return {"kind": "counter", "name": self.name, "value": self.value}


class Gauge:
    """A named measurement. ``set`` is last-value-wins inside one
    process; *across* processes the sidecar merge keeps the maximum, so
    the rollup never depends on which worker's file is read first."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": "gauge", "name": self.name, "value": self.value,
            "agg": "max",
        }


class Histogram:
    """Exact fixed-bucket histogram: count/total/min/max plus one integer
    count per bucket. ``bounds`` are inclusive upper bounds; a final
    overflow bucket catches everything above the last bound, so
    ``len(buckets) == len(bounds) + 1`` and ``sum(buckets) == count``
    always."""

    __slots__ = ("name", "bounds", "buckets", "count", "total", "vmin",
                 "vmax")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise MetricsError(
                f"histogram {name!r}: bounds must be non-empty and "
                f"strictly increasing, got {bounds}"
            )
        self.name = name
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bound >= value (bisect_left on bounds)
            mid = (lo + hi) // 2
            if self.bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.buckets[lo] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": "histogram",
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """One process's metrics. Get-or-create accessors, a deterministic
    snapshot, and an in-place merge used by the cross-process rollup."""

    def __init__(self, meta: Optional[Dict[str, Any]] = None):
        self.meta: Dict[str, Any] = dict(meta or {})
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ----------------------------------------------------------- access

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BOUNDS) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name, bounds=bounds)
        return hist

    # ----------------------------------------------------------- export

    def snapshot(self) -> List[Dict[str, Any]]:
        """Every metric as a JSON record — counters, then gauges, then
        histograms, each name-sorted (deterministic by construction)."""
        out: List[Dict[str, Any]] = []
        for registry in (self._counters, self._gauges, self._histograms):
            for name in sorted(registry):
                out.append(registry[name].to_json())
        return out

    # ------------------------------------------------------------ merge

    def merge_records(self, records: Sequence[Dict[str, Any]]) -> None:
        """Fold snapshot records (another process's sidecar) into this
        registry. Commutative: merging sidecars in any order yields the
        same registry state."""
        for record in records:
            merge_record(self, record)


def merge_record(registry: MetricsRegistry, record: Dict[str, Any]) -> None:
    """Merge one snapshot record into ``registry`` (raises
    :class:`MetricsError` on malformed or incompatible records)."""
    validate_metric_record(record)
    kind = record["kind"]
    name = record["name"]
    if kind == "counter":
        registry.counter(name).add(int(record["value"]))
    elif kind == "gauge":
        gauge = registry.gauge(name)
        gauge.value = max(gauge.value, float(record["value"]))
    else:  # histogram
        bounds = tuple(float(b) for b in record["bounds"])
        hist = registry.histogram(name, bounds=bounds)
        if hist.bounds != bounds:
            raise MetricsError(
                f"histogram {name!r}: incompatible bucket bounds "
                f"{hist.bounds} vs {bounds}"
            )
        buckets = record["buckets"]
        if len(buckets) != len(hist.buckets):
            raise MetricsError(
                f"histogram {name!r}: {len(buckets)} bucket counts for "
                f"{len(hist.bounds)} bounds"
            )
        hist.count += int(record["count"])
        hist.total += float(record["total"])
        for i, n in enumerate(buckets):
            hist.buckets[i] += int(n)
        for attr, pick in (("vmin", min), ("vmax", max)):
            incoming = record["min" if attr == "vmin" else "max"]
            if incoming is None:
                continue
            current = getattr(hist, attr)
            setattr(
                hist, attr,
                float(incoming) if current is None
                else pick(current, float(incoming)),
            )


def validate_metric_record(record: Any) -> None:
    """Raise :class:`MetricsError` unless ``record`` is a well-formed
    snapshot record (the structural schema of sidecar lines)."""
    if not isinstance(record, dict):
        raise MetricsError(f"metric record is not an object: {record!r}")
    kind = record.get("kind")
    if kind not in ("counter", "gauge", "histogram"):
        raise MetricsError(f"unknown metric kind {kind!r}")
    name = record.get("name")
    if not isinstance(name, str) or not name:
        raise MetricsError(f"{kind} record without a name")
    if kind in ("counter", "gauge"):
        value = record.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MetricsError(f"{kind} {name!r} without a numeric value")
        if kind == "gauge" and record.get("agg", "max") != "max":
            raise MetricsError(
                f"gauge {name!r}: unknown aggregation {record.get('agg')!r}"
            )
        return
    for field in ("count", "total", "bounds", "buckets"):
        if field not in record:
            raise MetricsError(f"histogram {name!r} without {field!r}")
    if not isinstance(record["bounds"], list) or not isinstance(
        record["buckets"], list
    ):
        raise MetricsError(
            f"histogram {name!r}: bounds/buckets must be lists"
        )
    if len(record["buckets"]) != len(record["bounds"]) + 1:
        raise MetricsError(
            f"histogram {name!r}: expected {len(record['bounds']) + 1} "
            f"bucket counts, got {len(record['buckets'])}"
        )


# ---------------------------------------------------------------- global


_ACTIVE: Optional[MetricsRegistry] = None


def enable(meta: Optional[Dict[str, Any]] = None) -> MetricsRegistry:
    """Install (and return) the process-global registry. Re-enabling
    replaces the previous one. ``telemetry.enable`` (tracing) calls this
    implicitly — a trace always carries its metrics block."""
    global _ACTIVE
    _ACTIVE = MetricsRegistry(meta=meta)
    return _ACTIVE


def disable() -> Optional[MetricsRegistry]:
    """Uninstall the global registry; returns it so callers can export."""
    global _ACTIVE
    mm = _ACTIVE
    _ACTIVE = None
    return mm


def get() -> Optional[MetricsRegistry]:
    """The active registry, or None when metrics are off. Instrumentation
    sites bind this once per compile/run and guard every emission."""
    return _ACTIVE


def _install(registry: MetricsRegistry) -> None:
    """Install a specific registry (the tracing handle shares its own)."""
    global _ACTIVE
    _ACTIVE = registry


def _uninstall(registry: MetricsRegistry) -> None:
    """Uninstall ``registry`` iff it is the active one (so a tracer's
    disable never clobbers an unrelated registry installed later)."""
    global _ACTIVE
    if _ACTIVE is registry:
        _ACTIVE = None


@contextmanager
def enabled(
    meta: Optional[Dict[str, Any]] = None
) -> Iterator[MetricsRegistry]:
    """``with metrics.enabled() as mm:`` — enable for a block (tests)."""
    mm = enable(meta=meta)
    try:
        yield mm
    finally:
        _uninstall(mm)


def count(name: str, n: int = 1) -> None:
    """Module-level convenience: bump a counter when enabled, else no-op."""
    mm = _ACTIVE
    if mm is not None:
        mm.counter(name).add(n)

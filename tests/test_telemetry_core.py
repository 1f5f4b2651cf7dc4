"""Unit tests for the telemetry core: spans, scopes, metrics, the event
schema validator and the trace report.

Timing-sensitive assertions use an injectable fake clock so span
timestamps and durations are exact, not approximate.
"""

import pytest

from repro import telemetry
from repro.telemetry import metrics
from repro.telemetry.events import (
    TraceSchemaError,
    header_record,
    validate_record,
    validate_trace,
)
from repro.telemetry.report import analyze, headroom_violations, render


class FakeClock:
    """Deterministic nanosecond clock; advanced explicitly in µs."""

    def __init__(self):
        self.ns = 1_000_000

    def __call__(self):
        return self.ns

    def tick(self, us):
        self.ns += us * 1000


@pytest.fixture(autouse=True)
def _no_global_leak():
    """Every test must leave the process-global handle uninstalled."""
    yield
    assert telemetry.get() is None, "test leaked an enabled telemetry handle"
    telemetry.disable()


# -- core ---------------------------------------------------------------------


def test_disabled_helpers_are_no_ops():
    assert telemetry.get() is None
    span = telemetry.span("anything", x=1)
    assert span is telemetry.NULL_SPAN
    with span as s:
        s.set(y=2)  # must not raise
    telemetry.count("nothing")  # must not raise, records nowhere


def test_enable_disable_roundtrip():
    tm = telemetry.enable(meta={"tool": "test"})
    assert telemetry.get() is tm
    assert telemetry.disable() is tm
    assert telemetry.get() is None


def test_enabled_context_restores_disabled_state():
    with telemetry.enabled() as tm:
        assert telemetry.get() is tm
    assert telemetry.get() is None


def test_span_records_exact_timestamps():
    clock = FakeClock()
    with telemetry.enabled(clock_ns=clock) as tm:
        clock.tick(10)
        with tm.span("place", technique="schematic") as span:
            clock.tick(250)
            span.set(nodes=7)
    [record] = tm.events
    assert record == {
        "kind": "span",
        "track": telemetry.TRACK_COMPILER,
        "name": "place",
        "ts": 10,
        "dur": 250,
        "attrs": {"technique": "schematic", "nodes": 7},
    }


def test_scope_attrs_merge_and_nest():
    with telemetry.enabled() as tm:
        with tm.scope(benchmark="crc", eb=3000.0):
            with tm.scope(technique="ratchet", eb=42.0):
                tm.event("inner", ts=0)
            tm.event("outer", ts=1)
        tm.event("bare", ts=2)
    inner, outer, bare = tm.events
    assert inner["attrs"] == {
        "benchmark": "crc", "technique": "ratchet", "eb": 42.0,
    }
    assert outer["attrs"] == {"benchmark": "crc", "eb": 3000.0}
    assert "attrs" not in bare


def test_event_explicit_ts_is_emulated_timeline():
    with telemetry.enabled() as tm:
        tm.event("ckpt-save", track=telemetry.TRACK_RUNTIME, ts=12345,
                 ckpt=2)
    [record] = tm.events
    assert record["ts"] == 12345
    assert record["track"] == "runtime"


def test_metrics_registry_and_snapshot():
    with telemetry.enabled() as tm:
        tm.counter("rcg.nodes").add(5)
        tm.counter("rcg.nodes").add(2)
        tm.gauge("vm.bytes").set(512.0)
        hist = tm.histogram("window")
        for value in (0.5, 3.0, 100.0):
            hist.record(value)
        snapshot = {m["name"]: m for m in tm.metrics_snapshot()}
    assert snapshot["rcg.nodes"]["value"] == 7
    assert snapshot["vm.bytes"]["value"] == 512.0
    window = snapshot["window"]
    assert window["count"] == 3
    assert window["min"] == 0.5 and window["max"] == 100.0
    # 0.5 -> bucket 0 (<=1); 3.0 -> (2,4] bucket 2; 100 -> (64,128] bucket 7.
    # Exact fixed-bound buckets: one slot per bound plus one overflow.
    assert len(window["buckets"]) == len(window["bounds"]) + 1
    expected = [0] * len(window["buckets"])
    expected[0], expected[2], expected[7] = 1, 1, 1
    assert window["buckets"] == expected
    # The re-exported metric classes are the registry's own.
    assert (telemetry.Counter, telemetry.Gauge, telemetry.Histogram) == (
        metrics.Counter, metrics.Gauge, metrics.Histogram
    )


def test_run_ids_are_unique_and_sequential():
    with telemetry.enabled() as tm:
        assert [tm.next_run_id() for _ in range(3)] == [1, 2, 3]


# -- schema validation --------------------------------------------------------


def test_validator_accepts_well_formed_records():
    validate_record(header_record({"tool": "t"}))
    validate_record({"kind": "span", "track": "compiler", "name": "p",
                     "ts": 0, "dur": 1})
    validate_record({"kind": "event", "track": "runtime", "name": "e",
                     "ts": 7, "attrs": {"run": 1}})
    validate_record({"kind": "metrics", "metrics": []})


@pytest.mark.parametrize("record", [
    {"kind": "mystery"},
    {"kind": "span", "track": "compiler", "name": "p", "ts": 0},  # no dur
    {"kind": "event", "track": "runtime", "name": "e"},  # no ts
    {"kind": "event", "track": "runtime", "name": "e", "ts": 1.5},
    {"kind": "event", "track": "", "name": "e", "ts": 0},
    {"kind": "header", "schema": 99, "meta": {}},  # from the future
    {"kind": "event", "track": "runtime", "name": "e", "ts": 0,
     "attrs": "not-a-dict"},
])
def test_validator_rejects_malformed_records(record):
    with pytest.raises(TraceSchemaError):
        validate_record(record, lineno=3)


def test_trace_must_start_with_header():
    with pytest.raises(TraceSchemaError):
        validate_trace([{"kind": "metrics", "metrics": []}])
    with pytest.raises(TraceSchemaError):
        validate_trace([])
    validate_trace([header_record({})])


# -- report -------------------------------------------------------------------


def _trace_with(observed, bound, eb=1000.0):
    """A minimal trace: one certified segment with the given numbers."""
    attrs = {"benchmark": "crc", "technique": "schematic", "eb": eb,
             "ckpt": 1, "run": 1}
    return [
        header_record({"tool": "test"}),
        {"kind": "event", "track": "static", "name": "segment-bound",
         "ts": 0, "attrs": {**attrs, "bound_nj": bound, "eb_nj": eb}},
        {"kind": "event", "track": "runtime", "name": "ckpt-save",
         "ts": 10, "attrs": {**attrs, "window_nj": observed}},
    ]


def test_analyze_aggregates_observed_max_and_bound():
    records = _trace_with(observed=100.0, bound=150.0)
    records.append({
        "kind": "event", "track": "runtime", "name": "ckpt-save",
        "ts": 20, "attrs": {**records[2]["attrs"], "window_nj": 120.0},
    })
    summary = analyze(records)
    [seg] = summary.segments
    assert seg.observed_max == 120.0
    assert seg.bound == 150.0
    assert seg.closes == 2
    assert not seg.violates
    assert headroom_violations(summary) == []
    assert summary.runs == 1


def test_report_flags_headroom_violation():
    summary = analyze(_trace_with(observed=200.0, bound=150.0))
    assert [seg.ckpt for seg in headroom_violations(summary)] == [1]
    text = render(summary)
    assert "!!" in text
    assert "falsified" in text


def test_report_tolerates_float_jitter():
    summary = analyze(_trace_with(observed=150.0 + 1e-9, bound=150.0))
    assert headroom_violations(summary) == []


def test_uncertified_segment_is_not_a_violation():
    """Rollback-mode placements emit no bounds; observed-only rows must
    render blank, never flag."""
    records = _trace_with(observed=100.0, bound=150.0)[:1] + [{
        "kind": "event", "track": "runtime", "name": "ckpt-save",
        "ts": 5, "attrs": {"benchmark": "crc", "technique": "mementos",
                           "ckpt": 3, "run": 1, "window_nj": 999.0},
    }]
    summary = analyze(records)
    [seg] = summary.segments
    assert seg.bound is None and not seg.violates
    assert headroom_violations(summary) == []


def test_render_sections_and_traffic_totals():
    records = _trace_with(observed=100.0, bound=150.0)
    records.append({"kind": "span", "track": "compiler", "name": "place",
                    "ts": 0, "dur": 2500})
    records.append({"kind": "event", "track": "runtime",
                    "name": "power-failure", "ts": 30,
                    "attrs": {"run": 1}})
    summary = analyze(records)
    text = render(summary)
    assert "segment-energy headroom" in text
    assert "headroom ok: 1 certified segment(s)" in text
    assert "ckpt-save" in text and "power-failure" in text
    assert "compile-phase breakdown" in text and "place" in text


def test_render_top_limits_table():
    records = [header_record({})]
    for ckpt in range(5):
        records.append({
            "kind": "event", "track": "runtime", "name": "ckpt-save",
            "ts": ckpt, "attrs": {"benchmark": "b", "technique": "t",
                                  "ckpt": ckpt, "run": 1,
                                  "window_nj": float(ckpt)},
        })
    text = render(analyze(records), top=2)
    assert "... 3 cooler segments not shown" in text

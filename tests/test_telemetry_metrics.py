"""The metrics registry: counters, gauges, exact histograms, the
order-independent merge, the process-global handle discipline, and the
Prometheus / table renderers.

The registry's contract is what makes the cross-worker rollup sound:
every merge is commutative and associative, snapshots are name-sorted,
and enabling metrics never changes an evaluation result (bit-identity is
pinned at the interpreter level here and end-to-end in
``tests/test_run_all_metrics.py``).
"""

import dataclasses

import pytest

from repro import telemetry
from repro.telemetry import metrics
from repro.telemetry.metrics import (
    DEFAULT_BOUNDS,
    MetricsError,
    MetricsRegistry,
    merge_record,
    validate_metric_record,
)
from repro.telemetry.prom import prom_name, render, render_table


@pytest.fixture(autouse=True)
def _no_leak():
    yield
    assert metrics.get() is None, "a test leaked the global registry"
    metrics.disable()


# -- instruments --------------------------------------------------------------


def test_counter_accumulates_and_snapshots():
    reg = MetricsRegistry()
    reg.counter("a.b").add(3)
    reg.counter("a.b").add()
    [rec] = reg.snapshot()
    assert rec == {"kind": "counter", "name": "a.b", "value": 4}


def test_gauge_set_is_last_value_wins_in_process():
    reg = MetricsRegistry()
    g = reg.gauge("vm.peak")
    g.set(10)
    g.set(4)
    [rec] = reg.snapshot()
    assert rec["value"] == 4.0 and rec["agg"] == "max"


def test_gauge_rejects_unknown_aggregation():
    with pytest.raises(MetricsError, match="unknown aggregation"):
        MetricsRegistry().gauge("g", agg="median")


def test_histogram_exact_bucketing():
    reg = MetricsRegistry()
    h = reg.histogram("win")
    for value in (0.5, 3.0, 100.0, 2.0 ** 30):
        h.record(value)
    rec = h.to_json()
    assert rec["count"] == 4
    assert rec["min"] == 0.5 and rec["max"] == 2.0 ** 30
    assert len(rec["buckets"]) == len(DEFAULT_BOUNDS) + 1
    # 0.5 <= 1 -> 0; 3.0 in (2,4] -> 2; 100 in (64,128] -> 7; 2**30
    # exceeds the last bound -> overflow bucket.
    assert rec["buckets"][0] == 1
    assert rec["buckets"][2] == 1
    assert rec["buckets"][7] == 1
    assert rec["buckets"][-1] == 1
    assert sum(rec["buckets"]) == rec["count"]


def test_histogram_rejects_bad_bounds():
    with pytest.raises(MetricsError, match="strictly increasing"):
        MetricsRegistry().histogram("h", bounds=(1.0, 1.0, 2.0))
    with pytest.raises(MetricsError, match="strictly increasing"):
        MetricsRegistry().histogram("h", bounds=())


def test_snapshot_is_name_sorted_by_kind():
    reg = MetricsRegistry()
    reg.histogram("z")
    reg.gauge("m")
    reg.counter("b")
    reg.counter("a")
    names = [r["name"] for r in reg.snapshot()]
    assert names == ["a", "b", "m", "z"]  # counters, gauges, histograms


# -- merge --------------------------------------------------------------------


def _registry_with(counter=0, gauge=None, hist_values=()):
    reg = MetricsRegistry()
    if counter:
        reg.counter("c").add(counter)
    if gauge is not None:
        reg.gauge("g").set(gauge)
    for value in hist_values:
        reg.histogram("h").record(value)
    return reg


def test_merge_is_order_independent():
    parts = [
        _registry_with(counter=2, gauge=5.0, hist_values=(1.0,)).snapshot(),
        _registry_with(counter=3, gauge=9.0, hist_values=(3.0,)).snapshot(),
        _registry_with(counter=7, gauge=1.0, hist_values=(100.0,)).snapshot(),
    ]
    forward = MetricsRegistry()
    for part in parts:
        forward.merge_records(part)
    backward = MetricsRegistry()
    for part in reversed(parts):
        backward.merge_records(part)
    assert forward.snapshot() == backward.snapshot()
    assert forward.counter("c").value == 12
    assert forward.gauge("g").value == 9.0  # max policy
    assert forward.histogram("h").count == 3


def test_merge_gauge_policies():
    for agg, expected in (("max", 9.0), ("min", 2.0), ("sum", 11.0)):
        a = MetricsRegistry()
        a.gauge("g", agg=agg).set(2.0)
        b = MetricsRegistry()
        b.gauge("g", agg=agg).set(9.0)
        a.merge_records(b.snapshot())
        assert a.gauge("g", agg=agg).value == expected, agg


def test_merge_rejects_conflicting_gauge_aggregations():
    a = MetricsRegistry()
    a.gauge("g", agg="max").set(1.0)
    b = MetricsRegistry()
    b.gauge("g", agg="sum").set(1.0)
    with pytest.raises(MetricsError, match="conflicting aggregations"):
        a.merge_records(b.snapshot())


def test_merge_rejects_incompatible_histogram_bounds():
    a = MetricsRegistry()
    a.histogram("h", bounds=(1.0, 2.0)).record(1.0)
    b = MetricsRegistry()
    b.histogram("h", bounds=(1.0, 4.0)).record(1.0)
    with pytest.raises(MetricsError, match="incompatible bucket bounds"):
        a.merge_records(b.snapshot())


def test_merge_folds_histogram_min_max():
    a = MetricsRegistry()
    a.histogram("h").record(5.0)
    b = MetricsRegistry()
    b.histogram("h").record(0.25)
    b.histogram("h").record(900.0)
    a.merge_records(b.snapshot())
    h = a.histogram("h")
    assert h.count == 3 and h.vmin == 0.25 and h.vmax == 900.0


@pytest.mark.parametrize("record", [
    "not-a-dict",
    {"kind": "mystery", "name": "x"},
    {"kind": "counter", "name": ""},
    {"kind": "counter", "name": "c"},  # no value
    {"kind": "counter", "name": "c", "value": True},  # bool is not a count
    {"kind": "gauge", "name": "g", "value": 1.0, "agg": "median"},
    {"kind": "histogram", "name": "h", "count": 1, "total": 1.0,
     "bounds": [1.0]},  # no buckets
    {"kind": "histogram", "name": "h", "count": 1, "total": 1.0,
     "bounds": [1.0], "buckets": [1]},  # must be len(bounds)+1
])
def test_validator_rejects_malformed_records(record):
    with pytest.raises(MetricsError):
        validate_metric_record(record)
    with pytest.raises(MetricsError):
        merge_record(MetricsRegistry(), record)


# -- the process-global handle ------------------------------------------------


def test_module_count_is_a_noop_when_disabled():
    assert metrics.get() is None
    metrics.count("orphan")  # must not raise, must not create anything
    with metrics.enabled() as mm:
        metrics.count("live", 2)
        assert mm.counter("live").value == 2
    assert metrics.get() is None


def test_tracing_implies_metrics_shared_registry():
    with telemetry.enabled() as tm:
        assert metrics.get() is tm.metrics
        metrics.count("via.module")
        tm.metrics.counter("via.handle").add(1)
        snapshot = {m["name"] for m in tm.metrics.snapshot()}
    assert {"via.module", "via.handle"} <= snapshot
    assert metrics.get() is None, "telemetry.disable must uninstall"


def test_tracer_disable_does_not_clobber_a_newer_registry():
    tm = telemetry.enable()
    fresh = metrics.enable()  # replaces the tracer's registry
    telemetry.disable()
    assert metrics.get() is fresh
    metrics.disable()


def test_suspended_records_nothing_and_restores_both_handles():
    with telemetry.enabled() as tm:
        with telemetry.suspended():
            assert telemetry.get() is None and metrics.get() is None
            metrics.count("hidden")
        assert telemetry.get() is tm and metrics.get() is tm.metrics
        metrics.count("shown")
    names = {m["name"] for m in tm.metrics.snapshot()}
    assert names == {"shown"}


def test_metrics_only_compile_records_placer_counters():
    """The RCG counters are metrics: a metrics-only run records them."""
    from repro.testkit.corpus import compile_for, load_program
    from repro.energy import msp430fr5969_platform

    bench = load_program("crc")
    with metrics.enabled() as mm:
        compiled = compile_for(
            "schematic", bench.module, msp430fr5969_platform(eb=3000.0),
            input_generator=bench.input_generator(),
        )
        counters = {
            r["name"]: r["value"]
            for r in mm.snapshot() if r["kind"] == "counter"
        }
    assert compiled.feasible
    assert counters.get("placer.rcg.runs", 0) > 0


# -- bit-identity: metrics never change results -------------------------------


def test_metrics_do_not_change_interpreter_results_or_loop():
    from repro.emulator.interpreter import run_continuous
    from repro.energy import msp430fr5969_platform
    from repro.programs import get_benchmark

    bench = get_benchmark("crc")
    model = msp430fr5969_platform().model
    plain = run_continuous(
        bench.module, model, inputs=bench.default_inputs()
    )
    with metrics.enabled() as mm:
        metered = run_continuous(
            bench.module, model, inputs=bench.default_inputs()
        )
        counters = {
            r["name"]: r["value"]
            for r in mm.snapshot() if r["kind"] == "counter"
        }
    assert dataclasses.asdict(plain) == dataclasses.asdict(metered)
    # The registry must not disqualify the compiled hot loop.
    assert counters.get("interp.loop.compiled", 0) >= 1
    assert counters.get("interp.runs") == 1


# -- exposition ---------------------------------------------------------------


def test_prom_name_sanitizes():
    assert prom_name("cache.hits") == "repro_cache_hits"
    assert prom_name("staticcheck.family_us.idempotency") == (
        "repro_staticcheck_family_us_idempotency"
    )
    assert prom_name("weird-name!x") == "repro_weird_name_x"


def test_prometheus_exposition_shapes():
    reg = MetricsRegistry()
    reg.counter("cache.hits").add(3)
    reg.gauge("engine.jobs").set(4)
    h = reg.histogram("win", bounds=(1.0, 2.0))
    h.record(0.5)
    h.record(5.0)
    text = render(reg)
    assert "# TYPE repro_cache_hits_total counter" in text
    assert "repro_cache_hits_total 3" in text
    assert "repro_engine_jobs 4" in text
    # Cumulative buckets with +Inf, plus _sum/_count.
    assert 'repro_win_bucket{le="1"} 1' in text
    assert 'repro_win_bucket{le="2"} 1' in text
    assert 'repro_win_bucket{le="+Inf"} 2' in text
    assert "repro_win_sum 5.5" in text
    assert "repro_win_count 2" in text


def test_table_renders_empty_registry():
    assert "no metrics recorded" in render_table(MetricsRegistry())

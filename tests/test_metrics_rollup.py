"""Sidecars and the cross-process rollup: write/read roundtrip, the
interleaved multi-process merge, malformed-sidecar rejection, the cache
stats bridge, and the ``python -m repro.telemetry metrics`` CLI
including its exit codes on malformed and empty inputs and on the
retired subcommand and format.
"""

import json

import pytest

from repro import telemetry
from repro.telemetry import metrics
from repro.telemetry.__main__ import main as telemetry_main
from repro.telemetry.metrics import MetricsError, MetricsRegistry
from repro.telemetry.rollup import (
    publish_cache_stats,
    read_sidecar,
    rollup_directory,
    rollup_json,
    sidecar_path,
    write_sidecar,
)


@pytest.fixture(autouse=True)
def _no_leak():
    yield
    assert metrics.get() is None
    metrics.disable()
    telemetry.disable()


def _worker_registry(pid, counter, gauge, hist_values):
    reg = MetricsRegistry(meta={"role": "worker", "pid": pid})
    reg.counter("cells").add(counter)
    reg.gauge("heartbeat").set(gauge)
    for v in hist_values:
        reg.histogram("lat").record(v)
    return reg


def test_sidecar_roundtrip(tmp_path):
    reg = _worker_registry(11, 5, 9.0, (1.0, 3.0))
    path = write_sidecar(reg, str(tmp_path), pid=11)
    assert path == sidecar_path(str(tmp_path), pid=11)
    header = json.loads(open(path).readline())
    assert header["kind"] == "metrics_header" and header["pid"] == 11
    back = MetricsRegistry()
    back.merge_records(read_sidecar(path))
    assert back.snapshot() == reg.snapshot()


def test_sidecar_rewrite_is_idempotent(tmp_path):
    """Re-flushing a live registry (the per-cell flush) must overwrite,
    not append — the merged value stays the live value."""
    reg = _worker_registry(7, 3, 1.0, ())
    write_sidecar(reg, str(tmp_path), pid=7)
    reg.counter("cells").add(2)
    write_sidecar(reg, str(tmp_path), pid=7)
    merged = rollup_directory(str(tmp_path))
    assert merged.counter("cells").value == 5


def test_interleaved_multi_process_merge_is_order_independent(tmp_path):
    """Three 'workers' flushing interleaved snapshots: the directory
    rollup equals the in-order sum regardless of which sidecar is read
    first (filenames sort differently than write order here)."""
    workers = [
        _worker_registry(900, 2, 5.0, (1.0,)),
        _worker_registry(5, 3, 9.0, (3.0,)),
        _worker_registry(77, 7, 1.0, (100.0,)),
    ]
    # Interleaved flushes, each rewriting its own file several times.
    for round_ in range(3):
        for reg in workers:
            reg.counter("rounds").add(1)
            write_sidecar(reg, str(tmp_path), pid=reg.meta["pid"])
    merged = rollup_directory(str(tmp_path))
    assert merged.counter("cells").value == 12
    assert merged.counter("rounds").value == 9
    assert merged.gauge("heartbeat").value == 9.0
    h = merged.histogram("lat")
    assert h.count == 3 and h.vmin == 1.0 and h.vmax == 100.0
    # Merging into a pre-populated parent registry adds on top.
    parent = MetricsRegistry()
    parent.counter("cells").add(1)
    rollup_directory(str(tmp_path), into=parent)
    assert parent.counter("cells").value == 13


def test_rollup_ignores_foreign_files(tmp_path):
    (tmp_path / "notes.txt").write_text("not a sidecar\n")
    (tmp_path / "manifest.json").write_text("{}\n")
    assert rollup_directory(str(tmp_path)).snapshot() == []


@pytest.mark.parametrize("content,match", [
    ("", "empty sidecar"),
    ("{not json}\n", "not valid JSON"),
    ('{"kind": "counter", "name": "c", "value": 1}\n', "must start with"),
    ('{"kind": "metrics_header", "schema": 99}\n', "schema"),
    (
        '{"kind": "metrics_header", "schema": 1}\n'
        '{"kind": "counter", "name": ""}\n',
        "without a name",
    ),
])
def test_read_sidecar_rejects_malformed(tmp_path, content, match):
    path = tmp_path / "metrics-1.jsonl"
    path.write_text(content)
    with pytest.raises(MetricsError, match=match):
        read_sidecar(str(path))


def test_rollup_json_shape():
    reg = MetricsRegistry()
    reg.counter("c").add(1)
    doc = rollup_json(reg)
    assert doc["schema"] == metrics.METRICS_SCHEMA
    assert doc["metrics"] == reg.snapshot()


# -- stats bridges ------------------------------------------------------------


def test_publish_cache_stats_emits_trace_compatible_names():
    reg = MetricsRegistry()
    publish_cache_stats(reg, {
        "root": "/x", "hits": 2, "misses": 1, "stores": 1, "pruned": 0,
        "categories": {"run": {"hits": 2, "misses": 1, "stores": 1}},
    })
    counters = {r["name"]: r["value"] for r in reg.snapshot()}
    assert counters == {
        "cache.hits": 2, "cache.misses": 1, "cache.stores": 1,
        "cache.run.hits": 2, "cache.run.misses": 1, "cache.run.stores": 1,
    }


# -- the CLI ------------------------------------------------------------------


def test_cli_metrics_renders_directory_table(tmp_path, capsys):
    write_sidecar(_worker_registry(1, 4, 2.0, ()), str(tmp_path), pid=1)
    write_sidecar(_worker_registry(2, 6, 7.0, ()), str(tmp_path), pid=2)
    assert telemetry_main(["metrics", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "cells" in out and "10" in out
    assert "7 (gauge/max)" in out


def test_cli_metrics_jsonl_format(tmp_path):
    write_sidecar(_worker_registry(1, 4, 2.0, ()), str(tmp_path), pid=1)
    out_path = tmp_path / "rollup.jsonl"
    assert telemetry_main([
        "metrics", str(tmp_path), "--format", "jsonl",
        "-o", str(out_path),
    ]) == 0
    records = [
        json.loads(line) for line in out_path.read_text().splitlines()
    ]
    assert {"kind": "counter", "name": "cells", "value": 4} in records


def test_cli_metrics_reads_a_trace_metrics_block(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    with telemetry.enabled() as tm:
        tm.metrics.counter("from.trace").add(3)
    from repro.telemetry.exporters import write_jsonl

    write_jsonl(tm, trace)
    assert telemetry_main(["metrics", str(trace)]) == 0
    assert "from.trace" in capsys.readouterr().out


def test_cli_metrics_empty_directory_is_ok(tmp_path, capsys):
    assert telemetry_main(["metrics", str(tmp_path)]) == 0
    assert "no metrics recorded" in capsys.readouterr().out


def test_cli_metrics_exit_codes_on_bad_input(tmp_path, capsys):
    assert telemetry_main(["metrics", str(tmp_path / "missing")]) == 2

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert telemetry_main(["metrics", str(empty)]) == 2

    bad_sidecar = tmp_path / "metrics-9.jsonl"
    bad_sidecar.write_text('{"kind": "metrics_header", "schema": 1}\n{oops\n')
    assert telemetry_main(["metrics", str(bad_sidecar)]) == 2

    bad_trace = tmp_path / "trace.jsonl"
    bad_trace.write_text(
        '{"kind": "header", "schema": 1, "meta": {}}\n'
        '{"kind": "event", "track": "runtime", "name": "e"}\n'  # no ts
    )
    assert telemetry_main(["metrics", str(bad_trace)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["postmortem", "{dir}"],
    ["metrics", "{dir}", "--format", "prom"],
], ids=["postmortem", "format-prom"])
def test_cli_retired_surface_is_a_usage_error(tmp_path, capsys, argv):
    """The crash-bundle subcommand and the Prometheus format are gone;
    asking for either is argparse's usage error, not a silent no-op."""
    with pytest.raises(SystemExit) as exc:
        telemetry_main([a.format(dir=tmp_path) for a in argv])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# -- injected clock -----------------------------------------------------------


def test_injected_clock_keeps_spans_monotonic():
    """A jittery injected clock (the test seam for golden traces) must
    never produce a negative span duration or reorder the timeline."""
    ticks = iter([1_000, 5_000_000, 3_000_000, 8_000_000])
    tm = telemetry.enable(clock_ns=lambda: next(ticks))
    try:
        with tm.span("wobbly"):
            pass
        tm.event("after", track=telemetry.TRACK_RUNTIME, ts=7)
    finally:
        telemetry.disable()
    [span] = [r for r in tm.events if r.get("kind") == "span"]
    assert span["dur"] == 0, "backwards clock must clamp, not go negative"
    assert span["ts"] >= 0

"""Exporter tests: JSONL round-trip, Chrome trace validity and per-track
timestamp monotonicity, and the ``python -m repro.telemetry`` CLI.

The Chrome golden test drives a fake clock so the expected structure is
exact; the monotonicity test is the load-bearing one — Perfetto and
``chrome://tracing`` silently mis-render tracks whose events travel back
in time, which is easy to cause because each emulation run's timeline
restarts at zero (hence one tid per run).
"""

import json

import pytest

from repro import telemetry
from repro.telemetry import __main__ as cli
from repro.telemetry.events import TraceSchemaError, header_record
from repro.telemetry.exporters import (
    chrome_trace,
    export,
    read_jsonl,
    trace_records,
    write_chrome,
    write_jsonl,
)


class FakeClock:
    def __init__(self):
        self.ns = 0

    def __call__(self):
        return self.ns

    def tick(self, us):
        self.ns += us * 1000


@pytest.fixture(autouse=True)
def _no_global_leak():
    yield
    assert telemetry.get() is None, "test leaked an enabled telemetry handle"
    telemetry.disable()


def _sample_handle():
    """A deterministic two-run trace exercising every record kind."""
    clock = FakeClock()
    with telemetry.enabled(meta={"tool": "test"}, clock_ns=clock) as tm:
        with tm.span("place", technique="schematic"):
            clock.tick(100)
        tm.event("segment-bound", track=telemetry.TRACK_STATIC, ts=0,
                 ckpt=1, bound_nj=50.0, eb_nj=100.0)
        for run in (1, 2):
            with tm.scope(benchmark="b", technique="schematic", run=run):
                tm.event("run-begin", track=telemetry.TRACK_RUNTIME, ts=0)
                tm.event("ckpt-save", track=telemetry.TRACK_RUNTIME,
                         ts=40, ckpt=1, window_nj=12.0)
                tm.event("run-end", track=telemetry.TRACK_RUNTIME, ts=60,
                         completed=True)
        tm.metrics.counter("engine.cells").add(4)
    return tm


# -- JSONL --------------------------------------------------------------------


def test_jsonl_roundtrip_preserves_records(tmp_path):
    tm = _sample_handle()
    path = write_jsonl(tm, tmp_path / "t.jsonl")
    records = read_jsonl(path)
    assert records == trace_records(tm)
    assert records[0]["kind"] == "header"
    assert records[0]["meta"] == {"tool": "test"}
    assert records[-1]["kind"] == "metrics"
    [metric] = records[-1]["metrics"]
    assert metric == {"kind": "counter", "name": "engine.cells", "value": 4}


def test_read_jsonl_rejects_schema_violations(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps(header_record({})) + "\n"
        + json.dumps({"kind": "event", "track": "runtime", "name": "e"})
        + "\n"
    )
    with pytest.raises(TraceSchemaError, match="line 2"):
        read_jsonl(path)


def test_read_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(header_record({})) + "\n\n\n")
    assert len(read_jsonl(path)) == 1


# -- Chrome -------------------------------------------------------------------


def test_chrome_trace_golden():
    """Exact structure for a deterministic trace (fake clock): process
    names, the compiler span, per-run runtime threads and the synthesized
    segment bar."""
    tm = _sample_handle()
    doc = chrome_trace(trace_records(tm))
    assert doc["otherData"] == {"tool": "test"}

    names = [
        (e["pid"], e["args"]["name"])
        for e in doc["traceEvents"] if e["ph"] == "M"
    ]
    assert names == [
        (1, "compiler (real time, us)"),
        (2, "static certifier"),
        (3, "runtime (emulated cycles)"),
    ]

    span = next(e for e in doc["traceEvents"] if e["name"] == "place")
    assert span == {
        "name": "place", "cat": "compiler", "pid": 1, "tid": 0,
        "ts": 0, "dur": 100, "ph": "X",
        "args": {"technique": "schematic"},
    }

    # One synthesized segment bar per run, spanning run-begin -> save.
    segments = [e for e in doc["traceEvents"] if e.get("cat") == "segment"]
    assert [(s["pid"], s["tid"], s["ts"], s["dur"]) for s in segments] == [
        (3, 1, 0, 40), (3, 2, 0, 40),
    ]
    assert segments[0]["name"] == "segment -> #1"
    assert segments[0]["args"] == {"ckpt": 1, "window_nj": 12.0}


def test_chrome_trace_is_valid_json_and_monotonic(tmp_path):
    tm = _sample_handle()
    path = write_chrome(trace_records(tm), tmp_path / "t.chrome.json")
    doc = json.loads(path.read_text())
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]

    last = {}
    for entry in doc["traceEvents"]:
        if entry["ph"] == "M":
            continue
        for key in ("name", "ph", "pid", "tid", "ts"):
            assert key in entry
        track = (entry["pid"], entry["tid"])
        assert entry["ts"] >= last.get(track, 0), (
            f"track {track} travels back in time at {entry['name']}"
        )
        last[track] = entry["ts"]


def test_chrome_runs_get_distinct_threads():
    """Two runs whose timelines both start at zero must land on distinct
    tids — merging them would interleave out of order."""
    tm = _sample_handle()
    doc = chrome_trace(trace_records(tm))
    tids = {
        e["tid"] for e in doc["traceEvents"]
        if e["pid"] == 3 and e["ph"] != "M"
    }
    assert tids == {1, 2}


def test_export_writes_the_artifact_pair(tmp_path):
    tm = _sample_handle()
    paths = export(tm, tmp_path / "traces", prefix="unit")
    assert paths["jsonl"].name == "unit.jsonl"
    assert paths["chrome"].name == "unit.chrome.json"
    assert read_jsonl(paths["jsonl"]) == trace_records(tm)
    json.loads(paths["chrome"].read_text())


# -- CLI ----------------------------------------------------------------------


def _write_trace(tmp_path, observed, bound):
    records = [
        header_record({"tool": "test"}),
        {"kind": "event", "track": "static", "name": "segment-bound",
         "ts": 0, "attrs": {"benchmark": "b", "technique": "t", "ckpt": 1,
                            "bound_nj": bound, "eb_nj": 100.0}},
        {"kind": "event", "track": "runtime", "name": "ckpt-save",
         "ts": 5, "attrs": {"benchmark": "b", "technique": "t", "ckpt": 1,
                            "run": 1, "window_nj": observed}},
    ]
    path = tmp_path / "trace.jsonl"
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return path


def test_cli_report_ok_exits_zero(tmp_path, capsys):
    path = _write_trace(tmp_path, observed=40.0, bound=50.0)
    assert cli.main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "headroom ok" in out


def test_cli_report_violation_exits_one(tmp_path, capsys):
    path = _write_trace(tmp_path, observed=60.0, bound=50.0)
    assert cli.main(["report", str(path)]) == 1
    assert "!!" in capsys.readouterr().out


def test_cli_report_missing_or_invalid_trace_exits_two(tmp_path, capsys):
    assert cli.main(["report", str(tmp_path / "absent.jsonl")]) == 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"kind": "event"}\n')
    assert cli.main(["report", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_convert_writes_chrome_json(tmp_path, capsys):
    path = _write_trace(tmp_path, observed=40.0, bound=50.0)
    out = tmp_path / "out.json"
    assert cli.main(["convert", str(path), "-o", str(out)]) == 0
    json.loads(out.read_text())
    # Default output name derives from the trace path.
    assert cli.main(["convert", str(path)]) == 0
    assert (tmp_path / "trace.chrome.json").exists()

"""The ``run_all`` CLI plumbing: the ``--json`` run manifest and the
``--trace``/``--trace-dir`` artifact pair.

The real experiment sections take minutes, so these tests swap
``SECTIONS`` for a stub that still exercises the shared context — it
touches the artifact cache and emits a telemetry span — and assert on
the machine-readable outputs end to end.
"""

import json

import pytest

from repro import telemetry
from repro.experiments import run_all
from repro.runner.cache import ArtifactCache
from repro.telemetry import metrics
from repro.telemetry.exporters import read_jsonl


class _FakeResult:
    def render(self):
        return "fake section body"


class _FakeSection:
    """Stands in for a table/figure module: ``run(ctx)`` -> renderable."""

    @staticmethod
    def run(ctx):
        if ctx.cache is not None:
            key = ArtifactCache.key("fake")
            ctx.cache.get("run", key)  # miss
            ctx.cache.put("run", key, 42)
            ctx.cache.get("run", key)  # hit
        metrics.count("fake.sections")
        return _FakeResult()


@pytest.fixture(autouse=True)
def _stub_sections(monkeypatch):
    monkeypatch.setattr(run_all, "SECTIONS", [("Fake", _FakeSection)])
    yield
    assert telemetry.get() is None, "run_all leaked the telemetry handle"
    telemetry.disable()


def test_json_manifest_without_tracing(tmp_path, capfd):
    manifest_path = tmp_path / "out" / "manifest.json"
    run_all.main([
        "--benchmarks", "crc",
        "--cache-dir", str(tmp_path / "cache"),
        "--json", str(manifest_path),
    ])
    out = capfd.readouterr()
    assert "fake section body" in out.out
    assert "manifest:" in out.err

    manifest = json.loads(manifest_path.read_text())
    assert manifest["schema_version"] == run_all.MANIFEST_SCHEMA == 6
    # v3: every cell is emulated cold, so no emulation-mode block; v4:
    # the power model is part of each run key, so no failure-model key;
    # v5: translation validation always runs, so no enabled key; v6:
    # the analysis memo's hit/miss counters sit beside transval's.
    assert set(manifest) == {
        "schema_version", "tool", "python", "jobs", "profile_runs", "benchmarks", "fingerprints", "sections",
        "prefill", "cache", "transval", "analysis_memo", "trace", "metrics",
        "total_seconds",
    }
    assert manifest["tool"] == "repro.experiments.run_all"
    assert manifest["benchmarks"] == ["crc"]
    assert manifest["jobs"] == 1
    assert manifest["trace"] is None
    assert manifest["metrics"] is None, "no metrics rollup without --metrics"

    [section] = manifest["sections"]
    assert section["title"] == "Fake"
    assert section["seconds"] >= 0
    assert manifest["total_seconds"] >= section["seconds"]

    fp = manifest["fingerprints"]
    assert set(fp["modules"]) == {"crc"} and set(fp["inputs"]) == {"crc"}
    assert isinstance(fp["platform"], str) and fp["platform"]

    cache = manifest["cache"]
    assert cache["hits"] == 1 and cache["misses"] == 1
    assert cache["categories"]["run"]["stores"] == 1


def test_trace_dir_implies_tracing_and_writes_artifacts(tmp_path, capfd):
    trace_dir = tmp_path / "traces"
    manifest_path = tmp_path / "manifest.json"
    run_all.main([
        "--benchmarks", "crc",
        "--no-cache",
        "--trace-dir", str(trace_dir),
        "--json", str(manifest_path),
    ])
    err = capfd.readouterr().err
    assert "trace (events):" in err

    records = read_jsonl(trace_dir / "run_all.jsonl")
    assert records[0]["meta"]["tool"] == "repro.experiments.run_all"
    spans = [r for r in records if r.get("kind") == "span"]
    assert any(
        r["name"] == "experiments.section"
        and r["attrs"]["section"] == "Fake"
        for r in spans
    )
    counters = {
        m["name"]: m["value"] for m in records[-1]["metrics"]
        if m["kind"] == "counter"
    }
    assert counters["fake.sections"] == 1

    chrome = json.loads((trace_dir / "run_all.chrome.json").read_text())
    assert chrome["traceEvents"]

    manifest = json.loads(manifest_path.read_text())
    assert manifest["cache"] is None
    assert manifest["trace"] == {
        "jsonl": str(trace_dir / "run_all.jsonl"),
        "chrome": str(trace_dir / "run_all.chrome.json"),
    }


def test_cache_counters_are_mirrored_into_the_trace(tmp_path):
    trace_dir = tmp_path / "traces"
    run_all.main([
        "--benchmarks", "crc",
        "--cache-dir", str(tmp_path / "cache"),
        "--trace-dir", str(trace_dir),
    ])
    records = read_jsonl(trace_dir / "run_all.jsonl")
    metrics = {
        m["name"]: m["value"] for m in records[-1]["metrics"]
        if m["kind"] == "counter"
    }
    assert metrics["cache.hits"] == 1
    assert metrics["cache.misses"] == 1
    assert metrics["cache.stores"] == 1


def test_emulation_mode_flags_are_gone(capfd):
    """Every cell runs cold: the old differential-emulation switch is an
    unknown flag, not a silently accepted no-op."""
    for flag in ("--diff-emulation", "--no-diff-emulation"):
        with pytest.raises(SystemExit) as exc:
            run_all.main(["--benchmarks", "crc", flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capfd.readouterr().err

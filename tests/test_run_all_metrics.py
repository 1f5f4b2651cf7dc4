"""End-to-end metrics observatory behavior of ``run_all``:

- results on stdout are byte-identical whether metrics are on or off
  (wall-clock section timings normalized — they are the one legitimately
  nondeterministic part of the output);
- serial and ``--jobs 2`` runs merge to the same rollup values for the
  deterministic counters (checkpoint traffic is a property of the cell
  grid, not of worker scheduling);
- a ``--trace`` run emulates exactly what an untraced run emulates:
  same stdout, same checkpoint/failure counters, same compiled-loop runs;
- the ``--json`` manifest embeds the merged rollup under ``metrics``;
- a crashing section still propagates its error, writes the parent's
  metrics sidecar, uninstalls the process-global telemetry handles and
  exports its trace;
- with a warm cache, a ``--trace`` run reads the cache as an untraced
  run does: same stdout, same loop and cache counters.

The fast tests stub ``SECTIONS``; the serial-vs-parallel test runs the
real single-benchmark evaluation three times and is the slowest test in
this file by far.
"""

import json
import re

import pytest

from repro import telemetry
from repro.experiments import run_all
from repro.telemetry import metrics
from repro.telemetry.exporters import read_jsonl
from repro.telemetry.rollup import read_sidecar

#: Counters whose values are a deterministic property of the evaluated
#: cell grid. Explicitly NOT in this set: ``interp.runs`` and
#: ``interp.loop.*`` (workers redundantly recompute shared references)
#: and ``engine.cells_per_worker`` (scheduling).
DETERMINISTIC_COUNTERS = (
    "interp.ckpt_saves",
    "interp.ckpt_restores",
    "interp.ckpt_skips",
    "interp.power_failures",
    "interp.reboots",
    "interp.migrates",
)

#: Counters a serial ``--trace`` run must share with an untraced serial
#: run: tracing observes the emulation, it never changes which path runs.
TRACE_INVARIANT_COUNTERS = (
    "interp.ckpt_saves",
    "interp.ckpt_restores",
    "interp.ckpt_skips",
    "interp.power_failures",
    "interp.loop.compiled",
)


def _normalize(out: str) -> str:
    """Mask measured wall-clock values (section banners, the analysis
    cost table and its fitted growth exponent) — the only legitimately
    run-to-run-varying bytes."""
    out = re.sub(r"\d+(\.\d+)?\s*(?=(s|ms|us)\b)", "X", out)
    return re.sub(r"growth exponent: \d+\.\d+", "growth exponent: X", out)


def _counters(manifest_path):
    manifest = json.loads(manifest_path.read_text())
    rollup = manifest["metrics"]
    assert rollup["schema"] == metrics.METRICS_SCHEMA
    return {
        r["name"]: r["value"]
        for r in rollup["metrics"] if r["kind"] == "counter"
    }


@pytest.fixture(autouse=True)
def _no_leak():
    yield
    assert telemetry.get() is None
    assert metrics.get() is None
    telemetry.disable()
    metrics.disable()


class _FakeResult:
    def render(self):
        return "fake section body"


class _FakeSection:
    @staticmethod
    def run(ctx):
        metrics.count("fake.sections")
        return _FakeResult()


class _CrashSection:
    @staticmethod
    def run(ctx):
        metrics.count("crash.sections")
        raise RuntimeError("section exploded")


def test_metrics_flag_keeps_stdout_identical_and_fills_manifest(
    tmp_path, capfd, monkeypatch
):
    monkeypatch.setattr(run_all, "SECTIONS", [("Fake", _FakeSection)])
    base_args = ["--benchmarks", "crc", "--no-cache"]

    run_all.main(base_args)
    plain = capfd.readouterr()

    metrics_dir = tmp_path / "metrics"
    manifest_path = tmp_path / "manifest.json"
    run_all.main(base_args + [
        "--metrics", "--metrics-dir", str(metrics_dir),
        "--json", str(manifest_path),
    ])
    metered = capfd.readouterr()

    assert _normalize(metered.out) == _normalize(plain.out)
    assert "metrics sidecar:" in metered.err

    counters = _counters(manifest_path)
    assert counters["fake.sections"] == 1
    # The parent's own sidecar is all the metrics directory holds.
    [sidecar] = metrics_dir.iterdir()
    assert sidecar.name.startswith("metrics-") and sidecar.suffix == ".jsonl"

    manifest = json.loads(manifest_path.read_text())
    assert manifest["schema_version"] == run_all.MANIFEST_SCHEMA


def test_stale_sidecars_are_cleared_between_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(run_all, "SECTIONS", [("Fake", _FakeSection)])
    stale = tmp_path / "metrics-99999999.jsonl"
    stale.write_text(
        '{"kind": "metrics_header", "schema": 1, "pid": 99999999, '
        '"meta": {}}\n'
        '{"kind": "counter", "name": "fake.sections", "value": 50}\n'
    )
    manifest_path = tmp_path / "manifest.json"
    run_all.main([
        "--benchmarks", "crc", "--no-cache",
        "--metrics", "--metrics-dir", str(tmp_path),
        "--json", str(manifest_path),
    ])
    assert not stale.exists()
    assert _counters(manifest_path)["fake.sections"] == 1


@pytest.mark.parametrize("flag", ["--metrics-dir", "--trace-dir"])
def test_crash_uninstalls_telemetry_and_keeps_the_trace(
    tmp_path, monkeypatch, flag
):
    monkeypatch.setattr(run_all, "SECTIONS", [("Crash", _CrashSection)])
    with pytest.raises(RuntimeError, match="section exploded"):
        run_all.main(
            ["--benchmarks", "crc", "--no-cache", flag, str(tmp_path)]
        )
    assert telemetry.get() is None
    assert metrics.get() is None
    if flag == "--metrics-dir":
        # The parent's sidecar is written however the run ends, so it
        # keeps what the crashed section counted.
        [sidecar] = tmp_path.iterdir()
        records = read_sidecar(str(sidecar))
    else:
        records = read_jsonl(str(tmp_path / "run_all.jsonl"))
        [block] = [r for r in records if r.get("kind") == "metrics"]
        records = block["metrics"]
    counts = {m["name"]: m["value"] for m in records}
    assert counts["crash.sections"] == 1


def test_serial_and_parallel_rollups_agree_on_deterministic_counters(
    tmp_path, capfd
):
    """The real single-benchmark evaluation, three ways: traced serial,
    metered serial, metered parallel. One run_all invocation each —
    this is the expensive acceptance test (~1 min)."""
    base_args = ["--benchmarks", "crc", "--no-cache"]

    traced_dir = tmp_path / "traced"
    traced_manifest = traced_dir / "manifest.json"
    run_all.main(base_args + [
        "--trace-dir", str(traced_dir), "--json", str(traced_manifest),
    ])
    traced_out = capfd.readouterr().out

    serial_dir = tmp_path / "serial"
    serial_manifest = serial_dir / "manifest.json"
    run_all.main(base_args + [
        "--metrics", "--metrics-dir", str(serial_dir),
        "--json", str(serial_manifest),
    ])
    serial_out = capfd.readouterr().out

    parallel_dir = tmp_path / "parallel"
    parallel_manifest = parallel_dir / "manifest.json"
    run_all.main(base_args + [
        "--jobs", "2",
        "--metrics", "--metrics-dir", str(parallel_dir),
        "--json", str(parallel_manifest),
    ])
    parallel_out = capfd.readouterr().out

    # Tracing, and fanning out, must not change the results.
    assert _normalize(traced_out) == _normalize(serial_out)
    assert _normalize(parallel_out) == _normalize(serial_out)

    traced = _counters(traced_manifest)
    serial = _counters(serial_manifest)
    parallel = _counters(parallel_manifest)
    for name in TRACE_INVARIANT_COUNTERS:
        assert traced.get(name) == serial.get(name), (
            name, traced.get(name), serial.get(name),
        )
    for name in DETERMINISTIC_COUNTERS:
        assert serial.get(name) == parallel.get(name), (
            name, serial.get(name), parallel.get(name),
        )
    assert serial.get("interp.ckpt_saves", 0) > 0, (
        "the workload must actually exercise checkpoints"
    )
    # The parallel run counted its cells across worker sidecars.
    assert parallel["engine.worker_cells"] > 0
    assert len(list(parallel_dir.glob("metrics-*.jsonl"))) > 1


def test_traced_warm_run_reads_the_cache_like_an_untraced_one(
    tmp_path, capfd
):
    """Tracing does not change what runs: with a warm cache, a traced and
    an untraced run_all hit the same entries and run the same loops."""
    base_args = ["--benchmarks", "crc", "--cache-dir", str(tmp_path / "cache")]
    run_all.main(base_args)  # fill the cache
    capfd.readouterr()

    untraced_manifest = tmp_path / "untraced.json"
    run_all.main(base_args + [
        "--metrics-dir", str(tmp_path / "untraced"),
        "--json", str(untraced_manifest),
    ])
    untraced_out = capfd.readouterr().out

    traced_manifest = tmp_path / "traced.json"
    run_all.main(base_args + [
        "--trace-dir", str(tmp_path / "traced"),
        "--json", str(traced_manifest),
    ])
    traced_out = capfd.readouterr().out

    assert _normalize(traced_out) == _normalize(untraced_out)
    untraced = _counters(untraced_manifest)
    traced = _counters(traced_manifest)

    def watched(counters):
        return {
            name: value for name, value in counters.items()
            if name.startswith(("interp.loop.", "cache."))
        }

    assert watched(traced) == watched(untraced)
    assert untraced["cache.hits"] > 0 and "cache.misses" not in untraced

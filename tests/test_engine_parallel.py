"""Parallel evaluation must be byte-identical to serial evaluation.

The engine prefills an EvaluationContext from worker processes; the
rendered tables must match a serial context character for character.
Likewise the testkit's parallel sweep and differential drivers must
produce exactly the records a serial run produces.
"""

import dataclasses
import os

import pytest

from repro.errors import ReproError
from repro.experiments import ablations, common, engine, table3_forward_progress
from repro.experiments.common import EvaluationContext
from repro.runner.cache import ArtifactCache
from repro.testkit.differential import run_differential
from repro.testkit.sweep import sweep_technique

BENCH = "randmath"


def test_cell_planning_dedupes_and_normalizes():
    ctx = EvaluationContext(benchmarks=[BENCH])
    cells = engine.plan_run_all_cells(ctx, figure8_benchmark=BENCH)
    assert len(cells) == len(set(cells)), "planner must not emit duplicates"
    # Run cells are energy-budget cells keyed by EB alone: a TBPF that
    # maps to an already planned EB is the same cell.
    assert all(c.tbpf is None for c in cells if c.kind == "run")


def test_prefill_serial_is_noop():
    ctx = EvaluationContext(benchmarks=[BENCH])
    assert engine.prefill(ctx, jobs=1) == 0
    assert not ctx.artifacts


def _no_emulation(*args, **kwargs):
    raise AssertionError("the prefilled context must not emulate")


def test_prefill_matches_serial_renders(tmp_path, monkeypatch):
    serial = EvaluationContext(benchmarks=[BENCH])
    serial_table = table3_forward_progress.run(serial).render()
    serial_abl = ablations.run(serial).render()

    fanned = EvaluationContext(
        benchmarks=[BENCH], cache=ArtifactCache(tmp_path / "cache")
    )
    cells = engine.prefill(fanned, jobs=2, figure8_benchmark=BENCH)
    assert cells > 0
    # The prefill filled the memo under the keys the lookups build, so
    # rendering finds every reference, run and ablation cell in memory.
    for name in ("run_continuous", "run_intermittent"):
        monkeypatch.setattr(common, name, _no_emulation)
    assert table3_forward_progress.run(fanned).render() == serial_table
    assert ablations.run(fanned).render() == serial_abl


def test_prefill_names_the_cell_a_killed_worker_left_unfinished(
    monkeypatch
):
    """A worker that dies mid-cell ends the prefill in a ReproError that
    names the cell: kind and benchmark, enough to rerun it serially."""
    ctx = EvaluationContext(benchmarks=["crc"])
    first = engine.plan_artifacts(ctx, extra_benchmarks=["crc"])[0]
    evaluate = engine._evaluate_cell

    def die_on_first(ctx, cell):
        if cell == first:
            os._exit(1)
        return evaluate(ctx, cell)

    monkeypatch.setattr(engine, "_evaluate_cell", die_on_first)
    with pytest.raises(ReproError) as exc:
        engine.prefill(ctx, 2)
    message = str(exc.value)
    assert "worker process died" in message
    assert f"kind={first.kind!r}" in message
    assert f"benchmark={first.benchmark!r}" in message


def test_sweep_parallel_matches_serial():
    serial = sweep_technique("sumloop", "schematic", granularity="all", jobs=1)
    fanned = sweep_technique("sumloop", "schematic", granularity="all", jobs=2)
    assert dataclasses.asdict(fanned) == dataclasses.asdict(serial)
    assert serial.runs > 0 and serial.ok


def test_sweep_parallel_matches_serial_with_violations():
    # Sabotage plants a bug; the merged parallel result must carry the
    # same verdicts and shrunk schedules as the serial sweep.
    serial = sweep_technique(
        "warloop", "ratchet", granularity="all", sabotage=True, jobs=1
    )
    fanned = sweep_technique(
        "warloop", "ratchet", granularity="all", sabotage=True, jobs=2
    )
    assert dataclasses.asdict(fanned) == dataclasses.asdict(serial)


def test_differential_parallel_matches_serial():
    kwargs = dict(
        programs=["sumloop", "warloop"], tbpf_values=[1_000], modes=["energy"]
    )
    serial = run_differential(jobs=1, **kwargs)
    fanned = run_differential(jobs=2, **kwargs)
    assert dataclasses.asdict(fanned) == dataclasses.asdict(serial)
    assert serial.verdicts and serial.ok

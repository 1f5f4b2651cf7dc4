"""Tests for the fault-injection testkit itself.

Fast cases (corpus programs, small grids) run in tier-1; the exhaustive
benchmark sweeps are marked ``sweep`` and deselected by default — run
them with ``pytest -m sweep`` (or ``make sweep``).
"""

import pytest

from repro.core.verify import VerificationResult
from repro.testkit import (
    OUTCOME_ANOMALY,
    OUTCOME_CRASH,
    OUTCOME_OK,
    OUTCOME_PROGRESS,
    OUTCOME_STUCK,
    classify,
    record_boundaries,
    run_differential,
    run_fuzz,
    shrink_schedule,
    sweep_technique,
)
from repro.testkit.corpus import compile_for, load_program
from repro.testkit.sabotage import find_checkpoints, strip_checkpoint
from repro.testkit.sweep import select_points
from repro.energy import msp430fr5969_platform


# -- shrinking ---------------------------------------------------------------


def test_shrink_drops_redundant_offsets():
    shrunk, _ = shrink_schedule(
        (10, 42, 99, 107), lambda s: 42 in s
    )
    assert shrunk == (42,)


def test_shrink_binary_searches_offsets_down():
    # Failure needs any offset >= 100: minimal is exactly (100,).
    shrunk, _ = shrink_schedule(
        (250, 400), lambda s: any(o >= 100 for o in s)
    )
    assert shrunk == (100,)


def test_shrink_keeps_pairs_that_fail_only_together():
    shrunk, _ = shrink_schedule(
        (5, 17, 60), lambda s: 17 in s and 60 in s
    )
    assert shrunk == (17, 60)


def test_shrink_result_always_still_fails():
    calls = []

    def still_fails(s):
        calls.append(s)
        return sum(s) >= 120

    shrunk, runs = shrink_schedule((50, 70, 90), still_fails)
    assert still_fails(shrunk)
    assert runs == len(calls) - 1  # the final check above
    assert len(shrunk) <= 3


# -- oracle classification ----------------------------------------------------


def _result(completed, match, crashed=False):
    return VerificationResult(
        completed=completed, outputs_match=match,
        power_failures=1, crashed=crashed,
    )


def test_classify_outcomes():
    assert classify(_result(True, True), guarantee=True) == OUTCOME_OK
    assert classify(_result(True, False), guarantee=True) == OUTCOME_ANOMALY
    assert classify(_result(False, False), guarantee=True) == OUTCOME_PROGRESS
    assert classify(_result(False, False), guarantee=False) == OUTCOME_STUCK
    assert (
        classify(_result(False, False, crashed=True), guarantee=False)
        == OUTCOME_CRASH
    )


# -- boundary recording -------------------------------------------------------


def test_record_boundaries_monotone_and_labeled():
    plat = msp430fr5969_platform(eb=3000.0)
    bench = load_program("sumloop")
    compiled = compile_for(
        "schematic", bench.module, plat,
        input_generator=bench.input_generator(),
    )
    boundaries, report = record_boundaries(
        compiled, plat.model, plat.vm_size, bench.default_inputs()
    )
    assert report.completed
    offsets = [b.offset for b in boundaries]
    assert offsets == sorted(offsets)
    assert all(b.label for b in boundaries)
    # Runtime steps are labeled as such alongside plain instructions.
    labels = {b.label for b in boundaries}
    assert any(":save" in l for l in labels)
    static = select_points(boundaries, "static")
    assert len(static) == len({b.label for b in static})
    assert len(static) <= len(select_points(boundaries, "all"))


# -- sweeps on the corpus -----------------------------------------------------


@pytest.mark.parametrize("technique", ["schematic", "ratchet", "mementos"])
def test_sweep_corpus_single_failure_clean(technique):
    result = sweep_technique("sumloop", technique, granularity="static")
    assert result.ok, result.render()
    assert result.points > 0
    assert result.outcomes.get(OUTCOME_OK) == result.points


def test_sweep_warloop_schematic_exhaustive_double_failure():
    """Every dynamic boundary of the WAR-stress program, single and double
    injection: SCHEMATIC must stay crash-consistent everywhere."""
    result = sweep_technique(
        "warloop", "schematic", granularity="all", failures=2
    )
    assert result.ok, result.render()
    assert result.points > 100  # genuinely exhaustive, not a smoke run


def test_sabotage_is_caught_and_shrunk():
    """Removing a checkpoint from a tight-budget placement must produce
    oracle violations, each shrunk to a minimal failing schedule."""
    result = sweep_technique(
        "warloop", "schematic", eb=150.0, sabotage=True
    )
    assert not result.ok, "broken placement not detected"
    assert result.violations
    v = result.violations[0]
    assert v.outcome in (OUTCOME_ANOMALY, OUTCOME_PROGRESS, OUTCOME_CRASH)
    assert v.shrunk, "violation was not shrunk"
    assert len(v.shrunk) <= len(v.schedule)


def test_strip_checkpoint_prefers_validated_victims():
    plat = msp430fr5969_platform(eb=150.0)
    bench = load_program("warloop")
    compiled = compile_for(
        "schematic", bench.module, plat,
        input_generator=bench.input_generator(),
    )
    sites = find_checkpoints(compiled.module)
    assert sites
    # Reject every candidate: falls back to the first mid-program one.
    broken, victim = strip_checkpoint(
        compiled.module, validate=lambda m: False
    )
    assert not victim.is_boot
    assert len(find_checkpoints(broken)) == len(sites) - 1
    # The original module is untouched.
    assert len(find_checkpoints(compiled.module)) == len(sites)


# -- differential + fuzz smoke -------------------------------------------------


def test_differential_small_grid():
    result = run_differential(
        programs=["crc"], tbpf_values=[10_000],
        modes=("energy", "periodic"),
    )
    assert result.ok, result.render()
    assert not result.disagreements

    # The three oracle axes on a corpus grid: 6 techniques x 2 modes,
    # every cell non-crashed (12 loop pairs, 24 runs); MEMENTOS's
    # voltage check cannot be taped (10 diffemu pairs); 6 feasible
    # placements in the one TBPF column.
    result = run_differential(
        programs=["sumloop"], tbpf_values=[10_000],
        modes=("energy", "periodic"),
        diffemu_check=True, compiled_check=True, transval_check=True,
    )
    assert result.ok, result.render()
    assert result.runs == 24, "one pre-decoded re-run per checked cell"
    assert result.compiled_cells == 12
    assert result.diffemu_cells == 10
    assert result.transval_cells == 6
    assert "  compiled-loop pairs: 12 (compiled/predecoded)" in (
        result.render().splitlines()
    )


def test_fuzz_smoke():
    result = run_fuzz(
        programs=("sumloop", "warloop"),
        techniques=("schematic", "ratchet", "mementos", "alfred"),
        seeds=2, mean_cycles=(800.0,),
    )
    assert result.ok, result.render()


def test_cli_sweep_smoke(capsys):
    from repro.testkit.__main__ import main

    assert main(["sweep", "--program", "sumloop",
                 "--technique", "schematic"]) == 0
    out = capsys.readouterr().out
    assert "zero oracle violations" in out


def test_cli_telemetry_flags_write_what_they_ask_for(tmp_path, capsys):
    """--trace-dir exports the trace there and writes no metrics
    sidecar; --metrics-dir alone writes only the sidecar."""
    from repro import telemetry
    from repro.telemetry import metrics
    from repro.testkit.__main__ import main

    argv = ["sweep", "--program", "sumloop", "--technique", "schematic"]
    traced, metered = tmp_path / "traced", tmp_path / "metered"
    assert main(argv + ["--trace-dir", str(traced)]) == 0
    assert sorted(p.name for p in traced.iterdir()) == [
        "testkit_sweep.chrome.json", "testkit_sweep.jsonl",
    ]
    assert main(argv + ["--metrics-dir", str(metered)]) == 0
    [sidecar] = metered.iterdir()
    assert sidecar.name.startswith("metrics-")
    assert telemetry.get() is None and metrics.get() is None
    err = capsys.readouterr().err
    assert "trace (events):" in err and "metrics sidecar:" in err


def test_cli_sabotage_exit_codes(capsys):
    from repro.testkit.__main__ import main

    assert main(["sweep", "--program", "warloop", "--technique",
                 "schematic", "--eb", "150", "--sabotage"]) == 0
    assert "sabotage caught" in capsys.readouterr().out


def test_cli_unknown_program_exits_2_with_choices(capsys):
    from repro.testkit.__main__ import main

    assert main(["sweep", "--program", "nosuch",
                 "--technique", "schematic"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "nosuch" in err and "sumloop" in err and "crc" in err


def test_cli_unknown_technique_exits_2_with_choices(capsys):
    from repro.testkit.__main__ import main

    assert main(["sweep", "--program", "sumloop",
                 "--technique", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "nosuch" in err and "schematic" in err


# -- deep suite (pytest -m sweep) ---------------------------------------------


@pytest.mark.sweep
def test_deep_sweep_crc_schematic_every_boundary():
    """The acceptance sweep: a failure at every instruction boundary of
    the transformed crc, zero oracle violations."""
    result = sweep_technique("crc", "schematic")
    assert result.ok, result.render()
    assert result.points > 40


@pytest.mark.sweep
@pytest.mark.parametrize("technique", ["ratchet", "mementos", "alfred"])
def test_deep_sweep_rollback_baselines_crc(technique):
    result = sweep_technique("crc", technique)
    assert result.ok, result.render()


@pytest.mark.sweep
def test_deep_sweep_crc_sabotage_caught():
    result = sweep_technique("crc", "schematic", sabotage=True)
    assert not result.ok
    assert any(v.shrunk for v in result.violations)


@pytest.mark.sweep
def test_deep_corpus_double_failure_rollback():
    """Exhaustive double-failure sweeps of the roll-back baselines on the
    WAR-stress program: snapshots must make re-execution transparent."""
    for technique in ("ratchet", "mementos", "alfred"):
        result = sweep_technique(
            "warloop", technique, granularity="all", failures=2
        )
        assert result.ok, result.render()


@pytest.mark.sweep
def test_deep_differential_grid():
    result = run_differential(
        programs=["crc", "bitcount"],
        tbpf_values=[1_000, 10_000],
    )
    assert result.ok, result.render()


@pytest.mark.sweep
def test_deep_fuzz():
    # rockclimb/allnvm anomalies under stochastic kills are classified
    # anomaly-outside-contract (docs/testing.md) — ok means everything
    # else stayed clean.
    result = run_fuzz(seeds=5)
    assert result.ok, result.render()

"""Tests for the fault-injection testkit itself.

Fast cases (corpus programs, small grids) run in tier-1; the exhaustive
benchmark sweeps are marked ``sweep`` and deselected by default — run
them with ``pytest -m sweep`` (or ``make sweep``).
"""

import pytest

from repro.core.verify import VerificationResult, run_against_reference
from repro.emulator import PowerManager, run_continuous
from repro.testkit import (
    OUTCOME_ANOMALY,
    OUTCOME_CONTRACT,
    OUTCOME_CRASH,
    OUTCOME_OK,
    OUTCOME_PROGRESS,
    OUTCOME_STUCK,
    ContractCheck,
    classify,
    record_boundaries,
    run_differential,
    run_fuzz,
    shrink_schedule,
    sweep_technique,
)
from repro.testkit.corpus import compile_for, load_program
from repro.testkit.sabotage import drop_store, find_checkpoints, strip_checkpoint
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

    # The three equivalence legs on a corpus grid: 6 techniques x 2
    # modes, every cell non-crashed (12 loop pairs, 24 runs); MEMENTOS's
    # voltage check cannot be taped (10 diffemu pairs); 6 feasible
    # placements in the one TBPF column.
    result = run_differential(
        programs=["sumloop"], tbpf_values=[10_000],
        modes=("energy", "periodic"),
    )
    assert result.ok, result.render()
    assert result.runs == 24, "one pre-decoded re-run per checked cell"
    assert result.compiled_cells == 12
    assert result.diffemu_cells == 10
    assert result.transval_cells == 6
    assert "  compiled-loop pairs: 12 (compiled/predecoded)" in (
        result.render().splitlines()
    )


def test_differential_trace_describes_the_primary_grid_only():
    """The equivalence legs run untraced: every runtime event of an
    intermittent run carries its cell's benchmark and technique, and
    there is one run-begin per primary cell, not per leg re-run."""
    from repro import telemetry

    with telemetry.enabled() as tm:
        result = run_differential(
            programs=["sumloop"], tbpf_values=[10_000],
            modes=("energy", "periodic"),
        )
    assert result.ok, result.render()
    runtime = [
        e for e in tm.events
        if e["kind"] == "event" and e["track"] == telemetry.TRACK_RUNTIME
    ]
    # Continuous runs (the reference and the placers' profiling runs)
    # belong to no cell.
    continuous = {
        e["attrs"]["run"] for e in runtime
        if e["name"] == "run-begin"
        and e["attrs"]["technique"] == "continuous"
    }
    cells = [e for e in runtime if e["attrs"]["run"] not in continuous]
    unlabelled = [
        e for e in cells
        if "benchmark" not in e["attrs"] or "technique" not in e["attrs"]
    ]
    assert not unlabelled, unlabelled[:3]
    begins = [e for e in cells if e["name"] == "run-begin"]
    assert len(begins) == len(result.verdicts) == 12
    assert result.runs == 24


def _warloop_check(technique):
    bench = load_program("warloop")
    plat = msp430fr5969_platform(eb=3000.0)
    inputs = bench.default_inputs()
    reference = run_continuous(bench.module, plat.model, inputs=inputs)
    compiled = compile_for(
        technique, bench.module, plat,
        input_generator=bench.input_generator(),
    )
    check = ContractCheck(compiled, reference, plat, inputs, 50_000_000)
    run = run_against_reference(
        compiled.module, bench.module, plat.model, compiled.policy,
        PowerManager.stochastic(mean_cycles=800.0, seed=0, eb=3000.0),
        vm_size=plat.vm_size, inputs=inputs, reference_report=reference,
    )
    return check, run


def _crash(reason):
    return VerificationResult(
        completed=False, outputs_match=False, power_failures=1,
        failure_reason=f"emulation error: {reason}", crashed=True,
        failure_offsets=[120],
    )


def test_contract_check_waives_only_a_predicted_and_healed_replay():
    """A wait-mode run's stochastic anomaly is waived only when the
    idempotency rule predicts its replay hazard and undoing that hazard
    on replay heals the run."""
    check, run = _warloop_check("rockclimb")
    assert classify(run, guarantee=False) == OUTCOME_ANOMALY
    why, runs = check.outside_contract(run, OUTCOME_ANOMALY)
    assert "CONS001" in why and "@total" in why
    assert runs == 2  # the plain replay, then the replay with the undo
    assert check.outside_contract(run, OUTCOME_STUCK) == (None, 0)
    # A crash is waivable only when a replayed value can cause it.
    assert check.outside_contract(
        _crash("VM access to @x, which is not VM-resident (placement bug "
               "in a transformation pass)"), OUTCOME_CRASH,
    ) == (None, 0)
    assert check.outside_contract(
        _crash("read of uninitialized register %t in @main"), OUTCOME_CRASH,
    ) == (None, 0)
    # SCHEMATIC's placement replays idempotently: no static hazard.
    schematic, run = _warloop_check("schematic")
    assert not schematic.hazards
    assert schematic.outside_contract(run, OUTCOME_ANOMALY) == (None, 0)
    # Roll-back techniques replay by design: never waived.
    ratchet, run = _warloop_check("ratchet")
    assert ratchet.outside_contract(run, OUTCOME_ANOMALY) == (None, 0)


@pytest.mark.parametrize("sabotage, outcome", [
    # Removing a migration checkpoint leaves a later VM access with no
    # residency: a crash no replay can cause.
    (lambda module: strip_checkpoint(module, ckpt_id=1)[0], OUTCOME_CRASH),
    # A transformation bug: it changes the results under any schedule,
    # so undoing the replay hazard cannot heal it.
    (lambda module: drop_store(module)[0], OUTCOME_ANOMALY),
], ids=["non-resident-vm-access", "dropped-store"])
def test_differential_convicts_a_fault_beside_a_replay_hazard(
    monkeypatch, sabotage, outcome,
):
    """rc4's SCHEMATIC placement carries a CONS001 hazard on @out. A
    planted fault that is not that replay stays a stochastic violation."""
    from repro.testkit import differential

    def compile_broken(*args, **kwargs):
        compiled = compile_for(*args, **kwargs)
        compiled.module = sabotage(compiled.module)
        return compiled

    monkeypatch.setattr(differential, "compile_for", compile_broken)
    result = run_differential(
        programs=["rc4"], techniques=["schematic"],
        tbpf_values=[100_000], modes=["stochastic"], shrink=False,
    )
    [verdict] = result.verdicts
    assert verdict.outcome == outcome and verdict.violation
    assert not result.ok


def test_differential_waives_a_predicted_schematic_replay():
    """rc4 XORs the NVM-resident @out in place. A stochastic kill
    mid-segment replays the XOR; CONS001 predicts it, so the anomaly is
    outside SCHEMATIC's recharge contract rather than a violation."""
    result = run_differential(
        programs=["rc4"], techniques=["schematic"],
        tbpf_values=[100_000], modes=["stochastic"],
    )
    assert result.ok, result.render()
    [verdict] = result.verdicts
    assert verdict.outcome == OUTCOME_CONTRACT
    assert "CONS001 at @prga/.for_body2[37] on @out" in verdict.detail


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


@pytest.mark.parametrize(
    "eb, diagnosis",
    [
        # Some region cannot be placed within the budget.
        ("100", "no feasible checkpoint placement"),
        # The budget cannot even fund one empty save + restore.
        ("5", "cannot even fund one empty save+restore"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--program", "crc", "--technique", "schematic"],
        ["fuzz", "--programs", "crc", "--techniques", "schematic",
         "--seeds", "1"],
    ],
    ids=["sweep", "fuzz"],
)
def test_cli_infeasible_budget_exits_2_with_one_line(capsys, argv, eb,
                                                     diagnosis):
    from repro.testkit.__main__ import main

    assert main(argv + ["--eb", eb]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ") and diagnosis in lines[0]
    assert "Traceback" not in captured.out + captured.err


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


UNDO_IR = """module undo (entry @main)
global @x:u32
global @y:u32

func @main() -> void {
.entry:
    checkpoint #1 save=[] restore=[] vm_after=[] nvm_after=[x, y]
    %t1:u32 = load.nvm @x
    %t2:u32 = add %t1:u32, 1:i32
    store.nvm @x = %t2:u32
    %t3:u32 = load.nvm @y
    %t4:u32 = add %t3:u32, %t2:u32
    store.nvm @y = %t4:u32
    checkpoint #2 save=[] restore=[] vm_after=[] nvm_after=[x, y]
    ret
}
"""


def test_undo_rolls_back_a_store_made_inside_a_compiled_segment():
    """The undo replay of :class:`ContractCheck` must roll back a guarded
    NVM store that a compiled segment made inline, without
    ``memory.write``. A failure at checkpoint #2's save replays the
    read-modify-write of @x: without the undo @x ends at 2, with it at 1.
    @y is not guarded, so its own read-modify-write still replays (it
    adds the replayed @x: 1 + 2 unguarded, 1 + 1 guarded)."""
    from repro.emulator.interpreter import Interpreter, InterpreterConfig
    from repro.emulator.runtime import CheckpointPolicy
    from repro.ir.textparser import parse_ir
    from repro.testkit.oracle import _UndoInterpreter

    model = msp430fr5969_platform(eb=3000.0).model
    module = parse_ir(UNDO_IR)
    policy = CheckpointPolicy.wait_mode("undo")
    labels = []
    recording = PowerManager.recording()
    Interpreter(
        module, model, policy, recording,
        InterpreterConfig(step_hook=lambda label, _c: labels.append(label)),
    ).run()
    offset = recording.record[labels.index("ckpt2:save")]

    def run(cls, **kwargs):
        interp = cls(
            module, model, policy, PowerManager.scheduled((offset,)),
            InterpreterConfig(), **kwargs,
        )
        calls = []
        write = interp.memory.write
        interp.memory.write = lambda *args: calls.append(args) or write(*args)
        report = interp.run()
        assert interp.loop_used == "compiled"
        assert calls == [], "every store must take the inline path"
        assert report.completed and report.power_failures == 1
        return report.outputs

    assert run(Interpreter) == {"x": [2], "y": [3]}
    assert run(_UndoInterpreter, guarded=frozenset({"x"})) == {
        "x": [1], "y": [2],
    }

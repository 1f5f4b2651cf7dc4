"""The telemetry-off contract and the headroom cross-validation.

Two guarantees the subsystem makes:

1. **Bit-identity when disabled** — enabling telemetry for one run and
   then disabling it must leave every subsequent emulation bit-identical
   to a process that never enabled it; and even *while* enabled, tracing
   must not perturb emulation results (it only observes).
2. **Observed <= certified <= EB** — for wait-mode placements, every
   committed segment window observed at runtime stays within the static
   certifier's per-checkpoint bound, which itself stays within EB. This
   is the contract ``python -m repro.telemetry report`` enforces; here it
   runs in-process over real corpus programs.
"""

import pytest

from repro import telemetry
from repro.emulator import PowerManager, run_intermittent
from repro.emulator.diffemu import PowerSpec
from repro.energy import msp430fr5969_platform
from repro.experiments.common import EvaluationContext, emit_segment_bounds
from repro.telemetry.exporters import trace_records
from repro.telemetry.report import HEADROOM_TOL, analyze, headroom_violations
from repro.testkit.corpus import compile_for, load_program

EB = 3000.0


@pytest.fixture(autouse=True)
def _no_global_leak():
    yield
    assert telemetry.get() is None, "test leaked an enabled telemetry handle"
    telemetry.disable()


def _emulate(compiled, plat, inputs):
    return run_intermittent(
        compiled.module, plat.model, compiled.policy,
        PowerManager.energy_budget(EB), vm_size=plat.vm_size,
        inputs=inputs,
    )


def _compiled(program, technique):
    plat = msp430fr5969_platform(eb=EB)
    bench = load_program(program)
    compiled = compile_for(
        technique, bench.module, plat,
        input_generator=bench.input_generator(),
    )
    return plat, bench, compiled


# -- bit-identity -------------------------------------------------------------


def test_emulation_is_bit_identical_with_telemetry_off_and_on():
    plat, bench, compiled = _compiled("warloop", "schematic")
    inputs = bench.default_inputs()

    baseline = _emulate(compiled, plat, inputs)  # never enabled
    with telemetry.enabled() as tm:
        traced = _emulate(compiled, plat, inputs)
    after = _emulate(compiled, plat, inputs)  # enabled then disabled

    # The full report dataclass: outputs, energy breakdown, cycle and
    # checkpoint counts, failure offsets — everything.
    assert traced == baseline, "tracing perturbed the emulation"
    assert after == baseline, "a past telemetry session left residue"
    assert tm.events, "the traced run recorded no events"


def test_telemetry_off_emits_nothing_during_emulation():
    plat, bench, compiled = _compiled("warloop", "ratchet")
    _emulate(compiled, plat, bench.default_inputs())
    assert telemetry.get() is None


# -- headroom cross-validation ------------------------------------------------

# (program, technique) pairs covering both wait-mode placements and the
# certifier's trickiest summaries: `calls` exercises Call-dispatch
# accounting, `warloop` while-shaped loop entry/exit traversals.
CORPUS = [
    ("warloop", "schematic"),
    ("warloop", "rockclimb"),
    ("sumloop", "schematic"),
    ("calls", "schematic"),
    ("branchy", "schematic"),
]


@pytest.mark.parametrize("program,technique", CORPUS)
def test_observed_window_within_certified_bound_within_eb(program, technique):
    plat, bench, compiled = _compiled(program, technique)
    if not compiled.feasible:
        pytest.skip(f"{technique} infeasible on {program} at EB={EB}")
    assert compiled.policy.wait_for_full_recharge, (
        "corpus rows must be wait-mode placements (bounds are only "
        "certified there)"
    )

    with telemetry.enabled(meta={"tool": "pytest"}) as tm:
        with tm.scope(benchmark=program, technique=technique, eb=EB):
            emit_segment_bounds(tm, compiled, plat.model, EB)
            report = _emulate(compiled, plat, bench.default_inputs())

    assert report.completed, "wait-mode run must complete under EB power"
    summary = analyze(trace_records(tm))
    assert headroom_violations(summary) == []

    certified = [s for s in summary.segments if s.bound is not None]
    observed = [s for s in certified if s.closes]
    assert certified, "no segment bounds were emitted"
    assert observed, "no certified segment was ever closed at runtime"
    for seg in certified:
        assert seg.observed_max <= seg.bound + HEADROOM_TOL, (
            f"ckpt {seg.ckpt}: observed {seg.observed_max} exceeds "
            f"certified bound {seg.bound}"
        )
        assert seg.bound <= EB + HEADROOM_TOL, (
            f"ckpt {seg.ckpt}: certified bound {seg.bound} exceeds EB {EB}"
        )


def test_bound_is_tight_on_straightline_corpus():
    """On a deterministic single-path program the certifier's worst case
    is the path the emulator takes, so at least one segment's bound is
    *achieved*, not just respected — pinning the two analyses to the
    same energy accounting (a drifting constant would open a gap)."""
    plat, bench, compiled = _compiled("sumloop", "schematic")
    if not compiled.feasible:
        pytest.skip("schematic infeasible on sumloop")
    with telemetry.enabled() as tm:
        with tm.scope(benchmark="sumloop", technique="schematic", eb=EB):
            emit_segment_bounds(tm, compiled, plat.model, EB)
            _emulate(compiled, plat, bench.default_inputs())
    summary = analyze(trace_records(tm))
    tight = [
        s for s in summary.segments
        if s.bound is not None and s.closes
        and abs(s.observed_max - s.bound) <= HEADROOM_TOL
    ]
    assert tight, (
        "no segment achieved its certified bound — the static and "
        "dynamic energy accounting have drifted apart"
    )


def test_traced_spec_cell_carries_grid_coordinates_and_bounds():
    """A traced evaluation cell under an explicit power spec is traced
    like any other cell: the certifier's segment bounds are emitted, and
    every runtime checkpoint event carries the cell's grid coordinates,
    so the headroom report can join them."""
    ctx = EvaluationContext(benchmarks=["crc"])
    eb = ctx.eb_for_tbpf("crc", 10_000)
    spec = PowerSpec.stochastic(5000.0, seed=0, eb=eb)
    with telemetry.enabled() as tm:
        outcome = ctx.run("schematic", "crc", eb, spec)
    assert outcome.report.power_mode == spec.mode
    events = [r for r in tm.events if r["kind"] == "event"]
    assert any(r["name"] == "segment-bound" for r in events)
    saves = [r for r in events if r["name"] == "ckpt-save"]
    assert saves, "the traced cell recorded no checkpoint saves"
    for record in saves:
        attrs = record["attrs"]
        assert attrs["benchmark"] == "crc"
        assert attrs["technique"] == "schematic"
        assert attrs["eb"] == round(eb, 3)

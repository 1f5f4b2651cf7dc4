"""Unit tests for differential-emulation planning and fallback.

Covers the parts of :mod:`repro.emulator.diffemu` the identity suite
exercises only end-to-end:

- :func:`plan_cell` window math per power mode against a real recorded
  tape (synthesize / fork / cold selection, fork-point safety);
- column sharing: one tape serves every mode of its column;
- cache-key discipline: :meth:`PowerSpec.key_parts` is a pinned schema
  (mode, seed and schedule always included — a SCHEDULED and a
  STOCHASTIC cell must never share);
- sabotage: a corrupted snapshot fails digest verification and
  :func:`run_cell` falls back to cold emulation with the correct report.
"""

import copy
import pickle
import random
from dataclasses import replace

import pytest

from repro.emulator import run_continuous, run_intermittent
from repro.emulator.diffemu import (
    PowerSpec,
    plan_cell,
    record_tape,
    run_cell,
)
from repro.energy import msp430fr5969_platform
from repro.experiments.common import EvaluationContext
from repro.runner.cache import ArtifactCache
from repro.testkit.corpus import compile_for, load_program

TBPF = 10_000

#: The fixture column's budget is derived from a *small* period so the
#: recording commits many checkpoints — the planner tests need a tape
#: with several recharge windows and snapshots.
COLUMN_TBPF = 500


@pytest.fixture(scope="module")
def column():
    """One schematic column (the ``calls`` corpus program) compiled at a
    tight budget, and its recorded tape."""
    bench = load_program("calls")
    proto = msp430fr5969_platform()
    ref = run_continuous(
        bench.module, proto.model, inputs=bench.default_inputs()
    )
    eb = ref.energy.total / max(ref.active_cycles, 1) * COLUMN_TBPF
    plat = msp430fr5969_platform(eb=eb)
    compiled = compile_for(
        "schematic", bench.module, plat,
        input_generator=bench.input_generator(),
    )
    tape = record_tape(
        compiled.module, plat.model, compiled.policy,
        vm_size=plat.vm_size, inputs=bench.default_inputs(),
    )
    return plat, bench, compiled, eb, tape


# -- planning -----------------------------------------------------------------


def test_plan_synthesize_when_predicate_never_fires(column):
    *_, tape = column
    ample = max(c for c, _, _ in tape.recharge_spans) * 2
    plan = plan_cell(tape, PowerSpec.energy_budget(ample))
    assert plan.kind == "synthesize"


def test_plan_cold_when_first_window_fires(column):
    """A budget below window 0's consumption fails before any snapshot
    (the first capture happens at the first commit, after window 0)."""
    *_, tape = column
    tiny = tape.recharge_spans[0][0] * 0.5
    plan = plan_cell(tape, PowerSpec.energy_budget(tiny))
    assert plan.kind == "cold"
    assert plan.first_failure_window == 0


def test_plan_fork_picks_last_safe_snapshot(column):
    """Failing a late window forks from a snapshot strictly before it."""
    *_, tape = column
    spans = tape.recharge_spans
    assert len(spans) >= 3, "recording too short for this test"
    # A window whose consumption strictly exceeds every earlier window:
    # a budget between the two fails there first, and snapshots up to it
    # are safe.
    target = next(
        j for j in range(1, len(spans))
        if spans[j][0] > max(c for c, _, _ in spans[:j])
    )
    eb = max(c for c, _, _ in spans[:target]) + 1e-9
    plan = plan_cell(tape, PowerSpec.energy_budget(eb))
    assert plan.kind == "fork"
    assert plan.first_failure_window == target
    entry = tape.entries[plan.entry_index]
    assert entry.point.recharges <= target
    assert entry.point.consumed <= eb


def test_plan_periodic_and_scheduled_windows(column):
    *_, tape = column
    slow = max(cy for _, cy, _ in tape.recharge_spans) + 1
    assert plan_cell(tape, PowerSpec.periodic(tbpf=slow)).kind == "synthesize"
    fast = min(cy for _, cy, _ in tape.recharge_spans) - 1
    assert plan_cell(tape, PowerSpec.periodic(tbpf=fast)).kind in (
        "cold", "fork",
    )
    beyond = tape.final.timeline + 1
    assert (
        plan_cell(tape, PowerSpec.scheduled((beyond,))).kind == "synthesize"
    )
    assert plan_cell(tape, PowerSpec.scheduled((0,))).kind == "cold"


def test_plan_is_deterministic_for_stochastic_specs(column):
    *_, tape = column
    spec = PowerSpec.stochastic(mean_cycles=TBPF, seed=5)
    assert plan_cell(tape, spec) == plan_cell(tape, spec)


def test_one_tape_serves_every_mode_of_its_column(column):
    """Column sharing: the same tape object answers energy, periodic and
    stochastic cells, each matching its cold run."""
    plat, bench, compiled, eb, tape = column
    inputs = bench.default_inputs()
    for spec in (
        PowerSpec.energy_budget(eb),
        PowerSpec.periodic(tbpf=TBPF, eb=eb),
        PowerSpec.stochastic(mean_cycles=TBPF, seed=1, eb=eb),
    ):
        cold = run_intermittent(
            compiled.module, plat.model, compiled.policy, spec.build(),
            vm_size=plat.vm_size, inputs=inputs,
        )
        got, _ = run_cell(
            compiled.module, plat.model, compiled.policy, spec, tape,
            vm_size=plat.vm_size, inputs=inputs,
        )
        assert repr(got) == repr(cold)


# -- cache-key discipline -----------------------------------------------------


def test_power_spec_key_parts_schema_is_pinned():
    """The run-spec cache identity. Changing this tuple silently
    invalidates (or worse, aliases) stored run outcomes — bump the
    artifact cache's SCHEMA_VERSION alongside any edit here."""
    assert PowerSpec.stochastic(5000.0, seed=7, eb=123.0).key_parts() == (
        "power-spec", "stochastic", "123.0", 0, "5000.0", 7, (),
    )
    assert PowerSpec.scheduled((5000,), eb=123.0).key_parts() == (
        "power-spec", "scheduled", "123.0", 0, "0.0", 0, (5000,),
    )
    assert PowerSpec.periodic(tbpf=5000, eb=123.0).key_parts() == (
        "power-spec", "periodic-cycles", "123.0", 5000, "0.0", 0, (),
    )
    assert PowerSpec.energy_budget(123.0).key_parts() == (
        "power-spec", "energy-budget", "123.0", 0, "0.0", 0, (),
    )


def test_scheduled_and_stochastic_never_share():
    """The regression the schema above prevents: a SCHEDULED and a
    STOCHASTIC spec with otherwise equal numbers must key differently,
    as must two stochastic seeds."""
    sched = PowerSpec.scheduled((5000,), eb=100.0)
    stoch = PowerSpec.stochastic(5000.0, seed=0, eb=100.0)
    assert sched.key_parts() != stoch.key_parts()
    assert ArtifactCache.key(*sched.key_parts()) != ArtifactCache.key(
        *stoch.key_parts()
    )
    assert (
        PowerSpec.stochastic(5000.0, seed=0).key_parts()
        != PowerSpec.stochastic(5000.0, seed=1).key_parts()
    )


def test_run_spec_keys_scheduled_and_stochastic_apart():
    """EvaluationContext.run memoizes the two modes independently even
    when their numeric parameters coincide."""
    ctx = EvaluationContext(benchmarks=["crc"])
    eb = ctx.eb_for_tbpf("crc", TBPF)
    sched = ctx.run(
        "schematic", "crc", eb, spec=PowerSpec.scheduled((5000,), eb=eb)
    )
    stoch = ctx.run(
        "schematic", "crc", eb, spec=PowerSpec.stochastic(5000.0, seed=0, eb=eb)
    )
    assert sum(1 for key in ctx.artifacts if key[0] == "run") == 2
    assert sched.report is not None and stoch.report is not None
    assert sched.report.power_mode != stoch.report.power_mode


# -- sabotage: corrupted snapshots fall back cold -----------------------------


def test_corrupt_snapshot_falls_back_to_cold(column):
    plat, bench, compiled, eb, _ = column
    inputs = bench.default_inputs()
    tape = record_tape(
        compiled.module, plat.model, compiled.policy,
        vm_size=plat.vm_size, inputs=inputs,
    )
    images = tape.entries[-1].snapshot.images
    name = sorted(images["nvm"])[0]
    images["nvm"][name][0] ^= 1
    assert not tape.verify()

    spec = PowerSpec.energy_budget(eb)
    got, plan = run_cell(
        compiled.module, plat.model, compiled.policy, spec, tape,
        vm_size=plat.vm_size, inputs=inputs,
    )
    assert plan.kind == "cold"
    assert "verification" in plan.reason
    cold = run_intermittent(
        compiled.module, plat.model, compiled.policy, spec.build(),
        vm_size=plat.vm_size, inputs=inputs,
    )
    assert repr(got) == repr(cold)


def _corrupt_register(tape):
    frame = next(
        f for e in reversed(tape.entries) for f in e.snapshot.frames
        if f.registers
    )
    name = sorted(frame.registers)[0]
    frame.registers[name] ^= 1


def _corrupt_meter(tape):
    tape.entries[-1].snapshot.meter_state["breakdown"]["save"] += 1.0


def _corrupt_rng(tape):
    # The recording runs under continuous power, so every power state
    # holds no RNG state; any RNG state is a corruption.
    power_state = tape.entries[-1].snapshot.power_state
    assert power_state["_rng_state"] is None
    power_state["_rng_state"] = random.Random(0).getstate()


def _corrupt_point(tape):
    entry = tape.entries[-1]
    entry.point = replace(entry.point, consumed=entry.point.consumed * 2)


def _corrupt_spans(tape):
    consumed, cycles, timeline = tape.recharge_spans[0]
    tape.recharge_spans[0] = (consumed, cycles + 1, timeline)


def _corrupt_report(tape):
    tape.report.energy.computation += 1.0


@pytest.mark.parametrize("corrupt", [
    _corrupt_register, _corrupt_meter, _corrupt_rng, _corrupt_point,
    _corrupt_spans, _corrupt_report,
], ids=["frame-register", "meter-state", "power-state-rng", "power-point",
        "recharge-spans", "report"])
def test_each_digest_part_is_covered(column, corrupt):
    """Corrupting any one part the digest covers fails verification, and
    the cell then runs cold with the correct report."""
    plat, bench, compiled, eb, tape = column
    tape = copy.deepcopy(tape)
    assert tape.verify()
    corrupt(tape)
    assert not tape.verify()
    inputs = bench.default_inputs()
    spec = PowerSpec.energy_budget(eb)
    got, plan = run_cell(
        compiled.module, plat.model, compiled.policy, spec, tape,
        vm_size=plat.vm_size, inputs=inputs,
    )
    assert plan.kind == "cold"
    assert "verification" in plan.reason
    cold = run_intermittent(
        compiled.module, plat.model, compiled.policy, spec.build(),
        vm_size=plat.vm_size, inputs=inputs,
    )
    assert repr(got) == repr(cold)


def test_digest_does_not_depend_on_object_sharing(column):
    """Equal values verify whichever objects they share: a pickle
    round trip (the artifact cache's) and fresh, unshared copies of
    every frame's strings keep a sound tape sound."""
    *_, tape = column
    loaded = pickle.loads(pickle.dumps(tape))
    assert loaded.verify()
    for entry in loaded.entries:
        for frame in entry.snapshot.frames:
            frame.function = "".join(list(frame.function))
            frame.block = "".join(list(frame.block))
    assert loaded.verify()


def test_cross_module_snapshot_is_rejected_not_miscomputed(column):
    """A tape recorded for a *different* module cannot resume: the
    restore validation rejects it and the cell runs cold."""
    plat, bench, compiled, eb, _ = column
    other_bench = load_program("sumloop")
    other = compile_for(
        "schematic", other_bench.module, plat,
        input_generator=other_bench.input_generator(),
    )
    foreign = record_tape(
        other.module, plat.model, other.policy,
        vm_size=plat.vm_size, inputs=other_bench.default_inputs(),
    )
    # Pick a spec that forces a fork on the foreign tape: fail the first
    # window that out-consumes every earlier one.
    spans = foreign.recharge_spans
    target = next(
        j for j in range(1, len(spans))
        if spans[j][0] > max(c for c, _, _ in spans[:j])
    )
    spec = PowerSpec.energy_budget(
        max(c for c, _, _ in spans[:target]) + 1e-9
    )
    assert plan_cell(foreign, spec).kind == "fork"
    got, plan = run_cell(
        compiled.module, plat.model, compiled.policy, spec, foreign,
        vm_size=plat.vm_size, inputs=bench.default_inputs(),
    )
    assert plan.kind == "cold"
    assert "snapshot rejected" in plan.reason
    cold = run_intermittent(
        compiled.module, plat.model, compiled.policy, spec.build(),
        vm_size=plat.vm_size, inputs=bench.default_inputs(),
    )
    assert repr(got) == repr(cold)


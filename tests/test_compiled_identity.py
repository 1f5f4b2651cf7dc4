"""The compiled (threaded-code) interpreter loop must be bit-identical
to the per-step loops it replaces.

``Interpreter._execute_compiled`` runs whole straight-line segments as
fused closures with one batched power/meter transaction per segment
(:mod:`repro.emulator.compiled`). These tests pin the equivalence
contract down from every angle the batching could break:

- report identity across corpus x techniques x power modes, including
  failure placement (``failure_offsets``) and the Fig. 6/7 energy split;
- the fallback rules: ``step_hook``, tracing and recording power
  managers must silently select the per-step pre-decoded loop with
  identical streams, while telemetry keeps the compiled loop and
  records the same event stream;
- crash identity: division by zero, reads of uninitialized registers and
  instruction-budget exhaustion must surface at the same instruction
  with the same accounting, even when they fire mid-segment;
- snapshot/fork (diffemu) resume on top of the compiled loop;
- the segment-structure invariants the codegen relies on.
"""

import dataclasses

import pytest

from repro.emulator import PowerManager
from repro.emulator.compiled import FUSE_LIMIT, Segment
from repro.emulator.diffemu import PowerSpec, record_tape, run_cell
from repro.emulator.interpreter import (
    Interpreter,
    InterpreterConfig,
    run_continuous,
    run_intermittent,
)
from repro.emulator.runtime import CheckpointPolicy
from repro.energy import msp430fr5969_platform
from repro.errors import EmulationError
from repro.ir.instructions import Checkpoint, CondCheckpoint
from repro.ir.textparser import parse_ir
from repro.testkit.corpus import compile_for, load_program

PLAT = msp430fr5969_platform(eb=3000.0)

CASES = [
    ("sumloop", "schematic"),
    ("warloop", "ratchet"),
    ("branchy", "mementos"),
    ("calls", "rockclimb"),
]

LOOPS = (
    ("compiled", {"predecode": True, "compiled": True}),
    ("predecoded", {"predecode": True, "compiled": False}),
    ("undecoded", {"predecode": False, "compiled": False}),
)


def _asdict(report):
    return dataclasses.asdict(report)


def _powers(eb=3000.0):
    return {
        "energy": lambda: PowerManager.energy_budget(eb),
        "periodic": lambda: PowerManager.periodic(tbpf=20_000, eb=eb),
        "scheduled": lambda: PowerManager.scheduled(
            (500, 1_500, 4_000), eb=eb
        ),
        "stochastic": lambda: PowerManager.stochastic(
            mean_cycles=5_000, seed=3, eb=eb
        ),
    }


@pytest.mark.parametrize(
    "program", ["sumloop", "warloop", "branchy", "calls", "aes"]
)
def test_continuous_tri_loop_identity(program):
    bench = load_program(program)
    reports = {
        name: run_continuous(
            bench.module, PLAT.model, inputs=bench.default_inputs(), **kw
        )
        for name, kw in LOOPS
    }
    assert (
        _asdict(reports["compiled"])
        == _asdict(reports["predecoded"])
        == _asdict(reports["undecoded"])
    )


@pytest.mark.parametrize("program,technique", CASES)
@pytest.mark.parametrize("mode", ["energy", "periodic", "scheduled",
                                  "stochastic"])
def test_intermittent_tri_loop_identity(program, technique, mode):
    """Corpus x technique x power mode: the three loops must agree on the
    full report — outputs, energy categories, cycle counts, the number of
    power failures AND where on the timeline each one landed."""
    bench = load_program(program)
    comp = compile_for(
        technique, bench.module, PLAT,
        input_generator=bench.input_generator(),
    )
    assert comp.feasible
    reports = {}
    for name, kw in LOOPS:
        reports[name] = run_intermittent(
            comp.module, PLAT.model, comp.policy, _powers()[mode](),
            vm_size=PLAT.vm_size, inputs=bench.default_inputs(), **kw
        )
    ref = _asdict(reports["undecoded"])
    assert _asdict(reports["compiled"]) == ref
    assert _asdict(reports["predecoded"]) == ref


def test_mid_segment_failure_placement():
    """Scheduled failures at consecutive offsets force failure points
    into the interior of fused segments; the compiled loop must place
    every failure (and the resulting rollback/restore accounting) at the
    exact per-step boundary."""
    bench = load_program("warloop")
    comp = compile_for(
        "ratchet", bench.module, PLAT,
        input_generator=bench.input_generator(),
    )
    assert comp.feasible
    for offset in range(200, 260, 7):
        reports = [
            run_intermittent(
                comp.module, PLAT.model, comp.policy,
                PowerManager.scheduled((offset, offset + 3), eb=3000.0),
                vm_size=PLAT.vm_size, inputs=bench.default_inputs(), **kw
            )
            for _, kw in LOOPS
        ]
        assert _asdict(reports[0]) == _asdict(reports[1]) == (
            _asdict(reports[2])
        ), f"failure placement diverged at offset {offset}"


def _interp(module, inputs=None, **config):
    return Interpreter(
        module, PLAT.model,
        CheckpointPolicy.rollback_mode("continuous"),
        PowerManager.continuous(),
        InterpreterConfig(inputs=dict(inputs or {}), **config),
    )


def test_loop_selection_and_fallbacks():
    """The compiled loop must only engage when nothing observes per-step
    granularity; each bypass condition silently selects the pre-decoded
    loop."""
    bench = load_program("sumloop")
    module, inputs = bench.module, bench.default_inputs()

    interp = _interp(module, inputs)
    interp.run()
    assert interp.loop_used == "compiled"

    interp = _interp(module, inputs, compiled=False)
    interp.run()
    assert interp.loop_used == "predecoded"

    interp = _interp(module, inputs, predecode=False)
    interp.run()
    assert interp.loop_used == "undecoded"

    hooks = []
    interp = _interp(
        module, inputs, step_hook=lambda label, cyc: hooks.append(label)
    )
    interp.run()
    assert interp.loop_used == "predecoded"
    assert hooks, "the step_hook fallback must still deliver the stream"

    # A recording power manager enumerates every injectable boundary —
    # batching would skip boundaries, so it must bypass the fast path.
    interp = Interpreter(
        module, PLAT.model,
        CheckpointPolicy.rollback_mode("continuous"),
        PowerManager.recording(),
        InterpreterConfig(inputs=dict(inputs)),
    )
    interp.run()
    assert interp.loop_used == "predecoded"


def test_step_hook_stream_identical_to_undecoded():
    bench = load_program("branchy")
    comp = compile_for(
        "mementos", bench.module, PLAT,
        input_generator=bench.input_generator(),
    )
    assert comp.feasible

    def run(predecode):
        hooks = []
        run_intermittent(
            comp.module, PLAT.model, comp.policy,
            PowerManager.energy_budget(3000.0),
            vm_size=PLAT.vm_size, inputs=bench.default_inputs(),
            step_hook=lambda label, cycles: hooks.append((label, cycles)),
            predecode=predecode,
        )
        return hooks

    assert run(True) == run(False)


def test_telemetry_bypasses_compiled_loop():
    from repro import telemetry

    bench = load_program("sumloop")
    tm = telemetry.enable(meta={"tool": "test"})
    try:
        interp = _interp(bench.module, bench.default_inputs())
        interp.run()
        assert interp.loop_used == "compiled", (
            "enabled telemetry must not bypass the compiled loop"
        )
    finally:
        telemetry.disable()
    assert tm is not None


def test_telemetry_streams_unchanged_by_compiled_default():
    """Traced runs take the compiled loop when the config enables it,
    and the recorded event stream must be byte-identical to the one the
    pre-decoded loop records."""
    from repro import telemetry

    bench = load_program("warloop")

    def events(compiled):
        telemetry.enable(meta={"tool": "test"})
        try:
            interp = _interp(
                bench.module, bench.default_inputs(), compiled=compiled
            )
            interp.run()
            tm = telemetry.get()
            # Runtime events are stamped with the emulated timeline;
            # drop wall-clock span durations before comparing.
            return [
                {k: v for k, v in e.items() if k not in ("dur",)}
                for e in tm.events
                if e.get("kind") == "event"
            ]
        finally:
            telemetry.disable()

    assert events(True) == events(False)


DIV_ZERO_IR = """module dz (entry @main)
global @result:u32
global @divisor:u32

func @main() -> void {
.entry:
    %t1:u32 = load.auto @divisor
    %t2:u32 = div 100:i32, %t1:u32
    store.auto @result = %t2:u32
    ret
}
"""

UNINIT_IR = """module ur (entry @main)
global @result:u32

func @main() -> void {
.entry:
    %t1:u32 = add 1:i32, 2:i32
    %t2:u32 = add %t9:u32, 1:i32
    store.auto @result = %t2:u32
    ret
}
"""


@pytest.mark.parametrize(
    "text,inputs,match",
    [
        (DIV_ZERO_IR, {"divisor": [0]}, "division by zero"),
        (UNINIT_IR, None, "uninitialized register %t9"),
    ],
    ids=["div-zero", "uninit-register"],
)
def test_crash_identity(text, inputs, match):
    """Faults raised from inside a fused closure must carry the same
    message and leave the same partially-charged accounting as the
    per-step loops (the reconciliation replay)."""
    module = parse_ir(text)
    states = {}
    for name, kw in LOOPS:
        interp = _interp(module, inputs, **kw)
        with pytest.raises(EmulationError, match=match):
            interp.run()
        states[name] = (
            interp.instructions_executed,
            interp.active_cycles,
            interp.meter.state_dict(),
            interp.frames[-1].index if interp.frames else None,
        )
    assert states["compiled"] == states["predecoded"] == states["undecoded"]


def test_max_instructions_exhaustion_identity():
    bench = load_program("sumloop")
    reports = {
        name: run_continuous(
            bench.module, PLAT.model, inputs=bench.default_inputs(),
            max_instructions=137, **kw
        )
        for name, kw in LOOPS
    }
    assert not reports["compiled"].completed
    assert (
        _asdict(reports["compiled"])
        == _asdict(reports["predecoded"])
        == _asdict(reports["undecoded"])
    )


@pytest.mark.parametrize("mode", ["energy", "periodic", "stochastic"])
def test_diffemu_fork_identity_under_compiled(mode):
    """Snapshot/fork resume must compose with the compiled loop: the
    differential cell (recorded and resumed with compiled=True) must
    reproduce the cold undecoded run bit-for-bit."""
    bench = load_program("sumloop")
    comp = compile_for(
        "schematic", bench.module, PLAT,
        input_generator=bench.input_generator(),
    )
    assert comp.feasible
    inputs = bench.default_inputs()
    specs = {
        "energy": PowerSpec.energy_budget(3000.0),
        "periodic": PowerSpec.periodic(tbpf=20_000, eb=3000.0),
        "stochastic": PowerSpec.stochastic(
            mean_cycles=5_000, seed=3, eb=3000.0
        ),
    }
    tape = record_tape(
        comp.module, PLAT.model, comp.policy,
        vm_size=PLAT.vm_size, inputs=inputs, compiled=True,
    )
    paired, _plan = run_cell(
        comp.module, PLAT.model, comp.policy, specs[mode], tape,
        vm_size=PLAT.vm_size, inputs=inputs, compiled=True,
    )
    cold = run_intermittent(
        comp.module, PLAT.model, comp.policy, _powers()[mode](),
        vm_size=PLAT.vm_size, inputs=inputs,
        predecode=False, compiled=False,
    )
    assert _asdict(paired) == _asdict(cold)


def test_segment_structure_invariants():
    """compile_blocks must cover exactly the non-checkpoint instruction
    runs: segments start where the per-step path hands over, never span
    a checkpoint, respect the fuse limit per chunk, and carry accounting
    streams of the segment's exact length."""
    bench = load_program("sumloop")
    comp = compile_for(
        "schematic", bench.module, PLAT,
        input_generator=bench.input_generator(),
    )
    interp = _interp(comp.module, bench.default_inputs())
    interp.run()
    assert interp.loop_used == "compiled"
    ccode = interp._ccode
    assert set(ccode) == set(interp._code), "every decoded block compiles"
    for key, seg_map in ccode.items():
        entries = interp._code[key]
        covered = set()
        for start, seg in seg_map.items():
            assert isinstance(seg, Segment)
            assert seg.start == start
            assert seg.n == len(seg.costs) == len(seg.energies)
            assert seg.n == sum(seg.widths)
            assert len(seg.cpu) == seg.n
            assert seg.vm_n == len(seg.vm_e)
            assert seg.nvm_n == len(seg.nvm_e)
            assert seg.cycles == sum(c[0] for c in seg.costs)
            assert all(w <= FUSE_LIMIT for w in seg.widths)
            for index in range(start, start + seg.n):
                handler, _cost, inst, _label = entries[index]
                assert handler is not None, (
                    "a checkpoint may never sit inside a segment"
                )
                assert not isinstance(inst, (Checkpoint, CondCheckpoint))
                covered.add(index)
            if seg.end_index is not None:
                # Straight-line segment: falls through to the next index.
                assert seg.end_index == start + seg.n
        ckpt_indices = {
            i for i, (handler, _c, _i, _l) in enumerate(entries)
            if handler is None
        }
        assert covered.isdisjoint(ckpt_indices)
        # Segment starts + checkpoints must cover index 0 so a block
        # entered at its head always makes progress.
        assert 0 in covered or 0 in ckpt_indices or not entries


def test_compiled_flag_defaults_on():
    assert InterpreterConfig().compiled is True

"""The interpreter loop with compiled segments on must be
bit-identical to the same loop with segments off, where every
instruction takes the per-step path.

With segments on, ``Interpreter._execute`` runs whole straight-line
segments inside generated region functions with one batched power/meter
transaction per segment (:mod:`repro.emulator.compiled`). These tests
pin the equivalence contract down from every angle the batching could
break:

- the decode table both modes run on: every instruction bound to the
  handler its type (and environment-input flag) selects, at its cost;
- report identity across corpus x techniques x power modes, including
  failure placement (``failure_offsets``) and the Fig. 6/7 energy split,
  and across twelve programs of the fuzz suite's generator;
- block-trace identity: every run above is traced, and the
  ``(function, label)`` stream must match event for event — one event
  per block entry, whether a generated control transfer or the
  interpreter's own handler made it;
- the fallback rules: ``step_hook`` and recording power managers must
  silently turn segments off without changing the report (and without
  compiling any), while block tracing and telemetry keep segments on and
  record the same streams;
- crash identity: division by zero, reads of uninitialized registers,
  a non-scalar terminator operand, a handler-run op that raises and
  instruction-budget exhaustion must surface at the same instruction
  with the same accounting and trace prefix, even when they fire
  mid-segment;
- snapshot/fork (diffemu) resume with segments on;
- conditional checkpoints' iteration checks run inside regions: every
  check position, each power mode and policy, a failure on the check's
  own cycles, the instruction-budget edge at a check, diffemu tapes;
- the segment-structure invariants the codegen relies on.
"""

import dataclasses
import functools
import random
import re
from pathlib import Path

import pytest

from repro.analysis import memo
from repro.core import tracing
from repro.emulator import PowerManager
from repro.emulator import compiled
from repro.emulator.compiled import REGION_LIMIT, Segment
from repro.emulator.diffemu import PowerSpec, record_tape, run_cell
from repro.emulator.interpreter import (
    Interpreter,
    InterpreterConfig,
    _Frame,
    run_continuous,
    run_intermittent,
)
from repro.emulator.runtime import CheckpointPolicy
from repro.energy import msp430fr5969_platform
from repro.errors import EmulationError
from repro.frontend import compile_source
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    Checkpoint,
    CondCheckpoint,
    Jump,
    Load,
    Move,
    Ret,
    Store,
    UnOp,
)
from repro.ir.printer import print_module
from repro.ir.textparser import parse_ir
from repro.ir.values import MemorySpace
from repro.programs import BENCHMARK_NAMES, get_benchmark
from repro.testkit.corpus import compile_for, load_program
from tests.test_fuzz_schematic import generate_program

PLAT = msp430fr5969_platform(eb=3000.0)

CASES = [
    ("sumloop", "schematic"),
    ("warloop", "ratchet"),
    ("branchy", "mementos"),
    ("calls", "rockclimb"),
]

LOOPS = (
    ("compiled", {"compiled": True}),
    ("predecoded", {"compiled": False}),
)

#: The handler each instruction type must decode to, written out
#: independently of the interpreter's own table. ``None`` routes the
#: entry to the checkpoint cold path. Loads of volatile environment
#: inputs decode to ``_apply_load_env`` instead (see
#: ``_expected_handler``).
HANDLERS = {
    BinOp: "_apply_binop",
    Load: "_apply_load",
    Store: "_apply_store",
    Move: "_apply_move",
    UnOp: "_apply_unop",
    Jump: "_apply_jump",
    Branch: "_apply_branch",
    Call: "_do_call",
    Ret: "_do_ret",
    Checkpoint: None,
    CondCheckpoint: None,
}

CORPUS_PROGRAMS = ("sumloop", "warloop", "branchy", "calls")
TECHNIQUES = ("schematic", "rockclimb", "allnvm", "ratchet", "mementos",
              "alfred")
#: A checked-in transformed module whose ``@data`` is a volatile
#: environment input: its Loads of ``@data`` must decode to the
#: sampling handler.
VOLATILE_IR = (
    Path(__file__).parent / "corpus_bad" / "warloop_ratchet_repeated_read.ir"
)


@pytest.fixture(autouse=True)
def _fresh_caches(monkeypatch):
    """Each test compiles with fresh generated-code caches, so what it
    checks does not depend on which tests ran before it."""
    monkeypatch.setattr(compiled, "_PROGRAMS", {})
    monkeypatch.setattr(compiled, "_FACTORIES", {})


def _asdict(report):
    return dataclasses.asdict(report)


def _recorder():
    """A block-trace callback and the list it appends events to."""
    events = []
    return (lambda function, label: events.append((function, label))), events


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
    """Traced runs on both loops must agree on the report and on the
    block-trace stream, and tracing must not change the report."""
    bench = load_program(program)
    runs = {}
    for name, kw in LOOPS:
        trace, events = _recorder()
        report = run_continuous(
            bench.module, PLAT.model, inputs=bench.default_inputs(),
            trace=trace, **kw
        )
        runs[name] = (_asdict(report), events)
    assert runs["compiled"][1], "a run enters at least its entry block"
    assert runs["compiled"] == runs["predecoded"]
    untraced = run_continuous(
        bench.module, PLAT.model, inputs=bench.default_inputs()
    )
    assert _asdict(untraced) == runs["compiled"][0]


@pytest.mark.parametrize("program,technique", CASES)
@pytest.mark.parametrize("mode", ["energy", "periodic", "scheduled",
                                  "stochastic"])
def test_intermittent_tri_loop_identity(program, technique, mode):
    """Corpus x technique x power mode: the two loops must agree on the
    full report — outputs, energy categories, cycle counts, the number of
    power failures AND where on the timeline each one landed — and on
    the block-trace stream, which here includes the entry event a reboot
    emits and the blocks re-entered after each rollback resume."""
    bench = load_program(program)
    comp = compile_for(
        technique, bench.module, PLAT,
        input_generator=bench.input_generator(),
    )
    assert comp.feasible
    runs = {}
    for name, kw in LOOPS:
        trace, events = _recorder()
        interp = Interpreter(
            comp.module, PLAT.model, comp.policy, _powers()[mode](),
            InterpreterConfig(
                inputs=bench.default_inputs(), vm_size=PLAT.vm_size,
                trace=trace, **kw
            ),
        )
        runs[name] = (_asdict(interp.run()), events)
        assert interp.loop_used == name
    assert runs["compiled"] == runs["predecoded"]


#: Budget the generated programs are placed for (one of the fuzz
#: suite's budgets).
GENERATED_EB = 1_100.0


@pytest.mark.parametrize("seed", range(12))
def test_generated_program_identity(seed):
    """Programs from the fuzz suite's generator (helper calls, nested
    loops, ``while`` tails, ``break``s, casts: code shapes the corpus
    lacks), placed by SCHEMATIC, must give the same report and block
    trace on both loops under an energy budget and under stochastic
    power (which here both completes runs after failures and leaves
    some stuck)."""
    module = compile_source(generate_program(random.Random(seed)))
    size = module.globals["data"].count

    def inputs(run):
        rng = random.Random(seed * 100 + run)
        return {"data": [rng.randrange(0, 500) for _ in range(size)]}

    plat = msp430fr5969_platform(eb=GENERATED_EB)
    comp = compile_for("schematic", module, plat, input_generator=inputs)
    assert comp.feasible
    powers = (
        lambda: PowerManager.energy_budget(GENERATED_EB),
        lambda: PowerManager.stochastic(
            mean_cycles=2_000, seed=seed, eb=GENERATED_EB
        ),
    )
    for power in powers:
        runs = {}
        for name, kw in LOOPS:
            trace, events = _recorder()
            interp = Interpreter(
                comp.module, plat.model, comp.policy, power(),
                InterpreterConfig(
                    inputs=inputs(777), vm_size=plat.vm_size, trace=trace,
                    **kw
                ),
            )
            runs[name] = (_asdict(interp.run()), events)
            assert interp.loop_used == name
        assert runs["compiled"] == runs["predecoded"]


def test_mid_segment_failure_placement():
    """Scheduled failures at consecutive offsets force failure points
    into the interior of segments; the compiled loop must place
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
        assert _asdict(reports[0]) == _asdict(reports[1]), (
            f"failure placement diverged at offset {offset}"
        )


def _interp(module, inputs=None, **config):
    return Interpreter(
        module, PLAT.model,
        CheckpointPolicy.rollback_mode("continuous"),
        PowerManager.continuous(),
        InterpreterConfig(inputs=dict(inputs or {}), **config),
    )


def _expected_handler(interp, inst):
    if type(inst) is Load and inst.var.volatile_input:
        return interp._apply_load_env
    name = HANDLERS[type(inst)]
    return None if name is None else getattr(interp, name)


def _decode_cases():
    for program in CORPUS_PROGRAMS:
        for technique in TECHNIQUES:
            yield pytest.param(program, technique,
                               id=f"{program}-{technique}")
    yield pytest.param(None, None, id="volatile-input")


@pytest.mark.parametrize("program,technique", _decode_cases())
def test_decode_covers_every_block_and_flags_checkpoints(program, technique):
    """Both loops run on the decode table, so a wrong handler or cost
    there corrupts them identically and no loop-identity test can see
    it: check every entry against the type table above and against
    ``_compute_cost`` instead."""
    if program is None:
        module = parse_ir(VOLATILE_IR.read_text())
    else:
        bench = load_program(program)
        comp = compile_for(
            technique, bench.module, PLAT,
            input_generator=bench.input_generator(),
        )
        module = comp.module
    interp = _interp(module)
    expected = {
        (f.name, label)
        for f in module.functions.values()
        for label in f.blocks
    }
    assert set(interp._code) == expected
    env_loads = 0
    for (fname, label), entries in interp._code.items():
        block = module.functions[fname].blocks[label]
        assert len(entries) == len(block.instructions)
        for index, (handler, cost, inst, lab) in enumerate(entries):
            assert inst is block.instructions[index], "decode must bind identity"
            assert lab == f"{fname}:{label}:{index}"
            assert handler == _expected_handler(interp, inst), (
                f"{lab}: {type(inst).__name__} decoded to {handler}"
            )
            assert cost == interp._compute_cost(inst)
            env_loads += handler == interp._apply_load_env
    assert (env_loads > 0) == (program is None), (
        "exactly the volatile-input module samples the environment"
    )


def test_loop_selection_and_fallbacks():
    """The compiled loop must engage unless something observes per-step
    granularity; each of the two bypass conditions — a ``step_hook`` and
    a recording power manager — silently selects the pre-decoded loop.
    Block tracing is not one of them."""
    bench = load_program("sumloop")
    module, inputs = bench.module, bench.default_inputs()

    interp = _interp(module, inputs)
    interp.run()
    assert interp.loop_used == "compiled"
    assert interp._ccode is not None

    # Runs that keep every step per-step never pay for compilation.
    interp = _interp(module, inputs, compiled=False)
    interp.run()
    assert interp.loop_used == "predecoded"
    assert interp._ccode is None

    # Block tracing (the profiler's input) keeps the compiled loop and
    # delivers the stream the pre-decoded loop delivers.
    streams = {}
    for name, kw in LOOPS:
        trace, streams[name] = _recorder()
        interp = _interp(module, inputs, trace=trace, **kw)
        interp.run()
        assert interp.loop_used == name
    assert streams["compiled"], "the traced run must deliver the stream"
    assert streams["compiled"] == streams["predecoded"]

    hooks = []
    interp = _interp(
        module, inputs, step_hook=lambda label, cyc: hooks.append(label)
    )
    interp.run()
    assert interp.loop_used == "predecoded"
    assert interp._ccode is None
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
    assert interp._ccode is None


def test_step_hook_stream_identical_to_predecoded():
    """A step_hook run under the compiled default falls back to the
    pre-decoded loop: its stream must equal the one an explicit
    ``compiled=False`` run records, and observing the run must not
    change its report."""
    bench = load_program("branchy")
    comp = compile_for(
        "mementos", bench.module, PLAT,
        input_generator=bench.input_generator(),
    )
    assert comp.feasible

    def run(compiled, hooked=True):
        hooks = []
        report = run_intermittent(
            comp.module, PLAT.model, comp.policy,
            PowerManager.energy_budget(3000.0),
            vm_size=PLAT.vm_size, inputs=bench.default_inputs(),
            step_hook=(
                (lambda label, cycles: hooks.append((label, cycles)))
                if hooked else None
            ),
            compiled=compiled,
        )
        return _asdict(report), hooks

    report, hooks = run(compiled=True)
    assert hooks
    assert (report, hooks) == run(compiled=False)
    assert report == run(compiled=True, hooked=False)[0]


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


#: A terminator with a by-reference operand: the code generator does not
#: express it, so the segment ends in the interpreter's own ``_do_ret``,
#: which raises before returning.
VARREF_RET_IR = """module vr (entry @main)
global @result:u32

func @main() -> u32 {
.entry:
    %t1:u32 = add 1:i32, 2:i32
    jump .body
.body:
    store.auto @result = %t1:u32
    ret &result
}
"""


#: A segment with a handler-run op in its middle: a const-const BinOp is
#: left to the interpreter's own ``_apply_binop`` (``_can_gen``), between
#: generated instructions of ``.body``. Either the op itself raises or
#: the generated instruction right after it does.
HANDLER_OP_IR = """module ho (entry @main)
global @result:u32

func @main() -> void {{
.entry:
    %t0:u32 = move 7:i32
    jump .body
.body:
    %t1:u32 = add %t0:u32, 1:i32
    %t2:u32 = {handler_op}
    %t3:u32 = add {operand}:u32, %t2:u32
    store.auto @result = %t3:u32
    ret
}}
"""


#: Loads and stores in both spaces, then one faulting access: ``@v`` is
#: VM-resident after the checkpoint's migration, ``@out`` never is. The
#: generated code indexes the live images inline and leaves every
#: failing access to ``MemoryState.read``/``write``, whose message must
#: come out unchanged.
MEMORY_IR = """module mem (entry @main)
global @a:u32[4]
global @v:u32[4]
global @out:u32

func @main() -> void {{
.entry:
    checkpoint #1 save=[] restore=[] vm_after=[v] nvm_after=[a, out]
    store.nvm @a[1:i32] = 5:i32
    store.vm @v[2:i32] = 6:i32
    %t1:u32 = load.nvm @a[1:i32]
    %t2:u32 = load.vm @v[2:i32]
    %t3:u32 = add %t1:u32, %t2:u32
    %t4:i32 = move {index}:i32
    {access}
    store.nvm @out = %t3:u32
    ret
}}
"""

MEMORY_CASES = [
    # (id, faulting access, index register value, message)
    ("oob-read-const", "%t9:u32 = load.nvm @a[4:i32]", 0,
     "out-of-bounds read @a[4] (size 4)"),
    ("oob-read-register", "%t9:u32 = load.nvm @a[%t4:i32]", 7,
     "out-of-bounds read @a[7] (size 4)"),
    ("oob-read-negative", "%t9:u32 = load.nvm @a[-1:i32]", 0,
     "out-of-bounds read @a[-1] (size 4)"),
    ("oob-read-negative-register", "%t9:u32 = load.vm @v[%t4:i32]", -2,
     "out-of-bounds read @v[-2] (size 4)"),
    ("oob-write-const", "store.vm @v[4:i32] = %t3:u32", 0,
     "out-of-bounds write @v[4] (size 4)"),
    ("oob-write-register", "store.nvm @a[%t4:i32] = %t3:u32", 4,
     "out-of-bounds write @a[4] (size 4)"),
    ("oob-write-negative", "store.nvm @a[-3:i32] = 1:i32", 0,
     "out-of-bounds write @a[-3] (size 4)"),
    ("oob-write-negative-register", "store.nvm @a[%t4:i32] = 1:i32", -1,
     "out-of-bounds write @a[-1] (size 4)"),
    ("vm-read-non-resident", "%t9:u32 = load.vm @out", 0,
     "VM access to @out, which is not VM-resident"),
    ("vm-write-non-resident", "store.vm @out = %t3:u32", 0,
     "VM access to @out, which is not VM-resident"),
    ("both-spaces-then-div-zero", "%t9:u32 = div %t3:u32, 0:i32", 0,
     "division by zero"),
]


@pytest.mark.parametrize(
    "text,inputs,match",
    [
        (DIV_ZERO_IR, {"divisor": [0]}, "division by zero"),
        (UNINIT_IR, None, "uninitialized register %t9"),
        (VARREF_RET_IR, None, "is not a scalar value"),
        (HANDLER_OP_IR.format(handler_op="add 1:i32, 2:i32",
                              operand="%t9"),
         None, "uninitialized register %t9 in @main"),
        (HANDLER_OP_IR.format(handler_op="div 1:i32, 0:i32",
                              operand="%t1"),
         None, "division by zero"),
    ] + [
        (MEMORY_IR.format(access=access, index=index), None, re.escape(msg))
        for _id, access, index, msg in MEMORY_CASES
    ],
    ids=["div-zero", "uninit-register", "varref-terminator",
         "fault-after-handler-op", "handler-op-fault-mid-segment"]
    + [case[0] for case in MEMORY_CASES],
)
def test_crash_identity(text, inputs, match):
    """Faults raised inside a segment, by generated code or by an op it
    calls, must carry the same message, trace prefix and
    partially-charged accounting as the per-step loops (the
    reconciliation replay)."""
    module = parse_ir(text)
    states = {}
    messages = {}
    for name, kw in LOOPS:
        trace, events = _recorder()
        interp = _interp(module, inputs, trace=trace, **kw)
        with pytest.raises(EmulationError, match=match) as excinfo:
            interp.run()
        messages[name] = (str(excinfo.value), interp.memory.snapshot_images())
        states[name] = (
            events,
            interp.instructions_executed,
            interp.active_cycles,
            interp.meter.state_dict(),
            interp.frames[-1].index if interp.frames else None,
        )
    assert states["compiled"] == states["predecoded"]
    assert messages["compiled"] == messages["predecoded"]


def test_handler_control_op_traces_once(monkeypatch):
    """A segment whose control op is the interpreter's own handler (the
    fallback for shapes ``_can_gen`` refuses) must not have its block
    entry traced a second time by the region. Forcing every Jump and
    Branch through the fallback makes each handler trace a real
    transfer; the stream must still match the pre-decoded loop's event
    for event."""
    from repro.emulator import compiled as compiled_blocks

    can_gen = compiled_blocks._can_gen
    monkeypatch.setattr(
        compiled_blocks, "_can_gen",
        lambda inst: type(inst) not in (Jump, Branch) and can_gen(inst),
    )
    bench = load_program("calls")
    streams = {}
    for name, kw in LOOPS:
        trace, streams[name] = _recorder()
        interp = _interp(
            bench.module, bench.default_inputs(), trace=trace, **kw
        )
        interp.run()
        assert interp.loop_used == name
        if name == "compiled":
            segments = _segments(interp)
    assert any(
        seg.end_index is None and not seg.traces_entry for seg in segments
    ), "the fallback must produce handler-ended segments"
    assert streams["compiled"] == streams["predecoded"]


@pytest.mark.sweep
@pytest.mark.parametrize("program", BENCHMARK_NAMES)
def test_kernel_profile_identity(program, monkeypatch):
    """Kernel-size profiling: ``collect_profile`` on the compiled loop
    (its default) must yield the same ``Profile`` as on the pre-decoded
    loop, for every MiBench2 kernel with its own input generator."""
    bench = get_benchmark(program)

    def profile():
        # Each profile must run: a memo hit would compare a profile
        # with itself.
        memo.reset_memo()
        return tracing.collect_profile(
            bench.module, PLAT.model,
            input_generator=bench.input_generator(),
        )

    compiled = profile()
    monkeypatch.setattr(
        tracing, "run_continuous",
        functools.partial(run_continuous, compiled=False),
    )
    predecoded = profile()
    assert compiled.traces
    assert compiled.traces == predecoded.traces


def test_max_instructions_exhaustion_identity():
    bench = load_program("sumloop")
    runs = {}
    for name, kw in LOOPS:
        trace, events = _recorder()
        report = run_continuous(
            bench.module, PLAT.model, inputs=bench.default_inputs(),
            max_instructions=137, trace=trace, **kw
        )
        runs[name] = (_asdict(report), events)
    assert not runs["compiled"][0]["completed"]
    assert runs["compiled"] == runs["predecoded"]


@pytest.mark.parametrize("mode", ["energy", "periodic", "stochastic"])
def test_diffemu_fork_identity_under_compiled(mode):
    """Snapshot/fork resume must compose with the compiled loop: the
    differential cell (recorded and resumed on the default compiled
    loop) must reproduce the cold pre-decoded run bit-for-bit."""
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
        vm_size=PLAT.vm_size, inputs=inputs,
    )
    paired, _plan = run_cell(
        comp.module, PLAT.model, comp.policy, specs[mode], tape,
        vm_size=PLAT.vm_size, inputs=inputs,
    )
    cold = run_intermittent(
        comp.module, PLAT.model, comp.policy, _powers()[mode](),
        vm_size=PLAT.vm_size, inputs=inputs, compiled=False,
    )
    assert _asdict(paired) == _asdict(cold)


def _regions(interp):
    """The distinct regions of a compiled interpreter."""
    return list({id(r): r for r, _starts in interp._ccode.values()}.values())


def _segments(interp):
    return [seg for region in _regions(interp) for seg in region.segments]


def test_segment_structure_invariants():
    """compile_blocks must cover exactly the non-checkpoint instruction
    runs plus one zero-instruction check segment per conditional
    checkpoint: every block belongs to one region, segments start where
    the per-step path hands over, never span a checkpoint, carry
    accounting streams of the segment's exact length, and trace a block entry exactly when their control
    transfer is generated. Check segments do not count toward
    ``REGION_LIMIT``."""
    bench = load_program("calls")
    comp = compile_for(
        "schematic", bench.module, PLAT,
        input_generator=bench.input_generator(),
    )
    interp = _interp(comp.module, bench.default_inputs())
    interp.run()
    assert interp.loop_used == "compiled"
    ccode = interp._ccode
    assert set(ccode) == set(interp._code), "every decoded block compiles"
    conds = 0
    for region in _regions(interp):
        assert sum(1 for seg in region.segments if seg.n) <= REGION_LIMIT
        ids = sorted(
            sid for starts in region.entries.values()
            for sid in starts.values()
        )
        assert ids == list(range(len(region.segments)))
    for key, (region, starts) in ccode.items():
        assert region.entries[key[1]] is starts
        entries = interp._code[key]
        covered = set()
        checked = set()
        for start, sid in starts.items():
            seg = region.segments[sid]
            assert isinstance(seg, Segment)
            assert (seg.label, seg.start) == (key[1], start)
            if isinstance(entries[start][2], CondCheckpoint):
                # A check segment: the iteration check, no instruction.
                assert seg.n == 0 and seg.costs == ()
                assert seg.end_index == start + 1
                assert not seg.traces_entry
                checked.add(start)
                continue
            assert seg.n > 0
            assert seg.n == len(seg.costs) == len(seg.energies)
            assert len(seg.cpu) == seg.n
            assert len(seg.vm_e) == sum(1 for c in seg.costs if c[4] and c[3])
            assert len(seg.nvm_e) == sum(
                1 for c in seg.costs if c[4] and not c[3]
            )
            assert seg.cycles == sum(c[0] for c in seg.costs)
            for index in range(start, start + seg.n):
                handler, _cost, inst, _label = entries[index]
                assert handler is not None, (
                    "a checkpoint may never sit inside a segment"
                )
                assert not isinstance(inst, (Checkpoint, CondCheckpoint))
                assert index not in covered
                covered.add(index)
            last = entries[start + seg.n - 1][2]
            if seg.end_index is not None:
                # Falls through to the checkpoint that ends it.
                assert seg.end_index == start + seg.n
                assert entries[seg.end_index][0] is None
                assert not seg.traces_entry, "a fall-through enters no block"
            else:
                # Every control op here is generated, so the region (not
                # a handler) must trace the block it enters.
                assert type(last) in (Jump, Branch, Call, Ret)
                assert seg.traces_entry
        ckpt_indices = {
            i for i, (handler, _c, _i, _l) in enumerate(entries)
            if handler is None
        }
        # Segments and checkpoints partition the block.
        assert covered | ckpt_indices == set(range(len(entries)))
        assert covered.isdisjoint(ckpt_indices)
        # Check segments cover exactly the conditional checkpoints.
        assert checked == {
            i for i in ckpt_indices
            if isinstance(entries[i][2], CondCheckpoint)
        }
        conds += len(checked)
    assert conds, "the placement has a conditional checkpoint"


def test_compiled_flag_defaults_on():
    assert InterpreterConfig().compiled is True


def test_resume_on_compiled_interpreter_reads_restored_images():
    """Generated regions bind the live ``MemoryState`` image dicts at
    instantiation, so a snapshot restore must refill those dicts, not
    rebind them: resuming an interpreter whose segments were compiled by
    an earlier run must replay the cold run's suffix exactly."""
    bench = load_program("sumloop")
    comp = compile_for(
        "schematic", bench.module, PLAT,
        input_generator=bench.input_generator(),
    )
    inputs = bench.default_inputs()
    snapshots = []

    def capture(interp, _ckpt_id):
        if not snapshots:
            snapshots.append(interp.capture_snapshot())

    def build(**config):
        return Interpreter(
            comp.module, PLAT.model, comp.policy,
            PowerManager.energy_budget(3000.0),
            InterpreterConfig(
                inputs=dict(inputs), vm_size=PLAT.vm_size, **config
            ),
        )

    cold = build(commit_hook=capture).run()
    assert snapshots
    interp = build()
    interp.run()
    assert interp._ccode is not None, "segments compiled by the first run"
    images = (interp.memory.nvm, interp.memory.vm)
    resumed = interp.resume(snapshots[0])
    assert interp.memory.nvm is images[0] and interp.memory.vm is images[1]
    assert _asdict(resumed) == _asdict(cold)


# -- regions -------------------------------------------------------------------

#: A 150-iteration loop with no checkpoint inside: head, body and latch
#: are one region, so the loop runs without returning to the dispatch
#: loop. ``@acc`` is read and written every iteration.
LOOP_IR = """module loop (entry @main)
global @acc:u32
global @out:u32

func @main() -> void {
.entry:
    checkpoint #1 save=[] restore=[] vm_after=[] nvm_after=[acc, out]
    %i:u32 = move 0:i32
    %s:u32 = move 0:i32
    jump .head
.head:
    %c:u8 = lt %i:u32, 150:i32
    branch %c:u8 ? .body : .done
.body:
    %t:u32 = load.nvm @acc
    %u:u32 = add %t:u32, %i:u32
    store.nvm @acc = %u:u32
    %s:u32 = xor %s:u32, %u:u32
    jump .latch
.latch:
    %i:u32 = add %i:u32, 1:i32
    jump .head
.done:
    store.nvm @out = %s:u32
    checkpoint #2 save=[] restore=[] vm_after=[] nvm_after=[]
    ret
}
"""


def _region_entries(monkeypatch):
    """Record ``(label, start)`` of every region entry."""
    entered = []
    instantiate = compiled._Program.instantiate

    def recording(program, interp, frame_cls):
        run = instantiate(program, interp, frame_cls)

        def recorded(frame, sid, xmax):
            seg = program.segments[sid]
            entered.append((seg.label, seg.start))
            return run(frame, sid, xmax)

        return recorded

    monkeypatch.setattr(compiled._Program, "instantiate", recording)
    return entered


def _run_both(module, power=None, policy=None, **config):
    """Run ``module`` with segments on and off; per loop: the report (or
    the raised error's message), the trace stream, and the meter and
    power state, instruction count, cycles and top-frame position."""
    out = {}
    for name, kw in LOOPS:
        trace, events = _recorder()
        interp = Interpreter(
            module, PLAT.model,
            policy or CheckpointPolicy.rollback_mode("continuous"),
            power() if power else PowerManager.continuous(),
            InterpreterConfig(trace=trace, **config, **kw),
        )
        try:
            result = _asdict(interp.run())
        except EmulationError as exc:
            result = str(exc)
        top = interp.frames[-1] if interp.frames else None
        out[name] = (
            result, events, interp.meter.state_dict(),
            interp.power.state_dict(), interp.instructions_executed,
            interp.active_cycles,
            (top.block, top.index) if top is not None else None,
            interp.memory.snapshot_images(),
        )
        assert interp.loop_used == name
    return out


@pytest.mark.parametrize("mode", ["energy", "periodic", "scheduled",
                                  "stochastic"])
def test_region_loop_identity_under_each_power_mode(mode, monkeypatch):
    """150 iterations inside one region, with the first power failure
    placed late in the loop: the region's folded admission must stop at
    exactly the per-step failure point."""
    module = parse_ir(LOOP_IR)
    cont = run_continuous(module, PLAT.model, compiled=False)
    assert cont.completed
    late = int(cont.active_cycles * 0.8)
    powers = {
        "energy": lambda: PowerManager.energy_budget(cont.energy.total * 0.8),
        "periodic": lambda: PowerManager.periodic(tbpf=late),
        "scheduled": lambda: PowerManager.scheduled((late,)),
        "stochastic": lambda: PowerManager.stochastic(
            mean_cycles=cont.active_cycles, seed=11
        ),
    }
    entered = _region_entries(monkeypatch)
    runs = _run_both(
        module, powers[mode],
        policy=CheckpointPolicy.wait_mode("loop"),
    )
    assert runs["compiled"] == runs["predecoded"]
    report = runs["compiled"][0]
    first = report["failure_offsets"][0]
    assert cont.active_cycles // 2 < first < cont.active_cycles, (
        "the first failure must fall late in the loop"
    )
    # The loop ran inside regions, not one dispatch per block: far
    # fewer region entries than loop iterations.
    assert entered and len(entered) < 150 // 4


#: Faults in a chained segment: ``.check`` runs after three in-region
#: transfers (entry -> head -> body -> check) on the fourth iteration.
FAULT_IR = """module fault (entry @main)
global @a:u32[3]
global @out:u32

func @main() -> void {{
.entry:
    %i:u32 = move 0:i32
    jump .head
.head:
    %c:u8 = lt %i:u32, 10:i32
    branch %c:u8 ? .body : .done
.body:
    %d:u32 = sub 3:i32, %i:u32
    jump .check
.check:
    {fault}
    %i:u32 = add %i:u32, 1:i32
    jump .head
.done:
    ret
}}
"""


@pytest.mark.parametrize(
    "fault,match",
    [
        ("%q:u32 = div 100:i32, %d:u32", "division by zero"),
        ("store.nvm @a[%i:i32] = %d:u32", r"out-of-bounds write @a\[3\]"),
    ],
    ids=["div-zero", "oob-store"],
)
def test_region_fault_after_in_region_transfers(fault, match, monkeypatch):
    """A fault in a segment the region chained to must leave the same
    message, meter and power state, counts, frame position, memory and
    trace prefix as the per-step loop: the region writes back the state
    before the faulting segment and the interpreter replays its prefix."""
    module = parse_ir(FAULT_IR.format(fault=fault))
    entered = _region_entries(monkeypatch)
    runs = _run_both(
        module, lambda: PowerManager.energy_budget(1e9),
        policy=CheckpointPolicy.wait_mode("fault"),
    )
    assert runs["compiled"] == runs["predecoded"]
    assert re.search(match, runs["compiled"][0])
    # One region entry ran every transfer before the fault.
    assert entered == [("entry", 0)]
    assert runs["compiled"][1].count(("main", "check")) >= 3


def test_max_instructions_edge_mid_region(monkeypatch):
    """The instruction budget runs out inside the loop's region: the
    region stops at the last segment that fits and the per-step path
    takes the edge, as with segments off."""
    module = parse_ir(LOOP_IR)
    entered = _region_entries(monkeypatch)
    for budget in (137, 138, 141):
        entered.clear()
        runs = _run_both(module, max_instructions=budget)
        assert runs["compiled"] == runs["predecoded"]
        assert not runs["compiled"][0]["completed"]
        assert entered[0] == ("entry", 1), "entered after the checkpoint"


#: A call and a checkpoint inside blocks, each followed by more
#: straight-line code: the region is re-entered just past each.
RESUME_IR = """module resume (entry @main)
global @out:u32

func @twice(x:u32) -> u32 {
.entry:
    %r:u32 = add %arg0:u32, %arg0:u32
    ret %r:u32
}

func @main() -> void {
.entry:
    %i:u32 = move 0:i32
    %s:u32 = move 1:i32
    jump .head
.head:
    %c:u8 = lt %i:u32, 6:i32
    branch %c:u8 ? .body : .done
.body:
    %t:u32 = call @twice(%s:u32)
    %s:u32 = add %t:u32, %i:u32
    checkpoint #1 save=[] restore=[] vm_after=[] nvm_after=[out]
    %i:u32 = add %i:u32, 1:i32
    jump .head
.done:
    store.nvm @out = %s:u32
    ret
}
"""


def test_region_resumes_after_call_and_checkpoint(monkeypatch):
    """A region is entered at a post-call index when the callee returns
    and at a post-checkpoint index after the checkpoint ran per step or
    a rollback restored it; both loops must agree on everything, trace
    stream included."""
    module = parse_ir(RESUME_IR)
    entered = _region_entries(monkeypatch)
    runs = _run_both(
        module, lambda: PowerManager.scheduled((700,)),
        policy=CheckpointPolicy.rollback_mode("resume"),
    )
    assert runs["compiled"] == runs["predecoded"]
    assert runs["compiled"][0]["completed"]
    assert runs["compiled"][0]["power_failures"] == 1
    assert ("body", 1) in entered, "post-call entry"
    assert ("body", 3) in entered, "post-checkpoint entry"


def test_second_interpreter_runs_no_exec(monkeypatch):
    """Two interpreters over equal module text share the compiled
    regions: the second generates no source and runs no exec."""
    execs = []
    real_exec = compiled._exec
    monkeypatch.setattr(
        compiled, "_exec", lambda src: execs.append(src) or real_exec(src)
    )
    bench = load_program("calls")
    comp = compile_for(
        "schematic", bench.module, PLAT,
        input_generator=bench.input_generator(),
    )
    text = print_module(comp.module)
    reports = []
    for _ in range(2):
        interp = Interpreter(
            parse_ir(text), PLAT.model, comp.policy,
            PowerManager.energy_budget(3000.0),
            InterpreterConfig(inputs=bench.default_inputs(),
                              vm_size=PLAT.vm_size),
        )
        reports.append(_asdict(interp.run()))
        if not reports[1:]:
            assert execs, "the first interpreter compiles"
            first = len(execs)
    assert len(execs) == first
    assert reports[0] == reports[1]


def test_program_cache_keeps_the_most_recent_functions(monkeypatch):
    """The process-wide program and factory caches hold at most
    ``CACHE_LIMIT`` entries each and evict the least recently used; runs
    over more functions than that still equal per-step ones. Region
    functions are the only generated code, so the one factory kept is
    the last compiled region's."""
    monkeypatch.setattr(compiled, "CACHE_LIMIT", 1)
    bench = load_program("calls")
    names = list(bench.module.functions)
    assert len(names) > 1
    for _ in range(2):
        runs = _run_both(bench.module, inputs=bench.default_inputs())
        assert runs["compiled"] == runs["predecoded"]
        assert [key[0] for key in compiled._PROGRAMS] == names[-1:]
        (programs,) = compiled._PROGRAMS.values()
        assert list(compiled._FACTORIES.values()) == [programs[-1].make]


def test_compiled_code_ignores_later_in_place_rewrites():
    """Placement rewrites the accesses of a profiled module in place
    after an interpreter compiled it. Another interpreter over the
    original text must still run the original accesses."""
    planned = parse_ir(LOOP_IR)
    # Compiles (under the traced key _run_both uses) without running.
    compiled.compile_blocks(_interp(planned, trace=lambda f, b: None), _Frame)
    for block in planned.functions["main"].blocks.values():
        for inst in block.instructions:
            if isinstance(inst, (Load, Store)):
                inst.space = MemorySpace.VM  # not resident: would fault
    runs = _run_both(parse_ir(LOOP_IR))
    assert runs["compiled"] == runs["predecoded"]
    assert runs["compiled"][0]["completed"]


#: The ``.late`` arm is first taken late in the loop, and only ever
#: reached by a jump from generated code.
LATE_ARM_IR = """module late (entry @main)
global @out:u32

func @main() -> void {
.entry:
    %i:u32 = move 0:i32
    %s:u32 = move 0:i32
    jump .head
.head:
    %c:u8 = lt %i:u32, 150:i32
    branch %c:u8 ? .body : .done
.body:
    %k:u8 = gt %i:u32, 100:i32
    branch %k:u8 ? .late : .latch
.late:
    %s:u32 = xor %s:u32, %i:u32
    jump .latch
.latch:
    %i:u32 = add %i:u32, 1:i32
    jump .head
.done:
    store.nvm @out = %s:u32
    ret
}
"""


def test_branch_arm_taken_late_runs_inside_the_region(monkeypatch):
    """A region covers all its segments from the start: a branch arm
    first taken late in the run executes in the region's code, without
    going back to the dispatch."""
    entered = _region_entries(monkeypatch)
    module = parse_ir(LATE_ARM_IR)
    report = _interp(module).run()
    assert entered and ("late", 0) not in entered
    assert _asdict(report) == _asdict(
        run_continuous(module, PLAT.model, compiled=False)
    )


# -- iteration checks inside regions --------------------------------------------

#: Conditional checkpoints in every position a region meets one: first
#: in a branch target (``.body``), after a segment that falls through
#: into it, two in a row, and one followed by a plain checkpoint.
COND_IR = """module cond (entry @main)
global @acc:u32
global @out:u32

func @main() -> void {{
.entry:
    checkpoint #1 save=[] restore=[] vm_after=[] nvm_after=[acc, out]
    %i:u32 = move 0:i32
    %s:u32 = move 0:i32
    jump .head
.head:
    %c:u8 = lt %i:u32, 40:i32
    branch %c:u8 ? .body : .done
.body:
    cond_checkpoint #2 every={every} save=[] restore=[] vm_after=[] nvm_after=[acc, out]
    %t:u32 = load.nvm @acc
    %u:u32 = add %t:u32, %i:u32
    store.nvm @acc = %u:u32
    %s:u32 = xor %s:u32, %u:u32
    cond_checkpoint #3 every={every} save=[] restore=[] vm_after=[] nvm_after=[acc, out]
    cond_checkpoint #4 every=3 save=[] restore=[] vm_after=[] nvm_after=[acc, out]
    %i:u32 = add %i:u32, 1:i32
    jump .head
.done:
    store.nvm @out = %s:u32
    cond_checkpoint #5 every=2 save=[] restore=[] vm_after=[] nvm_after=[acc, out]
    checkpoint #6 save=[] restore=[] vm_after=[] nvm_after=[]
    ret
}}
"""

COND_POLICIES = {
    "wait": CheckpointPolicy.wait_mode("cond"),
    "rollback": CheckpointPolicy.rollback_mode("cond"),
    # MEMENTOS: a check that fires then measures the charge.
    "voltcheck": CheckpointPolicy.rollback_mode("cond", skip_threshold=0.5),
}


def _checkpoint_calls(monkeypatch):
    """Count ``Interpreter._do_checkpoint`` calls per loop."""
    calls = {"compiled": 0, "predecoded": 0}
    do_checkpoint = Interpreter._do_checkpoint

    def counting(self, frame, inst):
        calls[self.loop_used] += 1
        return do_checkpoint(self, frame, inst)

    monkeypatch.setattr(Interpreter, "_do_checkpoint", counting)
    return calls


def _check_visits(module, policy, **config):
    """``(label, index, consumed, cycles since recharge, timeline,
    instructions executed)`` before every iteration check of a
    failure-free per-step run, from its ``step_hook`` stream."""
    visits = []
    interp = None

    def hook(label, _cycles):
        if label.endswith(":itercheck"):
            ckpt = int(label[len("ckpt"):-len(":itercheck")])
            frame = interp.frames[-1]
            inst = interp._code[(frame.function.name, frame.block)][
                frame.index][2]
            assert inst.ckpt_id == ckpt
            power = interp.power
            visits.append((
                frame.block, frame.index, power.consumed_since_recharge,
                power.cycles_since_recharge, power.timeline,
                interp.instructions_executed,
            ))

    interp = Interpreter(
        module, PLAT.model, policy, PowerManager.continuous(),
        InterpreterConfig(step_hook=hook, **config),
    )
    assert interp.run().completed
    return visits


@pytest.mark.parametrize("every", [1, 2, 7])
@pytest.mark.parametrize("policy", sorted(COND_POLICIES))
@pytest.mark.parametrize("mode", ["continuous", "energy", "periodic",
                                  "scheduled", "stochastic"])
def test_iteration_checks_identity(every, policy, mode, monkeypatch):
    """Iteration checks run inside the region: reports, trace streams,
    meter and power state, counts and memory equal the per-step loop's
    under every power mode and checkpoint policy, and an untraced run
    reports the same. Only checks that fire reach ``_do_checkpoint``
    with segments on."""
    module = parse_ir(COND_IR.format(every=every))
    cont = run_continuous(module, PLAT.model, compiled=False)
    assert cont.completed
    quarter = cont.active_cycles // 4
    powers = {
        "continuous": PowerManager.continuous,
        "energy": lambda: PowerManager.energy_budget(
            cont.energy.total / 3
        ),
        "periodic": lambda: PowerManager.periodic(tbpf=quarter),
        "scheduled": lambda: PowerManager.scheduled(
            (quarter, 2 * quarter + 1)
        ),
        "stochastic": lambda: PowerManager.stochastic(
            mean_cycles=quarter, seed=5
        ),
    }
    calls = _checkpoint_calls(monkeypatch)
    runs = _run_both(module, powers[mode], policy=COND_POLICIES[policy])
    assert runs["compiled"] == runs["predecoded"]
    if every > 1:
        assert calls["compiled"] < calls["predecoded"]
    untraced = Interpreter(
        module, PLAT.model, COND_POLICIES[policy], powers[mode](),
        InterpreterConfig(),
    )
    assert _asdict(untraced.run()) == runs["compiled"][0]


@pytest.mark.parametrize("visit", [3, 4, 5],
                         ids=["branch-target", "after-fall-through",
                              "second-in-a-row"])
@pytest.mark.parametrize("policy", ["wait", "rollback"])
@pytest.mark.parametrize("mode", ["energy", "periodic", "scheduled",
                                  "scheduled-late", "stochastic"])
def test_iteration_check_not_admitted(visit, policy, mode):
    """The first power failure strikes on an iteration check's own two
    cycles (or its energy): the region does not admit the check, and the
    per-step path meets the failure there, as with segments off."""
    module = parse_ir(COND_IR.format(every=7))
    label, index, consumed, cycles, timeline, _n = _check_visits(
        module, COND_POLICIES[policy]
    )[visit]
    energy = 2 * PLAT.model.energy_per_cycle

    def stochastic():
        # Every drawn window ends inside the check's two cycles.
        power = PowerManager.stochastic(mean_cycles=1_000, seed=1)
        power._draw_window = lambda: cycles + 1
        power._window = power._draw_window()
        return power

    powers = {
        "energy": lambda: PowerManager.energy_budget(consumed + energy / 2),
        "periodic": lambda: PowerManager.periodic(tbpf=cycles + 1),
        "scheduled": lambda: PowerManager.scheduled((timeline,)),
        "scheduled-late": lambda: PowerManager.scheduled((timeline + 1,)),
        "stochastic": stochastic,
    }
    runs = _run_both(module, powers[mode], policy=COND_POLICIES[policy])
    assert runs["compiled"] == runs["predecoded"]
    report = runs["compiled"][0]
    assert report["failure_offsets"][0] == timeline, (
        f"the first failure must strike the check at {label}:{index}"
    )


@pytest.mark.parametrize("visit", [3, 4, 5, 8])
def test_max_instructions_edge_at_iteration_check(visit):
    """The instruction budget runs out exactly at an iteration check:
    the per-step path ends the run there, before the check (the first of
    two in a row), with both loops; one more instruction of budget lets
    the check run."""
    module = parse_ir(COND_IR.format(every=7))
    policy = COND_POLICIES["rollback"]
    visits = _check_visits(module, policy)
    executed = visits[visit][5]
    edge = next(v for v in visits if v[5] == executed)
    for budget in (executed, executed + 1):
        runs = _run_both(module, policy=policy, max_instructions=budget)
        assert runs["compiled"] == runs["predecoded"]
        assert not runs["compiled"][0]["completed"]
        if budget == executed:
            assert runs["compiled"][6] == edge[:2]


@pytest.mark.parametrize("every", [2, 7])
def test_diffemu_recording_with_iteration_checks(every, monkeypatch):
    """A wait-mode recording (``commit_hook`` snapshots) charges its
    iteration checks inside regions: the tape equals the one recorded
    per step, and every cell forked from it equals a cold per-step
    run."""
    from repro.emulator import diffemu

    module = parse_ir(COND_IR.format(every=every))
    policy = COND_POLICIES["wait"]
    tape = record_tape(module, PLAT.model, policy)
    with monkeypatch.context() as patch:
        patch.setattr(
            diffemu, "InterpreterConfig",
            functools.partial(InterpreterConfig, compiled=False),
        )
        reference = record_tape(module, PLAT.model, policy)
    assert tape.commits > 2
    assert tape.digest == reference.digest
    cont = run_continuous(module, PLAT.model, compiled=False)
    specs = [
        PowerSpec.energy_budget(cont.energy.total / 8),
        PowerSpec.periodic(tbpf=cont.active_cycles // 5),
        PowerSpec.stochastic(mean_cycles=cont.active_cycles // 4, seed=2),
    ]
    for spec in specs:
        paired, _plan = run_cell(module, PLAT.model, policy, spec, tape)
        cold = run_intermittent(
            module, PLAT.model, policy, spec.build(), compiled=False,
        )
        assert _asdict(paired) == _asdict(cold)


def test_check_segments_do_not_count_toward_region_limit():
    """Two blocks of ``REGION_LIMIT`` instruction segments in all,
    separated by iteration checks, make one region: counting the check
    segments would cut it in two and exit between the blocks."""
    half = REGION_LIMIT // 2
    ckpt = ("    cond_checkpoint #{} every=5 save=[] restore=[] vm_after=[] "
            "nvm_after=[out]\n")
    add = "    %s:u32 = add %s:u32, {}:i32\n"

    def body(first, end):
        lines = []
        for k in range(half):
            if k:
                lines.append(ckpt.format(first + k))
            lines.append(add.format(k + 1))
        return "".join(lines) + end

    text = (
        "module limit (entry @main)\nglobal @out:u32\n\n"
        "func @main() -> void {\n.entry:\n    %s:u32 = move 0:i32\n"
        + body(1, "    jump .b\n") + ".b:\n"
        + body(100, "    store.nvm @out = %s:u32\n    ret\n") + "}\n"
    )
    module = parse_ir(text)
    interp = _interp(module)
    interp.run()
    [region] = _regions(interp)
    instruction_segments = [seg for seg in region.segments if seg.n]
    assert len(instruction_segments) == REGION_LIMIT
    assert len(region.segments) == 2 * REGION_LIMIT - 2
    runs = _run_both(module)
    assert runs["compiled"] == runs["predecoded"]


def test_unplannable_iteration_check_fails_as_per_step():
    """A conditional checkpoint that saves a variable the memory does
    not hold cannot be planned: its function's checks stay on the
    per-step path, which raises the planning error at the first check
    with both loops."""
    text = COND_IR.format(every=7).replace(
        "#3 every=7 save=[]", "#3 every=7 save=[nosuch]"
    )
    module = parse_ir(text)
    states = {}
    for name, kw in LOOPS:
        trace, events = _recorder()
        interp = _interp(module, trace=trace, **kw)
        with pytest.raises(KeyError) as excinfo:
            interp.run()
        states[name] = (
            str(excinfo.value), events, interp.instructions_executed,
            interp.active_cycles, interp.meter.state_dict(),
            interp.power.state_dict(),
            (interp.frames[-1].block, interp.frames[-1].index),
        )
    assert states["compiled"] == states["predecoded"]
    assert states["compiled"][-1] == ("body", 5)

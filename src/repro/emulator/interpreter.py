"""The IR interpreter: executes modules under (intermittent) power.

Semantics notes:

- Fixed-width two's-complement arithmetic with C-like truncating division;
  shift amounts are masked to the operand width.
- A power failure strikes *between* instructions: the instruction whose
  energy overdraws the capacitor does not commit its effects.
- Checkpoint instructions are executed according to the technique's
  :class:`CheckpointPolicy` (wait mode vs roll-back mode, see
  :mod:`repro.emulator.runtime`).
- Forward-progress violation is detected when execution rolls back to the
  same snapshot twice without reaching a new checkpoint in between —
  execution being deterministic, the third attempt would fail identically
  (paper §VI: "our technique detects that it restarted from the same
  checkpoint twice").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.telemetry import metrics
from repro.emulator import compiled as compiled_blocks
from repro.emulator.memory import MemoryState
from repro.emulator.meter import EnergyMeter
from repro.emulator.power import PowerManager
from repro.emulator.report import ExecutionReport
from repro.emulator.runtime import (
    COND_CHECK_CYCLES,
    CheckpointPolicy,
    FrameSnapshot,
    Snapshot,
)
from repro.energy.model import EnergyModel
from repro.errors import EmulationError, VMCapacityError
from repro.ir.function import Function
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    Checkpoint,
    CondCheckpoint,
    Instruction,
    Jump,
    Load,
    Move,
    Opcode,
    Ret,
    Store,
    UnOp,
    UnaryOpcode,
)
from repro.ir.module import Module
from repro.ir.values import Const, MemorySpace, Register, VarRef

#: Consecutive failed attempts from one snapshot before declaring the
#: execution stuck (2 identical deterministic failures imply forever).
MAX_ATTEMPTS_PER_SNAPSHOT = 2

#: The value a checkpoint restore writes into every element of a VM
#: variable the checkpoint's restore set misses — recognizable in dumps
#: (0x5AA55AA5 wrapped to the variable's type) and guaranteed not to
#: silently reproduce a correct run.
RESTORE_POISON = 0x5AA55AA5


class _Frame:
    __slots__ = ("function", "block", "index", "registers", "ref_bindings",
                 "ret_target")

    def __init__(
        self,
        function: Function,
        block: str,
        index: int = 0,
        registers: Optional[Dict[str, int]] = None,
        ref_bindings: Optional[Dict[str, str]] = None,
        ret_target: Optional[str] = None,
    ):
        self.function = function
        self.block = block
        self.index = index
        self.registers: Dict[str, int] = registers if registers is not None else {}
        self.ref_bindings: Dict[str, str] = (
            ref_bindings if ref_bindings is not None else {}
        )
        self.ret_target = ret_target


class _CheckpointPlan:
    """What one checkpoint instruction saves, restores and costs: pure
    functions of the instruction, the variable sizes and the energy
    model, so each is computed once per interpreter, on the
    checkpoint's first execution (:meth:`Interpreter._plan`)."""

    __slots__ = (
        "counter_key", "voltcheck", "save_payload", "save_energy",
        "save_cycles", "restore_payload", "restore_energy",
        "restore_cycles", "vm_after", "vm_loads",
    )

    def __init__(self, interp: "Interpreter", inst) -> None:
        memory, model = interp.memory, interp.model
        #: The iteration counter's register (conditional checkpoints).
        self.counter_key = (
            f"__ckpt{inst.ckpt_id}"
            if isinstance(inst, CondCheckpoint) else None
        )
        #: Whether the runtime measures the charge to decide on a skip.
        self.voltcheck = interp.policy.skip_threshold is not None and (
            getattr(inst, "skippable", True)
        )
        self.save_payload = sum(memory.size_of(n) for n in inst.save_vars)
        self.save_energy = model.save_energy(self.save_payload)
        self.save_cycles = model.save_cycles(self.save_payload)
        #: Billed by every restore, and the snapshot's payload.
        self.restore_payload = sum(
            memory.size_of(n) for n in inst.restore_vars
        )
        self.restore_energy = model.restore_energy(self.restore_payload)
        self.restore_cycles = model.restore_cycles(self.restore_payload)
        #: The VM set after the checkpoint (what a migration moves to).
        self.vm_after = {
            name
            for name, space in inst.alloc_after.items()
            if space is MemorySpace.VM
        }
        #: ``(name, poison)`` per VM-mapped variable, in ``alloc_after``
        #: order: the restore loads each one and, unless it is restored
        #: or const (a const's immutable NVM home can always be
        #: refetched), overwrites it with ``poison``. An unknown name
        #: keeps None; loading it raises the memory's own diagnostic.
        restored = set(inst.restore_vars)
        loads = []
        for name, space in inst.alloc_after.items():
            if space is not MemorySpace.VM:
                continue
            poison = None
            if name not in restored and name in memory.nvm:
                var = interp.module.find_variable(name)
                if not var.is_const:
                    poison = var.type.wrap(RESTORE_POISON)
            loads.append((name, poison))
        self.vm_loads = tuple(loads)


@dataclass
class InterpreterConfig:
    """Knobs of one emulation run."""

    #: How AUTO memory accesses are costed/directed (reference & profiling
    #: runs on untransformed programs). Transformed programs have no AUTO
    #: accesses left.
    default_space: MemorySpace = MemorySpace.NVM
    max_instructions: int = 200_000_000
    #: Called as trace(function_name, block_label) on every block entry:
    #: the entry block at run start, a jump or branch target, a callee's
    #: entry block, the caller's block on return, and the entry block
    #: again on a reboot from boot. Each entry emits exactly one event,
    #: with segments on or off, and tracing does not turn segments off.
    trace: Optional[Callable[[str, str], None]] = None
    #: Called as step_hook(site_label, cycles) immediately before each
    #: atomic energy-consuming step — instructions, checkpoint saves,
    #: restores and voltage checks. Together with a recording
    #: :class:`~repro.emulator.power.PowerManager` this enumerates every
    #: fault-injectable boundary of a run (the testkit's sweep engine).
    step_hook: Optional[Callable[[str, int], None]] = None
    #: Inputs written into the NVM image before execution: name -> values.
    inputs: Dict[str, List[int]] = field(default_factory=dict)
    #: Enforce the VM capacity limit at run time.
    vm_size: int = 1 << 30
    #: Turn segments on: each IR function is compiled into generated
    #: *regions* that run its straight-line segments back to back across
    #: jumps and branches, with power and meter accounting in locals and
    #: each segment admitted and charged by generated folds
    #: (:mod:`repro.emulator.compiled`). Semantics are bit-identical:
    #: failure points, meter totals, reports and diffemu snapshots all
    #: match per-step execution. Segments stay off for any run that asks
    #: for per-step observation (``step_hook``, a recording power
    #: manager), and the per-step path still runs every cold-path event
    #: (checkpoints, a segment whose admission fails, the
    #: instruction-budget edge, mid-segment resume points). Block
    #: ``trace`` events, telemetry and metrics come out identically with
    #: segments on, so traced, profiled and metered runs use them too.
    #: False turns segments off — every instruction takes the per-step
    #: path — which makes the run the segments' differential reference.
    compiled: bool = True
    #: Called as commit_hook(interpreter, ckpt_id) after a checkpoint has
    #: fully committed — the save persisted *and* the wait-mode
    #: recharge/restore (or roll-back migration) completed. This is the
    #: exact point :meth:`Interpreter.capture_snapshot` is designed for:
    #: the differential-emulation recorder captures a resumable
    #: :class:`EmulatorSnapshot` here (:mod:`repro.emulator.diffemu`).
    #: Only checkpoint commits pay for the check; the hot loop never sees
    #: it.
    commit_hook: Optional[Callable[["Interpreter", int], None]] = None


@dataclass
class EmulatorSnapshot:
    """Complete, detached interpreter state at a checkpoint commit.

    Restoring one of these into a fresh :class:`Interpreter` (same module,
    model, policy and power *configuration*) and calling
    :meth:`Interpreter.resume` replays the remainder of the run
    bit-identically — reports, failure logs, telemetry events and
    step_hook streams all match the cold run's suffix. Every container is
    a deep copy: a snapshot can seed any number of forks.
    """

    ckpt_id: int
    #: Call stack at the commit (register files detached).
    frames: List[FrameSnapshot]
    #: ``payload_bytes`` of the interpreter's live rollback snapshot.
    snapshot_payload_bytes: int
    #: ``{"nvm": {...}, "vm": {...}}`` from MemoryState.snapshot_images.
    images: Dict[str, Dict[str, List[int]]]
    meter_state: dict
    power_state: dict
    instructions_executed: int
    active_cycles: int
    checkpoints_skipped: int
    peak_vm_bytes: int
    #: Committed meter total at the open telemetry segment's boundary.
    seg_anchor: float
    attempts_on_snapshot: int
    #: Telemetry run id of the recording run, re-pinned on resume so a
    #: forked run's events align with the cold run's suffix.
    run_id: int


class Interpreter:
    """Executes one module under a power schedule and checkpoint policy."""

    def __init__(
        self,
        module: Module,
        model: EnergyModel,
        policy: CheckpointPolicy,
        power: PowerManager,
        config: Optional[InterpreterConfig] = None,
    ):
        self.module = module
        self.model = model
        self.policy = policy
        self.power = power
        self.config = config or InterpreterConfig()
        self.memory = MemoryState(module, self.config.vm_size)
        for name, values in self.config.inputs.items():
            if name not in self.memory.nvm:
                raise EmulationError(f"input for unknown global @{name}")
            image = self.memory.nvm[name]
            if len(values) != len(image):
                raise EmulationError(
                    f"input for @{name}: {len(values)} values, "
                    f"variable has {len(image)}"
                )
            var = module.find_variable(name)
            self.memory.nvm[name] = [var.type.wrap(v) for v in values]
        if self.config.default_space is MemorySpace.VM:
            # Reference runs "with all data in VM" (e.g. Table II's timing
            # measurements) need every variable VM-resident up front.
            for name in list(self.memory.nvm):
                self.memory.load_into_vm(name)
        self.meter = EnergyMeter()
        self.frames: List[_Frame] = []
        self.instructions_executed = 0
        self.active_cycles = 0
        self.checkpoints_skipped = 0
        self.peak_vm_bytes = 0
        self._snapshot: Optional[Snapshot] = None  # None = restart from boot
        self._snapshot_inst: Optional[Instruction] = None
        #: id(checkpoint instruction) -> its _CheckpointPlan.
        self._plans: Dict[int, _CheckpointPlan] = {}
        self._attempts_on_snapshot = 0
        # Telemetry is bound once here and only consulted on the cold
        # paths (checkpoints, power failures) — the hot loop is untouched,
        # keeping disabled-mode output bit-identical and full speed.
        # _seg_anchor marks the committed meter total at the last segment
        # boundary: the committed energy of the window a save closes is
        # breakdown.total - _seg_anchor (the meter commits computation at
        # saves and reclassifies rolled-back work, so the committed total
        # is monotone and never counts a window twice).
        self._tm = telemetry.get()
        self._run_id = self._tm.next_run_id() if self._tm is not None else 0
        self._seg_anchor = 0.0
        # The metrics registry follows the same discipline: bound once,
        # consulted only on cold paths, None when disabled. Like tracing
        # (_tm), it does not turn segments off: counters are bumped only
        # on cold paths, which always take the per-step path.
        self._mm = metrics.get()
        if self._mm is not None:
            self._mm.counter("interp.runs").add(1)
        #: Per-variable monotone sample counters for volatile environment
        #: inputs. The world does not roll back with the program: the
        #: counters survive power failures and snapshot restores, so a
        #: replayed region re-samples different values (the dynamic
        #: ground truth for static rule CONS002).
        self._env_counts: Dict[str, int] = {}
        self._has_env = any(
            var.volatile_input for var in module.all_variables()
        )
        #: Type-keyed handler table, consulted once per instruction at
        #: decode time.
        self._dispatch = {
            BinOp: self._apply_binop,
            Load: self._apply_load,
            Store: self._apply_store,
            Move: self._apply_move,
            UnOp: self._apply_unop,
            Jump: self._apply_jump,
            Branch: self._apply_branch,
            Call: self._do_call,
            Ret: self._do_ret,
        }
        self._code = self._decode_module()
        #: Compiled regions, built lazily on the first execution with
        #: segments on, so runs with segments off never pay for
        #: compilation. {(function, label): (Region, {index: segment id})}.
        self._ccode = None
        #: Whether the last _execute ran with segments on ("compiled")
        #: or off ("predecoded") (introspection for tests and benchmarks).
        self.loop_used: Optional[str] = None

    # -- pre-decoding ----------------------------------------------------------

    def _decode_module(self):
        """Decode every basic block once into ``(handler, cost, inst,
        label)`` entries, keyed by ``(function name, block label)``.

        The interpreter loop then runs on plain list indexing, with no
        per-step type dispatch or cost computation. Decoding binds to the
        instruction objects present at construction: the module must not
        be structurally modified while this interpreter is alive
        (compilation finishes before emulation starts everywhere in this
        codebase).
        """
        code: Dict[Tuple[str, str], list] = {}
        for func in self.module.functions.values():
            fname = func.name
            for label, block in func.blocks.items():
                code[(fname, label)] = [
                    (
                        self._handler_for(inst),  # None => checkpoint
                        self._compute_cost(inst),
                        inst,
                        f"{fname}:{label}:{index}",
                    )
                    for index, inst in enumerate(block.instructions)
                ]
        return code

    def _handler_for(self, inst: Instruction):
        """Decode-time handler selection: environment-input Loads bind
        directly to the sampling handler, so the interpreter loop never
        re-tests ``volatile_input`` per step."""
        if type(inst) is Load and inst.var.volatile_input:
            return self._apply_load_env
        return self._dispatch.get(type(inst))

    def _compute_cost(
        self, inst: Instruction
    ) -> Tuple[int, float, float, bool, bool]:
        """(cycles, energy, access_energy, access_is_vm, has_access)."""
        model = self.model
        if isinstance(inst, (Load, Store)):
            space = inst.space
            if space is MemorySpace.AUTO:
                space = self.config.default_space
            base = (
                model.load_base_cycles
                if isinstance(inst, Load)
                else model.store_base_cycles
            )
            cycles = base + model.access_cycles(space)
            access_energy = model.access_energy(space)
            energy = cycles * model.energy_per_cycle + access_energy
            result = (
                cycles,
                energy,
                access_energy,
                space is MemorySpace.VM,
                True,
            )
        elif isinstance(inst, (Checkpoint, CondCheckpoint)):
            result = (0, 0.0, 0.0, False, False)
        else:
            cycles = model.instruction_cycles(inst)
            result = (cycles, cycles * model.energy_per_cycle, 0.0, False, False)
        return result

    def _space_of(self, inst) -> MemorySpace:
        return (
            self.config.default_space
            if inst.space is MemorySpace.AUTO
            else inst.space
        )

    # -- value evaluation --------------------------------------------------------

    def _value(self, frame: _Frame, value) -> int:
        if isinstance(value, Const):
            return value.value
        if isinstance(value, Register):
            try:
                return frame.registers[value.name]
            except KeyError:
                raise EmulationError(
                    f"read of uninitialized register %{value.name} in "
                    f"@{frame.function.name}"
                ) from None
        raise EmulationError(f"operand {value} is not a scalar value")

    def _resolve(self, frame: _Frame, name: str) -> str:
        """Resolve a by-reference parameter to its concrete variable."""
        return frame.ref_bindings.get(name, name)

    # -- main loop ------------------------------------------------------------

    def run(self) -> ExecutionReport:
        entry = self.module.entry_function
        self.frames = [_Frame(entry, entry.entry.label)]
        if self.config.trace is not None:
            self.config.trace(entry.name, entry.entry.label)
        tm = self._tm
        if tm is not None:
            tm.event(
                "run-begin", track=telemetry.TRACK_RUNTIME,
                ts=self.power.timeline, run=self._run_id,
                technique=self.policy.name, power_mode=self.power.mode.value,
            )
        return self._drive()

    def resume(self, snapshot: EmulatorSnapshot) -> ExecutionReport:
        """Restore a captured snapshot and replay the rest of the run.

        The interpreter must have been constructed over the same module,
        model, policy and an identically-configured power manager as the
        recording run; only the *dynamic* state comes from the snapshot.
        Telemetry marks the fork (``diffemu-fork``) instead of emitting a
        second ``run-begin``.
        """
        self.restore_snapshot(snapshot)
        tm = self._tm
        if tm is not None:
            tm.event(
                "diffemu-fork", track=telemetry.TRACK_RUNTIME,
                ts=self.power.timeline, run=self._run_id,
                ckpt=snapshot.ckpt_id,
                technique=self.policy.name,
                power_mode=self.power.mode.value,
            )
        return self._drive()

    def _drive(self) -> ExecutionReport:
        completed = False
        failure_reason = ""
        try:
            completed, failure_reason = self._execute()
        except VMCapacityError as exc:
            failure_reason = f"vm capacity exceeded: {exc}"
        # Flush any VM residue so outputs are observable (transforms insert
        # exit checkpoints; this is a free backstop for reference runs).
        for name in self.memory.vm_residents():
            self.memory.save_to_nvm(name)
        if completed:
            self.meter.commit()

        tm = self._tm
        if tm is not None:
            tm.event(
                "run-end", track=telemetry.TRACK_RUNTIME,
                ts=self.power.timeline, run=self._run_id,
                completed=completed, failures=self.power.failures,
                saves=self.meter.saves, restores=self.meter.restores,
                skips=self.checkpoints_skipped,
            )
        outputs = {
            name: list(self.memory.nvm[name])
            for name, var in self.module.globals.items()
            if not var.is_const
        }
        return ExecutionReport(
            technique=self.policy.name,
            completed=completed,
            failure_reason=failure_reason,
            energy=self.meter.breakdown,
            active_cycles=self.active_cycles,
            instructions=self.instructions_executed,
            power_failures=self.power.failures,
            checkpoints_saved=self.meter.saves,
            checkpoints_restored=self.meter.restores,
            checkpoints_skipped=self.checkpoints_skipped,
            vm_accesses=self.meter.vm_accesses,
            nvm_accesses=self.meter.nvm_accesses,
            outputs=outputs,
            peak_vm_bytes=self.peak_vm_bytes,
            power_mode=self.power.mode.value,
            failure_offsets=list(self.power.failure_log),
        )

    def _execute(self) -> Tuple[bool, str]:
        """The interpreter loop, with compiled segments on or off.

        Segments are on when ``config.compiled`` is set and nothing asks
        for per-step observation (no ``step_hook``, no recording power
        manager). The loop then hands the top frame to its function's
        compiled region (:mod:`repro.emulator.compiled`) whenever
        ``frame.index`` starts a segment. The region runs segment after
        segment across the function's generated jumps and branches, with
        the accounting in locals, and runs each conditional checkpoint's
        iteration check that does not fire as the prefix of
        :meth:`_do_checkpoint` would. It returns at a plain checkpoint,
        at an iteration check that fires, after a Call or Ret, after a
        handler-run control instruction, at the instruction-budget edge
        or at a segment or check it does not admit.
        Its admission and charges are provably equal to stepping: the
        generated folds replay the per-step ``+=`` sequences in order,
        and a segment is admitted only when its final consumption and
        cycle counts stay within :meth:`PowerManager.admission_limits`,
        which bounds every prefix (nonnegative float addition is
        monotone under IEEE round-to-nearest; the cycle counts are exact
        integers). Block tracing, telemetry and metrics do not turn
        segments off: their events come from handlers on the cold paths,
        which run one step at a time with meter and power state written
        back, and the region traces the blocks its generated transfers
        enter.

        Every instruction no segment covers — all of them when segments
        are off; otherwise plain checkpoints, iteration checks that fire,
        the instruction or check a region did not admit, the
        instruction-budget edge and mid-segment resume indices — takes
        the per-step path: the decoded handler plus
        per-step accounting, with ``step_hook`` called just before
        ``consume``. Segments-off is the differential reference of
        segments-on."""
        config = self.config
        step_hook = config.step_hook
        segments = (
            config.compiled and step_hook is None and self.power.record is None
        )
        if segments and self._ccode is None:
            self._ccode = compiled_blocks.compile_blocks(self, _Frame)
        self.loop_used = "compiled" if segments else "predecoded"
        if self._mm is not None:
            self._mm.counter(f"interp.loop.{self.loop_used}").add(1)

        frames = self.frames
        code = self._code
        ccode = self._ccode
        consume = self.power.consume
        charge = self.meter.charge_compute
        max_instructions = config.max_instructions

        # The current block's decoded entries (and segment entries),
        # refreshed whenever the top frame or its block changes. The
        # identity test on the label is conservative: a false mismatch
        # merely refetches, and a false match needs the same frame *and*
        # the same label object, which within one function implies the
        # same block.
        cur_frame = None
        cur_block = None
        block_code = None
        region = None
        starts = None
        # True when a region returned at an instruction it did not run:
        # that one instruction takes the per-step path.
        step_next = False
        while frames:
            frame = frames[-1]
            if frame is not cur_frame or frame.block is not cur_block:
                cur_frame = frame
                cur_block = frame.block
                key = (frame.function.name, cur_block)
                block_code = code[key]
                if segments:
                    region, starts = ccode[key]
            if segments and not step_next:
                sid = starts.get(frame.index)
                if sid is not None:
                    try:
                        step_next = region.run(frame, sid, max_instructions)
                    except BaseException as exc:
                        fault = getattr(exc, "_seg_fault", None)
                        if fault is not None:
                            self._reconcile_segment_fault(frame, *fault)
                        raise
                    continue
            step_next = False
            # Per-step path: one instruction, its handler and its own
            # accounting.
            if self.instructions_executed >= max_instructions:
                return False, "instruction budget exhausted (runaway program?)"
            handler, cost, inst, label = block_code[frame.index]
            if handler is None:  # checkpoint pseudo-instructions
                outcome = self._do_checkpoint(frame, inst)
                if outcome is not None:
                    return outcome
                cur_frame = None  # may have rolled back / migrated
                continue
            cycles, energy, access_energy, is_vm, has_access = cost
            if step_hook is not None:
                step_hook(label, cycles)
            if consume(energy, cycles):
                if not self._handle_power_failure():
                    return False, "no forward progress"
                cur_frame = None  # frames were rebuilt from the snapshot
                continue
            self.active_cycles += cycles
            self.instructions_executed += 1
            charge(energy, access_energy, is_vm, has_access)
            handler(frame, inst)
        return True, ""

    def _reconcile_segment_fault(self, frame, seg, fault: int) -> None:
        """Instruction ``fault`` of segment ``seg`` raised inside a
        region, which wrote back the state before the segment: replay
        per-step accounting for the completed prefix *plus* the faulting
        instruction (the per-step path consumes and charges before the
        handler runs), and point the frame at the faulting instruction —
        exactly the state the per-step path leaves behind when a handler
        raises. The region admitted the whole segment, so no consume in
        this prefix can fail."""
        consume = self.power.consume
        charge = self.meter.charge_compute
        for cycles, energy, access_energy, is_vm, has_access in (
            seg.costs[: fault + 1]
        ):
            consume(energy, cycles)
            self.active_cycles += cycles
            self.instructions_executed += 1
            charge(energy, access_energy, is_vm, has_access)
        frame.block = seg.label
        frame.index = seg.start + fault

    # -- instruction effects -----------------------------------------------------

    def _apply_binop(self, frame: _Frame, inst: BinOp) -> None:
        frame.registers[inst.dest.name] = self._binop(frame, inst)
        frame.index += 1

    def _apply_load(self, frame: _Frame, inst: Load) -> None:
        name = frame.ref_bindings.get(inst.var.name, inst.var.name)
        index = 0 if inst.index is None else self._value(frame, inst.index)
        raw = self.memory.read(name, index, self._space_of(inst))
        frame.registers[inst.dest.name] = inst.dest.type.wrap(raw)
        frame.index += 1

    def _apply_load_env(self, frame: _Frame, inst: Load) -> None:
        """Sample a volatile environment input: the stored image is the
        base reading, offset by a per-variable monotone sample counter.
        The counter is world state — it advances on every sample and is
        never rolled back, so two executions of the same region observe
        different samples (what CONS002 is about), while a replay-free
        run samples the same sequence as the continuous reference."""
        name = frame.ref_bindings.get(inst.var.name, inst.var.name)
        index = 0 if inst.index is None else self._value(frame, inst.index)
        raw = self.memory.read(name, index, self._space_of(inst))
        count = self._env_counts.get(name, 0)
        self._env_counts[name] = count + 1
        frame.registers[inst.dest.name] = inst.dest.type.wrap(raw + count)
        frame.index += 1

    def _apply_store(self, frame: _Frame, inst: Store) -> None:
        name = frame.ref_bindings.get(inst.var.name, inst.var.name)
        index = 0 if inst.index is None else self._value(frame, inst.index)
        value = inst.var.type.wrap(self._value(frame, inst.value))
        self.memory.write(name, index, value, self._space_of(inst))
        frame.index += 1

    def _apply_move(self, frame: _Frame, inst: Move) -> None:
        frame.registers[inst.dest.name] = inst.dest.type.wrap(
            self._value(frame, inst.src)
        )
        frame.index += 1

    def _apply_unop(self, frame: _Frame, inst: UnOp) -> None:
        value = self._value(frame, inst.src)
        if inst.op is UnaryOpcode.NEG:
            result = -value
        elif inst.op is UnaryOpcode.NOT:
            result = ~value
        else:  # LNOT
            result = int(value == 0)
        frame.registers[inst.dest.name] = inst.dest.type.wrap(result)
        frame.index += 1

    def _apply_jump(self, frame: _Frame, inst: Jump) -> None:
        self._goto(frame, inst.target)

    def _apply_branch(self, frame: _Frame, inst: Branch) -> None:
        target = (
            inst.if_true if self._value(frame, inst.cond) != 0 else inst.if_false
        )
        self._goto(frame, target)

    def _goto(self, frame: _Frame, label: str) -> None:
        frame.block = label
        frame.index = 0
        if self.config.trace is not None:
            self.config.trace(frame.function.name, label)

    def _binop(self, frame: _Frame, inst: BinOp) -> int:
        a = self._value(frame, inst.lhs)
        b = self._value(frame, inst.rhs)
        op = inst.op
        if op is Opcode.ADD:
            result = a + b
        elif op is Opcode.SUB:
            result = a - b
        elif op is Opcode.MUL:
            result = a * b
        elif op is Opcode.DIV:
            if b == 0:
                raise EmulationError("division by zero")
            result = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                result = -result
        elif op is Opcode.REM:
            if b == 0:
                raise EmulationError("remainder by zero")
            quotient = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                quotient = -quotient
            result = a - quotient * b
        elif op is Opcode.AND:
            result = a & b
        elif op is Opcode.OR:
            result = a | b
        elif op is Opcode.XOR:
            result = a ^ b
        elif op is Opcode.SHL:
            result = a << (b & 31)
        elif op is Opcode.SHR:
            # Arithmetic shift for signed lhs, logical for unsigned. The
            # operand's Python value already carries its signedness.
            result = a >> (b & 31)
        elif op is Opcode.EQ:
            result = int(a == b)
        elif op is Opcode.NE:
            result = int(a != b)
        elif op is Opcode.LT:
            result = int(a < b)
        elif op is Opcode.LE:
            result = int(a <= b)
        elif op is Opcode.GT:
            result = int(a > b)
        else:
            result = int(a >= b)
        return inst.dest.type.wrap(result)

    def _do_call(self, frame: _Frame, inst: Call) -> None:
        callee = self.module.function(inst.callee)
        registers: Dict[str, int] = {}
        ref_bindings: Dict[str, str] = {}
        arg_regs = callee.arg_registers()
        for i, (arg, param) in enumerate(zip(inst.args, callee.params)):
            if isinstance(arg, VarRef):
                formal = callee.variables[param.name]
                concrete = self._resolve(frame, arg.variable.name)
                ref_bindings[formal.name] = concrete
            else:
                reg = arg_regs[i]
                assert reg is not None
                registers[reg.name] = reg.type.wrap(self._value(frame, arg))
        frame.index += 1  # resume after the call on return
        new_frame = _Frame(
            callee,
            callee.entry.label,
            registers=registers,
            ref_bindings=ref_bindings,
            ret_target=inst.dest.name if inst.dest is not None else None,
        )
        self.frames.append(new_frame)
        if self.config.trace is not None:
            self.config.trace(callee.name, callee.entry.label)

    def _do_ret(self, frame: _Frame, inst: Ret) -> None:
        value = (
            self._value(frame, inst.value) if inst.value is not None else None
        )
        ret_target = frame.ret_target
        self.frames.pop()
        if self.frames and ret_target is not None and value is not None:
            caller = self.frames[-1]
            caller.registers[ret_target] = value
            if self.config.trace is not None:
                self.config.trace(caller.function.name, caller.block)
        elif self.frames and self.config.trace is not None:
            self.config.trace(self.frames[-1].function.name, self.frames[-1].block)

    # -- checkpoints ------------------------------------------------------------

    def _do_checkpoint(
        self, frame: _Frame, inst
    ) -> Optional[Tuple[bool, str]]:
        """Execute a (conditional) checkpoint. Returns a (completed, reason)
        pair to abort the run, or None to continue."""
        step_hook = self.config.step_hook
        power = self.power
        meter = self.meter
        plan = self._plan(inst)

        counter_key = plan.counter_key
        if counter_key is not None:
            # Compiled regions run this prefix themselves while the
            # count stays below ``every`` (check segments in
            # repro.emulator.compiled): keep the two in step.
            count = frame.registers.get(counter_key, 0) + 1
            check_energy = COND_CHECK_CYCLES * self.model.energy_per_cycle
            if step_hook is not None:
                step_hook(f"ckpt{inst.ckpt_id}:itercheck", COND_CHECK_CYCLES)
            if power.consume(check_energy, COND_CHECK_CYCLES):
                if not self._handle_power_failure():
                    return False, "no forward progress"
                return None
            self.active_cycles += COND_CHECK_CYCLES
            meter.charge_compute(check_energy)
            if count < inst.every:
                frame.registers[counter_key] = count
                frame.index += 1
                return None
            frame.registers[counter_key] = 0

        # MEMENTOS-style dynamic skip decision.
        if plan.voltcheck:
            check_energy = self.policy.check_energy
            if step_hook is not None:
                step_hook(f"ckpt{inst.ckpt_id}:voltcheck", COND_CHECK_CYCLES)
            if power.consume(check_energy, COND_CHECK_CYCLES):
                if not self._handle_power_failure():
                    return False, "no forward progress"
                return None
            self.active_cycles += COND_CHECK_CYCLES
            meter.charge_compute(check_energy)
            if power.remaining_fraction > self.policy.skip_threshold:
                self.checkpoints_skipped += 1
                if self._mm is not None:
                    self._mm.counter("interp.ckpt_skips").add(1)
                if self._tm is not None:
                    self._tm.event(
                        "ckpt-skip", track=telemetry.TRACK_RUNTIME,
                        ts=self.power.timeline, run=self._run_id,
                        ckpt=inst.ckpt_id,
                    )
                frame.index += 1
                return None

        # --- save -----------------------------------------------------------
        # Checkpoint commits are atomic (real systems double-buffer the
        # checkpoint area): the energy is consumed first, and the NVM image
        # is updated only if the save completes — a failure mid-save leaves
        # the previous consistent state in place.
        payload = plan.save_payload
        save_energy = plan.save_energy
        save_cycles = plan.save_cycles
        if step_hook is not None:
            step_hook(f"ckpt{inst.ckpt_id}:save", save_cycles)
        if power.consume(save_energy, save_cycles):
            meter.charge_save(save_energy)  # energy was spent anyway
            if not self._handle_power_failure():
                return False, "no forward progress"
            return None
        for name in inst.save_vars:
            self.memory.save_to_nvm(name)
        self.active_cycles += save_cycles
        meter.charge_save(save_energy)
        meter.commit()
        if self._mm is not None:
            self._mm.counter("interp.ckpt_saves").add(1)
        if self._tm is not None:
            # The previous snapshot (still in place) opened this window.
            self._tm.event(
                "ckpt-save", track=telemetry.TRACK_RUNTIME,
                ts=self.power.timeline, run=self._run_id,
                ckpt=inst.ckpt_id,
                from_ckpt=(
                    self._snapshot.ckpt_id
                    if self._snapshot is not None else None
                ),
                window_nj=round(
                    meter.breakdown.total - self._seg_anchor, 6
                ),
                save_nj=round(save_energy, 6),
                payload_bytes=payload,
            )
        self._seg_anchor = meter.breakdown.total

        # Snapshot resumes immediately after this checkpoint instruction.
        frame.index += 1
        self._take_snapshot(inst, plan)

        if self.policy.wait_for_full_recharge:
            # Fig. 3 semantics: deep sleep until the capacitor is full; VM
            # is conservatively assumed lost, so everything is restored.
            power.recharge_full()
            if not self._apply_restore(inst, plan):
                return False, "no forward progress"
        # Roll-back mode: execution continues with VM intact; only an
        # allocation *change* moves data (none for the baselines).
        elif not self._apply_migration(inst, plan):
            return False, "no forward progress"
        if self.config.commit_hook is not None:
            self.config.commit_hook(self, inst.ckpt_id)
        return None

    def _take_snapshot(self, inst, plan: _CheckpointPlan) -> None:
        """Commit the rollback point: the call stack just past ``inst``,
        whose save has persisted."""
        self._snapshot = Snapshot(
            ckpt_id=inst.ckpt_id,
            frames=[
                FrameSnapshot(
                    f.function.name, f.block, f.index, dict(f.registers),
                    dict(f.ref_bindings), f.ret_target,
                )
                for f in self.frames
            ],
            payload_bytes=plan.restore_payload,
        )
        self._snapshot_inst = inst
        self._attempts_on_snapshot = 0

    def _plan(self, inst) -> _CheckpointPlan:
        """``inst``'s plan, computed on its first execution."""
        plan = self._plans.get(id(inst))
        if plan is None:
            plan = self._plans[id(inst)] = _CheckpointPlan(self, inst)
        return plan

    def _apply_migration(self, inst, plan: _CheckpointPlan) -> bool:
        """Adjust VM residency to ``inst.alloc_after`` without a sleep:
        load newly-VM variables, drop newly-NVM ones (whose values the save
        just flushed). Only the moved bytes are billed."""
        model = self.model
        target = plan.vm_after
        if not target and not self.memory.vm:
            return True  # all-NVM before and after: nothing moves
        current = set(self.memory.vm)
        to_drop = current - target
        for name in to_drop:
            if name not in inst.save_vars:
                # Not flushed by the save: write back now so no value is
                # lost (conservative; baselines never hit this).
                self.memory.save_to_nvm(name)
            self.memory.drop_from_vm(name)
        to_load = target - current
        payload = 0
        for name in to_load:
            payload += self.memory.load_into_vm(name)
        self.peak_vm_bytes = max(self.peak_vm_bytes, self.memory.vm_bytes_used())
        if payload:
            restore_energy = model.restore_energy(payload)
            restore_cycles = model.restore_cycles(payload)
            self.meter.charge_restore(restore_energy)
            if self.config.step_hook is not None:
                self.config.step_hook("migrate", restore_cycles)
            if self.power.consume(restore_energy, restore_cycles):
                return self._handle_power_failure()
            self.active_cycles += restore_cycles
            if self._mm is not None:
                self._mm.counter("interp.migrates").add(1)
            if self._tm is not None:
                self._tm.event(
                    "migrate", track=telemetry.TRACK_RUNTIME,
                    ts=self.power.timeline, run=self._run_id,
                    ckpt=inst.ckpt_id, payload_bytes=payload,
                )
        return True

    def _apply_restore(
        self, inst, plan: _CheckpointPlan, reason: str = "wake"
    ) -> bool:
        """Clear VM, rebuild the post-checkpoint VM set from the
        checkpoint's ``restore_vars``, charge the restore. A VM-mapped,
        non-const variable the restore set misses comes back poisoned
        (:data:`RESTORE_POISON`), so a read of state the metadata misses
        (static rule CONS003) is dynamically visible. Returns False when
        stuck (restore itself cannot fit the budget)."""
        memory = self.memory
        memory.clear_vm()
        vm = memory.vm
        for name, poison in plan.vm_loads:
            memory.load_into_vm(name)
            if poison is not None:
                vm[name] = [poison] * len(vm[name])
        self.peak_vm_bytes = max(self.peak_vm_bytes, memory.vm_bytes_used())
        restore_energy = plan.restore_energy
        restore_cycles = plan.restore_cycles
        self.meter.charge_restore(restore_energy)
        if self.config.step_hook is not None:
            self.config.step_hook("restore", restore_cycles)
        if self.power.consume(restore_energy, restore_cycles):
            return self._handle_power_failure()
        self.active_cycles += restore_cycles
        if self._mm is not None:
            self._mm.counter("interp.ckpt_restores").add(1)
        if self._tm is not None:
            self._tm.event(
                "ckpt-restore", track=telemetry.TRACK_RUNTIME,
                ts=self.power.timeline, run=self._run_id,
                ckpt=inst.ckpt_id, restore_nj=round(restore_energy, 6),
                reason=reason,
            )
        return True

    # -- power failures -----------------------------------------------------------

    def _handle_power_failure(self) -> bool:
        """Roll back to the last snapshot after an outage. Returns False
        when the execution is stuck (no forward progress)."""
        self._attempts_on_snapshot += 1
        if self._mm is not None:
            self._mm.counter("interp.power_failures").add(1)
        if self._tm is not None:
            self._tm.event(
                "power-failure", track=telemetry.TRACK_RUNTIME,
                ts=self.power.timeline, run=self._run_id,
                attempt=self._attempts_on_snapshot,
            )
        if self._attempts_on_snapshot >= MAX_ATTEMPTS_PER_SNAPSHOT + 1:
            return False
        self.meter.rollback()
        # The discarded attempt (including any partial save energy) must
        # not count against the segment that eventually commits.
        self._seg_anchor = self.meter.breakdown.total
        self.memory.clear_vm()
        self.power.recharge_full()

        if self._snapshot is None:
            # Restart from boot: fresh frames, nothing to restore but the
            # (empty) register file. Mutate in place: _execute holds a
            # reference to the frames list.
            entry = self.module.entry_function
            self.frames[:] = [_Frame(entry, entry.entry.label)]
            restore_energy = self.model.restore_energy(0)
            self.meter.charge_restore(restore_energy)
            if self.config.step_hook is not None:
                self.config.step_hook(
                    "boot-restore", self.model.restore_cycles(0)
                )
            self.power.consume(restore_energy, self.model.restore_cycles(0))
            if self._mm is not None:
                self._mm.counter("interp.reboots").add(1)
            if self._tm is not None:
                self._tm.event(
                    "reboot", track=telemetry.TRACK_RUNTIME,
                    ts=self.power.timeline, run=self._run_id,
                )
            if self.config.trace is not None:
                self.config.trace(entry.name, entry.entry.label)
            return True

        snapshot = self._snapshot
        self.frames[:] = [
            _Frame(
                self.module.function(f.function),
                f.block,
                f.index,
                registers=dict(f.registers),
                ref_bindings=dict(f.ref_bindings),
                ret_target=f.ret_target,
            )
            for f in snapshot.frames
        ]
        inst = self._snapshot_inst
        return self._apply_restore(inst, self._plan(inst), reason="rollback")

    # -- snapshot / fork --------------------------------------------------------

    def capture_snapshot(self) -> EmulatorSnapshot:
        """Capture the complete dynamic state at a checkpoint commit.

        Meant to be called from :attr:`InterpreterConfig.commit_hook`
        (i.e. with the last checkpoint fully committed); raises
        :class:`EmulationError` before the first commit, when there is no
        consistent resume point yet."""
        if self._snapshot is None:
            raise EmulationError(
                "capture_snapshot before any checkpoint commit"
            )
        if self._has_env:
            # The environment's sample counters are world state, outside
            # the program state a snapshot captures; forking such a run
            # would replay the world, which is exactly what volatile
            # inputs model as impossible.
            raise EmulationError(
                "capture_snapshot on a module with volatile environment "
                "inputs"
            )
        return EmulatorSnapshot(
            ckpt_id=self._snapshot.ckpt_id,
            frames=[
                FrameSnapshot(
                    function=f.function.name,
                    block=f.block,
                    index=f.index,
                    registers=dict(f.registers),
                    ref_bindings=dict(f.ref_bindings),
                    ret_target=f.ret_target,
                )
                for f in self.frames
            ],
            snapshot_payload_bytes=self._snapshot.payload_bytes,
            images=self.memory.snapshot_images(),
            meter_state=self.meter.state_dict(),
            power_state=self.power.state_dict(),
            instructions_executed=self.instructions_executed,
            active_cycles=self.active_cycles,
            checkpoints_skipped=self.checkpoints_skipped,
            peak_vm_bytes=self.peak_vm_bytes,
            seg_anchor=self._seg_anchor,
            attempts_on_snapshot=self._attempts_on_snapshot,
            run_id=self._run_id,
        )

    def restore_snapshot(self, snap: EmulatorSnapshot) -> None:
        """Load a captured snapshot into this (freshly built) interpreter.

        Validates that the snapshot's program position actually names the
        checkpoint it claims (a corrupted or mismatched snapshot raises
        :class:`EmulationError` instead of silently resuming wrong)."""
        if not snap.frames:
            raise EmulationError("snapshot has no frames")
        top = snap.frames[-1]
        try:
            function = self.module.function(top.function)
            block = function.blocks[top.block]
            inst = block.instructions[top.index - 1]
        except (KeyError, IndexError) as exc:
            raise EmulationError(
                f"snapshot position {top.function}:{top.block}:"
                f"{top.index - 1} does not exist in this module ({exc})"
            ) from None
        if (
            top.index < 1
            or not isinstance(inst, (Checkpoint, CondCheckpoint))
            or inst.ckpt_id != snap.ckpt_id
        ):
            raise EmulationError(
                f"snapshot claims checkpoint {snap.ckpt_id} but the "
                f"instruction before {top.function}:{top.block}:"
                f"{top.index} is {type(inst).__name__}"
            )
        self.frames = [
            _Frame(
                self.module.function(f.function),
                f.block,
                f.index,
                registers=dict(f.registers),
                ref_bindings=dict(f.ref_bindings),
                ret_target=f.ret_target,
            )
            for f in snap.frames
        ]
        self.memory.restore_images(snap.images)
        self.meter.restore_state(snap.meter_state)
        self.power.restore_state(snap.power_state)
        self.instructions_executed = snap.instructions_executed
        self.active_cycles = snap.active_cycles
        self.checkpoints_skipped = snap.checkpoints_skipped
        self.peak_vm_bytes = snap.peak_vm_bytes
        self._seg_anchor = snap.seg_anchor
        self._attempts_on_snapshot = snap.attempts_on_snapshot
        self._run_id = snap.run_id
        self._snapshot = Snapshot(
            ckpt_id=snap.ckpt_id,
            frames=list(snap.frames),
            payload_bytes=snap.snapshot_payload_bytes,
        )
        self._snapshot_inst = inst


# -- drivers ---------------------------------------------------------------------


def run_continuous(
    module: Module,
    model: EnergyModel,
    default_space: MemorySpace = MemorySpace.NVM,
    inputs: Optional[Dict[str, List[int]]] = None,
    trace: Optional[Callable[[str, str], None]] = None,
    max_instructions: int = 200_000_000,
    compiled: bool = True,
) -> ExecutionReport:
    """Run a module under continuous power (reference/profiling runs).

    Untransformed programs (all accesses AUTO) are costed as if every
    variable lived in ``default_space``.
    """
    config = InterpreterConfig(
        default_space=default_space,
        inputs=dict(inputs or {}),
        trace=trace,
        max_instructions=max_instructions,
        compiled=compiled,
    )
    interp = Interpreter(
        module,
        model,
        CheckpointPolicy.rollback_mode("continuous"),
        PowerManager.continuous(),
        config,
    )
    return interp.run()


def run_intermittent(
    module: Module,
    model: EnergyModel,
    policy: CheckpointPolicy,
    power: PowerManager,
    vm_size: int = 1 << 30,
    inputs: Optional[Dict[str, List[int]]] = None,
    max_instructions: int = 200_000_000,
    step_hook: Optional[Callable[[str, int], None]] = None,
    compiled: bool = True,
) -> ExecutionReport:
    """Run a transformed module under intermittent power."""
    config = InterpreterConfig(
        inputs=dict(inputs or {}),
        max_instructions=max_instructions,
        vm_size=vm_size,
        step_hook=step_hook,
        compiled=compiled,
    )
    interp = Interpreter(module, model, policy, power, config)
    return interp.run()

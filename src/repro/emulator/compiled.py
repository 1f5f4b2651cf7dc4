"""Superblock compilation of pre-decoded functions.

The interpreter's pre-decode removed per-step type dispatch from the
hot loop; this module removes the loop itself from every checkpoint-free
stretch of a function. Each IR function is compiled, on an
interpreter's first run with segments on, into *regions*: runs of whole
blocks (one per function unless it has more than ``REGION_LIMIT``
segments), each executed by one generated function:

- A *segment* is a maximal straight-line run of one basic block's
  non-checkpoint instructions, ending at a control instruction or just
  before a checkpoint. The region function holds each segment's
  instruction code inline, under one ``frame.registers`` load, with
  operand kinds, AUTO-space resolution, wrap masks and constant operands
  resolved at compile time; a comparison feeding the block's branch
  computes the branch condition ``_v`` directly. A Call, a Ret and an
  instruction the generator does not express (:func:`_can_gen`) are
  calls: the Call and Ret ops of :func:`_make_call`/:func:`_make_ret`,
  or the interpreter's own handler.
- A conditional checkpoint is a zero-instruction *check segment*: the
  iteration-count test of SCHEMATIC's loop scheme, which runs on every
  pass through a loop latch and fires once every ``every`` passes. It
  runs inside the region exactly as the prefix of
  ``Interpreter._do_checkpoint`` does when the count stays below
  ``every`` (``COND_CHECK_CYCLES`` cycles and their energy, consumed
  and charged, and the count stored); a check that fires or is not
  admitted takes the per-step path with nothing charged.
- The region runs segment after segment, following generated Jump and
  Branch targets inside the function, and can be entered at any segment
  start. It goes back to ``Interpreter._execute`` only at a plain
  checkpoint, at an iteration check that fires, after a Call or Ret,
  after a control instruction the interpreter's own handler ran, at a
  jump into another region, at the
  ``max_instructions`` edge, or when a segment is not admitted.
- The region keeps the power manager's consumption, cycle and timeline
  counters, the meter's six pending fields, ``active_cycles`` and
  ``instructions_executed`` in locals, and writes them back on every
  exit, exceptions included.
- Each segment is admitted and charged by generated left-associative
  expressions (``c = c + e0 + e1 ...``, see :func:`fold_source`): the
  same C-double additions, in the same order, as the per-step ``+=``
  sequence, on every Python version. Admission tests the segment-final
  values against the three limits of
  :meth:`repro.emulator.power.PowerManager.admission_limits`, read once
  at region entry; nonnegative float addition is monotone under IEEE
  round-to-nearest and cycle counts are exact integers, so a final value
  within a limit bounds every prefix. The limits cannot change inside a
  region: only cold paths recharge, advance the schedule or draw a
  stochastic window.

Bit-identity ground rules the generated code obeys:

- Register values are always stored wrapped to the destination
  register's type, so a copy between same-typed storage elides the wrap
  (``wrap`` is the identity on in-range values). Comparison results
  (0/1) are never wrapped, matching ``IntType.wrap``'s identity there.
- Error behaviour is byte-identical: the region turns a ``KeyError``
  from a generated register read into the interpreter's exact
  uninitialized-register message (``raise ... from None``). A Load or Store indexes the live
  ``MemoryState.nvm``/``vm`` dict of its resolved space directly, under
  the inline test ``0 <= index < len(image)`` that ``read``/``write``
  apply; every access that test does not pass (an unknown or
  non-resident variable, an out-of-bounds or negative index) calls the
  live ``MemoryState.read``/``write`` bound method instead, so every
  diagnostic is the interpreter's own. An access whose space still
  resolves to AUTO and a volatile environment input always take the
  call. The image dicts are never rebound
  (``MemoryState.restore_images`` refills them in place), so code
  compiled before a snapshot restore reads the restored values.
- Evaluation order within an instruction (lhs before rhs, index before
  value) and across a segment's instructions is the interpreter's
  order, so a mid-segment exception fires at the same instruction with
  the same partial effects. One local, ``_i``, holds the offset of the
  instruction or op running. A segment commits its accounting only
  after its last instruction ran, so a fault leaves the state before
  the faulting segment, tagged with the segment and ``_i``
  (``_seg_fault``) for :meth:`repro.emulator.interpreter.Interpreter.
  _reconcile_segment_fault` to replay per step. Exceptions raised
  outside instruction code (trace callbacks) are not tagged.
- A generated transfer (Jump, Branch, Call, Ret) calls ``config.trace``
  for the block it enters; a handler-run control instruction traces
  itself. Every block entry emits exactly one event.

Region functions are the only generated code, and two process-wide
caches, each holding at most ``CACHE_LIMIT`` entries and evicting the
least recently used, bound what codegen costs. The region source names
every constant and every per-interpreter object (memory images,
``read``/``write``, the environment-sample counters, ``trace``, the
Call/Ret ops and handlers, register and variable names, labels) instead
of spelling it, so a factory is keyed by its source text alone: regions
of the same shape share one factory across functions and modules. A
function's regions are keyed by its content (every instruction's text
and cost, the variable attributes codegen reads, the AUTO default space,
whether the run is traced and the iteration-check energy, a literal in
the generated source), so an interpreter over a module another
interpreter already compiled only instantiates its regions: it
generates no source and runs no ``exec``.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Dict, List, Tuple

from repro.emulator.runtime import COND_CHECK_CYCLES
from repro.errors import EmulationError
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    CondCheckpoint,
    Jump,
    Load,
    Move,
    Opcode,
    Ret,
    Store,
    UnOp,
    UnaryOpcode,
)
from repro.ir.values import Const, MemorySpace, Register, VarRef

__all__ = ["Region", "Segment", "compile_blocks", "fold_source"]

_CMP_OPS = frozenset(
    (Opcode.EQ, Opcode.NE, Opcode.LT, Opcode.LE, Opcode.GT, Opcode.GE)
)
_CMP_SYM = {
    Opcode.EQ: "==",
    Opcode.NE: "!=",
    Opcode.LT: "<",
    Opcode.LE: "<=",
    Opcode.GT: ">",
    Opcode.GE: ">=",
}
_ARITH_SYM = {
    Opcode.ADD: "+",
    Opcode.SUB: "-",
    Opcode.MUL: "*",
    Opcode.AND: "&",
    Opcode.OR: "|",
    Opcode.XOR: "^",
}

#: Maximum number of segments in one region. A larger function is cut
#: into several regions of whole blocks: compiling a region takes
#: transient memory in proportion to its size (7.8 MB for 112 segments),
#: and smaller regions share factories more often. At 16, a
#: ``design-sweep`` pass enters regions 56k times against 54k at 32,
#: and a ``paper-cold`` pass peaks 0.5 MB lower and compiles 0.02 s less.
REGION_LIMIT = 16

#: Entries each generated-code cache keeps: a long run over many placed
#: modules (``run_all``, ``testkit diff``) evicts the least recently
#: used beyond it. One ``paper-cold`` pass uses 70 function keys and 60
#: factories.
CACHE_LIMIT = 256

_CONTROL = (Jump, Branch, Call, Ret)


def _cdiv(a: int, b: int) -> int:
    """C-style truncating division (the interpreter's DIV semantics)."""
    if b == 0:
        raise EmulationError("division by zero")
    result = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        result = -result
    return result


def _crem(a: int, b: int) -> int:
    """C-style remainder paired with :func:`_cdiv`."""
    if b == 0:
        raise EmulationError("remainder by zero")
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return a - quotient * b


class Segment:
    """One straight-line run of a basic block inside a region: the unit
    a region admits and charges, and what
    ``Interpreter._reconcile_segment_fault`` replays when it faults. A
    check segment (a conditional checkpoint's iteration check) runs no
    instruction: ``n`` is 0. Depends only on the function's content, so
    interpreters share it."""

    __slots__ = (
        "label",
        "start",
        "end_index",
        "traces_entry",
        "n",
        "cycles",
        "costs",
    )

    def __init__(self, label, start, costs, end_index, traces_entry):
        self.label = label
        self.start = start
        #: Index the frame resumes at when the segment ends without a
        #: control transfer: the checkpoint it stops before or, for a
        #: check segment, the index after its own; None otherwise.
        self.end_index = end_index
        #: True when the segment ends in a generated control transfer,
        #: which skips the interpreter's handlers: the region then emits
        #: the block-entry ``trace`` event itself. False for
        #: fall-through segments and for a control instruction the
        #: interpreter's own handler runs, which traces itself — so each
        #: block entry emits exactly one event.
        self.traces_entry = traces_entry
        self.costs = costs
        self.n = len(costs)
        self.cycles = sum(c[0] for c in costs)

    # Per-instruction streams, one per accumulator, in execution order:
    # the region folds each with fold_source — the same left-to-right
    # C-double adds the per-step loop performs (floats are not
    # associative; the *order* is what these preserve). Computed when
    # the region is generated, not kept.

    @property
    def energies(self):
        return tuple(float(c[1]) for c in self.costs)

    @property
    def cpu(self):
        return tuple(
            float(c[1] - c[2]) if c[4] else float(c[1]) for c in self.costs
        )

    @property
    def vm_e(self):
        return tuple(float(c[2]) for c in self.costs if c[4] and c[3])

    @property
    def nvm_e(self):
        return tuple(float(c[2]) for c in self.costs if c[4] and not c[3])


class Region:
    """One region of one interpreter: ``run(frame, sid,
    max_instructions)`` executes from segment ``sid`` and returns True
    when the instruction at ``frame.index`` must take the per-step path
    next (a plain checkpoint, an iteration check that fires, a segment
    not admitted), False after a Call, Ret, handler-run transfer or a
    jump into another region."""

    __slots__ = ("run", "entries", "segments")

    def __init__(self, run, program):
        self.run = run
        #: ``{label: {start index: segment id}}`` for the region's
        #: blocks — every segment start.
        self.entries = program.entries
        #: Segments by id.
        self.segments = program.segments


# -- generated-code caches ---------------------------------------------------

# Both caches keep their entries in order of last use (see _cached).
#: Region factory per SHA-256 of its source text.
_FACTORIES: Dict[bytes, Callable] = {}
#: A function's regions per content key (:func:`_function_key`).
_PROGRAMS: Dict[tuple, tuple] = {}

_EXEC_GLOBALS = {
    "_E": EmulationError,
    "_int": int,
    "len": len,
    "_cdiv": _cdiv,
    "_crem": _crem,
    "KeyError": KeyError,
    "BaseException": BaseException,
    "__builtins__": {},
}


def _exec(src: str) -> Callable:
    """Run one generated source; returns the ``_make`` it defines."""
    namespace: dict = {}
    exec(src, dict(_EXEC_GLOBALS), namespace)
    return namespace["_make"]


def _cached(cache: dict, key, make: Callable):
    """``cache[key]``, from ``make()`` on a miss. The entry is popped and
    reinserted, so the dict's order is recency of use, and the least
    recently used entry is evicted beyond ``CACHE_LIMIT``."""
    value = cache.pop(key, None)
    if value is None:
        value = make()
        if len(cache) >= CACHE_LIMIT:
            del cache[next(iter(cache))]
    cache[key] = value
    return value


def _factory(src: str) -> Callable:
    """The ``_make`` function ``src`` defines, exec'd once per text (the
    cache keeps a digest, not the text)."""
    key = hashlib.sha256(src.encode()).digest()
    return _cached(_FACTORIES, key, lambda: _exec(src))


def fold_source(acc: str, stream) -> str:
    """Source of ``acc`` plus each element of ``stream`` in order: a
    left-associative chain of float literals (``repr`` round-trips a
    finite float exactly), so evaluating it performs exactly the C-double
    additions of one ``acc += value`` per element, on every Python
    version (``sum`` compensates rounding from 3.12 on)."""
    terms = [acc]
    for value in stream:
        if not math.isfinite(value):
            raise ValueError(f"cannot fold non-finite {value!r}")
        terms.append(repr(float(value)))
    return " + ".join(terms)


# -- instruction code generation ---------------------------------------------


class _Ctx:
    """Accumulates a region's generated source lines, at the current
    indent, and the constants they name."""

    def __init__(self):
        self.lines: List[str] = []
        self.indent = ""
        self.names: List[str] = []
        self.values: List[object] = []

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def bind(self, value) -> str:
        name = f"_b{len(self.names)}"
        self.names.append(name)
        self.values.append(value)
        return name

    def unpack(self, source: str) -> str:
        """The line unpacking the bound values from ``source``."""
        if not self.names:
            return ""
        names = ", ".join(self.names) + ("," if len(self.names) == 1 else "")
        return f"({names}) = {source}"


def _wrap_expr(expr: str, type_) -> str:
    """Inline ``IntType.wrap`` around a generated expression."""
    mask = (1 << type_.bits) - 1
    if type_.signed:
        half = 1 << (type_.bits - 1)
        full = 1 << type_.bits
        return f"(_s - {full} if (_s := {expr} & {mask}) >= {half} else _s)"
    return f"({expr} & {mask})"


def _reg_tok(ctx: _Ctx, name: str) -> str:
    return f"r[{ctx.bind(name)}]"


def _operand_tok(ctx: _Ctx, operand) -> str:
    if isinstance(operand, Register):
        return _reg_tok(ctx, operand.name)
    return ctx.bind(operand.value)  # Const: raw (in-range) value


def _name_expr(ctx: _Ctx, inst) -> str:
    """Variable-name expression with the by-reference resolution the
    interpreter performs; non-ref variables can never appear in
    ``ref_bindings`` (binding keys are exactly the callee's ref formal
    names), so the dict probe is elided for them."""
    tok = ctx.bind(inst.var.name)
    if inst.var.is_ref:
        return f"frame.ref_bindings.get({tok}, {tok})"
    return tok


def _index_expr(ctx: _Ctx, inst) -> str:
    if inst.index is None:
        return "0"
    if isinstance(inst.index, Const):
        return ctx.bind(inst.index.value)
    return _reg_tok(ctx, inst.index.name)


def _can_gen(inst) -> bool:
    """Can this instruction be expressed by the code generator?
    (Anything else falls back to the interpreter's reference handler.)"""
    scalar = (Register, Const)
    if type(inst) is BinOp:
        if not (
            isinstance(inst.lhs, scalar) and isinstance(inst.rhs, scalar)
        ):
            return False
        # Const-const pairs are left to the reference handler: the
        # frontend folds them, and division-by-zero must still raise at
        # execution time, not at compile time.
        return isinstance(inst.lhs, Register) or isinstance(
            inst.rhs, Register
        )
    if type(inst) is UnOp:
        return isinstance(inst.src, Register)
    if type(inst) is Move:
        return isinstance(inst.src, scalar)
    if type(inst) in (Load, Store):
        if inst.index is not None and not isinstance(inst.index, scalar):
            return False
        if type(inst) is Store and not isinstance(inst.value, scalar):
            return False
        return True
    if type(inst) is Jump:
        return True
    if type(inst) is Branch:
        return isinstance(inst.cond, scalar)
    return False


def _emit_binop(ctx: _Ctx, inst: BinOp) -> None:
    op = inst.op
    at = _operand_tok(ctx, inst.lhs)
    if op in (Opcode.SHL, Opcode.SHR):
        sym = "<<" if op is Opcode.SHL else ">>"
        if isinstance(inst.rhs, Const):
            expr = f"({at} {sym} {ctx.bind(inst.rhs.value & 31)})"
        else:
            expr = f"({at} {sym} ({_operand_tok(ctx, inst.rhs)} & 31))"
    elif op in _ARITH_SYM:
        expr = f"({at} {_ARITH_SYM[op]} {_operand_tok(ctx, inst.rhs)})"
    elif op is Opcode.DIV:
        expr = f"_cdiv({at}, {_operand_tok(ctx, inst.rhs)})"
    elif op is Opcode.REM:
        expr = f"_crem({at}, {_operand_tok(ctx, inst.rhs)})"
    else:  # comparison: 0/1 result, wrap is the identity
        expr = f"_int({at} {_CMP_SYM[op]} {_operand_tok(ctx, inst.rhs)})"
        ctx.emit(f"r[{ctx.bind(inst.dest.name)}] = {expr}")
        return
    wrapped = _wrap_expr(expr, inst.dest.type)
    ctx.emit(f"r[{ctx.bind(inst.dest.name)}] = {wrapped}")


def _emit_unop(ctx: _Ctx, inst: UnOp) -> None:
    at = _reg_tok(ctx, inst.src.name)
    dtok = ctx.bind(inst.dest.name)
    if inst.op is UnaryOpcode.LNOT:  # 0/1: wrap is the identity
        ctx.emit(f"r[{dtok}] = _int({at} == 0)")
        return
    expr = f"(-{at})" if inst.op is UnaryOpcode.NEG else f"(~{at})"
    ctx.emit(f"r[{dtok}] = {_wrap_expr(expr, inst.dest.type)}")


def _emit_move(ctx: _Ctx, inst: Move) -> None:
    dtok = ctx.bind(inst.dest.name)
    if isinstance(inst.src, Const):
        ctx.emit(
            f"r[{dtok}] = {ctx.bind(inst.dest.type.wrap(inst.src.value))}"
        )
        return
    src = _reg_tok(ctx, inst.src.name)
    if inst.src.type == inst.dest.type:  # stored values are in-range
        ctx.emit(f"r[{dtok}] = {src}")
    else:
        ctx.emit(f"r[{dtok}] = {_wrap_expr(src, inst.dest.type)}")


def _access(ctx: _Ctx, space, inst):
    """Common operands of an inline memory access: the live image dict
    the resolved space indexes (``_nvm`` or ``_vm``; None when only the
    diagnostic path can handle the access: an AUTO space, a negative
    constant index), the variable-name expression and the index
    expression. A by-reference name or a register index is evaluated
    once, into ``_n`` or ``_j``, in the interpreter's order (name before
    index)."""
    images = None
    if not (isinstance(inst.index, Const) and inst.index.value < 0):
        if space is MemorySpace.VM:
            images = "_vm"
        elif space is MemorySpace.NVM:
            images = "_nvm"
    name = _name_expr(ctx, inst)
    if inst.var.is_ref:
        ctx.emit(f"_n = {name}")
        name = "_n"
    index = _index_expr(ctx, inst)
    if isinstance(inst.index, Register):
        ctx.emit(f"_j = {index}")
        index = "_j"
    return images, name, index, ctx.bind(space)


def _in_bounds(ctx: _Ctx, images, name: str, inst, index: str) -> str:
    """Fetch the live image into ``_m`` and test the index against it —
    the success condition of ``MemoryState.read``/``write``. Everything
    else (an unknown or non-resident variable, an out-of-bounds or
    negative index) takes the ``MemoryState`` call, so every diagnostic
    stays its own."""
    ctx.emit(f"_m = {images}.get({name})")
    if inst.index is None:
        return "_m"  # index 0: any non-empty image
    if isinstance(inst.index, Const):
        return f"_m is not None and {index} < len(_m)"
    return f"_m is not None and 0 <= {index} < len(_m)"


def _emit_load(ctx: _Ctx, space, inst: Load) -> None:
    images, name, index, stok = _access(ctx, space, inst)
    dtok = ctx.bind(inst.dest.name)
    call = f"_read({name}, {index}, {stok})"
    if inst.var.volatile_input:
        ctx.emit(f"_v = {call}")
        ctx.emit(f"_u = _env.get({name}, 0)")
        ctx.emit(f"_env[{name}] = _u + 1")
        ctx.emit(f"r[{dtok}] = {_wrap_expr('(_v + _u)', inst.dest.type)}")
        return
    if images is None:
        expr = call
    else:
        cond = _in_bounds(ctx, images, name, inst, index)
        expr = f"(_m[{index}] if {cond} else {call})"
    if inst.dest.type == inst.var.type:  # stored values are in-range
        ctx.emit(f"r[{dtok}] = {expr}")
    else:
        ctx.emit(f"r[{dtok}] = {_wrap_expr(expr, inst.dest.type)}")


def _emit_store(ctx: _Ctx, space, inst: Store) -> None:
    images, name, index, stok = _access(ctx, space, inst)
    if isinstance(inst.value, Const):
        value = ctx.bind(inst.var.type.wrap(inst.value.value))
    else:
        value = _reg_tok(ctx, inst.value.name)
        if inst.value.type != inst.var.type:
            value = _wrap_expr(value, inst.var.type)
    # Either branch evaluates the value before any memory effect, as
    # the interpreter's argument evaluation does.
    call = f"_write({name}, {index}, {value}, {stok})"
    if images is None:
        ctx.emit(call)
        return
    cond = _in_bounds(ctx, images, name, inst, index)
    ctx.emit(f"if {cond}: _m[{index}] = {value}")
    ctx.emit(f"else: {call}")


def _emit_cmp_branch(ctx: _Ctx, cmp: BinOp) -> None:
    """A comparison fused with the branch it feeds: compute it into the
    branch condition ``_v`` and store its (unwrapped 0/1) result
    register, which may be read later."""
    at = _operand_tok(ctx, cmp.lhs)
    bt = _operand_tok(ctx, cmp.rhs)
    ctx.emit(f"_v = _int({at} {_CMP_SYM[cmp.op]} {bt})")
    ctx.emit(f"r[{ctx.bind(cmp.dest.name)}] = _v")


def _emit_inst(ctx: _Ctx, space, kind, inst) -> None:
    """The lines of one generated unit (see :func:`_plan_segment`)."""
    if kind == "cmpbr":
        _emit_cmp_branch(ctx, inst)
    elif type(inst) is BinOp:
        _emit_binop(ctx, inst)
    elif type(inst) is UnOp:
        _emit_unop(ctx, inst)
    elif type(inst) is Move:
        _emit_move(ctx, inst)
    elif type(inst) is Load:
        _emit_load(ctx, _resolve(space, inst), inst)
    elif type(inst) is Store:
        _emit_store(ctx, _resolve(space, inst), inst)
    else:  # a register-conditioned Branch: the region transfers on _v
        ctx.emit(f"_v = {_reg_tok(ctx, inst.cond.name)}")


def _resolve(default_space, inst):
    """The space an access resolves to (``Interpreter._space_of``)."""
    return default_space if inst.space is MemorySpace.AUTO else inst.space


# -- per-interpreter ops -----------------------------------------------------


def _uninit(name, frame):
    """The interpreter's uninitialized-register error."""
    return EmulationError(
        f"read of uninitialized register %{name} in @{frame.function.name}"
    )


def _make_call(inst: Call, interp, next_index: int, frame_cls):
    """Call op with the argument-marshalling plan precomputed and the
    post-return index applied absolutely (the reference handler's
    ``frame.index += 1`` would act on a stale index)."""
    callee = interp.module.function(inst.callee)
    entry_label = callee.entry.label
    ret_name = inst.dest.name if inst.dest is not None else None
    plans: List[tuple] = []
    arg_regs = callee.arg_registers()
    for i, (arg, param) in enumerate(zip(inst.args, callee.params)):
        if isinstance(arg, VarRef):
            formal = callee.variables[param.name]
            plans.append(("ref", formal.name, arg.variable.name))
        else:
            reg = arg_regs[i]
            assert reg is not None
            if isinstance(arg, Const):
                plans.append(("const", reg.name, reg.type.wrap(arg.value)))
            else:
                same = arg.type == reg.type
                plans.append(("reg", reg.name, arg.name, reg.type.wrap, same))

    def _op(frame):
        registers: Dict[str, int] = {}
        ref_bindings: Dict[str, str] = {}
        for plan in plans:
            kind = plan[0]
            if kind == "reg":
                _, rname, aname, wrap, same = plan
                try:
                    value = frame.registers[aname]
                except KeyError:
                    raise _uninit(aname, frame) from None
                registers[rname] = value if same else wrap(value)
            elif kind == "const":
                registers[plan[1]] = plan[2]
            else:
                ref_bindings[plan[1]] = frame.ref_bindings.get(
                    plan[2], plan[2]
                )
        frame.index = next_index  # resume after the call on return
        interp.frames.append(
            frame_cls(
                callee,
                entry_label,
                registers=registers,
                ref_bindings=ref_bindings,
                ret_target=ret_name,
            )
        )

    return _op


def _make_ret(inst: Ret, interp):
    """Return op. Reads ``interp.frames`` at call time — the interpreter
    rebinds the frames list on run()/restore_snapshot()."""
    if inst.value is None:

        def _op(frame):
            interp.frames.pop()

        return _op
    if isinstance(inst.value, Const):
        const = inst.value.value

        def _op(frame):
            frames = interp.frames
            frames.pop()
            ret_target = frame.ret_target
            if frames and ret_target is not None:
                frames[-1].registers[ret_target] = const

        return _op
    name = inst.value.name  # a Register: VarRef values run the handler

    def _op(frame):
        try:
            value = frame.registers[name]
        except KeyError:
            raise _uninit(name, frame) from None
        frames = interp.frames
        frames.pop()
        ret_target = frame.ret_target
        if frames and ret_target is not None:
            frames[-1].registers[ret_target] = value

    return _op


# -- segment planning ----------------------------------------------------------


def _plan_segment(label, start, insts, ops):
    """Plan one straight-line run (``insts`` is a list of ``(inst,
    cost)`` pairs; a control instruction can only be last). Appends the
    ``(kind, label, index)`` recipe of each Call, Ret and handler-run
    instruction to ``ops`` and returns the segment and its ``(units,
    transfer)`` plan. ``units`` lists ``(offset, kind, payload)`` in
    order: an instruction the region generates (``"gen"``), a comparison
    fused with the branch it feeds (``"cmpbr"``, payload the
    comparison), or a ``"call"``, ``"ret"`` or handler-run ``"ref"`` op
    by its slot in ``ops``. A Jump or constant Branch has no unit: it is
    the region's own transfer.

    A handler-run op is safe mid-segment because only Call derives new
    state from ``frame.index``: the relative bump the handlers perform
    lands on a stale index that the region overwrites on exit."""
    units: List[tuple] = []
    goto = None
    for offset, (inst, _cost) in enumerate(insts):
        if type(inst) is Call:
            kind = "call"
        elif type(inst) is Ret and not isinstance(inst.value, VarRef):
            kind = "ret"
        elif not _can_gen(inst):
            kind = "ref"
        elif type(inst) is Jump:
            goto = inst.target
            continue
        elif type(inst) is Branch and isinstance(inst.cond, Const):
            goto = inst.if_true if inst.cond.value != 0 else inst.if_false
            continue
        else:
            units.append((offset, "gen", inst))
            continue
        units.append((offset, kind, len(ops)))
        ops.append((kind, label, start + offset))
    # Fuse a comparison into the branch it feeds.
    if (
        len(units) >= 2
        and units[-1][1] == "gen"
        and type(units[-1][2]) is Branch
        and units[-2][1] == "gen"
        and type(units[-2][2]) is BinOp
        and units[-2][2].op in _CMP_OPS
        and units[-2][2].dest.name == units[-1][2].cond.name
    ):
        units[-2:] = [(units[-2][0], "cmpbr", units[-2][2])]

    last = insts[-1][0]
    if type(last) not in _CONTROL:
        transfer = ("fall", start + len(insts))
    elif goto is not None:
        transfer = ("goto", goto)
    elif units[-1][1] in ("gen", "cmpbr"):
        transfer = ("branch", last.if_true, last.if_false)
    else:
        transfer = (units[-1][1],)  # call, ret or a handler-run ref
    segment = Segment(
        label, start, tuple(cost for _, cost in insts),
        transfer[1] if transfer[0] == "fall" else None,
        transfer[0] not in ("fall", "ref"),
    )
    return segment, (units, transfer)


# -- region code generation ----------------------------------------------------

_REGION_HEAD = """\
def _make(_V, _P):
    {consts}
    (_interp, _power, _meter, _trace, _nvm, _vm, _read, _write, _env,
     {ops}) = _P
    def _region(frame, s, xmax):
        _p = _meter.pending
        c = _power.consumed_since_recharge
        k0 = _power.cycles_since_recharge
        t0 = _power.timeline
        el, cl, tl = _power.admission_limits()
        cl = cl - k0
        if tl - t0 < cl:
            cl = tl - t0
        x0 = _interp.instructions_executed
        nl = xmax - x0
        pc = _p.computation
        pu = _p.cpu
        pv = _p.vm_access
        pn = _p.nvm_access
        cy = n = vn = nn = 0
        _i = None
        try:
            while s < {n_segments}:
"""

_REGION_TAIL = """\
            frame.block = _XL[s]
            frame.index = _XI[s]
            return _XR[s]
        except BaseException as _x:
            if _i is not None:
                if (_x.__class__ is KeyError
                        and _x.__traceback__.tb_next is None):
                    _e = _E('read of uninitialized register %'
                            + _x.args[0] + ' in @' + frame.function.name)
                    _e._seg_fault = (_S[s], _i)
                    raise _e from None
                _x._seg_fault = (_S[s], _i)
            raise
        finally:
            _power.consumed_since_recharge = c
            _power.cycles_since_recharge = k0 + cy
            _power.timeline = t0 + cy
            _interp.active_cycles += cy
            _interp.instructions_executed = x0 + n
            _p.computation = pc
            _p.cpu = pu
            _p.vm_access = pv
            _p.nvm_access = pn
            _p.vm_accesses += vn
            _p.nvm_accesses += nn
    return _region
"""


def _region_source(fname, space, traced, check_energy, segments, plans,
                   entries, ops):
    """The region factory's source and its bound constants.

    ``s`` is the current segment id; ids from ``len(segments)`` on name
    exits, and every exit (and a segment or check that is not admitted)
    leaves through one tail that sets ``frame.block``/``frame.index``
    from ``_XL``/``_XI`` and returns ``_XR``: True when the instruction
    there takes the per-step path next (a plain checkpoint, an
    unadmitted segment, a check that fires or is not admitted), False
    when ``_execute`` must dispatch again (another region's block).
    ``c`` is the power manager's consumption; ``cy`` the cycles run so
    far, which the cycles-since-recharge counter, the timeline and
    ``active_cycles`` all advance by, so ``cl`` (the tighter of the
    cycle and timeline limits less the entry counters) bounds both;
    ``n`` the instructions run, against ``nl``; ``pc``/``pu``/``pv``/
    ``pn`` and ``vn``/``nn`` the meter's pending energies and access
    counts (the counts as increments); ``_c`` a segment's admitted
    consumption.

    ``_i`` is the offset in the current segment of the instruction or op
    running, None outside instruction code. An exception raised while it
    is set is tagged with ``(segment, _i)`` (``_seg_fault``) for the
    interpreter to reconcile; a ``KeyError`` raised by the region's own
    code (its traceback goes no deeper than the region), which only a
    generated register read can raise, becomes the interpreter's
    uninitialized-register error. Exceptions raised outside instruction
    code (trace callbacks) stay untagged."""
    ctx = _Ctx()
    emit = ctx.emit
    fn_tok = ctx.bind(fname)
    # Exit table: segment ids first (an unadmitted segment resumes at
    # its own start, per step), then one id per distinct exit.
    exits = [(seg.label, seg.start, True) for seg in segments]
    exit_ids: Dict[tuple, int] = {}

    def exit_to(label, index, step):
        key = (label, index, step)
        if key not in exit_ids:
            exit_ids[key] = len(exits)
            exits.append(key)
        return exit_ids[key]

    def resume(label, index) -> int:
        """The id that runs block ``label`` from ``index``: its segment,
        or the per-step path at a checkpoint without one."""
        sid = entries[label].get(index)
        return exit_to(label, index, True) if sid is None else sid

    def target(label) -> int:
        """The id that enters block ``label``."""
        if label not in entries:  # another region's block: dispatch again
            return exit_to(label, 0, False)
        return resume(label, 0)

    labels: Dict[str, str] = {}

    def lab(label):
        if label not in labels:
            labels[label] = ctx.bind(label)
        return labels[label]

    def enter(label):
        """Enter block ``label``."""
        if traced:
            emit(f"_trace({fn_tok}, {lab(label)})")
        emit(f"s = {target(label)}")

    def nested(body, *args):
        """``body(*args)``, one indent deeper."""
        ctx.indent += "    "
        body(*args)
        ctx.indent = ctx.indent[:-4]

    def check(seg, key, every):
        """A conditional checkpoint's iteration check, as the prefix of
        ``Interpreter._do_checkpoint`` runs it when the count stays
        below ``every``: consume and charge ``check_energy`` over
        ``COND_CHECK_CYCLES`` cycles and store the count. A check that
        fires, is not admitted or sits at the instruction-budget edge
        leaves for the per-step path with nothing charged."""
        tok = ctx.bind(key)
        emit("r = frame.registers")
        emit(f"_k = r.get({tok}, 0) + 1")
        emit(f"_c = {fold_source('c', (check_energy,))}")
        emit(f"if _k >= {ctx.bind(every)} or _c > el or "
             f"cy + {COND_CHECK_CYCLES} > cl or n >= nl: break")
        emit(f"r[{tok}] = _k")
        emit("c = _c")
        emit(f"cy += {COND_CHECK_CYCLES}")
        emit(f"pc = {fold_source('pc', (check_energy,))}")
        emit(f"pu = {fold_source('pu', (check_energy,))}")
        emit(f"s = {resume(seg.label, seg.end_index)}")

    def leaf(sid):
        seg = segments[sid]
        units, transfer = plans[sid]
        kind = transfer[0]
        if kind == "check":
            check(seg, *transfer[1:])
            return
        emit(f"_c = {fold_source('c', seg.energies)}")
        emit(f"if _c > el or cy + {seg.cycles} > cl or n + {seg.n} > nl: "
             "break")
        if kind == "call":
            # The caller resumes in this block after the callee returns.
            emit(f"frame.block = {lab(seg.label)}")
        if any(unit[1] in ("gen", "cmpbr") for unit in units):
            emit("r = frame.registers")
        for offset, unit, payload in units:
            emit(f"_i = {offset}")
            if unit == "ref":
                emit(f"_o{payload}(frame, _a{payload})")
            elif unit in ("call", "ret"):
                emit(f"_o{payload}(frame)")
            else:
                _emit_inst(ctx, space, unit, payload)
        if units:
            emit("_i = None")
        emit("c = _c")
        emit(f"cy += {seg.cycles}")
        emit(f"n += {seg.n}")
        emit(f"pc = {fold_source('pc', seg.energies)}")
        emit(f"pu = {fold_source('pu', seg.cpu)}")
        if seg.vm_e:
            emit(f"pv = {fold_source('pv', seg.vm_e)}")
            emit(f"vn += {len(seg.vm_e)}")
        if seg.nvm_e:
            emit(f"pn = {fold_source('pn', seg.nvm_e)}")
            emit(f"nn += {len(seg.nvm_e)}")
        if kind == "goto":
            enter(transfer[1])
        elif kind == "branch":
            if traced:
                emit("if _v:")
                nested(enter, transfer[1])
                emit("else:")
                nested(enter, transfer[2])
            else:
                emit(f"s = {target(transfer[1])} if _v else "
                     f"{target(transfer[2])}")
        elif kind == "fall":
            emit(f"s = {resume(seg.label, transfer[1])}")
        else:
            if traced and kind == "call":
                emit("_f = _interp.frames[-1]")
                emit("_trace(_f.function.name, _f.block)")
            elif traced and kind == "ret":
                emit("_f = _interp.frames")
                emit("if _f:")
                emit("    _f = _f[-1]")
                emit("    _trace(_f.function.name, _f.block)")
            emit("return False")

    def tree(lo, hi):
        """Binary dispatch on ``s`` over segment ids ``lo`` to ``hi``."""
        if hi - lo == 1:
            leaf(lo)
            return
        mid = (lo + hi) // 2
        emit(f"if s < {mid}:")
        nested(tree, lo, mid)
        emit("else:")
        nested(tree, mid, hi)

    ctx.indent = " " * 16
    tree(0, len(segments))
    ctx.names.extend(("_S", "_XL", "_XI", "_XR"))
    ctx.values.extend((
        tuple(segments),
        tuple(label for label, _, _ in exits),
        tuple(index for _, index, _ in exits),
        tuple(step for _, _, step in exits),
    ))
    op_names = "".join(
        f"_o{slot}, _a{slot}, " if kind == "ref" else f"_o{slot}, "
        for slot, (kind, _label, _index) in enumerate(ops)
    )
    src = (
        _REGION_HEAD.format(consts=ctx.unpack("_V"), ops=op_names,
                            n_segments=len(segments))
        + "\n".join(ctx.lines) + "\n"
        + _REGION_TAIL
    )
    return src, tuple(ctx.values)


# -- function compilation ------------------------------------------------------


class _Program:
    """One region's segments and generated code, shared by every
    interpreter whose function has the same content key."""

    __slots__ = ("fname", "segments", "entries", "ops", "make", "consts")

    def __init__(self, fname, space, traced, check_energy, segments, plans,
                 entries, ops):
        """Generate and compile the region function from the plan of its
        ``segments`` (``_plan_segment``)."""
        self.fname = fname
        self.segments = segments
        self.entries = entries
        #: ``(kind, label, index)`` per op slot: a Call, Ret or
        #: handler-run instruction, bound per interpreter.
        self.ops = ops
        src, self.consts = _region_source(
            fname, space, traced, check_energy, segments, plans, entries, ops
        )
        # Functions that differ only in bound values (register and
        # variable names, labels) share one region factory.
        self.make = _factory(src)

    def instantiate(self, interp, frame_cls):
        """The region function bound to ``interp``'s objects."""
        memory = interp.memory
        code = interp._code
        ops = []
        for kind, label, index in self.ops:
            handler, _cost, inst, _l = code[(self.fname, label)][index]
            if kind == "call":
                ops.append(_make_call(inst, interp, index + 1, frame_cls))
            elif kind == "ret":
                ops.append(_make_ret(inst, interp))
            else:
                ops += (handler, inst)
        return self.make(self.consts, (
            interp, interp.power, interp.meter, interp.config.trace,
            memory.nvm, memory.vm, memory.read, memory.write,
            interp._env_counts, *ops,
        ))


#: ``repr`` of each distinct cost tuple (a handful per energy model).
_COST_TEXT: Dict[tuple, str] = {}


def _function_key(fname, blocks, space, traced, check_energy) -> tuple:
    """Everything codegen reads of one function: each instruction's text
    (operands with their types, spaces, labels, callee) and cost, the
    variable attributes a Load or Store compiles against, the AUTO
    default space, whether the run is traced and the iteration-check
    energy. The text is hashed, so the cache holds a digest, not the
    text."""
    parts = [repr(space), repr(traced), repr(check_energy)]
    for label, code in blocks:
        parts.append("." + label)
        for _handler, cost, inst, _label in code:
            text = _COST_TEXT.get(cost)
            if text is None:
                text = _COST_TEXT[cost] = repr(cost)
            parts.append(str(inst))
            parts.append(text)
            if type(inst) is Load or type(inst) is Store:
                var = inst.var
                parts.append(
                    f"{var.type} {var.is_ref} {var.volatile_input}"
                )
    digest = hashlib.sha256("\n".join(parts).encode()).digest()
    return fname, digest


def _segments_of(label, code, checks, segments, plans, ops, starts):
    """Plan the segments of one block into the region's lists; returns
    how many of them run instructions. With ``checks`` set, each
    conditional checkpoint gets a check segment; every other checkpoint
    is left to the per-step path."""
    planned = 0
    i = 0
    n = len(code)
    while i < n:
        if code[i][0] is None:
            inst = code[i][2]
            if checks and type(inst) is CondCheckpoint:
                starts[i] = len(segments)
                segments.append(Segment(label, i, (), i + 1, False))
                plans.append(((), ("check", f"__ckpt{inst.ckpt_id}",
                                   inst.every)))
            i += 1
            continue
        insts = []
        j = i
        while j < n and code[j][0] is not None:
            inst = code[j][2]
            insts.append((inst, code[j][1]))
            j += 1
            if type(inst) in _CONTROL:
                break
        starts[i] = len(segments)
        segment, plan = _plan_segment(label, i, insts, ops)
        segments.append(segment)
        plans.append(plan)
        planned += 1
        i = j
    return planned


def _compile_function(
    fname, blocks, space, traced, check_energy
) -> Tuple[_Program, ...]:
    """Cut the function's blocks, in order, into regions of at most
    ``REGION_LIMIT`` instruction segments (a block is never split; check
    segments do not count) and compile each. ``check_energy`` is None
    when the function's iteration checks take the per-step path."""
    checks = check_energy is not None
    programs = []
    k = 0
    while k < len(blocks):
        segments: List[Segment] = []
        plans: List[tuple] = []
        ops: List[tuple] = []
        entries: Dict[str, Dict[int, int]] = {}
        size = 0
        while k < len(blocks):
            label, code = blocks[k]
            starts: Dict[int, int] = {}
            mark = (len(segments), len(plans), len(ops))
            size += _segments_of(label, code, checks, segments, plans, ops,
                                 starts)
            if size > REGION_LIMIT and entries:
                # Over the limit: this block opens the next region.
                del segments[mark[0]:], plans[mark[1]:], ops[mark[2]:]
                break
            entries[label] = starts
            k += 1
        programs.append(_Program(
            fname, space, traced, check_energy, tuple(segments),
            tuple(plans), entries, tuple(ops),
        ))
    return tuple(programs)


def _checks_planned(interp, fname, programs) -> bool:
    """Plan the conditional checkpoint of every check segment now, as
    its first execution would; False when one cannot be planned (a save
    or restore variable the memory does not hold)."""
    code = interp._code
    try:
        for program in programs:
            for seg in program.segments:
                if not seg.n:
                    interp._plan(code[(fname, seg.label)][seg.start][2])
    except Exception:
        # Whatever planning raises, the per-step path raises at the
        # check itself: defer it there rather than raise before the run.
        return False
    return True


def compile_blocks(interp, frame_cls) -> Dict[Tuple[str, str], tuple]:
    """Compile every function of ``interp``'s pre-decoded module into
    regions: ``{(function, label): (Region, {start index: segment id})}``
    for every block. Indices no segment starts at (plain checkpoints,
    mid-segment resume points) are executed by the interpreter's
    per-step path."""
    config = interp.config
    traced = config.trace is not None
    space = config.default_space
    energy = COND_CHECK_CYCLES * interp.model.energy_per_cycle
    code = interp._code
    ccode: Dict[Tuple[str, str], tuple] = {}
    for func in interp.module.functions.values():
        fname = func.name
        blocks = [(label, code[(fname, label)]) for label in func.blocks]

        def programs_for(check_energy):
            return _cached(
                _PROGRAMS,
                _function_key(fname, blocks, space, traced, check_energy),
                lambda: _compile_function(
                    fname, blocks, space, traced, check_energy
                ),
            )

        programs = programs_for(energy)
        if not _checks_planned(interp, fname, programs):
            # Its checks take the per-step path, which raises the
            # planning error at the first check, as with segments off.
            programs = programs_for(None)
        for program in programs:
            region = Region(program.instantiate(interp, frame_cls), program)
            for label, starts in program.entries.items():
                ccode[(fname, label)] = (region, starts)
    return ccode

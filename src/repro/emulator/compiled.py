"""Threaded-code compilation of pre-decoded basic blocks.

PR 3's pre-decode removed per-step type dispatch from the hot loop; this
module removes the loop itself. Each basic block's pre-decoded
``(handler, cost, inst, label)`` entries are compiled once, at decode
time, into *segments*: maximal straight-line runs of non-checkpoint
instructions. A segment carries

- a handful of *superinstruction* closures (``ops``) — consecutive
  simple instructions are fused into one generated Python function that
  shares a single ``frame.registers`` load and a single (zero-cost on
  CPython 3.11) ``try`` frame, with operand kinds, AUTO-space
  resolution, wrap masks and constant operands all resolved at compile
  time; a comparison feeding the block's terminating branch becomes a
  single compare-and-branch superinstruction;
- the aggregate accounting the interpreter charges *per segment*
  instead of per step: total cycles plus the per-instruction energy
  lists whose left-folds reproduce the per-step ``+=`` sequences
  bit-identically (see :meth:`repro.emulator.power.PowerManager.
  admit_block` for why batching cannot move a failure point);
- enough metadata (``widths``, ``costs``, ``start``) to reconcile the
  exact per-step state when a fused op raises mid-segment
  (:meth:`repro.emulator.interpreter.Interpreter.
  _reconcile_segment_fault`).

Bit-identity ground rules the generated code obeys:

- Register values are always stored wrapped to the destination
  register's type, so a copy between same-typed storage elides the wrap
  (``wrap`` is the identity on in-range values). Comparison results
  (0/1) are never wrapped, matching ``IntType.wrap``'s identity there.
- Error behaviour is byte-identical: register reads convert ``KeyError``
  into the interpreter's exact uninitialized-register message
  (``raise ... from None``). A Load or Store indexes the live
  ``MemoryState.nvm``/``vm`` dict of its resolved space directly, under
  the inline test ``0 <= index < len(image)`` that ``read``/``write``
  apply; every access that test does not pass (an unknown or
  non-resident variable, an out-of-bounds or negative index) calls the
  live ``MemoryState.read``/``write`` bound method instead, so every
  diagnostic is the interpreter's own. An access whose space still
  resolves to AUTO and a volatile environment input always take the
  call. The image dicts are never rebound
  (``MemoryState.restore_images`` refills them in place), so a chunk
  compiled before a snapshot restore reads the restored values.
- Evaluation order within an instruction (lhs before rhs, index before
  value) and across fused instructions is the interpreter's order, so a
  mid-segment exception fires at the same sub-instruction with the same
  partial effects.

Generated sources are cached process-wide by their text: two blocks
with the same *shape* (instruction kinds, operand forms, type widths)
share one compiled factory and differ only in the bound constants, so
per-interpreter compilation is mostly dict lookups after warm-up.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import EmulationError
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
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

__all__ = ["Segment", "compile_blocks"]

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

#: Maximum number of IR instructions fused into one generated closure.
FUSE_LIMIT = 10


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
    """One compiled straight-line run of a basic block."""

    __slots__ = (
        "start",
        "end_index",
        "traces_entry",
        "n",
        "cycles",
        "energies",
        "cpu",
        "vm_e",
        "nvm_e",
        "vm_n",
        "nvm_n",
        "run",
        "ops",
        "widths",
        "costs",
    )

    def __init__(self, start, end_index, ops, widths, costs, traces_entry):
        self.start = start
        #: Index the frame resumes at when the segment ends without a
        #: control transfer (None when the last op set block/index itself).
        self.end_index = end_index
        #: True when the segment ends in a generated control transfer,
        #: which skips the interpreter's handlers: the loop must then emit
        #: the block-entry ``trace`` event for the new top frame itself.
        #: False for fall-through segments and for a control op that is
        #: the interpreter's own handler (:func:`_ref_op`), which traces
        #: itself — so each block entry emits exactly one event.
        self.traces_entry = traces_entry
        self.ops = ops
        self.widths = widths
        self.costs = costs
        self.n = sum(widths)
        self.cycles = sum(c[0] for c in costs)
        # Per-instruction energy streams: the interpreter folds these
        # with power.fold(stream, start) — the same left-to-right
        # C-double adds the per-step loop performs — so batched
        # accounting is bit-identical to stepping (floats are not
        # associative; the *order* is what these tuples preserve).
        self.energies = tuple(float(c[1]) for c in costs)
        self.cpu = tuple(
            float(c[1] - c[2]) if c[4] else float(c[1]) for c in costs
        )
        self.vm_e = tuple(float(c[2]) for c in costs if c[4] and c[3])
        self.nvm_e = tuple(float(c[2]) for c in costs if c[4] and not c[3])
        self.vm_n = len(self.vm_e)
        self.nvm_n = len(self.nvm_e)
        self.run = _make_runner(ops)


# -- generated-code caches ---------------------------------------------------

_CHUNK_CACHE: Dict[str, Callable] = {}
_RUNNER_CACHE: Dict[int, Callable] = {}

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


def _make_runner(ops):
    """Unrolled segment driver: calls each op in order, tagging the op
    position on any escaping exception (``_seg_pos``) so the interpreter
    can reconcile exact per-step accounting for the completed prefix."""
    n = len(ops)
    if n == 1:
        return ops[0]
    make = _RUNNER_CACHE.get(n)
    if make is None:
        names = [f"_op{i}" for i in range(n)]
        lines = [f"def _make({', '.join(names)}):", " def _run(frame):"]
        for i, name in enumerate(names):
            lines.append(f"  try: {name}(frame)")
            lines.append("  except BaseException as _x:")
            lines.append(f"   _x._seg_pos = {i}; raise")
        lines.append(" return _run")
        namespace: dict = {}
        exec("\n".join(lines), dict(_EXEC_GLOBALS), namespace)
        make = namespace["_make"]
        _RUNNER_CACHE[n] = make
    return make(*ops)


# -- micro-op code generation ------------------------------------------------


class _Ctx:
    """Accumulates generated source lines and their runtime bindings for
    one fused chunk."""

    def __init__(self):
        self.lines: List[str] = []
        self.names: List[str] = []
        self.values: List[object] = []

    def bind(self, value) -> str:
        name = f"_b{len(self.names)}"
        self.names.append(name)
        self.values.append(value)
        return name


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


def _name_expr(ctx: _Ctx, interp, inst) -> str:
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
    """Can this instruction be expressed by the chunk code generator?
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
        ctx.lines.append(f"r[{ctx.bind(inst.dest.name)}] = {expr}")
        return
    wrapped = _wrap_expr(expr, inst.dest.type)
    ctx.lines.append(f"r[{ctx.bind(inst.dest.name)}] = {wrapped}")


def _emit_unop(ctx: _Ctx, inst: UnOp) -> None:
    at = _reg_tok(ctx, inst.src.name)
    dtok = ctx.bind(inst.dest.name)
    if inst.op is UnaryOpcode.LNOT:  # 0/1: wrap is the identity
        ctx.lines.append(f"r[{dtok}] = _int({at} == 0)")
        return
    expr = f"(-{at})" if inst.op is UnaryOpcode.NEG else f"(~{at})"
    ctx.lines.append(f"r[{dtok}] = {_wrap_expr(expr, inst.dest.type)}")


def _emit_move(ctx: _Ctx, inst: Move) -> None:
    dtok = ctx.bind(inst.dest.name)
    if isinstance(inst.src, Const):
        ctx.lines.append(
            f"r[{dtok}] = {ctx.bind(inst.dest.type.wrap(inst.src.value))}"
        )
        return
    src = _reg_tok(ctx, inst.src.name)
    if inst.src.type == inst.dest.type:  # stored values are in-range
        ctx.lines.append(f"r[{dtok}] = {src}")
    else:
        ctx.lines.append(f"r[{dtok}] = {_wrap_expr(src, inst.dest.type)}")


def _access(ctx: _Ctx, interp, inst):
    """Common operands of an inline memory access: the live image dict
    the resolved space indexes (None when only the diagnostic path can
    handle the access: an AUTO space, a negative constant index), the
    variable-name expression and the index expression. A by-reference
    name or a register index is evaluated once, into ``_n`` or ``_j``,
    in the interpreter's order (name before index)."""
    space = interp._space_of(inst)
    images = None
    if not (isinstance(inst.index, Const) and inst.index.value < 0):
        if space is MemorySpace.VM:
            images = interp.memory.vm
        elif space is MemorySpace.NVM:
            images = interp.memory.nvm
    name = _name_expr(ctx, interp, inst)
    if inst.var.is_ref:
        ctx.lines.append(f"_n = {name}")
        name = "_n"
    index = _index_expr(ctx, inst)
    if isinstance(inst.index, Register):
        ctx.lines.append(f"_j = {index}")
        index = "_j"
    return images, name, index, ctx.bind(space)


def _in_bounds(ctx: _Ctx, images, name: str, inst, index: str) -> str:
    """Fetch the live image into ``_m`` and test the index against it —
    the success condition of ``MemoryState.read``/``write``. Everything
    else (an unknown or non-resident variable, an out-of-bounds or
    negative index) takes the ``MemoryState`` call, so every diagnostic
    stays its own."""
    ctx.lines.append(f"_m = {ctx.bind(images)}.get({name})")
    if inst.index is None:
        return "_m"  # index 0: any non-empty image
    if isinstance(inst.index, Const):
        return f"_m is not None and {index} < len(_m)"
    return f"_m is not None and 0 <= {index} < len(_m)"


def _emit_load(ctx: _Ctx, interp, inst: Load) -> None:
    read = ctx.bind(interp.memory.read)
    images, name, index, space = _access(ctx, interp, inst)
    dtok = ctx.bind(inst.dest.name)
    call = f"{read}({name}, {index}, {space})"
    if inst.var.volatile_input:
        counts = ctx.bind(interp._env_counts)
        ctx.lines.append(f"_v = {call}")
        ctx.lines.append(f"_c = {counts}.get({name}, 0)")
        ctx.lines.append(f"{counts}[{name}] = _c + 1")
        ctx.lines.append(
            f"r[{dtok}] = {_wrap_expr('(_v + _c)', inst.dest.type)}"
        )
        return
    if images is None:
        expr = call
    else:
        cond = _in_bounds(ctx, images, name, inst, index)
        expr = f"(_m[{index}] if {cond} else {call})"
    if inst.dest.type == inst.var.type:  # stored values are in-range
        ctx.lines.append(f"r[{dtok}] = {expr}")
    else:
        ctx.lines.append(f"r[{dtok}] = {_wrap_expr(expr, inst.dest.type)}")


def _emit_store(ctx: _Ctx, interp, inst: Store) -> None:
    write = ctx.bind(interp.memory.write)
    images, name, index, space = _access(ctx, interp, inst)
    if isinstance(inst.value, Const):
        value = ctx.bind(inst.var.type.wrap(inst.value.value))
    else:
        value = _reg_tok(ctx, inst.value.name)
        if inst.value.type != inst.var.type:
            value = _wrap_expr(value, inst.var.type)
    # Either branch evaluates the value before any memory effect, as
    # the interpreter's argument evaluation does.
    call = f"{write}({name}, {index}, {value}, {space})"
    if images is None:
        ctx.lines.append(call)
        return
    cond = _in_bounds(ctx, images, name, inst, index)
    ctx.lines.append(f"if {cond}: _m[{index}] = {value}")
    ctx.lines.append(f"else: {call}")


def _emit_jump(ctx: _Ctx, inst: Jump) -> None:
    ctx.lines.append(f"frame.block = {ctx.bind(inst.target)}")
    ctx.lines.append("frame.index = 0")


def _emit_branch(ctx: _Ctx, inst: Branch) -> None:
    ttok = ctx.bind(inst.if_true)
    ftok = ctx.bind(inst.if_false)
    if isinstance(inst.cond, Const):
        target = ttok if inst.cond.value != 0 else ftok
        ctx.lines.append(f"frame.block = {target}")
    else:
        cond = _reg_tok(ctx, inst.cond.name)
        ctx.lines.append(f"frame.block = {ttok} if {cond} != 0 else {ftok}")
    ctx.lines.append("frame.index = 0")


def _emit_cmp_branch(ctx: _Ctx, cmp: BinOp, br: Branch) -> None:
    """The compare-and-branch superinstruction: one closure computes the
    comparison, stores the (unwrapped 0/1) result register — it may be
    read later — and transfers control."""
    at = _operand_tok(ctx, cmp.lhs)
    bt = _operand_tok(ctx, cmp.rhs)
    ctx.lines.append(f"_v = _int({at} {_CMP_SYM[cmp.op]} {bt})")
    ctx.lines.append(f"r[{ctx.bind(cmp.dest.name)}] = _v")
    ttok = ctx.bind(br.if_true)
    ftok = ctx.bind(br.if_false)
    ctx.lines.append(f"frame.block = {ttok} if _v else {ftok}")
    ctx.lines.append("frame.index = 0")


def _gen_chunk(units, interp):
    """Generate one fused superinstruction closure from consecutive
    code-generatable units. ``_i`` tracks the sub-instruction index so a
    mid-chunk exception can be attributed to its exact instruction."""
    ctx = _Ctx()
    sub = 0
    for unit in units:
        if sub:
            ctx.lines.append(f"_i = {sub}")
        kind, payload = unit
        if kind == "cmpbr":
            _emit_cmp_branch(ctx, payload[0], payload[1])
            sub += 2
            continue
        inst = payload
        if type(inst) is BinOp:
            _emit_binop(ctx, inst)
        elif type(inst) is UnOp:
            _emit_unop(ctx, inst)
        elif type(inst) is Move:
            _emit_move(ctx, inst)
        elif type(inst) is Load:
            _emit_load(ctx, interp, inst)
        elif type(inst) is Store:
            _emit_store(ctx, interp, inst)
        elif type(inst) is Jump:
            _emit_jump(ctx, inst)
        else:
            _emit_branch(ctx, inst)
        sub += 1

    body = "\n".join("            " + line for line in ctx.lines)
    unpack = ", ".join(ctx.names) + ("," if len(ctx.names) == 1 else "")
    src = (
        f"def _make(_B):\n"
        f"    ({unpack}) = _B\n"
        f"    def _op(frame):\n"
        f"        r = frame.registers\n"
        f"        _i = 0\n"
        f"        try:\n"
        f"{body}\n"
        f"        except KeyError as _k:\n"
        f"            _e = _E('read of uninitialized register %'\n"
        f"                    + _k.args[0] + ' in @'\n"
        f"                    + frame.function.name)\n"
        f"            _e._seg_sub = _i\n"
        f"            raise _e from None\n"
        f"        except BaseException as _x:\n"
        f"            _x._seg_sub = _i\n"
        f"            raise\n"
        f"    return _op\n"
    )
    make = _CHUNK_CACHE.get(src)
    if make is None:
        namespace: dict = {}
        exec(src, dict(_EXEC_GLOBALS), namespace)
        make = namespace["_make"]
        _CHUNK_CACHE[src] = make
    return make(tuple(ctx.values))


# -- non-generated micro-ops -------------------------------------------------


def _ref_op(handler, inst):
    """Fallback for shapes the generator does not express: delegate to
    the interpreter's own handler. Safe mid-segment for everything but
    Call, because only Call derives new state from ``frame.index`` (the
    relative bump these handlers perform lands on a stale index that the
    segment driver overwrites)."""

    def _op(frame):
        handler(frame, inst)

    return _op


def _make_call(inst: Call, interp, next_index: int, frame_cls):
    """Call micro-op with the argument-marshalling plan precomputed and
    the post-return index applied absolutely (the reference handler's
    ``frame.index += 1`` would act on a stale mid-segment index)."""
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
                    raise EmulationError(
                        f"read of uninitialized register %{aname} in "
                        f"@{frame.function.name}"
                    ) from None
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
    """Return micro-op. Reads ``interp.frames`` at call time — the
    interpreter rebinds the frames list on run()/restore_snapshot()."""
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
    name = inst.value.name  # a Register: VarRef values take _ref_op

    def _op(frame):
        try:
            value = frame.registers[name]
        except KeyError:
            raise EmulationError(
                f"read of uninitialized register %{name} in "
                f"@{frame.function.name}"
            ) from None
        frames = interp.frames
        frames.pop()
        ret_target = frame.ret_target
        if frames and ret_target is not None:
            frames[-1].registers[ret_target] = value

    return _op


# -- block compilation -------------------------------------------------------


def _build_segment(start, insts, interp, frame_cls) -> Segment:
    """Compile one straight-line run (``insts`` is a list of
    ``(inst, cost, handler)`` triples; a control instruction can only be
    last)."""
    # Classify into units: generated chunks absorb consecutive 'gen'
    # units up to FUSE_LIMIT instructions; everything else is a
    # standalone op of width 1 (2 for the fused compare-and-branch).
    units: List[tuple] = []
    for inst, cost, handler in insts:
        if type(inst) is Call:
            units.append(("call", inst))
        elif type(inst) is Ret and not isinstance(inst.value, VarRef):
            units.append(("ret", inst))
        elif _can_gen(inst):
            units.append(("gen", inst))
        else:
            units.append(("ref", (inst, handler)))
    # Fuse a comparison into the branch it feeds.
    if (
        len(units) >= 2
        and units[-1][0] == "gen"
        and type(units[-1][1]) is Branch
        and isinstance(units[-1][1].cond, Register)
        and units[-2][0] == "gen"
        and type(units[-2][1]) is BinOp
        and units[-2][1].op in _CMP_OPS
        and units[-2][1].dest.name == units[-1][1].cond.name
    ):
        cmpbr = ("cmpbr", (units[-2][1], units[-1][1]))
        units[-2:] = [cmpbr]

    ops: List[Callable] = []
    widths: List[int] = []
    pending: List[tuple] = []
    pending_width = 0

    def flush():
        nonlocal pending_width
        if pending:
            ops.append(_gen_chunk(pending, interp))
            widths.append(pending_width)
            pending.clear()
            pending_width = 0

    position = start
    for unit in units:
        kind, payload = unit
        if kind in ("gen", "cmpbr"):
            width = 2 if kind == "cmpbr" else 1
            if pending_width + width > FUSE_LIMIT:
                flush()
            pending.append(unit)
            pending_width += width
            position += width
            continue
        flush()
        if kind == "call":
            ops.append(_make_call(payload, interp, position + 1, frame_cls))
        elif kind == "ret":
            ops.append(_make_ret(payload, interp))
        else:
            ops.append(_ref_op(payload[1], payload[0]))
        widths.append(1)
        position += 1
    flush()

    last = insts[-1][0]
    ends_with_control = type(last) in (Jump, Branch, Call, Ret)
    end_index = None if ends_with_control else start + len(insts)
    traces_entry = ends_with_control and units[-1][0] != "ref"
    costs = tuple(cost for _, cost, _ in insts)
    return Segment(start, end_index, ops, widths, costs, traces_entry)


def compile_blocks(interp, frame_cls):
    """Compile every pre-decoded block of ``interp`` into its segment
    map: ``{(function, label): {start_index: Segment}}``. Indices not in
    a block's map (checkpoints, mid-segment resume points) are executed
    by the interpreter's per-step path."""
    ccode: Dict[Tuple[str, str], Dict[int, Segment]] = {}
    for key, entries in interp._code.items():
        seg_map: Dict[int, Segment] = {}
        i = 0
        n = len(entries)
        while i < n:
            if entries[i][0] is None:  # checkpoints: cold path only
                i += 1
                continue
            insts = []
            j = i
            while j < n and entries[j][0] is not None:
                handler, cost, inst, _label = entries[j]
                insts.append((inst, cost, handler))
                j += 1
                if type(inst) in (Jump, Branch, Call, Ret):
                    break
            seg_map[i] = _build_segment(i, insts, interp, frame_cls)
            i = j
        ccode[key] = seg_map
    return ccode

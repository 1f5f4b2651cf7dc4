"""Superblock compilation of pre-decoded functions.

The interpreter's pre-decode removed per-step type dispatch from the
hot loop; this module removes the loop itself from every checkpoint-free
stretch of a function. Each IR function is compiled, on an
interpreter's first run with segments on, into *regions*: runs of whole
blocks (one per function unless it has more than ``REGION_LIMIT``
segments), each executed by one generated function:

- A *segment* is a maximal straight-line run of one basic block's
  non-checkpoint instructions, ending at a control instruction or just
  before a checkpoint. Its simple instructions are fused into a handful
  of *superinstruction* closures (``FUSE_LIMIT`` instructions at most
  each) that share one ``frame.registers`` load and one (zero-cost on
  CPython 3.11) ``try`` frame, with operand kinds, AUTO-space
  resolution, wrap masks and constant operands resolved at compile time;
  a comparison feeding the block's branch becomes one compare-and-branch
  superinstruction that returns the branch condition.
- The region runs segment after segment, following generated Jump and
  Branch targets inside the function, and can be entered at any segment
  start. It goes back to ``Interpreter._execute`` only at a checkpoint
  index, after a Call or Ret, after a control instruction the
  interpreter's own handler ran (:func:`_ref_op`), at a jump into
  another region, at the ``max_instructions`` edge, or when a segment
  is not admitted.
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
  (``MemoryState.restore_images`` refills them in place), so code
  compiled before a snapshot restore reads the restored values.
- Evaluation order within an instruction (lhs before rhs, index before
  value) and across fused instructions is the interpreter's order, so a
  mid-segment exception fires at the same sub-instruction with the same
  partial effects. A segment commits its accounting only after its last
  instruction ran, so a fault leaves the state before the faulting
  segment, tagged with the segment and the faulting offset
  (``_seg_fault``) for :meth:`repro.emulator.interpreter.Interpreter.
  _reconcile_segment_fault` to replay per step.
- A generated transfer (Jump, Branch, Call, Ret) calls ``config.trace``
  for the block it enters; a handler-run control instruction traces
  itself. Every block entry emits exactly one event.

Codegen cost stays bounded by two process-wide caches, each holding at
most ``CACHE_LIMIT`` entries and evicting the least recently used.
Generated sources name every constant and every per-interpreter object
(memory images, ``read``/``write``, the environment-sample counters,
``trace``, the Call/Ret/handler closures, register and variable names,
labels) instead of spelling it, so a factory is keyed by its source
text alone: superinstructions of the same shape, and regions of the
same shape, share one factory across functions and modules. A
function's regions are keyed by its content (every instruction's text
and cost, the variable attributes codegen reads, the AUTO default space
and whether the run is traced), so an interpreter over a module another
interpreter already compiled only instantiates closures: it generates
no source and runs no ``exec``.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Dict, List, Tuple

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

#: Maximum number of IR instructions fused into one generated closure.
FUSE_LIMIT = 10

#: Maximum number of segments in one region. A larger function is cut
#: into several regions of whole blocks: compiling a region takes
#: transient memory in proportion to its size (7.8 MB for 112 segments),
#: and smaller regions share factories more often. At 16, a
#: ``design-sweep`` pass enters regions 56k times against 54k at 32,
#: and a ``paper-cold`` pass peaks 0.5 MB lower and compiles 0.02 s less.
REGION_LIMIT = 16

#: Entries each generated-code cache keeps: a long run over many placed
#: modules (``run_all``, ``testkit diff``) evicts the least recently
#: used beyond it. One ``paper-cold`` pass uses 70 function keys and 88
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
    ``Interpreter._reconcile_segment_fault`` replays when it faults.
    Depends only on the function's content, so interpreters share it."""

    __slots__ = (
        "label",
        "start",
        "end_index",
        "traces_entry",
        "n",
        "cycles",
        "costs",
        "widths",
    )

    def __init__(self, label, start, costs, widths, end_index, traces_entry):
        self.label = label
        self.start = start
        #: Index the frame resumes at when the segment ends without a
        #: control transfer (just before a checkpoint); None otherwise.
        self.end_index = end_index
        #: True when the segment ends in a generated control transfer,
        #: which skips the interpreter's handlers: the region then emits
        #: the block-entry ``trace`` event itself. False for
        #: fall-through segments and for a control op that is the
        #: interpreter's own handler (:func:`_ref_op`), which traces
        #: itself — so each block entry emits exactly one event.
        self.traces_entry = traces_entry
        self.costs = costs
        #: Instructions per unit, in order: a fused closure, a
        #: Call/Ret/handler op, or a Jump or constant Branch the region
        #: performs itself.
        self.widths = widths
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
    next, False after a Call, Ret, handler-run transfer or a jump into
    another region."""

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
#: Superinstruction and region factory per SHA-256 of its source text.
_FACTORIES: Dict[bytes, Callable] = {}
#: A function's regions per content key (:func:`_function_key`).
_PROGRAMS: Dict[tuple, tuple] = {}

_EXEC_GLOBALS = {
    "_E": EmulationError,
    "_int": int,
    "len": len,
    "getattr": getattr,
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


# -- superinstruction code generation ----------------------------------------


class _Ctx:
    """Accumulates generated source lines and their runtime bindings."""

    def __init__(self):
        self.lines: List[str] = []
        self.names: List[str] = []
        self.values: List[object] = []

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


#: Placeholders a superinstruction binds for the live NVM and VM image
#: dicts, replaced by the interpreter's own at instantiation: an access
#: shape compiles to one factory whichever space it resolves to.
_NVM_IMAGE = object()
_VM_IMAGE = object()


def _access(ctx: _Ctx, space, inst):
    """Common operands of an inline memory access: the name bound to the
    live image dict the resolved space indexes (None when only the diagnostic
    path can handle the access: an AUTO space, a negative constant
    index), the variable-name expression and the index expression. A
    by-reference name or a register index is evaluated once, into ``_n``
    or ``_j``, in the interpreter's order (name before index)."""
    images = None
    if not (isinstance(inst.index, Const) and inst.index.value < 0):
        if space is MemorySpace.VM:
            images = ctx.bind(_VM_IMAGE)
        elif space is MemorySpace.NVM:
            images = ctx.bind(_NVM_IMAGE)
    name = _name_expr(ctx, inst)
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
    ctx.lines.append(f"_m = {images}.get({name})")
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
        ctx.lines.append(f"_v = {call}")
        ctx.lines.append(f"_c = _env.get({name}, 0)")
        ctx.lines.append(f"_env[{name}] = _c + 1")
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
        ctx.lines.append(call)
        return
    cond = _in_bounds(ctx, images, name, inst, index)
    ctx.lines.append(f"if {cond}: _m[{index}] = {value}")
    ctx.lines.append(f"else: {call}")


def _emit_branch(ctx: _Ctx, inst: Branch) -> None:
    """A register-conditioned branch: the closure returns the condition
    and the region transfers on it."""
    ctx.lines.append(f"return {_reg_tok(ctx, inst.cond.name)}")


def _emit_cmp_branch(ctx: _Ctx, cmp: BinOp) -> None:
    """The compare-and-branch superinstruction: compute the comparison,
    store its (unwrapped 0/1) result register — it may be read later —
    and return it as the branch condition."""
    at = _operand_tok(ctx, cmp.lhs)
    bt = _operand_tok(ctx, cmp.rhs)
    ctx.lines.append(f"_v = _int({at} {_CMP_SYM[cmp.op]} {bt})")
    ctx.lines.append(f"r[{ctx.bind(cmp.dest.name)}] = _v")
    ctx.lines.append("return _v")


def _gen_chunk(units, space, offset):
    """Generate one fused superinstruction from consecutive
    code-generatable units starting at ``offset`` in their segment:
    ``(factory, bound values)``, instantiated per interpreter with its
    memory objects. ``_i`` tracks the sub-instruction index so an
    exception is tagged with its exact instruction's offset."""
    ctx = _Ctx()
    base = ctx.bind(offset)  # a bound value: the shape stays shared
    sub = 0
    for kind, inst in units:
        if sub:
            ctx.lines.append(f"_i = {sub}")
        if kind == "cmpbr":
            _emit_cmp_branch(ctx, inst[0])
            sub += 2
            continue
        if type(inst) is BinOp:
            _emit_binop(ctx, inst)
        elif type(inst) is UnOp:
            _emit_unop(ctx, inst)
        elif type(inst) is Move:
            _emit_move(ctx, inst)
        elif type(inst) is Load:
            _emit_load(ctx, _resolve(space, inst), inst)
        elif type(inst) is Store:
            _emit_store(ctx, _resolve(space, inst), inst)
        else:
            _emit_branch(ctx, inst)
        sub += 1

    body = "\n".join("            " + line for line in ctx.lines)
    src = (
        f"def _make(_B, _M):\n"
        f"    {ctx.unpack('_B')}\n"
        f"    (_read, _write, _env) = _M[2:]\n"
        f"    def _op(frame):\n"
        f"        r = frame.registers\n"
        f"        _i = 0\n"
        f"        try:\n"
        f"{body}\n"
        f"        except KeyError as _k:\n"
        f"            _e = _E('read of uninitialized register %'\n"
        f"                    + _k.args[0] + ' in @'\n"
        f"                    + frame.function.name)\n"
        f"            _e._seg_sub = {base} + _i\n"
        f"            raise _e from None\n"
        f"        except BaseException as _x:\n"
        f"            _x._seg_sub = {base} + _i\n"
        f"            raise\n"
        f"    return _op\n"
    )
    slots = tuple(
        (pos, 1 if value is _VM_IMAGE else 0)
        for pos, value in enumerate(ctx.values)
        if value is _VM_IMAGE or value is _NVM_IMAGE
    )
    return _factory(src), tuple(ctx.values), slots


def _resolve(default_space, inst):
    """The space an access resolves to (``Interpreter._space_of``)."""
    return default_space if inst.space is MemorySpace.AUTO else inst.space


# -- per-interpreter ops -----------------------------------------------------


# Each op tags an exception it raises with its instruction's offset in
# the segment (``_seg_sub``), as a superinstruction does.


def _ref_op(handler, inst, offset):
    """Fallback for shapes the generator does not express: delegate to
    the interpreter's own handler. Safe mid-segment for everything but
    Call, because only Call derives new state from ``frame.index`` (the
    relative bump these handlers perform lands on a stale index that the
    region overwrites on exit)."""

    def _op(frame):
        try:
            handler(frame, inst)
        except BaseException as exc:
            exc._seg_sub = offset
            raise

    return _op


def _uninit(name, frame, offset):
    """The interpreter's uninitialized-register error, tagged."""
    exc = EmulationError(
        f"read of uninitialized register %{name} in @{frame.function.name}"
    )
    exc._seg_sub = offset
    return exc


def _make_call(inst: Call, interp, next_index: int, frame_cls, offset):
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
                    raise _uninit(aname, frame, offset) from None
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


def _make_ret(inst: Ret, interp, offset):
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
    name = inst.value.name  # a Register: VarRef values take _ref_op

    def _op(frame):
        try:
            value = frame.registers[name]
        except KeyError:
            raise _uninit(name, frame, offset) from None
        frames = interp.frames
        frames.pop()
        ret_target = frame.ret_target
        if frames and ret_target is not None:
            frames[-1].registers[ret_target] = value

    return _op


# -- segment planning ----------------------------------------------------------


def _plan_segment(label, start, insts, space, ops):
    """Plan one straight-line run (``insts`` is a list of ``(inst,
    cost)`` pairs; a control instruction can only be last). Appends the
    op recipes it needs to ``ops`` and returns the segment and its
    ``(calls, transfer)`` plan: ``calls`` lists ``(offset, op slot,
    returns condition)`` in order."""
    # Classify into units: generated chunks absorb consecutive 'gen'
    # units up to FUSE_LIMIT instructions; a generated Jump or constant
    # Branch is the region's own transfer; everything else is a
    # standalone op of width 1 (2 for the fused compare-and-branch).
    units: List[tuple] = []
    for index, (inst, _cost) in enumerate(insts, start):
        if type(inst) is Call:
            units.append(("call", index))
        elif type(inst) is Ret and not isinstance(inst.value, VarRef):
            units.append(("ret", index))
        elif not _can_gen(inst):
            units.append(("ref", index))
        elif type(inst) is Jump:
            units.append(("goto", inst.target))
        elif type(inst) is Branch and isinstance(inst.cond, Const):
            target = inst.if_true if inst.cond.value != 0 else inst.if_false
            units.append(("goto", target))
        else:
            units.append(("gen", inst))
    # Fuse a comparison into the branch it feeds.
    if (
        len(units) >= 2
        and units[-1][0] == "gen"
        and type(units[-1][1]) is Branch
        and units[-2][0] == "gen"
        and type(units[-2][1]) is BinOp
        and units[-2][1].op in _CMP_OPS
        and units[-2][1].dest.name == units[-1][1].cond.name
    ):
        units[-2:] = [("cmpbr", (units[-2][1], units[-1][1]))]

    calls: List[tuple] = []
    widths: List[int] = []
    pending: List[tuple] = []
    pending_width = 0
    offset = 0

    def add_op(recipe, width, returns=False):
        nonlocal offset
        calls.append((offset, len(ops), returns))
        ops.append(recipe)
        widths.append(width)
        offset += width

    def flush(returns=False):
        nonlocal pending_width
        if pending:
            add_op(("chunk", tuple(pending), offset), pending_width,
                   returns)
            pending.clear()
            pending_width = 0

    for kind, payload in units:
        if kind in ("gen", "cmpbr"):
            width = 2 if kind == "cmpbr" else 1
            if pending_width + width > FUSE_LIMIT:
                flush()
            pending.append((kind, payload))
            pending_width += width
            continue
        flush()
        if kind == "goto":
            widths.append(1)
            offset += 1
        else:
            add_op((kind, label, payload, offset), 1)
    last = insts[-1][0]
    kind = units[-1][0]
    flush(returns=type(last) is Branch and kind in ("gen", "cmpbr"))

    if type(last) not in _CONTROL:
        transfer = ("fall", start + len(insts))
    elif kind == "goto":
        transfer = ("goto", units[-1][1])
    elif kind in ("gen", "cmpbr"):
        transfer = ("branch", last.if_true, last.if_false)
    else:
        transfer = (kind,)  # call, ret or a handler-run ref
    segment = Segment(
        label, start, tuple(cost for _, cost in insts), tuple(widths),
        transfer[1] if transfer[0] == "fall" else None,
        transfer[0] not in ("fall", "ref"),
    )
    return segment, (calls, transfer)


# -- region code generation ----------------------------------------------------

_REGION_HEAD = """\
def _make(_V, _P):
    {consts}
    (_interp, _power, _meter, _trace, {ops}) = _P
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
        try:
            while s < {n_segments}:
"""

_REGION_TAIL = """\
            frame.block = _XL[s]
            frame.index = _XI[s]
            return _XR[s]
        except BaseException as _x:
            _off = getattr(_x, '_seg_sub', None)
            if _off is not None:
                _x._seg_fault = (_S[s], _off)
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


def _region_source(fname, segments, plans, entries, traced, n_ops):
    """The region factory's source and its bound constants.

    ``s`` is the current segment id; ids from ``len(segments)`` on name
    exits, and every exit (and a segment that is not admitted) leaves
    through one tail that sets ``frame.block``/``frame.index`` from
    ``_XL``/``_XI`` and returns ``_XR``: True when the instruction there
    takes the per-step path next (a checkpoint, an unadmitted segment),
    False when ``_execute`` must dispatch again (another region's block).
    ``c`` is the power manager's consumption; ``cy`` the cycles run so
    far, which the cycles-since-recharge counter, the timeline and
    ``active_cycles`` all advance by, so ``cl`` (the tighter of the
    cycle and timeline limits less the entry counters) bounds both;
    ``n`` the instructions run, against ``nl``; ``pc``/``pu``/``pv``/
    ``pn`` and ``vn``/``nn`` the meter's pending energies and access
    counts (the counts as increments). Every op tags an exception it
    raises with its instruction's offset in the segment (``_seg_sub``);
    only such exceptions are reconciled."""
    ctx = _Ctx()
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

    def target(label) -> int:
        """The id that enters block ``label``."""
        starts = entries.get(label)
        if starts is None:  # another region's block: dispatch again
            return exit_to(label, 0, False)
        if 0 not in starts:  # a checkpoint: the per-step path
            return exit_to(label, 0, True)
        return starts[0]

    labels: Dict[str, str] = {}

    def lab(label):
        if label not in labels:
            labels[label] = ctx.bind(label)
        return labels[label]

    def enter(label):
        """Lines that enter block ``label``."""
        lines = [f"s = {target(label)}"]
        if traced:
            lines.insert(0, f"_trace({fn_tok}, {lab(label)})")
        return lines

    def leaf(sid):
        seg = segments[sid]
        calls, transfer = plans[sid]
        kind = transfer[0]
        lines = [
            f"_c = {fold_source('c', seg.energies)}",
            f"if _c > el or cy + {seg.cycles} > cl or n + {seg.n} > nl: "
            "break",
        ]
        if kind == "call":
            # The caller resumes in this block after the callee returns.
            lines.append(f"frame.block = {lab(seg.label)}")
        for _offset, slot, returns in calls:
            lines.append(f"{'_v = ' if returns else ''}_o{slot}(frame)")
        lines += [
            "c = _c",
            f"cy += {seg.cycles}",
            f"n += {seg.n}",
            f"pc = {fold_source('pc', seg.energies)}",
            f"pu = {fold_source('pu', seg.cpu)}",
        ]
        if seg.vm_e:
            lines += [f"pv = {fold_source('pv', seg.vm_e)}",
                      f"vn += {len(seg.vm_e)}"]
        if seg.nvm_e:
            lines += [f"pn = {fold_source('pn', seg.nvm_e)}",
                      f"nn += {len(seg.nvm_e)}"]
        if kind == "goto":
            lines += enter(transfer[1])
        elif kind == "branch":
            if traced:
                lines.append("if _v:")
                lines += ["    " + line for line in enter(transfer[1])]
                lines.append("else:")
                lines += ["    " + line for line in enter(transfer[2])]
            else:
                lines.append(
                    f"s = {target(transfer[1])} if _v else "
                    f"{target(transfer[2])}"
                )
        elif kind == "fall":
            lines.append(f"s = {exit_to(seg.label, transfer[1], True)}")
        else:
            if traced and kind == "call":
                lines += ["_f = _interp.frames[-1]",
                          "_trace(_f.function.name, _f.block)"]
            elif traced and kind == "ret":
                lines += ["_f = _interp.frames",
                          "if _f:",
                          "    _f = _f[-1]",
                          "    _trace(_f.function.name, _f.block)"]
            lines.append("return False")
        return lines

    def tree(lo, hi, indent):
        """Binary dispatch on ``s`` over segment ids ``lo`` to ``hi``."""
        if hi - lo == 1:
            return [indent + line for line in leaf(lo)]
        mid = (lo + hi) // 2
        return (
            [f"{indent}if s < {mid}:"]
            + tree(lo, mid, indent + "    ")
            + [f"{indent}else:"]
            + tree(mid, hi, indent + "    ")
        )

    body = tree(0, len(segments), " " * 16)
    ctx.names.extend(("_S", "_XL", "_XI", "_XR"))
    ctx.values.extend((
        tuple(segments),
        tuple(label for label, _, _ in exits),
        tuple(index for _, index, _ in exits),
        tuple(step for _, _, step in exits),
    ))
    op_names = "".join(f"_o{i}, " for i in range(n_ops))
    src = (
        _REGION_HEAD.format(consts=ctx.unpack("_V"), ops=op_names,
                            n_segments=len(segments))
        + "\n".join(body) + "\n"
        + _REGION_TAIL
    )
    return src, tuple(ctx.values)


# -- function compilation ------------------------------------------------------


class _Program:
    """One region's segments and generated code, shared by every
    interpreter whose function has the same content key."""

    __slots__ = ("fname", "segments", "entries", "ops", "make", "consts")

    def __init__(self, fname, space, traced, segments, plans, entries, ops):
        """Generate and compile the region's superinstructions and the
        region function over them, from the plan of its ``segments``
        (``_plan_segment``)."""
        self.fname = fname
        self.segments = segments
        self.entries = entries
        #: Per op slot: ``("chunk", factory, values, image slots)`` for a
        #: superinstruction, ``(kind, label, index, offset)`` for a call,
        #: ret or handler op.
        self.ops = tuple(
            ("chunk", *_gen_chunk(recipe[1], space, recipe[2]))
            if recipe[0] == "chunk" else recipe
            for recipe in ops
        )
        src, self.consts = _region_source(
            fname, segments, plans, entries, traced, len(ops)
        )
        # Functions that differ only in bound values (register and
        # variable names, labels) share one region factory.
        self.make = _factory(src)

    def instantiate(self, interp, frame_cls):
        """The region function bound to ``interp``'s objects."""
        memory = interp.memory
        env = (memory.nvm, memory.vm, memory.read, memory.write,
               interp._env_counts)
        code = interp._code
        ops = []
        for recipe in self.ops:
            if recipe[0] == "chunk":
                _, factory, values, slots = recipe
                if slots:
                    values = list(values)
                    for pos, image in slots:
                        values[pos] = env[image]
                ops.append(factory(values, env))
                continue
            kind, label, index, offset = recipe
            handler, _cost, inst, _l = code[(self.fname, label)][index]
            if kind == "call":
                ops.append(
                    _make_call(inst, interp, index + 1, frame_cls, offset)
                )
            elif kind == "ret":
                ops.append(_make_ret(inst, interp, offset))
            else:
                ops.append(_ref_op(handler, inst, offset))
        return self.make(
            self.consts,
            (interp, interp.power, interp.meter, interp.config.trace, *ops),
        )


#: ``repr`` of each distinct cost tuple (a handful per energy model).
_COST_TEXT: Dict[tuple, str] = {}


def _function_key(fname, blocks, space, traced) -> tuple:
    """Everything codegen reads of one function: each instruction's text
    (operands with their types, spaces, labels, callee) and cost, the
    variable attributes a Load or Store compiles against, the AUTO
    default space and whether the run is traced. The text is hashed, so
    the cache holds a digest, not the text."""
    parts = [repr(space), repr(traced)]
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


def _segments_of(label, code, space, segments, plans, ops, starts):
    """Plan the segments of one block into the region's lists."""
    i = 0
    n = len(code)
    while i < n:
        if code[i][0] is None:  # checkpoints: cold path only
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
        segment, plan = _plan_segment(label, i, insts, space, ops)
        segments.append(segment)
        plans.append(plan)
        i = j


def _compile_function(fname, blocks, space, traced) -> Tuple[_Program, ...]:
    """Cut the function's blocks, in order, into regions of at most
    ``REGION_LIMIT`` segments (a block is never split) and compile each."""
    programs = []
    k = 0
    while k < len(blocks):
        segments: List[Segment] = []
        plans: List[tuple] = []
        ops: List[tuple] = []
        entries: Dict[str, Dict[int, int]] = {}
        while k < len(blocks):
            label, code = blocks[k]
            starts: Dict[int, int] = {}
            mark = (len(segments), len(plans), len(ops))
            _segments_of(label, code, space, segments, plans, ops, starts)
            if len(segments) > REGION_LIMIT and entries:
                # Over the limit: this block opens the next region.
                del segments[mark[0]:], plans[mark[1]:], ops[mark[2]:]
                break
            entries[label] = starts
            k += 1
        programs.append(_Program(
            fname, space, traced, tuple(segments), tuple(plans), entries,
            tuple(ops),
        ))
    return tuple(programs)


def compile_blocks(interp, frame_cls) -> Dict[Tuple[str, str], tuple]:
    """Compile every function of ``interp``'s pre-decoded module into
    regions: ``{(function, label): (Region, {start index: segment id})}``
    for every block. Indices no segment starts at (checkpoints,
    mid-segment resume points) are executed by the interpreter's
    per-step path."""
    config = interp.config
    traced = config.trace is not None
    space = config.default_space
    code = interp._code
    ccode: Dict[Tuple[str, str], tuple] = {}
    for func in interp.module.functions.values():
        fname = func.name
        blocks = [(label, code[(fname, label)]) for label in func.blocks]
        programs = _cached(
            _PROGRAMS, _function_key(fname, blocks, space, traced),
            lambda: _compile_function(fname, blocks, space, traced),
        )
        for program in programs:
            region = Region(program.instantiate(interp, frame_cls), program)
            for label, starts in program.entries.items():
                ccode[(fname, label)] = (region, starts)
    return ccode

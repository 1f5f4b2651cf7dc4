"""Interprocedural value-range analysis and loop trip-count inference.

SCHEMATIC's forward-progress argument (paper §III-B2, Algorithm 1) leans
on loop trip bounds: the conditional back-edge checkpoint may be elided
only when ``numit`` exceeds the loop's maximum iteration count, and the
energy certifier needs a bound to close checkpoint-free loop windows.
Until now those bounds were *trusted* — ``@maxiter`` annotations and the
frontend's constant-``for`` shortcut flowed unchecked into placement.
This module makes them *checked*:

- an interval-domain abstract interpretation over the IR, run per
  function on the :mod:`repro.analysis.dataflow` solver with
  branch-condition edge refinement and threshold widening at loop
  headers;
- context-insensitive interprocedural summaries computed callee-first
  over the :mod:`repro.analysis.callgraph` traversal (return-value
  interval plus the caller-visible names a call may clobber);
- a trip-count deriver for monotone induction-variable loops, yielding
  a proven *upper* bound always and an *exact* count when the initial
  value, bound and step are all statically known and the loop can only
  exit through its header.

Soundness follows the emulator, not C: every transfer mirrors
``interpreter._binop`` exactly (mathematical compare on sign-adjusted
values, ``& 31`` shift masking, truncating division, wrap-to-dest-type
on every write). Whatever the abstract semantics cannot bound precisely
drops to the destination type's full range, never to a smaller guess.

Entry assumptions (what ⊤ means here): non-const globals are external
inputs, locals are statically allocated and persist across calls, and
scalar parameters arrive from arbitrary call sites — all of them start
at full type range. Const globals are folded from their initializers.

The public surface is :class:`ModuleRanges` (per-function results),
:func:`infer_module_bounds` (``(function, header) -> proven bound``) and
:func:`apply_inferred_bounds` (fill missing ``Function.loop_maxiter``
entries in place, which :class:`repro.core.placement.Schematic` runs
right after cloning so unannotated-but-bounded loops get real ``numit``
windows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis import memo
from repro.analysis.callgraph import CallGraph, call_ref_mapping
from repro.analysis.cfg import CFG
from repro.analysis.dataflow import solve_forward
from repro.analysis.loops import Loop, LoopNest
from repro.errors import AnalysisError
from repro.ir.function import Function
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    Instruction,
    Load,
    Move,
    Opcode,
    Ret,
    Store,
    UnaryOpcode,
    UnOp,
)
from repro.ir.module import Module
from repro.ir.types import IntType
from repro.ir.values import Const, Register, Value, Variable, VarRef

#: Inferred bounds above this are useless to the placer and the energy
#: certifier alike; deriving them would only invite overflow-ish noise.
TRIP_CAP = 1_000_000

#: Intervals wider than this are treated as "unknown" when used as a
#: loop-entry or bound estimate (a full i32 range proves nothing).
_WIDTH_CAP = 1 << 21


# ---------------------------------------------------------------------------
# The interval domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]`` (mathematical, unbounded)."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point(value: int) -> "Interval":
        return Interval(value, value)

    @staticmethod
    def of_type(t: IntType) -> "Interval":
        return Interval(t.min_value, t.max_value)

    @staticmethod
    def of_values(values: List[int]) -> "Interval":
        return Interval(min(values), max(values))

    # -- lattice -----------------------------------------------------------

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> int:
        return self.hi - self.lo

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> Optional["Interval"]:
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def covers_type(self, t: IntType) -> bool:
        return self.lo <= t.min_value and self.hi >= t.max_value

    # -- wrapping ----------------------------------------------------------

    def wrapped(self, t: IntType) -> "Interval":
        """The image of this interval under ``t.wrap`` — exact when the
        wrapped segment stays contiguous, full type range otherwise."""
        if self.width >= (1 << t.bits) - 1:
            return Interval.of_type(t)
        lo, hi = t.wrap(self.lo), t.wrap(self.hi)
        if lo <= hi:
            return Interval(lo, hi)
        return Interval.of_type(t)  # the segment straddles the wrap seam

    # -- comparison lattice ------------------------------------------------

    def compare(self, op: Opcode, other: "Interval") -> "Interval":
        """The 0/1 result interval of ``self <op> other``."""
        verdict = _compare_intervals(op, self, other)
        if verdict is True:
            return Interval(1, 1)
        if verdict is False:
            return Interval(0, 0)
        return Interval(0, 1)

    def __str__(self) -> str:
        if self.is_point:
            return f"[{self.lo}]"
        return f"[{self.lo}, {self.hi}]"


def _compare_intervals(
    op: Opcode, a: Interval, b: Interval
) -> Optional[bool]:
    """Definite truth of ``a <op> b`` over all value pairs, else None."""
    if op is Opcode.LT:
        if a.hi < b.lo:
            return True
        if a.lo >= b.hi:
            return False
    elif op is Opcode.LE:
        if a.hi <= b.lo:
            return True
        if a.lo > b.hi:
            return False
    elif op is Opcode.GT:
        if a.lo > b.hi:
            return True
        if a.hi <= b.lo:
            return False
    elif op is Opcode.GE:
        if a.lo >= b.hi:
            return True
        if a.hi < b.lo:
            return False
    elif op is Opcode.EQ:
        if a.is_point and b.is_point and a.lo == b.lo:
            return True
        if a.meet(b) is None:
            return False
    elif op is Opcode.NE:
        if a.meet(b) is None:
            return True
        if a.is_point and b.is_point and a.lo == b.lo:
            return False
    return None


def _trunc_div(a: int, b: int) -> int:
    """C-style truncating division (mirrors ``interpreter._binop``)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _corners(
    a: Interval, b: Interval, fn: Callable[[int, int], int]
) -> Interval:
    """Interval hull of ``fn`` over the four corners — exact only for
    operations monotone in each argument."""
    vals = [fn(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return Interval(min(vals), max(vals))


def binop_interval(op: Opcode, a: Interval, b: Interval) -> Optional[Interval]:
    """Mathematical result interval of ``a <op> b`` before wrapping;
    ``None`` means "no useful bound" (the caller substitutes the
    destination type's full range)."""
    if op is Opcode.ADD:
        return Interval(a.lo + b.lo, a.hi + b.hi)
    if op is Opcode.SUB:
        return Interval(a.lo - b.hi, a.hi - b.lo)
    if op is Opcode.MUL:
        return _corners(a, b, lambda x, y: x * y)
    if op is Opcode.DIV:
        # Split the divisor around zero; trunc-div is monotone per sign.
        parts: List[Interval] = []
        if b.lo <= -1:
            parts.append(Interval(b.lo, min(b.hi, -1)))
        if b.hi >= 1:
            parts.append(Interval(max(b.lo, 1), b.hi))
        if not parts:
            return None  # division by zero traps; anything is sound
        result: Optional[Interval] = None
        for part in parts:
            piece = _corners(a, part, _trunc_div)
            result = piece if result is None else result.join(piece)
        return result
    if op is Opcode.REM:
        # result = a - trunc(a/b)*b: sign follows a, |result| < max|b|.
        m = max(abs(b.lo), abs(b.hi))
        if m == 0:
            return None  # remainder by zero traps
        lo = max(a.lo, -(m - 1)) if a.lo < 0 else 0
        hi = min(a.hi, m - 1) if a.hi > 0 else 0
        return Interval(min(lo, hi), max(lo, hi))
    if op in (Opcode.AND, Opcode.OR, Opcode.XOR):
        if a.lo < 0 or b.lo < 0:
            return None
        if op is Opcode.AND:
            return Interval(0, min(a.hi, b.hi))
        ceiling = (1 << max(a.hi, b.hi).bit_length()) - 1
        lo = max(a.lo, b.lo) if op is Opcode.OR else 0
        return Interval(lo, ceiling)
    if op is Opcode.SHL:
        s = _shift_amounts(b)
        return _corners(a, s, lambda x, y: x << y)
    if op is Opcode.SHR:
        s = _shift_amounts(b)
        return _corners(a, s, lambda x, y: x >> y)
    if op.is_comparison:
        return a.compare(op, b)
    return None


def _shift_amounts(b: Interval) -> Interval:
    """The interpreter masks shift amounts with ``& 31``."""
    if 0 <= b.lo and b.hi <= 31:
        return b
    return Interval(0, 31)


def unop_interval(op: UnaryOpcode, a: Interval) -> Interval:
    if op is UnaryOpcode.NEG:
        return Interval(-a.hi, -a.lo)
    if op is UnaryOpcode.NOT:
        return Interval(-a.hi - 1, -a.lo - 1)
    # LNOT: 0 -> 1, nonzero -> 0.
    if a.lo == 0 and a.hi == 0:
        return Interval(1, 1)
    if not a.contains(0):
        return Interval(0, 0)
    return Interval(0, 1)


# ---------------------------------------------------------------------------
# Symbolic branch conditions (for edge refinement and trip derivation)
# ---------------------------------------------------------------------------
#
# Within one block we resolve the register feeding a Branch back to a small
# symbolic language:
#
#   ("const", v)              a literal (already wrapped to the reg type)
#   ("var", name, type)       the value of scalar variable `name` — only
#                             recorded when the load is value-preserving
#                             (the register's range covers the variable's)
#   ("cmp", op, lhs, rhs)     a comparison of two resolved operands
#   ("lnot", sym)             logical negation
#
# A Store to `name` (or any Call, conservatively) kills every symbol that
# mentions a variable. Checkpoints are value-neutral (restore reloads the
# values that were saved) and kill nothing.

Sym = Tuple  # structural tuples as above


def _sym_mentions_var(sym: Optional[Sym], name: Optional[str] = None) -> bool:
    if sym is None:
        return False
    tag = sym[0]
    if tag == "var":
        return name is None or sym[1] == name
    if tag == "cmp":
        return _sym_mentions_var(sym[2], name) or _sym_mentions_var(sym[3], name)
    if tag == "lnot":
        return _sym_mentions_var(sym[1], name)
    return False


def _value_preserving(inner: IntType, outer: IntType) -> bool:
    """Wrapping an ``inner``-typed value to ``outer`` is the identity."""
    return (
        outer.min_value <= inner.min_value
        and outer.max_value >= inner.max_value
    )


@dataclass(frozen=True)
class BlockCond:
    """A block's terminator Branch with its resolved condition symbol."""

    cond: Optional[Sym]
    if_true: str
    if_false: str


NEGATED = {
    Opcode.LT: Opcode.GE,
    Opcode.GE: Opcode.LT,
    Opcode.LE: Opcode.GT,
    Opcode.GT: Opcode.LE,
    Opcode.EQ: Opcode.NE,
    Opcode.NE: Opcode.EQ,
}

MIRRORED = {
    Opcode.LT: Opcode.GT,
    Opcode.GT: Opcode.LT,
    Opcode.LE: Opcode.GE,
    Opcode.GE: Opcode.LE,
    Opcode.EQ: Opcode.EQ,
    Opcode.NE: Opcode.NE,
}


# ---------------------------------------------------------------------------
# Trip counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TripBound:
    """A proven iteration bound for one natural loop.

    ``max_trips`` is always a sound upper bound on the number of body
    executions. When ``exact`` is True the loop provably executes
    ``min_trips == max_trips`` times (initial value, bound and step are
    static and the header owns the only exit).
    """

    header: str
    max_trips: int
    min_trips: int
    exact: bool
    counter: str

    def __str__(self) -> str:
        kind = "exactly" if self.exact else "at most"
        return f".{self.header}: {kind} {self.max_trips} iterations"


def _ceildiv(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# Interprocedural summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionSummary:
    """What a call site needs to know about a callee.

    Computed under the callee's ⊤ entry state, so every field is a sound
    over-approximation for *any* concrete call. ``writes`` holds
    caller-visible names (globals plus the callee's own by-ref formals,
    transitively through its callees); ``global_exit`` refines written
    scalar globals whose exit interval is better than ⊤.
    """

    returns: Optional[Interval]
    writes: FrozenSet[str]
    global_exit: Dict[str, Interval]


# ---------------------------------------------------------------------------
# Per-function analysis
# ---------------------------------------------------------------------------

State = Dict[str, Interval]  # key -> interval; missing key means ⊤


class FunctionRanges:
    """Value ranges, branch feasibility and trip bounds for one function.

    States map keys to intervals: ``"%name"`` for registers, mangled
    variable names for scalar variables. A missing key is ⊤ (full type
    range); stored entries are always proper subsets of their type's
    range, so state equality doubles as lattice equality.
    """

    def __init__(
        self,
        module: Module,
        func: Function,
        summaries: Dict[str, FunctionSummary],
    ):
        self.module = module
        self.func = func
        self.summaries = summaries
        self.cfg = CFG(func)

        self._vars: Dict[str, Variable] = {}
        for var in func.variables.values():
            self._vars[var.name] = var
        for var in module.globals.values():
            self._vars[var.name] = var

        self._key_types: Dict[str, IntType] = {}
        for name, var in self._vars.items():
            self._key_types[name] = var.type
        for reg in func.arg_registers():
            if reg is not None:
                self._key_types["%" + reg.name] = reg.type
        for block in func.blocks.values():
            for inst in block:
                for reg in inst.defs():
                    self._key_types["%" + reg.name] = reg.type

        self._thresholds = self._collect_thresholds()
        self._block_conds = self._resolve_branch_conds()

        widen_at = self._retreat_targets()
        self.solution = solve_forward(
            self.cfg,
            {},
            self._transfer,
            self._join,
            edge_transfer=self._edge_transfer,
            widen=self._widen,
            widen_at=widen_at,
        )

        self.nest: Optional[LoopNest] = None
        try:
            self.nest = LoopNest(self.cfg)
        except AnalysisError:
            pass  # irreducible control flow: ranges hold, loop facts don't

        self.trip_bounds: Dict[str, TripBound] = {}
        if self.nest is not None:
            for loop in self.nest.bottom_up():
                bound = self._derive_trip(loop)
                if bound is not None:
                    self.trip_bounds[loop.header] = bound

        self.return_interval = self._collect_return_interval()
        self.summary = self._build_summary()

    # -- state plumbing ----------------------------------------------------

    def _norm(self, key: str, iv: Interval) -> Optional[Interval]:
        """Clamp to the key's type range; None when the entry carries no
        information beyond the type itself (⊤)."""
        t = self._key_types.get(key)
        if t is None:
            return iv
        clamped = iv.meet(Interval.of_type(t))
        if clamped is None:  # stale entry outside the type: treat as ⊤
            return None
        if clamped.covers_type(t):
            return None
        return clamped

    def _set(self, state: State, key: str, iv: Optional[Interval]) -> None:
        if iv is not None:
            iv = self._norm(key, iv)
        if iv is None:
            state.pop(key, None)
        else:
            state[key] = iv

    def _join(self, a: State, b: State) -> State:
        out: State = {}
        for key, iva in a.items():
            ivb = b.get(key)
            if ivb is None:
                continue
            if ivb == iva:
                out[key] = iva  # stored entries are already normalized
                continue
            joined = self._norm(key, iva.join(ivb))
            if joined is not None:
                out[key] = joined
        return out

    def _value(self, state: State, operand: Value) -> Optional[Interval]:
        """The operand's interval, or None for ⊤."""
        if isinstance(operand, Const):
            return Interval.point(operand.value)
        if isinstance(operand, Register):
            iv = state.get("%" + operand.name)
            return iv if iv is not None else Interval.of_type(operand.type)
        return None  # VarRef: not a numeric value

    def _var_interval(self, state: State, var: Variable) -> Interval:
        iv = state.get(var.name)
        return iv if iv is not None else Interval.of_type(var.type)

    def value_interval(
        self, state: State, operand: Value
    ) -> Optional[Interval]:
        """Public query: the operand's interval in ``state`` (None = ⊤)."""
        return self._value(state, operand)

    # -- transfer ----------------------------------------------------------

    def _transfer(self, label: str, state: State) -> State:
        return self._exec_block(label, state)

    def _exec_block(
        self,
        label: str,
        state: State,
        visit: Optional[Callable[[int, Instruction, State], None]] = None,
    ) -> State:
        """Abstractly execute one block. ``visit`` observes the state
        *before* each instruction (used by the bounds rules)."""
        new = dict(state)
        for idx, inst in enumerate(self.func.blocks[label].instructions):
            if visit is not None:
                visit(idx, inst, new)
            self._exec_inst(inst, new)
        return new

    def _exec_inst(self, inst: Instruction, state: State) -> None:
        if isinstance(inst, Move):
            src = self._value(state, inst.src)
            iv = src.wrapped(inst.dest.type) if src is not None else None
            self._set(state, "%" + inst.dest.name, iv)
        elif isinstance(inst, BinOp):
            lhs = self._value(state, inst.lhs)
            rhs = self._value(state, inst.rhs)
            iv: Optional[Interval] = None
            if lhs is not None and rhs is not None:
                raw = binop_interval(inst.op, lhs, rhs)
                if raw is not None:
                    iv = raw.wrapped(inst.dest.type)
            self._set(state, "%" + inst.dest.name, iv)
        elif isinstance(inst, UnOp):
            src = self._value(state, inst.src)
            iv = None
            if src is not None:
                iv = unop_interval(inst.op, src).wrapped(inst.dest.type)
            self._set(state, "%" + inst.dest.name, iv)
        elif isinstance(inst, Load):
            self._set(
                state, "%" + inst.dest.name,
                self._load_interval(state, inst.var).wrapped(inst.dest.type),
            )
        elif isinstance(inst, Store):
            if inst.index is None and not inst.var.is_ref:
                value = self._value(state, inst.value)
                iv = value.wrapped(inst.var.type) if value is not None else None
                self._set(state, inst.var.name, iv)
            # Array content is not tracked (weak updates add nothing over
            # the zero/⊤ entry assumption), so indexed stores are no-ops.
        elif isinstance(inst, Call):
            self._apply_call(inst, state)
        # Jump/Branch/Ret carry no state effect (edges refine instead);
        # checkpoints restore exactly the values they saved.

    def _load_interval(self, state: State, var: Variable) -> Interval:
        if var.is_const and var.init is not None:
            return Interval.of_values(var.init)
        if var.is_array or var.is_ref:
            return Interval.of_type(var.type)
        return self._var_interval(state, var)

    def _apply_call(self, call: Call, state: State) -> None:
        summary = self.summaries.get(call.callee)
        callee = self.module.functions.get(call.callee)
        if summary is None or callee is None:
            # Unknown callee: clobber every global scalar, result is ⊤.
            for name in self.module.globals:
                state.pop(name, None)
        else:
            mapping = call_ref_mapping(call, callee)
            for written in summary.writes:
                target = mapping.get(written, written)
                if target in self.module.globals:
                    self._set(state, target, summary.global_exit.get(written))
                # Ref-formal targets are caller arrays: content untracked.
        if call.dest is not None:
            iv = summary.returns if summary is not None else None
            if iv is not None:
                iv = iv.wrapped(call.dest.type)
            self._set(state, "%" + call.dest.name, iv)

    # -- widening ----------------------------------------------------------

    def _collect_thresholds(self) -> List[int]:
        """Widening landing points: every literal in the function (±1 for
        strict/non-strict comparison slack) plus all involved type
        bounds. Finite, so iterated widening terminates."""
        points: Set[int] = {0, 1, -1}
        for t in self._key_types.values():
            points.add(t.min_value)
            points.add(t.max_value)
        for block in self.func.blocks.values():
            for inst in block:
                for operand in getattr(inst, "__dict__", {}).values():
                    if isinstance(operand, Const):
                        points.update(
                            (operand.value - 1, operand.value, operand.value + 1)
                        )
        return sorted(points)

    def _retreat_targets(self) -> FrozenSet[str]:
        """Targets of retreating edges — loop headers on reducible CFGs,
        and a safe superset on irreducible ones."""
        rpo = self.cfg.rpo_index()
        return frozenset(
            edge.dst
            for edge in self.cfg.edges()
            if edge.dst in rpo and edge.src in rpo
            and rpo[edge.dst] <= rpo[edge.src]
        )

    def _threshold_below(self, value: int) -> int:
        best = self._thresholds[0]
        for point in self._thresholds:
            if point <= value:
                best = point
            else:
                break
        return min(best, value)

    def _threshold_above(self, value: int) -> int:
        for point in self._thresholds:
            if point >= value:
                return point
        return max(self._thresholds[-1], value)

    def _widen(self, old: State, new: State) -> State:
        out: State = {}
        for key, niv in new.items():
            oiv = old.get(key)
            if oiv is None:
                continue  # was already ⊤ at this point
            lo = oiv.lo if niv.lo >= oiv.lo else self._threshold_below(niv.lo)
            hi = oiv.hi if niv.hi <= oiv.hi else self._threshold_above(niv.hi)
            widened = self._norm(key, Interval(min(lo, hi), max(lo, hi)))
            if widened is not None:
                out[key] = widened
        return out

    # -- branch-condition resolution and edge refinement -------------------

    def _resolve_branch_conds(self) -> Dict[str, BlockCond]:
        conds: Dict[str, BlockCond] = {}
        for label, block in self.func.blocks.items():
            if not block.instructions:
                continue
            term = block.instructions[-1]
            if not isinstance(term, Branch):
                continue
            syms = self._block_symbols(label)
            cond: Optional[Sym]
            if isinstance(term.cond, Const):
                cond = ("const", term.cond.value)
            elif isinstance(term.cond, Register):
                cond = syms.get(term.cond.name)
            else:
                cond = None
            conds[label] = BlockCond(cond, term.if_true, term.if_false)
        return conds

    def _block_symbols(self, label: str) -> Dict[str, Optional[Sym]]:
        """Register -> symbol at the end of ``label`` (in-block only)."""
        syms: Dict[str, Optional[Sym]] = {}

        def operand_sym(operand: Value) -> Optional[Sym]:
            if isinstance(operand, Const):
                return ("const", operand.value)
            if isinstance(operand, Register):
                return syms.get(operand.name)
            return None

        def kill_vars(name: Optional[str]) -> None:
            for reg, sym in list(syms.items()):
                if _sym_mentions_var(sym, name):
                    syms[reg] = None

        for inst in self.func.blocks[label].instructions:
            if isinstance(inst, Load):
                sym: Optional[Sym] = None
                var = inst.var
                if var.is_const and not var.is_array and var.init is not None:
                    sym = ("const", inst.dest.type.wrap(var.init[0]))
                elif (
                    inst.index is None
                    and not var.is_ref
                    and _value_preserving(var.type, inst.dest.type)
                ):
                    sym = ("var", var.name, var.type)
                syms[inst.dest.name] = sym
            elif isinstance(inst, Move):
                sym = operand_sym(inst.src)
                syms[inst.dest.name] = (
                    sym if _sym_survives_wrap(sym, inst.dest.type) else None
                )
            elif isinstance(inst, BinOp):
                if inst.op.is_comparison:
                    lhs, rhs = operand_sym(inst.lhs), operand_sym(inst.rhs)
                    syms[inst.dest.name] = (
                        ("cmp", inst.op, lhs, rhs)
                        if lhs is not None and rhs is not None
                        else None
                    )
                else:
                    syms[inst.dest.name] = None
            elif isinstance(inst, UnOp):
                if inst.op is UnaryOpcode.LNOT:
                    src = operand_sym(inst.src)
                    syms[inst.dest.name] = (
                        ("lnot", src) if src is not None else None
                    )
                else:
                    syms[inst.dest.name] = None
            elif isinstance(inst, Store):
                kill_vars(inst.var.name)
            elif isinstance(inst, Call):
                kill_vars(None)  # any variable may change
                if inst.dest is not None:
                    syms[inst.dest.name] = None
        return syms

    def _edge_transfer(
        self, src: str, dst: str, state: State
    ) -> Optional[State]:
        cond = self._block_conds.get(src)
        if cond is None or cond.cond is None or cond.if_true == cond.if_false:
            return state
        if dst == cond.if_true:
            return self._refine(state, cond.cond, True)
        if dst == cond.if_false:
            return self._refine(state, cond.cond, False)
        return state

    def _sym_interval(self, state: State, sym: Sym) -> Interval:
        tag = sym[0]
        if tag == "const":
            return Interval.point(sym[1])
        if tag == "var":
            iv = state.get(sym[1])
            return iv if iv is not None else Interval.of_type(sym[2])
        return Interval(0, 1)  # cmp / lnot results

    def _refine(
        self, state: State, sym: Sym, want: bool
    ) -> Optional[State]:
        """``state`` restricted to executions where ``sym`` is truthy
        (``want``) or falsy; None when the edge is infeasible."""
        tag = sym[0]
        if tag == "const":
            return state if (sym[1] != 0) == want else None
        if tag == "lnot":
            return self._refine(state, sym[1], not want)
        if tag == "var":
            iv = self._sym_interval(state, sym)
            refined = _refine_truthiness(iv, want)
            if refined is None:
                return None
            if refined != iv:
                state = dict(state)
                self._set(state, sym[1], refined)
            return state
        if tag == "cmp":
            op: Opcode = sym[1] if want else NEGATED[sym[1]]
            lhs_sym, rhs_sym = sym[2], sym[3]
            lhs = self._sym_interval(state, lhs_sym)
            rhs = self._sym_interval(state, rhs_sym)
            if _compare_intervals(op, lhs, rhs) is False:
                return None
            new_lhs = _refine_against(lhs, op, rhs)
            new_rhs = _refine_against(rhs, MIRRORED[op], lhs)
            if new_lhs is None or new_rhs is None:
                return None
            changed = False
            for side_sym, refined, before in (
                (lhs_sym, new_lhs, lhs),
                (rhs_sym, new_rhs, rhs),
            ):
                if side_sym[0] == "var" and refined != before:
                    if not changed:
                        state = dict(state)
                        changed = True
                    self._set(state, side_sym[1], refined)
            return state
        return state

    # -- trip-count derivation ---------------------------------------------

    def _derive_trip(self, loop: Loop) -> Optional[TripBound]:
        cond = self._block_conds.get(loop.header)
        if cond is None or cond.cond is None:
            return None
        stay_on_true = cond.if_true in loop.body
        if stay_on_true == (cond.if_false in loop.body):
            return None  # no exit (or no stay) decision at the header
        sym = cond.cond
        while sym is not None and sym[0] == "lnot":
            sym = sym[1]
            stay_on_true = not stay_on_true
        if sym is None or sym[0] != "cmp":
            return None
        op: Opcode = sym[1] if stay_on_true else NEGATED[sym[1]]
        lhs, rhs = sym[2], sym[3]

        best: Optional[TripBound] = None
        for counter_side, bound_side, cont_op in (
            (lhs, rhs, op),
            (rhs, lhs, MIRRORED[op]),
        ):
            if counter_side[0] != "var":
                continue
            derived = self._try_counter(loop, cont_op, counter_side, bound_side)
            if derived is None:
                continue
            if (
                best is None
                or (derived.exact and not best.exact)
                or (derived.exact == best.exact
                    and derived.max_trips < best.max_trips)
            ):
                best = derived
        return best

    def _try_counter(
        self,
        loop: Loop,
        cont_op: Opcode,
        counter_side: Sym,
        bound_side: Sym,
    ) -> Optional[TripBound]:
        counter = self._vars.get(counter_side[1])
        if (
            counter is None
            or counter.is_array
            or counter.is_ref
            or counter.is_const
        ):
            return None
        if len(loop.latches) != 1:
            return None
        step = self._find_step(loop, counter)
        if step is None:
            return None
        step_c, load_t, binop_t = step
        if counter.is_global and self._loop_calls_write(loop, counter.name):
            return None

        # The bound operand: a literal, or a loop-invariant scalar.
        if bound_side[0] == "const":
            bound_iv: Interval = Interval.point(bound_side[1])
            bound_is_point = True
        elif bound_side[0] == "var":
            bvar = self._vars.get(bound_side[1])
            if bvar is None or bvar.is_array or bvar.is_ref:
                return None
            if not bvar.is_const:
                for label in loop.body:
                    for inst in self.func.blocks[label].instructions:
                        if isinstance(inst, Store) and inst.var.name == bvar.name:
                            return None
                if bvar.is_global and self._loop_calls_write(loop, bvar.name):
                    return None
            header_in = self.solution.block_in.get(loop.header)
            if header_in is None:
                return None  # loop unreachable
            bound_iv = self._load_interval(header_in, bvar)
            bound_is_point = bound_iv.is_point
        else:
            return None
        if bound_iv.width > _WIDTH_CAP:
            return None

        # Initial value: joined over the loop-entry edges.
        init_iv: Optional[Interval] = None
        for pred in self.cfg.preds[loop.header]:
            if pred in loop.body:
                continue
            out = self.solution.block_out.get(pred)
            if out is None:
                continue  # unreachable entry path
            refined = self._edge_transfer(pred, loop.header, out)
            if refined is None:
                continue  # statically infeasible entry edge
            piece = self._var_interval(refined, counter)
            init_iv = piece if init_iv is None else init_iv.join(piece)
        if init_iv is None or init_iv.width > _WIDTH_CAP:
            return None

        trips = _trip_formula(
            cont_op, step_c, init_iv, bound_iv, counter.type, (load_t, binop_t)
        )
        if trips is None:
            return None
        ub, exact_n = trips
        if ub > TRIP_CAP:
            return None
        header_only_exit = all(
            edge.src == loop.header for edge in loop.exit_edges(self.cfg)
        )
        exact = (
            exact_n is not None
            and init_iv.is_point
            and bound_is_point
            and header_only_exit
        )
        return TripBound(
            header=loop.header,
            max_trips=ub,
            min_trips=exact_n if exact else 0,
            exact=exact,
            counter=counter.name,
        )

    def _find_step(
        self, loop: Loop, counter: Variable
    ) -> Optional[Tuple[int, IntType, IntType]]:
        """The loop's unique ``counter = counter ± c`` update. Returns
        ``(signed step, load dest type, binop dest type)``; None unless
        the update provably executes exactly once per iteration."""
        stores: List[Tuple[str, int, Store]] = []
        for label in loop.body:
            for idx, inst in enumerate(self.func.blocks[label].instructions):
                if isinstance(inst, Store) and inst.var.name == counter.name:
                    stores.append((label, idx, inst))
        if len(stores) != 1:
            return None
        label, idx, store = stores[0]
        if store.index is not None or label == loop.header:
            return None
        if self.nest is None or self.nest.innermost.get(label) is not loop:
            return None  # inside a nested loop: runs more than once per trip
        if not self.nest.dom.dominates(label, loop.latch):
            return None  # conditional update: trajectory unknown
        if not isinstance(store.value, Register):
            return None

        insts = self.func.blocks[label].instructions
        defs: Dict[str, Tuple[int, Instruction]] = {}
        for i, inst in enumerate(insts[:idx]):
            for reg in inst.defs():
                defs[reg.name] = (i, inst)
        entry = defs.get(store.value.name)
        if entry is None or not isinstance(entry[1], BinOp):
            return None
        binop = entry[1]
        if binop.op not in (Opcode.ADD, Opcode.SUB):
            return None

        def load_of_counter(operand: Value) -> Optional[Load]:
            if not isinstance(operand, Register):
                return None
            found = defs.get(operand.name)
            if found is None or not isinstance(found[1], Load):
                return None
            load = found[1]
            if load.var.name != counter.name or load.index is not None:
                return None
            return load

        lhs_load = load_of_counter(binop.lhs)
        rhs_load = load_of_counter(binop.rhs)
        if binop.op is Opcode.ADD:
            if lhs_load is not None and isinstance(binop.rhs, Const):
                load, c = lhs_load, binop.rhs.value
            elif rhs_load is not None and isinstance(binop.lhs, Const):
                load, c = rhs_load, binop.lhs.value
            else:
                return None
        else:  # SUB: only `counter - c` is an induction step
            if lhs_load is not None and isinstance(binop.rhs, Const):
                load, c = lhs_load, -binop.rhs.value
            else:
                return None
        if c == 0:
            return None
        return c, load.dest.type, binop.dest.type

    def _loop_calls_write(self, loop: Loop, name: str) -> bool:
        """May any call inside the loop write caller-visible ``name``?"""
        for label in loop.body:
            for inst in self.func.blocks[label].instructions:
                if not isinstance(inst, Call):
                    continue
                summary = self.summaries.get(inst.callee)
                callee = self.module.functions.get(inst.callee)
                if summary is None or callee is None:
                    return True
                mapping = call_ref_mapping(inst, callee)
                if any(
                    mapping.get(w, w) == name for w in summary.writes
                ):
                    return True
        return False

    # -- post-fixpoint queries ---------------------------------------------

    def reachable_blocks(self) -> List[str]:
        return [
            label
            for label in self.cfg.reverse_postorder()
            if label in self.solution.block_in
        ]

    def infeasible_edges(self) -> List[Tuple[str, str]]:
        """Branch edges that can never be taken (reachable source, but
        the refined state on the edge is empty)."""
        edges: List[Tuple[str, str]] = []
        for src in self.reachable_blocks():
            cond = self._block_conds.get(src)
            if cond is None or cond.if_true == cond.if_false:
                continue
            out = self.solution.block_out.get(src)
            if out is None:
                continue
            for dst in (cond.if_true, cond.if_false):
                if self._edge_transfer(src, dst, out) is None:
                    edges.append((src, dst))
        return edges

    def visit_reachable(
        self, visit: Callable[[str, int, Instruction, State], None]
    ) -> None:
        """Re-run the transfer over every reachable block, observing the
        state right before each instruction."""
        for label in self.reachable_blocks():
            state = self.solution.block_in[label]
            self._exec_block(
                label, state,
                visit=lambda idx, inst, st, _l=label: visit(_l, idx, inst, st),
            )

    def state_at(self, label: str, index: int) -> Optional[State]:
        """The abstract state right before ``blocks[label][index]``."""
        state = self.solution.block_in.get(label)
        if state is None:
            return None
        new = dict(state)
        for idx, inst in enumerate(self.func.blocks[label].instructions):
            if idx == index:
                return new
            self._exec_inst(inst, new)
        return new

    # -- summary construction ----------------------------------------------

    def _collect_return_interval(self) -> Optional[Interval]:
        if self.func.return_type is None:
            return None
        result: Optional[Interval] = None

        for label in self.reachable_blocks():
            block = self.func.blocks[label]
            if not block.instructions:
                continue
            term = block.instructions[-1]
            if not isinstance(term, Ret) or term.value is None:
                continue
            state = self.state_at(label, len(block.instructions) - 1)
            if state is None:
                continue
            iv = self._value(state, term.value)
            if iv is None:
                iv = Interval.of_type(self.func.return_type)
            iv = iv.wrapped(self.func.return_type)
            result = iv if result is None else result.join(iv)
        return result

    def _exit_global_state(self) -> State:
        """Join of the abstract states at every reachable return."""
        result: Optional[State] = None
        for label in self.reachable_blocks():
            block = self.func.blocks[label]
            if not block.instructions:
                continue
            if not isinstance(block.instructions[-1], Ret):
                continue
            state = self.state_at(label, len(block.instructions) - 1)
            if state is None:
                continue
            result = state if result is None else self._join(result, state)
        return result or {}

    def _build_summary(self) -> FunctionSummary:
        ref_formals = {
            var.name
            for var in self.func.variables.values()
            if var.is_ref
        }
        writes: Set[str] = set()
        for block in self.func.blocks.values():
            for inst in block:
                if isinstance(inst, Store):
                    writes.add(inst.var.name)
                elif isinstance(inst, Call):
                    summary = self.summaries.get(inst.callee)
                    callee = self.module.functions.get(inst.callee)
                    if summary is None or callee is None:
                        writes.update(self.module.globals)
                        continue
                    mapping = call_ref_mapping(inst, callee)
                    writes.update(mapping.get(w, w) for w in summary.writes)
        visible = frozenset(
            w for w in writes if w in self.module.globals or w in ref_formals
        )
        exit_state = self._exit_global_state()
        global_exit = {
            name: exit_state[name]
            for name in visible
            if name in self.module.globals and name in exit_state
        }
        return FunctionSummary(
            returns=self.return_interval,
            writes=visible,
            global_exit=global_exit,
        )


def _refine_truthiness(iv: Interval, want: bool) -> Optional[Interval]:
    """Restrict ``iv`` to nonzero (``want``) or zero values."""
    if want:
        if iv.is_point and iv.lo == 0:
            return None
        lo = 1 if iv.lo == 0 else iv.lo
        hi = -1 if iv.hi == 0 else iv.hi
        if lo > hi:  # only possible for [0, 0], handled above
            return None
        return Interval(lo, hi)
    return iv.meet(Interval.point(0))


def _refine_against(
    iv: Interval, op: Opcode, other: Interval
) -> Optional[Interval]:
    """``iv`` restricted to values for which ``value <op> other`` can
    hold for some value of ``other``; None when no value qualifies."""
    lo, hi = iv.lo, iv.hi
    if op is Opcode.LT:
        hi = min(hi, other.hi - 1)
    elif op is Opcode.LE:
        hi = min(hi, other.hi)
    elif op is Opcode.GT:
        lo = max(lo, other.lo + 1)
    elif op is Opcode.GE:
        lo = max(lo, other.lo)
    elif op is Opcode.EQ:
        lo, hi = max(lo, other.lo), min(hi, other.hi)
    elif op is Opcode.NE:
        if other.is_point:
            if lo == other.lo:
                lo += 1
            if hi == other.lo:
                hi -= 1
    if lo > hi:
        return None
    return Interval(lo, hi)


def _trip_formula(
    op: Opcode,
    step: int,
    init: Interval,
    bound: Interval,
    counter_type: IntType,
    chain_types: Tuple[IntType, IntType],
) -> Optional[Tuple[int, Optional[int]]]:
    """``(upper bound, exact count or None)`` for a loop that stays while
    ``counter <op> bound`` holds and steps by ``step`` each iteration.

    Sound only when the whole counter trajectory is wrap-free: the
    trajectory extremes must be representable in the counter's type *and*
    in every register type on the load -> add -> store chain, so that the
    abstract ±step per iteration is the concrete one.
    """
    increasing = step > 0
    s = abs(step)

    if op is Opcode.LT and increasing:
        last_in = bound.hi - 1  # largest value that still iterates
        ub = max(0, _ceildiv(bound.hi - init.lo, s))
        exact = max(0, _ceildiv(bound.lo - init.hi, s))
    elif op is Opcode.LE and increasing:
        last_in = bound.hi
        ub = max(0, (bound.hi - init.lo) // s + 1)
        exact = max(0, (bound.lo - init.hi) // s + 1)
    elif op is Opcode.GT and not increasing:
        last_in = bound.lo + 1
        ub = max(0, _ceildiv(init.hi - bound.lo, s))
        exact = max(0, _ceildiv(init.lo - bound.hi, s))
    elif op is Opcode.GE and not increasing:
        last_in = bound.lo
        ub = max(0, (init.hi - bound.lo) // s + 1)
        exact = max(0, (init.lo - bound.hi) // s + 1)
    elif op is Opcode.NE and s == 1:
        # Equality exit: the counter must approach the bound from the
        # correct side and the bound must be attainable in-type.
        if not (
            counter_type.contains(bound.lo)
            and counter_type.contains(bound.hi)
        ):
            return None
        if increasing:
            if init.hi > bound.lo:
                return None
            last_in, ub = bound.hi - 1, max(0, bound.hi - init.lo)
            exact = max(0, bound.lo - init.hi)
        else:
            if init.lo < bound.hi:
                return None
            last_in, ub = bound.lo + 1, max(0, init.hi - bound.lo)
            exact = max(0, init.lo - bound.hi)
    else:
        return None  # step moves away from the exit, or an EQ guard

    # Wrap-freedom: every value the counter visits — initial values plus
    # one step past the last in-loop value — must stay in range.
    if increasing:
        traj_lo, traj_hi = init.lo, max(init.hi, last_in + s)
    else:
        traj_lo, traj_hi = min(init.lo, last_in - s), init.hi
    for t in (counter_type,) + chain_types:
        if not (t.contains(traj_lo) and t.contains(traj_hi)):
            return None
    return ub, exact


# ---------------------------------------------------------------------------
# Module driver
# ---------------------------------------------------------------------------


class ModuleRanges:
    """Callee-first range analysis of every function in a module."""

    def __init__(self, module: Module):
        self.module = module
        self.functions: Dict[str, FunctionRanges] = {}
        summaries: Dict[str, FunctionSummary] = {}
        for name in CallGraph(module).reverse_topological():
            ranges = FunctionRanges(module, module.functions[name], summaries)
            summaries[name] = ranges.summary
            self.functions[name] = ranges


def infer_module_bounds(
    module: Module, ranges: Optional[ModuleRanges] = None
) -> Dict[Tuple[str, str], int]:
    """Proven iteration bounds: ``(function, header) -> max trips``.

    Covers every derivable loop, annotated or not; bounds are clamped to
    at least 1 so they compose with ``numit``/window arithmetic that
    treats ``maxiter`` as a positive count.
    """
    ranges = ranges or ModuleRanges(module)
    return {
        (name, bound.header): max(1, bound.max_trips)
        for name, fr in ranges.functions.items()
        for bound in fr.trip_bounds.values()
    }


def apply_inferred_bounds(module: Module) -> Dict[Tuple[str, str], int]:
    """Fill missing ``Function.loop_maxiter`` entries with proven bounds.

    Existing annotations are left untouched (they are *verified*
    separately by the BOUND001 rule, not silently overwritten), so
    placement on fully annotated modules is unchanged. Returns the
    entries that were added.

    The proven bounds come from the per-process memo
    (:mod:`repro.analysis.memo`), keyed on the module text, so each
    distinct source is range-analysed once per process.
    """
    key = (memo.source_key(module),)
    bounds = memo.lookup("ranges", key)
    if bounds is None:
        bounds = infer_module_bounds(module)
        memo.store("ranges", key, bounds)
    applied: Dict[Tuple[str, str], int] = {}
    for (name, header), trips in bounds.items():
        func = module.functions[name]
        if header not in func.loop_maxiter:
            func.loop_maxiter[header] = trips
            applied[(name, header)] = trips
    return applied


def _sym_survives_wrap(sym: Optional[Sym], dest: IntType) -> bool:
    """Is a Move of this symbol to ``dest`` value-preserving?"""
    if sym is None:
        return False
    tag = sym[0]
    if tag == "const":
        return dest.contains(sym[1])
    if tag == "var":
        return _value_preserving(sym[2], dest)
    return True  # cmp / lnot produce 0/1, which every type holds

"""Instruction set of the IR.

Every instruction knows the registers it reads (:meth:`Instruction.uses`)
and writes (:meth:`Instruction.defs`), and the variables it reads/writes
(:meth:`Instruction.var_reads` / :meth:`Instruction.var_writes`) — the two
views needed respectively by register-level interpretation and by
SCHEMATIC's variable-level liveness/allocation analyses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.values import MemorySpace, Register, Value, Variable, VarRef


class Opcode(enum.Enum):
    """Binary operations. Comparison opcodes produce 0/1 results."""

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"

    @property
    def is_comparison(self) -> bool:
        return self in _COMPARISONS

    def __str__(self) -> str:
        return self.value


_COMPARISONS = {Opcode.EQ, Opcode.NE, Opcode.LT, Opcode.LE, Opcode.GT, Opcode.GE}


class UnaryOpcode(enum.Enum):
    NEG = "neg"  # arithmetic negation
    NOT = "not"  # bitwise complement
    LNOT = "lnot"  # logical not (0 -> 1, nonzero -> 0)

    def __str__(self) -> str:
        return self.value


def _register_uses(values: Sequence[Optional[Value]]) -> List[Register]:
    return [v for v in values if isinstance(v, Register)]


class Instruction:
    """Base class of all IR instructions."""

    #: True for instructions that end a basic block.
    is_terminator = False

    def uses(self) -> List[Register]:
        """Registers read by this instruction."""
        return []

    def defs(self) -> List[Register]:
        """Registers written by this instruction."""
        return []

    def var_reads(self) -> List[Variable]:
        """Variables whose memory is read by this instruction."""
        return []

    def var_writes(self) -> List[Variable]:
        """Variables whose memory is written by this instruction."""
        return []


@dataclass
class Move(Instruction):
    """``dest = src`` — copy a value into a register (with wrapping to the
    destination type, so Move doubles as an integer cast)."""

    dest: Register
    src: Value

    def uses(self) -> List[Register]:
        return _register_uses([self.src])

    def defs(self) -> List[Register]:
        return [self.dest]

    def __str__(self) -> str:
        return f"{self.dest} = move {self.src}"


@dataclass
class BinOp(Instruction):
    """``dest = lhs <op> rhs``. Result wraps to ``dest.type``."""

    op: Opcode
    dest: Register
    lhs: Value
    rhs: Value

    def uses(self) -> List[Register]:
        return _register_uses([self.lhs, self.rhs])

    def defs(self) -> List[Register]:
        return [self.dest]

    def __str__(self) -> str:
        return f"{self.dest} = {self.op.value} {self.lhs}, {self.rhs}"


@dataclass
class UnOp(Instruction):
    """``dest = <op> src``."""

    op: UnaryOpcode
    dest: Register
    src: Value

    def uses(self) -> List[Register]:
        return _register_uses([self.src])

    def defs(self) -> List[Register]:
        return [self.dest]

    def __str__(self) -> str:
        return f"{self.dest} = {self.op.value} {self.src}"


@dataclass
class Load(Instruction):
    """``dest = load var[index]`` (``index is None`` for scalars).

    ``space`` is the memory the access targets; placement passes rewrite it
    from ``AUTO`` to ``VM``/``NVM``.
    """

    dest: Register
    var: Variable
    index: Optional[Value] = None
    space: MemorySpace = MemorySpace.AUTO

    def uses(self) -> List[Register]:
        return _register_uses([self.index])

    def defs(self) -> List[Register]:
        return [self.dest]

    def var_reads(self) -> List[Variable]:
        return [self.var]

    def __str__(self) -> str:
        idx = f"[{self.index}]" if self.index is not None else ""
        return f"{self.dest} = load.{self.space.value} @{self.var.name}{idx}"


@dataclass
class Store(Instruction):
    """``store var[index] = value``."""

    var: Variable
    index: Optional[Value]
    value: Value
    space: MemorySpace = MemorySpace.AUTO

    def uses(self) -> List[Register]:
        return _register_uses([self.index, self.value])

    def var_writes(self) -> List[Variable]:
        return [self.var]

    def __str__(self) -> str:
        idx = f"[{self.index}]" if self.index is not None else ""
        return f"store.{self.space.value} @{self.var.name}{idx} = {self.value}"


@dataclass
class Call(Instruction):
    """``dest = call callee(args)``; ``dest is None`` for void calls.

    Scalar arguments are by-value operands; array arguments are
    :class:`VarRef` operands binding the callee's by-reference parameters.
    """

    dest: Optional[Register]
    callee: str
    args: List[Value] = field(default_factory=list)

    def uses(self) -> List[Register]:
        return _register_uses(self.args)

    def defs(self) -> List[Register]:
        return [self.dest] if self.dest is not None else []

    def ref_args(self) -> List[Variable]:
        """Variables passed by reference at this call site."""
        return [a.variable for a in self.args if isinstance(a, VarRef)]

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        prefix = f"{self.dest} = " if self.dest is not None else ""
        return f"{prefix}call @{self.callee}({args})"


@dataclass
class Jump(Instruction):
    """Unconditional branch to ``target`` (a block label)."""

    target: str
    is_terminator = True

    def __str__(self) -> str:
        return f"jump .{self.target}"


@dataclass
class Branch(Instruction):
    """Conditional branch: nonzero ``cond`` goes to ``if_true``."""

    cond: Value
    if_true: str
    if_false: str
    is_terminator = True

    def uses(self) -> List[Register]:
        return _register_uses([self.cond])

    def __str__(self) -> str:
        return f"branch {self.cond} ? .{self.if_true} : .{self.if_false}"


@dataclass
class Ret(Instruction):
    """Return from the current function."""

    value: Optional[Value] = None
    is_terminator = True

    def uses(self) -> List[Register]:
        return _register_uses([self.value])

    def __str__(self) -> str:
        return f"ret {self.value}" if self.value is not None else "ret"


@dataclass
class Checkpoint(Instruction):
    """An *enabled* checkpoint location (inserted by a placement pass).

    Runtime semantics depend on the technique's
    :class:`~repro.emulator.runtime.CheckpointPolicy`; for SCHEMATIC
    (paper Fig. 3): save volatile data to NVM, sleep until the capacitor is
    full, restore volatile data, continue.

    Attributes:
        ckpt_id: unique checkpoint identifier within the module.
        save_vars: names of VM-resident variables that are live-in at the
            checkpoint and must be saved (liveness-trimmed per Eq. 2).
        alloc_after: memory placement of every allocatable variable for the
            region *after* this checkpoint. Variables mapped to VM and live
            are loaded from NVM on resume.
        restore_vars: names of variables to load into VM on resume
            (``alloc_after`` ∩ live-out, liveness-trimmed).
        skippable: a runtime policy with a skip heuristic (MEMENTOS) may
            elide this checkpoint. Boot/exit checkpoints that establish the
            initial allocation or flush final results are not skippable.
    """

    ckpt_id: int
    save_vars: Tuple[str, ...] = ()
    restore_vars: Tuple[str, ...] = ()
    alloc_after: Dict[str, MemorySpace] = field(default_factory=dict)
    skippable: bool = True

    def _alloc_str(self) -> str:
        vm = sorted(
            n for n, s in self.alloc_after.items() if s is MemorySpace.VM
        )
        nvm = sorted(
            n for n, s in self.alloc_after.items() if s is MemorySpace.NVM
        )
        return f"vm_after=[{', '.join(vm)}] nvm_after=[{', '.join(nvm)}]"

    def __str__(self) -> str:
        skip = "" if self.skippable else " mandatory"
        return (
            f"checkpoint #{self.ckpt_id} save=[{', '.join(self.save_vars)}] "
            f"restore=[{', '.join(self.restore_vars)}] "
            f"{self._alloc_str()}{skip}"
        )


@dataclass
class CondCheckpoint(Instruction):
    """A conditional checkpoint: fires once every ``every`` executions.

    Implements the paper's loop scheme (§III-B2 / Algorithm 1): the latch
    checkpoint triggers every ``numit`` iterations. The iteration counter is
    part of the volatile register file and is reset by the checkpoint.
    """

    ckpt_id: int
    every: int
    save_vars: Tuple[str, ...] = ()
    restore_vars: Tuple[str, ...] = ()
    alloc_after: Dict[str, MemorySpace] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError(f"CondCheckpoint every={self.every} must be >= 1")

    def _alloc_str(self) -> str:
        vm = sorted(
            n for n, s in self.alloc_after.items() if s is MemorySpace.VM
        )
        nvm = sorted(
            n for n, s in self.alloc_after.items() if s is MemorySpace.NVM
        )
        return f"vm_after=[{', '.join(vm)}] nvm_after=[{', '.join(nvm)}]"

    def __str__(self) -> str:
        return (
            f"cond_checkpoint #{self.ckpt_id} every={self.every} "
            f"save=[{', '.join(self.save_vars)}] "
            f"restore=[{', '.join(self.restore_vars)}] "
            f"{self._alloc_str()}"
        )

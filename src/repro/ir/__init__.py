"""A small typed register IR — the compilation substrate of this repo.

The IR mirrors the subset of LLVM IR that SCHEMATIC actually relies on
(paper §IV-A: SCHEMATIC "operates on the Intermediate Representation of the
LLVM compiler infrastructure"): functions made of basic blocks, explicit
``load``/``store`` instructions that name program *variables* (scalars and
arrays treated as a whole, the paper's allocation granularity), virtual
registers for expression temporaries, and call/branch/return control flow.

Key deliberate differences from LLVM, chosen because SCHEMATIC does not need
more:

- no SSA form: virtual registers are mutable per-function temporaries,
- memory accesses name a :class:`Variable` directly (no pointer arithmetic);
  arrays are accessed as ``var[index]``,
- every ``load``/``store`` carries a :class:`MemorySpace` target (``VM``,
  ``NVM`` or ``AUTO``) which the checkpoint-placement passes rewrite, and
- two checkpoint pseudo-instructions (:class:`Checkpoint`,
  :class:`CondCheckpoint`) that the transformation passes insert.
"""

from repro.ir.types import (
    IntType,
    I8,
    U8,
    I16,
    U16,
    I32,
    U32,
    common_type,
)
from repro.ir.values import (
    Const,
    MemorySpace,
    Register,
    Value,
    Variable,
    VarRef,
)
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
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function, Param
from repro.ir.module import Module
from repro.ir.builder import IRBuilder
from repro.ir.printer import print_function, print_module
from repro.ir.textparser import parse_ir
from repro.ir.validate import validate_module

__all__ = [
    "IntType",
    "I8",
    "U8",
    "I16",
    "U16",
    "I32",
    "U32",
    "common_type",
    "Const",
    "MemorySpace",
    "Register",
    "Value",
    "Variable",
    "VarRef",
    "BinOp",
    "Branch",
    "Call",
    "Checkpoint",
    "CondCheckpoint",
    "Instruction",
    "Jump",
    "Load",
    "Move",
    "Opcode",
    "Ret",
    "Store",
    "UnOp",
    "UnaryOpcode",
    "BasicBlock",
    "Function",
    "Param",
    "Module",
    "IRBuilder",
    "print_function",
    "print_module",
    "parse_ir",
    "validate_module",
]

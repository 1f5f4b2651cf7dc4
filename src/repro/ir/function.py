"""Functions: parameters, local variables and an ordered set of blocks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import IRError
from repro.ir.basicblock import BasicBlock
from repro.ir.types import IntType
from repro.ir.values import Register, Variable


@dataclass(frozen=True)
class Param:
    """A formal parameter.

    Scalars are passed by value (the caller evaluates the argument, the
    callee prologue stores it into the backing local variable). Arrays are
    passed by reference (``is_ref``): the parameter variable binds to the
    caller's array at run time and is pinned to NVM by the paper's pointer
    rule.
    """

    name: str
    type: IntType
    is_ref: bool = False
    count: int = 1  # element count for by-ref array params (0 = unknown)


class Function:
    """An IR function.

    Attributes:
        name: function name, unique in the module.
        params: formal parameter descriptions, in call order.
        return_type: None for void functions.
        variables: local variables by bare name — includes the backing
            variables of all parameters. Local variable objects use mangled
            names (``func.var``) so they are unique module-wide.
        blocks: label -> block, in insertion order; the first block is the
            entry block.
    """

    def __init__(
        self,
        name: str,
        params: Optional[List[Param]] = None,
        return_type: Optional[IntType] = None,
    ):
        self.name = name
        self.params: List[Param] = list(params or [])
        self.return_type = return_type
        self.variables: Dict[str, Variable] = {}
        self.blocks: Dict[str, BasicBlock] = {}
        #: Loop-header label -> maximum iteration count (from ``@maxiter``
        #: annotations or constant-bound inference; paper §III-B2).
        self.loop_maxiter: Dict[str, int] = {}
        #: Atomic sections (paper §VI): (block label, start index, end
        #: index) instruction ranges in which no checkpoint may be placed.
        self.atomic_ranges: List[Tuple[str, int, int]] = []

    def arg_registers(self) -> List[Optional[Register]]:
        """Incoming-argument registers, aligned with ``params``.

        Scalar parameter ``i`` arrives in register ``arg<i>`` (written by the
        call convention, read by the prologue store into the backing
        variable). By-reference array parameters bind to the caller's
        variable instead and have no argument register (None)."""
        return [
            None if p.is_ref else Register(f"arg{i}", p.type)
            for i, p in enumerate(self.params)
        ]

    # -- variables ---------------------------------------------------------

    def add_variable(self, var: Variable, bare_name: Optional[str] = None) -> Variable:
        """Register a local variable under ``bare_name`` (defaults to the
        unmangled tail of ``var.name``)."""
        key = bare_name if bare_name is not None else var.name.split(".")[-1]
        if key in self.variables:
            raise IRError(f"function {self.name}: duplicate variable {key!r}")
        self.variables[key] = var
        return var


    # -- blocks ------------------------------------------------------------

    def add_block(self, label: str) -> BasicBlock:
        if label in self.blocks:
            raise IRError(f"function {self.name}: duplicate block label {label!r}")
        block = BasicBlock(label)
        self.blocks[label] = block
        return block

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return next(iter(self.blocks.values()))

    def block(self, label: str) -> BasicBlock:
        try:
            return self.blocks[label]
        except KeyError:
            raise IRError(
                f"function {self.name}: no block labeled {label!r}"
            ) from None

    def exit_blocks(self) -> List[BasicBlock]:
        """Blocks whose terminator is a return."""
        return [b for b in self.blocks.values() if not b.successor_labels()
                and b.is_terminated]

    def called_functions(self) -> List[str]:
        """Names of functions this function calls (with duplicates removed,
        in first-call order)."""
        seen: Dict[str, None] = {}
        for block in self.blocks.values():
            for inst in block:
                callee = getattr(inst, "callee", None)
                if callee is not None:
                    seen.setdefault(callee, None)
        return list(seen)

    def instruction_count(self) -> int:
        return sum(len(b) for b in self.blocks.values())

    def __repr__(self) -> str:
        return (
            f"Function({self.name}, {len(self.params)} params, "
            f"{len(self.blocks)} blocks)"
        )

"""Shared plumbing of the static checkers.

The analyzers (residency, energy, consistency) walk the same structures:
instructions with resolved memory spaces, checkpoints with clearing
semantics that depend on the runtime policy, and call sites whose
by-reference formals must be substituted with the caller's actuals.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.ir.function import Function
from repro.ir.instructions import (
    Call,
    Checkpoint,
    CondCheckpoint,
    Instruction,
)
from repro.ir.module import Module
from repro.ir.values import MemorySpace, Variable, VarRef

#: Instruction kinds that may take a snapshot at run time.
CHECKPOINT_KINDS = (Checkpoint, CondCheckpoint)


def variable_map(module: Module) -> Dict[str, Variable]:
    """Mangled variable name -> Variable, for the whole module."""
    return {var.name: var for var in module.all_variables()}


def iter_instructions(
    func: Function,
) -> Iterator[Tuple[str, int, Instruction]]:
    """(block label, index, instruction) in block order."""
    for label, block in func.blocks.items():
        for i, inst in enumerate(block.instructions):
            yield label, i, inst


def resolve_space(space: MemorySpace, default: MemorySpace) -> MemorySpace:
    """AUTO accesses execute in the interpreter's default space."""
    return default if space is MemorySpace.AUTO else space


def checkpoint_clears(inst: Instruction, policy_may_skip: bool) -> bool:
    """Whether this checkpoint is guaranteed to take a snapshot when
    execution passes it.

    A :class:`CondCheckpoint` fires only every ``every`` iterations, so a
    single pass may not snapshot. A skippable :class:`Checkpoint` under a
    policy with a skip heuristic (MEMENTOS) may be elided at run time.
    Both must be treated as *not* ending the current replay region."""
    if isinstance(inst, CondCheckpoint):
        return False
    if isinstance(inst, Checkpoint):
        return not (policy_may_skip and inst.skippable)
    return False


def ref_formals(func: Function) -> List[str]:
    """Mangled names of the by-reference formals, in parameter order."""
    return [
        func.variables[param.name].name
        for param in func.params
        if param.is_ref
    ]


def call_ref_mapping(call: Call, callee: Function) -> Dict[str, str]:
    """Callee ref-formal mangled name -> caller-side actual mangled name.

    The actual may itself be a ref formal of the caller; the caller's own
    summary keeps it symbolic and its caller substitutes in turn."""
    mapping: Dict[str, str] = {}
    for arg, param in zip(call.args, callee.params):
        if isinstance(arg, VarRef):
            mapping[callee.variables[param.name].name] = arg.variable.name
    return mapping


def substitute(names: FrozenSet[str], mapping: Dict[str, str]) -> FrozenSet[str]:
    """Rewrite ref-formal names through a call-site mapping."""
    if not mapping:
        return names
    return frozenset(mapping.get(name, name) for name in names)


def vm_set(alloc_after: Dict[str, MemorySpace]) -> FrozenSet[str]:
    """Names a checkpoint's allocation maps into VM."""
    return frozenset(
        name
        for name, space in alloc_after.items()
        if space is MemorySpace.VM
    )


def checkpoint_payload_bytes(
    names: Tuple[str, ...], variables: Dict[str, Variable]
) -> int:
    """Total size of the named variables (unknown names count zero; they
    are reported separately by rule CKPT001)."""
    total = 0
    for name in names:
        var = variables.get(name)
        if var is not None:
            total += var.size_bytes
    return total


class FindingSink:
    """Deduplicating collector: analyzers may traverse a block more than
    once (fixpoints, loop summaries applied at several call sites), but a
    defect at one location is one finding."""

    def __init__(self) -> None:
        self._seen: Set[Tuple[object, ...]] = set()
        self.findings: List = []

    def add(self, finding) -> None:
        key = (finding.rule_id, finding.location, finding.message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(finding)

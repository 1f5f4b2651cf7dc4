"""Shared plumbing of the static checkers.

The analyzers (residency, energy, consistency) walk the same structures.
Memory-space resolution, checkpoint clearing and the call-site
substitution of by-reference formals live in the analysis layer
(:mod:`repro.analysis.regions`, :mod:`repro.analysis.callgraph`), which
the checkers share with placement.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.ir.function import Function
from repro.ir.instructions import Checkpoint, CondCheckpoint, Instruction
from repro.ir.module import Module
from repro.ir.values import MemorySpace, Variable

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


def ref_formals(func: Function) -> List[str]:
    """Mangled names of the by-reference formals, in parameter order."""
    return [
        func.variables[param.name].name
        for param in func.params
        if param.is_ref
    ]


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

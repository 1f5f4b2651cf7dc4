"""Call graph construction and the callee-first analysis order.

SCHEMATIC analyzes "functions through a traversal of the function call
graph, in reverse topological order, such that every function is always
analyzed before its caller", and "currently handles non-recursive functions
only" (§III-B1). Recursion raises :class:`RecursionUnsupportedError`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from repro.errors import RecursionUnsupportedError
from repro.ir.function import Function
from repro.ir.instructions import Call
from repro.ir.module import Module
from repro.ir.values import VarRef


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


class CallGraph:
    """Static call graph of a module."""

    def __init__(self, module: Module):
        self.module = module
        self.callees: Dict[str, List[str]] = {
            name: func.called_functions()
            for name, func in module.functions.items()
        }
        self.callers: Dict[str, List[str]] = {name: [] for name in self.callees}
        for caller, callees in self.callees.items():
            for callee in callees:
                self.callers[callee].append(caller)
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[str, int] = {name: WHITE for name in self.callees}

        def visit(name: str, stack: List[str]) -> None:
            color[name] = GRAY
            stack.append(name)
            for callee in self.callees[name]:
                if color[callee] == GRAY:
                    cycle = stack[stack.index(callee):] + [callee]
                    raise RecursionUnsupportedError(
                        "recursive call chain: " + " -> ".join(cycle)
                    )
                if color[callee] == WHITE:
                    visit(callee, stack)
            stack.pop()
            color[name] = BLACK

        for name in self.callees:
            if color[name] == WHITE:
                visit(name, [])

    def reverse_topological(self) -> List[str]:
        """Callee-first order: every function appears after all functions it
        calls (leaf functions first). Unreachable functions are included."""
        order: List[str] = []
        visited: Set[str] = set()

        def visit(name: str) -> None:
            if name in visited:
                return
            visited.add(name)
            for callee in self.callees[name]:
                visit(callee)
            order.append(name)

        # Start from the entry so its subtree gets a natural order, then
        # sweep up anything unreachable.
        if self.module.entry in self.callees:
            visit(self.module.entry)
        for name in self.callees:
            visit(name)
        return order

    def leaf_functions(self) -> List[str]:
        return [name for name, callees in self.callees.items() if not callees]

    def reachable_from_entry(self) -> Set[str]:
        seen: Set[str] = set()
        work = [self.module.entry]
        while work:
            name = work.pop()
            if name in seen or name not in self.callees:
                continue
            seen.add(name)
            work.extend(self.callees[name])
        return seen

    def __repr__(self) -> str:
        return f"CallGraph({len(self.callees)} functions)"

"""VM-residency consistency: do accesses match the checkpointed allocation?

At run time a variable is VM-resident exactly when the last executed
checkpoint's ``alloc_after`` mapped it to VM (the restore clears VM and
reloads that set; a roll-back-mode migration adjusts residency to the
same set). A ``load.vm``/``store.vm`` therefore faults — even under
continuous power — whenever some path reaches it without a checkpoint
establishing residency for that variable. This is the failure mode of a
broken transformation (e.g. a stripped migration checkpoint), and the
class of sabotage the dynamic testkit reports as ``crash``.

The analysis is a forward must-dataflow with a three-valued per-variable
domain: *resident* (``yes``), *non-resident* (``no``), or *same as on
function entry* (``same``, the default) — the last makes the transfer
functions of callees composable without knowing the caller's state.

- A taken checkpoint sets residency to exactly its VM allocation set.
- A conditional or skippable checkpoint may or may not fire: each
  variable keeps the weaker of its current state and the post-fire one.
- At a call, the callee's summary effect is composed and its ``requires``
  set (VM accesses that need entry residency) is checked.

Function-level checkpoint metadata checks (unknown names, restore/alloc
inconsistencies, VM capacity) live here too: residency is their topic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.cfg import CFG
from repro.analysis.dataflow import solve_forward
from repro.analysis.regions import checkpoint_clears, resolve_space
from repro.ir.function import Function
from repro.ir.instructions import Call, Load, Store
from repro.ir.module import Module
from repro.ir.values import MemorySpace, Variable
from repro.staticcheck.common import (
    CHECKPOINT_KINDS,
    FindingSink,
    variable_map,
    vm_set,
)
from repro.staticcheck.findings import Finding, Location
from repro.staticcheck.rules import RULES

#: (definitely VM-resident, definitely not resident); disjoint sets —
#: everything else is in its function-entry state.
_State = Tuple[FrozenSet[str], FrozenSet[str]]


@dataclass(frozen=True)
class ResidencySummary:
    """Caller-visible residency behaviour of one function."""

    #: Variables the function VM-accesses while they are still in their
    #: entry state — the caller must have them resident at the call.
    requires: FrozenSet[str]
    #: Effect on residency: (made resident, made non-resident); variables
    #: in neither set keep the residency they had at the call.
    effect: _State


def _join(a: _State, b: _State) -> _State:
    # Per-variable minimum over no < same < yes: resident only when both
    # paths agree, non-resident when either path says so.
    yes = (a[0] & b[0]) - (a[1] | b[1])
    no = a[1] | b[1]
    return (yes, no)


def _compose(state: _State, effect: _State) -> _State:
    yes = effect[0] | (state[0] - effect[1])
    no = effect[1] | (state[1] - effect[0])
    return (yes, no)


class _FunctionResidency:
    def __init__(
        self,
        module: Module,
        func: Function,
        summaries: Dict[str, ResidencySummary],
        variables: Dict[str, Variable],
        universe: FrozenSet[str],
        policy_may_skip: bool,
        default_space: MemorySpace,
        is_entry: bool,
    ):
        self.module = module
        self.func = func
        self.summaries = summaries
        self.variables = variables
        self.universe = universe
        self.policy_may_skip = policy_may_skip
        self.default_space = default_space
        self.is_entry = is_entry
        self.cfg = CFG(func)

    def run(self, sink: Optional[FindingSink]) -> ResidencySummary:
        # At boot VM is empty, so the entry function starts all-no; other
        # functions start all-same and report entry needs via `requires`.
        entry: _State = (
            (frozenset(), self.universe) if self.is_entry else (frozenset(), frozenset())
        )
        solution = solve_forward(self.cfg, entry, self._transfer, _join)

        requires: Set[str] = set()
        for label, state in solution.block_in.items():
            self._walk(label, state, sink, requires)

        exit_state: Optional[_State] = None
        for label in self.cfg.exit_labels():
            out = solution.block_out.get(label)
            if out is None:
                continue
            exit_state = out if exit_state is None else _join(exit_state, out)
        if exit_state is None:
            exit_state = (frozenset(), frozenset())
        return ResidencySummary(
            requires=frozenset(requires), effect=exit_state
        )

    # -- transfer ----------------------------------------------------------

    def _transfer(self, label: str, state: _State) -> _State:
        return self._walk(label, state, sink=None, requires=None)

    def _walk(
        self,
        label: str,
        state: _State,
        sink: Optional[FindingSink],
        requires: Optional[Set[str]],
    ) -> _State:
        yes, no = state
        for i, inst in enumerate(self.func.blocks[label].instructions):
            if isinstance(inst, (Load, Store)):
                self._check_access(inst, label, i, yes, no, sink, requires)
            elif isinstance(inst, CHECKPOINT_KINDS):
                if sink is not None:
                    self._check_save_residency(inst, label, i, no, sink)
                target = vm_set(inst.alloc_after)
                if checkpoint_clears(inst, self.policy_may_skip):
                    yes, no = target, self.universe - target
                else:
                    # May or may not fire: keep the weaker state.
                    yes = yes & target
                    no = no | (self.universe - target)
            elif isinstance(inst, Call):
                summary = self.summaries[inst.callee]
                if sink is not None or requires is not None:
                    for name in sorted(summary.requires):
                        if name in no and sink is not None:
                            self._report_no_residency(
                                sink, label, i, name, via=inst.callee
                            )
                        elif (
                            name not in no
                            and name not in yes
                            and requires is not None
                        ):
                            requires.add(name)
                yes, no = _compose((yes, no), summary.effect)
        return (yes, no)

    def _check_access(
        self,
        inst,
        label: str,
        index: int,
        yes: FrozenSet[str],
        no: FrozenSet[str],
        sink: Optional[FindingSink],
        requires: Optional[Set[str]],
    ) -> None:
        name = inst.var.name
        if inst.var.is_ref:
            # By-reference formals alias caller storage and are pinned to
            # NVM by every placement pass; residency is not tracked.
            return
        space = resolve_space(inst.space, self.default_space)
        if space is MemorySpace.VM:
            if name in no:
                if sink is not None:
                    self._report_no_residency(sink, label, index, name, via=None)
            elif name not in yes and requires is not None:
                requires.add(name)
        elif space is MemorySpace.NVM and name in yes and sink is not None:
            rule = RULES["ALLOC002"]
            sink.add(
                Finding(
                    rule_id=rule.rule_id,
                    severity=rule.default_severity,
                    location=Location(self.func.name, label, index),
                    message=(
                        f"NVM access to @{name} while it is VM-resident; "
                        f"the NVM home is stale until the next checkpoint "
                        f"save flushes it"
                    ),
                    details={"variable": name},
                )
            )

    def _check_save_residency(
        self, inst, label: str, index: int, no: FrozenSet[str], sink: FindingSink
    ) -> None:
        stale = sorted(set(inst.save_vars) & no)
        for name in stale:
            rule = RULES["CKPT002"]
            sink.add(
                Finding(
                    rule_id=rule.rule_id,
                    severity=rule.default_severity,
                    location=Location(self.func.name, label, index),
                    message=(
                        f"checkpoint #{inst.ckpt_id} saves @{name}, which "
                        f"is not VM-resident on some path to this point"
                    ),
                    details={"variable": name, "ckpt_id": inst.ckpt_id},
                )
            )

    def _report_no_residency(
        self,
        sink: FindingSink,
        label: str,
        index: int,
        name: str,
        via: Optional[str],
    ) -> None:
        rule = RULES["ALLOC001"]
        accessor = f"call to @{via} accesses" if via else "access to"
        sink.add(
            Finding(
                rule_id=rule.rule_id,
                severity=rule.default_severity,
                location=Location(self.func.name, label, index),
                message=(
                    f"{accessor} @{name} in VM, but no checkpoint on some "
                    f"path here establishes VM residency for it (the "
                    f"access faults even under continuous power)"
                ),
                details={"variable": name, "via": via},
            )
        )


def check_checkpoint_metadata(
    module: Module,
    sink: FindingSink,
    vm_size: Optional[int] = None,
) -> None:
    """Per-checkpoint structural checks: unknown names (CKPT001),
    restore/alloc inconsistency (CKPT002), VM capacity (ALLOC003)."""
    variables = variable_map(module)
    for func in module.functions.values():
        for label, block in func.blocks.items():
            for i, inst in enumerate(block.instructions):
                if not isinstance(inst, CHECKPOINT_KINDS):
                    continue
                location = Location(func.name, label, i)
                named = (
                    list(inst.save_vars)
                    + list(inst.restore_vars)
                    + list(inst.alloc_after)
                )
                for name in sorted(set(named)):
                    if name not in variables:
                        rule = RULES["CKPT001"]
                        sink.add(
                            Finding(
                                rule_id=rule.rule_id,
                                severity=rule.default_severity,
                                location=location,
                                message=(
                                    f"checkpoint #{inst.ckpt_id} references "
                                    f"unknown variable @{name}"
                                ),
                                details={"variable": name, "ckpt_id": inst.ckpt_id},
                            )
                        )
                vm_names = vm_set(inst.alloc_after)
                for name in sorted(set(inst.restore_vars) - vm_names):
                    rule = RULES["CKPT002"]
                    sink.add(
                        Finding(
                            rule_id=rule.rule_id,
                            severity=rule.default_severity,
                            location=location,
                            message=(
                                f"checkpoint #{inst.ckpt_id} restores "
                                f"@{name}, which its alloc_after does not "
                                f"map to VM"
                            ),
                            details={"variable": name, "ckpt_id": inst.ckpt_id},
                        )
                    )
                if vm_size is not None:
                    used = sum(
                        variables[name].size_bytes
                        for name in vm_names
                        if name in variables
                    )
                    if used > vm_size:
                        rule = RULES["ALLOC003"]
                        sink.add(
                            Finding(
                                rule_id=rule.rule_id,
                                severity=rule.default_severity,
                                location=location,
                                message=(
                                    f"checkpoint #{inst.ckpt_id} maps "
                                    f"{used} bytes into VM, exceeding the "
                                    f"platform's {vm_size}-byte capacity"
                                ),
                                details={
                                    "ckpt_id": inst.ckpt_id,
                                    "vm_bytes": used,
                                    "vm_size": vm_size,
                                },
                            )
                        )


def analyze_residency(
    module: Module,
    sink: Optional[FindingSink] = None,
    policy_may_skip: bool = False,
    default_space: MemorySpace = MemorySpace.NVM,
) -> Dict[str, ResidencySummary]:
    """Run the residency analysis module-wide, callee-first."""
    variables = variable_map(module)
    universe = frozenset(
        name for name, var in variables.items() if not var.is_ref
    )
    summaries: Dict[str, ResidencySummary] = {}
    for name in CallGraph(module).reverse_topological():
        func = module.function(name)
        summaries[name] = _FunctionResidency(
            module,
            func,
            summaries,
            variables,
            universe,
            policy_may_skip,
            default_space,
            is_entry=(name == module.entry),
        ).run(sink)
    return summaries

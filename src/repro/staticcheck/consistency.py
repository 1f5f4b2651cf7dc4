"""Machine-checked memory-consistency certification (CONS rules).

This is the checker's implementation of Surbatovich et al.'s formal
correctness conditions for intermittent execution, stated against the
runtime every technique shares: a checkpoint restore rebuilds exactly
the checkpoint's ``restore_vars`` (the emulator's restore, see
:meth:`repro.emulator.interpreter.Interpreter._apply_restore`). The
one per-technique fact the rules read is the runtime policy's
:attr:`~repro.emulator.runtime.CheckpointPolicy.supports_vm`:

- **CONS001** — a re-executed region observes a value it already
  overwrote: the checker's one WAR/idempotency rule. Interprocedural
  first-read/first-write ordering from the region facts pass
  (:mod:`repro.analysis.regions`), element-sensitive for constant array
  indices. It is the only CONS rule the checker runs in every
  configuration (:func:`certify_idempotency`); the others, and the
  certificate, need ``consistency=True``.
- **CONS002** — a volatile environment input
  (:attr:`repro.ir.values.Variable.volatile_input`) is sampled inside a
  re-executable region; the replay re-samples and may diverge. The
  finding cites where the sample flows (branch conditions, stored
  memory, call arguments) from the taint pass.
- **CONS003** — after a checkpoint's wake/rollback restore, a
  VM-resident variable the checkpoint's ``restore_vars`` provably
  misses is read before being fully overwritten (reported at the read).
- **CONS004** — the checkpoint metadata and the runtime disagree: a
  variable is VM-placed but the restore set provably misses it while it
  is still live (reported at the checkpoint), or the policy cannot hold
  VM allocations at all.

Alongside findings, the certifier emits a machine-readable
:class:`Certificate`: one proof obligation per (rule, region/checkpoint)
with the discharged facts — what was checked and why it is safe — so a
clean report is a checkable artifact rather than an absence of output.

Soundness notes. The CONS003/CONS004 hazard window is closed by a full
scalar overwrite, a definitely-taken checkpoint (later anchors own the
continuation), or function return (windows are not propagated upward
into callers — calls *into* callees are followed through summaries).
``const`` variables are exempt from restore obligations: their NVM home
is immutable, so a runtime can always refetch them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import call_ref_mapping, substitute
from repro.analysis.cfg import CFG
from repro.analysis.regions import (
    RegionFacts,
    RegionSummary,
    analyze_regions,
    checkpoint_clears,
)
from repro.emulator.runtime import CheckpointPolicy
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
from repro.staticcheck.findings import Finding, Location, Severity
from repro.staticcheck.rules import RULES


@dataclass
class Certificate:
    """Per-region proof obligations and their discharge status."""

    technique: str
    module: str
    obligations: List[Dict[str, object]] = field(default_factory=list)

    def add(
        self,
        rule: str,
        function: str,
        status: str,
        facts: Dict[str, object],
        anchor: Optional[str] = None,
    ) -> None:
        entry: Dict[str, object] = {
            "rule": rule,
            "function": function,
            "status": status,
            "facts": facts,
        }
        if anchor is not None:
            entry["anchor"] = anchor
        self.obligations.append(entry)

    def summary(self) -> Dict[str, int]:
        violated = sum(
            1 for o in self.obligations if o["status"] == "violated"
        )
        return {
            "obligations": len(self.obligations),
            "discharged": len(self.obligations) - violated,
            "violated": violated,
        }

    def to_json(self) -> Dict[str, object]:
        return {
            "technique": self.technique,
            "module": self.module,
            "summary": self.summary(),
            "obligations": list(self.obligations),
        }


# -- CONS003/CONS004 hazard window traversal ------------------------------


def _first_read_before_write(
    module: Module,
    func: Function,
    cfg: CFG,
    start: Tuple[str, int],
    target: str,
    summaries: Dict[str, RegionSummary],
    policy_may_skip: bool,
) -> Optional[Tuple[str, int, Optional[str]]]:
    """First point reachable from ``start`` where ``target`` may be read
    before being fully overwritten, with no definitely-taken checkpoint
    in between. Returns ``(block, index, via_callee)`` or None when every
    path overwrites, checkpoints or returns first."""
    worklist: List[Tuple[str, int]] = [start]
    seen: Set[str] = set()
    while worklist:
        label, index = worklist.pop()
        block = func.blocks[label]
        closed = False
        for i in range(index, len(block.instructions)):
            inst = block.instructions[i]
            if isinstance(inst, Load):
                if inst.var.name == target:
                    return (label, i, None)
            elif isinstance(inst, Store):
                if inst.var.name == target:
                    var = inst.var
                    if not (var.is_array or var.is_ref):
                        closed = True  # full overwrite
                        break
            elif isinstance(inst, CHECKPOINT_KINDS):
                if checkpoint_clears(inst, policy_may_skip):
                    # A definitely-taken checkpoint re-restores per its
                    # own metadata; its window is anchored separately.
                    closed = True
                    break
            elif isinstance(inst, Call):
                callee = module.function(inst.callee)
                summary = summaries[inst.callee]
                mapping = call_ref_mapping(inst, callee)
                if target in substitute(summary.vm_entry_reads, mapping):
                    return (label, i, inst.callee)
                if summary.always_clears:
                    closed = True
                    break
        if closed:
            continue
        for succ in cfg.succs.get(label, ()):
            if succ not in seen:
                seen.add(succ)
                worklist.append((succ, 0))
    return None


# -- certifier ------------------------------------------------------------


def certify_consistency(
    module: Module,
    policy: CheckpointPolicy,
    sink: Optional[FindingSink] = None,
    *,
    policy_may_skip: bool = False,
    default_space: MemorySpace = MemorySpace.NVM,
    facts: Optional[RegionFacts] = None,
) -> Certificate:
    """Machine-check the CONS rules for one transformed module under the
    runtime ``policy`` it will execute with.

    ``facts`` may be passed in when the caller already ran the region
    facts pass; findings land in ``sink`` when given. Always returns the
    certificate, violated obligations included.
    """
    if facts is None:
        facts = analyze_regions(
            module,
            policy_may_skip=policy_may_skip,
            default_space=default_space,
        )
    cert = Certificate(technique=policy.name, module=module.name)
    variables = variable_map(module)

    certify_idempotency(module, facts, sink, cert)
    _certify_input_reads(module, facts, cert, sink)
    _certify_restores(
        module, policy, facts, cert, sink,
        variables=variables, policy_may_skip=policy_may_skip,
    )
    return cert


def _emit(sink: Optional[FindingSink], finding: Finding) -> None:
    if sink is not None:
        sink.add(finding)


def certify_idempotency(
    module: Module,
    facts: RegionFacts,
    sink: Optional[FindingSink],
    cert: Optional[Certificate] = None,
) -> None:
    """CONS001 over precomputed region facts: one finding per write that
    may overwrite an exposed read of the same storage, an error when
    the write provably hits the storage the read observed and a warning
    otherwise. With ``cert``, also one obligation per function."""
    rule = RULES["CONS001"]
    events_by_function: Dict[str, List] = {name: [] for name in module.functions}
    for event in facts.events:
        if event.kind != "war":
            continue
        events_by_function[event.function].append(event)
        severity = rule.default_severity if event.definite else Severity.WARNING
        writer = (
            f"call to @{event.via} overwrites" if event.via else "write to"
        )
        what = (
            "the storage" if event.definite else "possibly the storage"
        )
        element = (
            f" element [{event.element}]" if event.element is not None else ""
        )
        _emit(sink, Finding(
            rule_id=rule.rule_id,
            severity=severity,
            location=Location(event.function, event.block, event.index),
            message=(
                f"{writer} @{event.variable}{element} after a read of "
                f"{what} in the same replay region; a re-execution "
                f"observes the first execution's output "
                f"(first-read-before-first-write ordering violated)"
            ),
            details={
                "variable": event.variable,
                "via": event.via,
                "definite": event.definite,
                "element": event.element,
            },
        ))
    if cert is None:
        return
    for name, summary in facts.summaries.items():
        events = events_by_function.get(name, [])
        cert.add(
            "CONS001", name,
            "violated" if events else "discharged",
            facts={
                "region_anchors": facts.anchors.get(name, 0),
                "exposed_reads_at_exit": sorted(
                    f"{n}[{i}]" if i is not None else n
                    for n, i in summary.exposed_at_exit
                ),
                "writes_before_first_checkpoint": len(
                    summary.writes_before_clear
                ),
                "violations": len(events),
            },
        )


def _certify_input_reads(
    module: Module,
    facts: RegionFacts,
    cert: Certificate,
    sink: Optional[FindingSink],
) -> None:
    rule = RULES["CONS002"]
    reads_by_function: Dict[str, List] = {}
    for event in facts.events:
        if event.kind != "env-read":
            continue
        reads_by_function.setdefault(event.function, []).append(event)
        flows = sorted(facts.env_flows.get(event.variable, frozenset()))
        flow_text = (
            f"; the sample flows into {', '.join(flows)}"
            if flows else ""
        )
        _emit(sink, Finding(
            rule_id=rule.rule_id,
            severity=rule.default_severity,
            location=Location(event.function, event.block, event.index),
            message=(
                f"volatile environment input @{event.variable} is "
                f"sampled inside a re-executable region; a replay "
                f"re-samples a world that has moved on{flow_text}"
            ),
            details={
                "variable": event.variable,
                "flows_to": flows,
            },
        ))
    env_vars = sorted(
        var.name for var in module.all_variables() if var.volatile_input
    )
    for name in module.functions:
        events = reads_by_function.get(name, [])
        cert.add(
            "CONS002", name,
            "violated" if events else "discharged",
            facts={
                "environment_inputs": env_vars,
                "sampled_here": sorted({e.variable for e in events}),
                "violations": len(events),
            },
        )


def _certify_restores(
    module: Module,
    policy: CheckpointPolicy,
    facts: RegionFacts,
    cert: Certificate,
    sink: Optional[FindingSink],
    *,
    variables: Dict[str, Variable],
    policy_may_skip: bool,
) -> None:
    cons3 = RULES["CONS003"]
    cons4 = RULES["CONS004"]
    for func in module.functions.values():
        cfg = CFG(func)
        for label, block in func.blocks.items():
            for i, inst in enumerate(block.instructions):
                if not isinstance(inst, CHECKPOINT_KINDS):
                    continue
                anchor = f"ckpt{inst.ckpt_id}"
                allocated = vm_set(inst.alloc_after)
                if not policy.supports_vm:
                    status = "violated" if allocated else "discharged"
                    if allocated:
                        _emit(sink, Finding(
                            rule_id=cons4.rule_id,
                            severity=cons4.default_severity,
                            location=Location(func.name, label, i),
                            message=(
                                f"checkpoint #{inst.ckpt_id} maps "
                                f"{', '.join('@' + n for n in sorted(allocated))} "
                                f"into VM, but technique "
                                f"{policy.name!r} keeps all data in NVM "
                                f"and cannot restore volatile "
                                f"allocations"
                            ),
                            details={
                                "checkpoint": inst.ckpt_id,
                                "variables": sorted(allocated),
                                "technique": policy.name,
                            },
                        ))
                    cert.add(
                        "CONS004", func.name, status,
                        facts={
                            "vm_allocated": sorted(allocated),
                            "technique_supports_vm": False,
                        },
                        anchor=anchor,
                    )
                    continue
                unrestored = sorted(
                    name
                    for name in allocated - set(inst.restore_vars)
                    if not (
                        name in variables and variables[name].is_const
                    )
                )
                reads: Dict[str, Tuple[str, int, Optional[str]]] = {}
                for name in unrestored:
                    hit = _first_read_before_write(
                        module, func, cfg, (label, i + 1), name,
                        facts.summaries, policy_may_skip,
                    )
                    if hit is not None:
                        reads[name] = hit
                for name in unrestored:
                    hit = reads.get(name)
                    if hit is None:
                        continue
                    rblock, rindex, via = hit
                    reader = (
                        f"call to @{via} reads" if via else "read of"
                    )
                    _emit(sink, Finding(
                        rule_id=cons3.rule_id,
                        severity=cons3.default_severity,
                        location=Location(func.name, rblock, rindex),
                        message=(
                            f"{reader} @{name} after the restore of "
                            f"checkpoint #{inst.ckpt_id}, which maps it "
                            f"into VM but omits it from restore_vars; "
                            f"the value is unrestored volatile state"
                        ),
                        details={
                            "variable": name,
                            "checkpoint": inst.ckpt_id,
                            "via": via,
                        },
                    ))
                    _emit(sink, Finding(
                        rule_id=cons4.rule_id,
                        severity=cons4.default_severity,
                        location=Location(func.name, label, i),
                        message=(
                            f"checkpoint #{inst.ckpt_id} maps @{name} "
                            f"into VM but its restore set misses it "
                            f"while it is still live (read before "
                            f"overwrite at {func.name}/.{rblock}"
                            f"[{rindex}])"
                        ),
                        details={
                            "variable": name,
                            "checkpoint": inst.ckpt_id,
                            "read_at": f"{func.name}/.{rblock}[{rindex}]",
                        },
                    ))
                for rule_id in ("CONS003", "CONS004"):
                    cert.add(
                        rule_id, func.name,
                        "violated" if reads else "discharged",
                        facts={
                            "vm_allocated": sorted(allocated),
                            "restore_vars": sorted(inst.restore_vars),
                            "unrestored": unrestored,
                            "unrestored_live": sorted(reads),
                            "discharge": (
                                "every unrestored variable is overwritten "
                                "or checkpointed before any read"
                                if unrestored and not reads else
                                "restore set covers the VM allocation"
                                if not unrestored else ""
                            ),
                        },
                        anchor=anchor,
                    )

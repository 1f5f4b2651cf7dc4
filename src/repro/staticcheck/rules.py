"""The rule catalog: ids, default severities, suppression.

Every diagnostic the checker can emit is declared here with a stable id,
so findings are suppressible (``--suppress ALLOC002``) and re-classifiable
(severity overrides) without touching analysis code. The analyzers emit
*candidate* findings at the rule's default severity; a
:class:`RuleConfig` then drops suppressed rules and rewrites severities
— that is also how the CLI downgrades in-contract-only rules for
techniques whose runtime contract excludes the triggering schedules
(wait mode, ``CheckpointPolicy.wait_for_full_recharge``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from repro.staticcheck.findings import Finding, Severity


@dataclass(frozen=True)
class Rule:
    """One diagnostic the checker can produce."""

    rule_id: str
    title: str
    default_severity: Severity
    description: str


_RULES: List[Rule] = [
    Rule(
        "ENER001",
        "energy window exceeds the budget",
        Severity.ERROR,
        "The worst-case energy consumed between two successive "
        "checkpoints (including the closing save) exceeds the capacitor "
        "budget EB. A wait-mode runtime compiled for EB would die "
        "mid-segment — the forward-progress guarantee (paper 2II-B) "
        "does not hold.",
    ),
    Rule(
        "ENER002",
        "unbounded checkpoint-free loop",
        Severity.ERROR,
        "A loop has a checkpoint-free path from header to latch, no "
        "trip bound, and no conditional latch checkpoint: its "
        "worst-case checkpoint-to-checkpoint energy is unbounded and "
        "cannot be certified against any finite EB.",
    ),
    Rule(
        "BOUND001",
        "unsound @maxiter annotation",
        Severity.ERROR,
        "A loop's declared @maxiter is smaller than its provable trip "
        "count: the value-range analysis derives an exact iteration "
        "count above the annotation. Placement decisions (back-edge "
        "checkpoint elision, numit windows) and the energy certificate "
        "built on the annotation are void — the loop runs longer than "
        "everything downstream assumed.",
    ),
    Rule(
        "BOUND002",
        "inferred bound for unannotated loop",
        Severity.INFO,
        "An unannotated loop has a provable iteration bound. The "
        "inferred bound is applied automatically during placement, so "
        "the loop gets a real numit window and the energy certifier can "
        "close its checkpoint-free windows without an @maxiter "
        "annotation.",
    ),
    Rule(
        "DEAD001",
        "statically unreachable branch",
        Severity.WARNING,
        "The value-range analysis proves one edge of a conditional "
        "branch can never be taken: the condition is constant over "
        "every reachable state. Dead guards often indicate a wrong "
        "comparison or an impossible sentinel test.",
    ),
    Rule(
        "OOB001",
        "provable out-of-bounds array access",
        Severity.ERROR,
        "Every value the index expression can take at this access lies "
        "outside the array's bounds. The access faults (the emulator "
        "traps) on any execution that reaches it.",
    ),
    Rule(
        "CONS001",
        "non-idempotent region observes its own overwrite",
        Severity.ERROR,
        "A re-executed region reads a non-volatile value it already "
        "overwrote: the first-access ordering has a read of some storage "
        "before a write of the same storage with no taken checkpoint in "
        "between (Surbatovich et al.'s WAR/idempotency condition, "
        "element-sensitive for constant array indices and "
        "interprocedural through callee-first summaries). The second "
        "execution observes the first execution's output, so the final "
        "memory state can differ from a continuous-power run.",
    ),
    Rule(
        "CONS002",
        "repeated input read in a re-executable region",
        Severity.ERROR,
        "A volatile environment input (sensor, ADC, RTC) is sampled "
        "inside a region a power failure can re-execute. The environment "
        "does not roll back with the program: the replay re-samples and "
        "may observe a different value, so the two executions of the "
        "region can diverge in control flow or memory state.",
    ),
    Rule(
        "CONS003",
        "post-restore read of unrestored volatile state",
        Severity.ERROR,
        "After a checkpoint's wake/rollback restore, a VM-resident "
        "variable that the checkpoint's restore_vars provably misses is "
        "read before being fully overwritten. The restore rebuilds "
        "volatile memory from the checkpoint metadata only, so the read "
        "observes unrestored (stale or undefined) state.",
    ),
    Rule(
        "CONS004",
        "checkpointed-data/technique mismatch",
        Severity.ERROR,
        "The allocation pass placed a variable in volatile memory that "
        "the technique's restore set provably misses (or the technique "
        "cannot restore volatile allocations at all). The checkpoint "
        "metadata and the runtime's restore semantics disagree about "
        "who rebuilds this variable after a reboot.",
    ),
    Rule(
        "ALLOC001",
        "VM access without residency",
        Severity.ERROR,
        "An instruction accesses a variable in VM, but no checkpoint on "
        "some path to it established VM residency for that variable "
        "(alloc_after). The access faults even under continuous power.",
    ),
    Rule(
        "ALLOC002",
        "NVM access to a VM-resident variable",
        Severity.WARNING,
        "An instruction accesses the NVM home of a variable that is "
        "VM-resident at that point. The NVM copy is stale until the "
        "next checkpoint save flushes it, so the access may observe an "
        "out-of-date value.",
    ),
    Rule(
        "ALLOC003",
        "VM working set exceeds capacity",
        Severity.ERROR,
        "The VM variables a checkpoint's alloc_after maps into volatile "
        "memory do not fit the platform's VM size.",
    ),
    Rule(
        "CKPT001",
        "checkpoint references unknown variable",
        Severity.ERROR,
        "A checkpoint's save_vars/restore_vars/alloc_after names a "
        "variable that does not exist in the module.",
    ),
    Rule(
        "CKPT002",
        "inconsistent checkpoint metadata",
        Severity.WARNING,
        "A checkpoint's restore_vars includes a variable its "
        "alloc_after does not map to VM (the restore would load a "
        "variable that is not supposed to be VM-resident), or its "
        "save_vars includes a variable that cannot be VM-resident.",
    ),
    Rule(
        "TV001",
        "unmatched observable effect",
        Severity.ERROR,
        "Translation validation could not match an observable effect "
        "(a store to corresponding memory, a volatile-input sample, a "
        "call, or observable control flow) between a matched source/"
        "transformed block pair: the transformed module drops, adds or "
        "changes behaviour a continuously powered run can observe, so "
        "it is not a refinement of its source.",
    ),
    Rule(
        "TV002",
        "observable-order divergence",
        Severity.ERROR,
        "A matched block pair performs the same observable effects in "
        "a different order. Reordered stores or samples change the "
        "states a power failure can expose (and, with intervening "
        "reads, the final memory state), so the inferred simulation "
        "relation does not hold.",
    ),
    Rule(
        "TV003",
        "variable-correspondence violation",
        Severity.ERROR,
        "The inferred variable correspondence between source and "
        "transformed module is violated: a private (transformed-only) "
        "value leaks into an observable effect, a privatized local is "
        "live across basic blocks or escapes by reference, or matched "
        "register state diverges at a block exit.",
    ),
    Rule(
        "TV004",
        "checkpoint at a non-cut point",
        Severity.ERROR,
        "A checkpoint was inserted where the simulation relation "
        "cannot be closed: the block matching cannot align the "
        "checkpoint-carrying control flow with the source CFG (e.g. an "
        "edge-split checkpoint block that is not transparent, or a "
        "checkpoint-only cycle).",
    ),
]

RULES: Dict[str, Rule] = {rule.rule_id: rule for rule in _RULES}

#: Version of the rule family + findings schema. Mixed into the
#: content-addressed cache key for staticcheck results so adding or
#: changing a rule invalidates cached reports, and stamped into SARIF
#: output. Bump whenever a rule's semantics, id set, message format or
#: the certificate layout changes.
RULE_SCHEMA_VERSION = 4


def get_rule(rule_id: str) -> Rule:
    try:
        return RULES[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; choose from {sorted(RULES)}"
        ) from None


def render_catalog() -> str:
    """The rule catalog as shown by ``--list-rules``."""
    lines = []
    for rule in _RULES:
        lines.append(f"{rule.rule_id} [{rule.default_severity}] {rule.title}")
        lines.append(f"    {rule.description}")
    return "\n".join(lines)


@dataclass(frozen=True)
class RuleConfig:
    """Suppression and severity policy applied to candidate findings."""

    suppressed: FrozenSet[str] = frozenset()
    severity_overrides: Dict[str, Severity] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for rule_id in list(self.suppressed) + list(self.severity_overrides):
            get_rule(rule_id)  # raises on unknown ids

    def apply(self, finding: Finding) -> Optional[Finding]:
        """The finding as configured, or None when suppressed."""
        if finding.rule_id in self.suppressed:
            return None
        override = self.severity_overrides.get(finding.rule_id)
        if override is None or override == finding.severity:
            return finding
        return Finding(
            rule_id=finding.rule_id,
            severity=override,
            location=finding.location,
            message=finding.message,
            details=finding.details,
        )

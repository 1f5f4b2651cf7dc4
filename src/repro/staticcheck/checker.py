"""The checker facade: run every analysis over one transformed module.

:func:`check_module` is the library entry point; the CLI
(``python -m repro.staticcheck``) and the cross-validation tests both go
through it. It decides which analyses apply from the runtime policy:

- WAR/idempotency (CONS001, on the region facts pass of
  :mod:`repro.analysis.regions`) and residency consistency apply to
  every technique;
- loop-bound verification (BOUND/DEAD/OOB, on the value-range analysis)
  applies to every technique — annotations are wrong or right regardless
  of the runtime;
- energy certification applies only to wait-mode policies — roll-back
  baselines make progress by replaying, so they have no segment-fits-EB
  obligation to certify. The certifier consumes *proven* bounds from the
  range analysis for loops without an ``@maxiter``, so inferable loops
  no longer draw ENER002.
- full memory-consistency certification (opt-in via
  ``consistency=True``) adds CONS002–CONS004 under the runtime policy
  and attaches the proof certificate to the report.
  CONS001 is the same finding either way: both configurations derive it
  from one run of the region facts pass.

Raw findings from the analyzers pass through the :class:`RuleConfig`
(suppression, severity overrides) and come back sorted most-severe
first in a :class:`CheckReport` that renders as text or JSON.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional

from repro import telemetry
from repro.telemetry import metrics
from repro.baselines import CompiledTechnique
from repro.emulator.runtime import CheckpointPolicy
from repro.energy.model import EnergyModel
from repro.energy.platform import Platform
from repro.ir.module import Module
from repro.ir.values import MemorySpace
from repro.analysis.ranges import infer_module_bounds
from repro.analysis.regions import analyze_regions
from repro.staticcheck.alloc import analyze_residency, check_checkpoint_metadata
from repro.staticcheck.bounds import analyze_bounds
from repro.staticcheck.common import (
    CHECKPOINT_KINDS,
    FindingSink,
    iter_instructions,
)
from repro.runner.cache import ArtifactCache
from repro.staticcheck.consistency import (
    certify_consistency,
    certify_idempotency,
)
from repro.staticcheck.energy import certify_energy
from repro.staticcheck.findings import Finding, Severity, merge_findings
from repro.staticcheck.rules import RULE_SCHEMA_VERSION, RuleConfig


@contextmanager
def _family(family: str) -> Iterator[None]:
    """One rule family's instrumentation: a trace span plus, when the
    metrics registry is on, a wall-clock histogram
    ``staticcheck.family_us.<family>`` (microseconds per invocation) so
    rollups show where certification time goes across a full matrix."""
    mm = metrics.get()
    start = time.perf_counter_ns() if mm is not None else 0
    with telemetry.span("staticcheck.family", family=family):
        yield
    if mm is not None:
        mm.histogram(f"staticcheck.family_us.{family}").record(
            (time.perf_counter_ns() - start) / 1000.0
        )


#: The runtime :func:`check_module` assumes without a policy: roll-back,
#: always-taken checkpoints, VM placements allowed (every rule armed).
_UNKNOWN_POLICY = CheckpointPolicy.rollback_mode("unknown")


@dataclass
class CheckReport:
    """Everything one :func:`check_module` run produced."""

    findings: List[Finding] = field(default_factory=list)
    #: Context for the report header / JSON envelope: analysis coverage
    #: and the certified worst-case window when energy ran.
    stats: Dict[str, object] = field(default_factory=dict)

    def max_severity(self) -> Optional[Severity]:
        return max((f.severity for f in self.findings), default=None)

    def count_at_least(self, threshold: Severity) -> int:
        return sum(1 for f in self.findings if f.severity >= threshold)

    def ok(self, threshold: Severity = Severity.ERROR) -> bool:
        """Certified: no finding at or above ``threshold``."""
        return self.count_at_least(threshold) == 0

    def render(self) -> str:
        lines = [f.render() for f in self.findings]
        counts = {s: 0 for s in Severity}
        for f in self.findings:
            counts[f.severity] += 1
        summary = ", ".join(
            f"{n} {s}{'s' if n != 1 else ''}"
            for s, n in sorted(counts.items(), reverse=True)
            if n
        )
        lines.append(f"{len(self.findings)} findings"
                     + (f" ({summary})" if summary else ""))
        if "worst_window_nj" in self.stats:
            lines.append(
                f"worst-case window {self.stats['worst_window_nj']:.1f} nJ "
                f"of EB={self.stats['eb_nj']:g} nJ"
            )
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        return {
            "findings": [f.to_json() for f in self.findings],
            "stats": dict(self.stats),
        }


def check_module(
    module: Module,
    model: Optional[EnergyModel] = None,
    *,
    policy: Optional[CheckpointPolicy] = None,
    eb: Optional[float] = None,
    vm_size: Optional[int] = None,
    default_space: MemorySpace = MemorySpace.NVM,
    config: Optional[RuleConfig] = None,
    consistency: bool = False,
) -> CheckReport:
    """Statically certify one transformed module.

    ``policy`` selects the runtime semantics the module will execute
    under (wait mode vs roll-back, skippable checkpoints, VM support);
    without one, the checker assumes a VM-capable roll-back runtime
    whose checkpoints are always taken, and energy is not certified.
    ``model`` + ``eb`` enable the energy certifier (wait mode only).
    CONS001 (idempotency) always runs; ``consistency=True`` adds the
    rest of the memory-consistency certifier (CONS002–CONS004) under
    that policy; its proof certificate lands in ``stats["certificate"]``.
    """
    config = config or RuleConfig()
    sink = FindingSink()
    policy_may_skip = policy is not None and policy.skip_threshold is not None
    wait_mode = policy is not None and policy.wait_for_full_recharge

    checkpoints = sum(
        1
        for func in module.functions.values()
        for _, _, inst in iter_instructions(func)
        if isinstance(inst, CHECKPOINT_KINDS)
    )

    with _family("metadata"):
        check_checkpoint_metadata(module, sink, vm_size=vm_size)
    if not consistency:
        # With ``consistency`` the full certifier below emits CONS001.
        with _family("idempotency"):
            facts = analyze_regions(
                module,
                policy_may_skip=policy_may_skip,
                default_space=default_space,
            )
            certify_idempotency(module, facts, sink)
    with _family("residency"):
        analyze_residency(
            module, sink,
            policy_may_skip=policy_may_skip, default_space=default_space,
        )
    with _family("bounds"):
        ranges = analyze_bounds(module, sink)

    stats: Dict[str, object] = {
        "functions": len(module.functions),
        "checkpoints": checkpoints,
        "analyses": ["metadata"]
        + ([] if consistency else ["idempotency"])
        + ["residency", "bounds"],
    }
    if consistency:
        with _family("consistency"):
            certificate = certify_consistency(
                module,
                policy or _UNKNOWN_POLICY,
                sink,
                policy_may_skip=policy_may_skip,
                default_space=default_space,
            )
        stats["analyses"].append("consistency")
        stats["consistency"] = certificate.summary()
        stats["certificate"] = certificate.to_json()
    if wait_mode and model is not None and eb is not None:
        with _family("energy"):
            certifier = certify_energy(
                module, model, eb, sink,
                inferred_bounds=infer_module_bounds(module, ranges),
            )
        stats["analyses"].append("energy")
        stats["worst_window_nj"] = round(certifier.worst_window, 3)
        stats["eb_nj"] = eb

    findings = merge_findings([sink.findings], config)
    return CheckReport(findings=findings, stats=stats)


def _report_cache_key(
    compiled: CompiledTechnique,
    platform: Platform,
    config: RuleConfig,
    consistency: bool,
) -> str:
    """Content-addressed key for one (module, technique, platform,
    configuration) checking cell. The module enters as a fingerprint of
    its printed IR, the rule family as :data:`RULE_SCHEMA_VERSION` — so
    editing a program, changing a rule's semantics or reconfiguring
    severities each invalidate exactly the affected entries."""
    from repro.ir.printer import print_module

    return ArtifactCache.key(
        "staticcheck-report",
        RULE_SCHEMA_VERSION,
        ArtifactCache.text_fingerprint(print_module(compiled.module)),
        compiled.name,
        {
            "policy": asdict(compiled.policy),
            "eb": platform.eb,
            "vm_size": platform.vm_size,
            "consistency": consistency,
            "suppressed": sorted(config.suppressed),
            "overrides": {
                rule_id: int(sev)
                for rule_id, sev in sorted(config.severity_overrides.items())
            },
        },
    )


def check_compiled(
    compiled: CompiledTechnique,
    platform: Platform,
    config: Optional[RuleConfig] = None,
    *,
    consistency: bool = False,
    cache: Optional[ArtifactCache] = None,
) -> CheckReport:
    """Certify a :class:`CompiledTechnique` against its own platform —
    the policy it was compiled for, the platform's EB and VM size.

    With ``cache``, the whole :class:`CheckReport` is served from the
    content-addressed artifact cache (category ``staticcheck``) when the
    printed module, rule-schema version, platform and configuration all
    match a previous run.
    """
    config = config or RuleConfig()
    key = None
    if cache is not None:
        key = _report_cache_key(compiled, platform, config, consistency)
        hit = cache.get("staticcheck", key)
        if isinstance(hit, CheckReport):
            return hit
    report = check_module(
        compiled.module,
        platform.model,
        policy=compiled.policy,
        eb=platform.eb,
        vm_size=platform.vm_size,
        config=config,
        consistency=consistency,
    )
    report.stats["technique"] = compiled.name
    if cache is not None and key is not None:
        cache.put("staticcheck", key, report)
    return report


def check_bounds(
    module: Module,
    config: Optional[RuleConfig] = None,
) -> CheckReport:
    """Run only the loop-bound rules over a *source* module.

    This is annotation verification before any placement pass runs:
    BOUND001/BOUND002/DEAD001/OOB001 on the untransformed IR — what
    ``make check-bounds`` gates CI on.
    """
    config = config or RuleConfig()
    sink = FindingSink()
    ranges = analyze_bounds(module, sink)
    loops = sum(
        len(fr.nest.loops) for fr in ranges.functions.values() if fr.nest
    )
    proven = sum(len(fr.trip_bounds) for fr in ranges.functions.values())
    findings = merge_findings([sink.findings], config)
    return CheckReport(
        findings=findings,
        stats={
            "functions": len(module.functions),
            "loops": loops,
            "proven_bounds": proven,
            "analyses": ["bounds"],
        },
    )

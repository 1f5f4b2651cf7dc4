"""Compile-time intermittent-safety checker.

Certifies a transformed module *without executing it*:

- :mod:`repro.staticcheck.energy` — static energy certification: every
  checkpoint-to-checkpoint segment fits the capacitor budget EB;
- :mod:`repro.staticcheck.alloc` — VM-residency consistency between
  accesses and the checkpointed allocation, plus checkpoint metadata
  sanity and VM capacity;
- :mod:`repro.staticcheck.bounds` — loop-bound verification on the
  interprocedural value-range analysis: unsound ``@maxiter``
  annotations, inferred bounds, dead branches and provable
  out-of-bounds array accesses;
- :mod:`repro.staticcheck.consistency` — machine-checked
  memory-consistency certification (the CONS rule family): the
  Surbatovich-style correctness conditions checked against each
  technique's runtime policy, with per-region proof certificates. Its
  WAR/idempotency rule, CONS001 (replay regions that re-execute
  non-idempotently after a power failure), runs in every
  configuration;
- :mod:`repro.staticcheck.transval` — translation validation (the TV
  rule family): every placed module is certified as a refinement of its
  source via an inferred simulation relation
  (:mod:`repro.analysis.simrel`), with per-(function, block-pair) proof
  certificates.

Findings are classified by the rule catalog (:mod:`.rules`), carry
precise locations, and render as text or JSON. Entry points:
:func:`check_module` / :func:`check_compiled` from the library,
``python -m repro.staticcheck`` from a shell. The dynamic
fault-injection testkit (:mod:`repro.testkit`) is the ground truth this
checker is cross-validated against; see ``docs/static-analysis.md``.
"""

from repro.staticcheck.checker import (
    CheckReport,
    check_bounds,
    check_compiled,
    check_module,
)
from repro.staticcheck.consistency import Certificate, certify_consistency
from repro.staticcheck.findings import (
    Finding,
    Location,
    Severity,
    merge_findings,
    sarif_document,
)
from repro.staticcheck.transval import check_translation, validate_translation
from repro.staticcheck.rules import (
    RULES,
    RULE_SCHEMA_VERSION,
    Rule,
    RuleConfig,
    get_rule,
)
from repro.staticcheck.alloc import ResidencySummary, analyze_residency
from repro.staticcheck.bounds import analyze_bounds
from repro.staticcheck.energy import EnergyCertifier, StepEffect, certify_energy

__all__ = [
    "CheckReport",
    "check_compiled",
    "check_module",
    "Finding",
    "Location",
    "Severity",
    "sarif_document",
    "RULES",
    "RULE_SCHEMA_VERSION",
    "Rule",
    "RuleConfig",
    "get_rule",
    "Certificate",
    "certify_consistency",
    "ResidencySummary",
    "analyze_residency",
    "EnergyCertifier",
    "StepEffect",
    "certify_energy",
    "analyze_bounds",
    "check_bounds",
    "check_translation",
    "validate_translation",
    "merge_findings",
]

"""Conviction regression over the known-violation corpus.

``tests/corpus_bad/`` holds checked-in *transformed* modules, each with
one deliberately planted memory-consistency bug (regenerate with
``python tools/gen_corpus_bad.py``; the manifest records how). Every
entry must be convicted twice:

- **statically** — the CONS rule(s) named in the manifest fire when the
  certifier runs under the entry's technique model, and the TV rule(s)
  when the translation validator checks the entry against its *source*
  module;
- **dynamically** — the oracle recipe for the sabotage class observes
  divergent outputs: strict ``metadata`` restores for deleted restore
  sets, a boundary sweep against a same-world reference for repeated
  environment reads, a self-referenced sweep for dirtied NVM writes
  (the injection changes the program's continuous outputs, so the
  untransformed module is not a valid reference), and — for the
  transform-sabotage entries, whose bug changes continuous semantics —
  a plain guarantee-schedule run against the source reference.

The wait-mode entry flagged ``in_contract_info`` checks the §II-B
contract split: the finding downgrades to info under the CLI's
wait-mode configuration, the guarantee-schedule run stays clean, and
only out-of-contract schedules diverge.
"""

import json
from pathlib import Path

import pytest

from repro.emulator import PowerManager
from repro.emulator.interpreter import run_continuous
from repro.energy import msp430fr5969_platform
from repro.ir.printer import print_module
from repro.ir.textparser import parse_ir
from repro.core.verify import run_against_reference
from repro.staticcheck import Severity, check_compiled, check_translation
from repro.staticcheck.rules import RULES, RuleConfig
from repro.testkit.corpus import compile_for, load_program
from repro.testkit.sabotage import mark_volatile_input
from repro.testkit.sweep import record_boundaries, select_points

CORPUS_DIR = Path(__file__).parent / "corpus_bad"
MANIFEST = json.loads((CORPUS_DIR / "manifest.json").read_text())
ENTRIES = MANIFEST["modules"]
EB = MANIFEST["eb"]

CONTRACT_CONFIG = RuleConfig(severity_overrides={
    "CONS001": Severity.INFO, "CONS002": Severity.INFO,
})


def entry_id(entry):
    return entry["file"].removesuffix(".ir")


def load_cell(entry):
    """Parse the checked-in module and rebuild its compilation cell
    (the policy comes from the technique, not the placement, so the
    corpus stays valid under compiler changes)."""
    bench = load_program(entry["program"])
    plat = msp430fr5969_platform(eb=EB)
    compiled = compile_for(
        entry["technique"], bench.module, plat,
        input_generator=bench.input_generator(),
    )
    module = parse_ir((CORPUS_DIR / entry["file"]).read_text())
    compiled.module = module
    return bench, plat, compiled


def count_anomalies(compiled, reference, plat, inputs):
    """Single-failure boundary sweep; anomalies are completed runs with
    divergent outputs (crash-consistency violations)."""
    ref_report = run_continuous(reference, plat.model, inputs=inputs)
    bounds, _ = record_boundaries(
        compiled, plat.model, plat.vm_size, inputs
    )
    points = select_points(bounds, "static")
    assert points, "sweep found no injectable boundaries"
    anomalies = 0
    for point in points:
        result = run_against_reference(
            compiled.module, reference, plat.model, compiled.policy,
            PowerManager.scheduled([point.offset]),
            vm_size=plat.vm_size, inputs=inputs,
            reference_report=ref_report,
        )
        if not result.crash_consistent:
            anomalies += 1
    return anomalies, len(points)


class TestManifest:
    def test_every_file_is_listed_and_round_trips(self):
        listed = {e["file"] for e in ENTRIES}
        on_disk = {p.name for p in CORPUS_DIR.glob("*.ir")}
        assert listed == on_disk
        for entry in ENTRIES:
            text = (CORPUS_DIR / entry["file"]).read_text()
            assert print_module(parse_ir(text)) == text

    def test_expected_rules_exist(self):
        for entry in ENTRIES:
            for rule_id in entry["expect_rules"]:
                assert rule_id in RULES, rule_id


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_id)
def test_static_conviction(entry):
    bench, plat, compiled = load_cell(entry)
    report = check_compiled(compiled, plat, consistency=True)
    fired = {f.rule_id for f in report.findings}
    if any(rule.startswith("TV") for rule in entry["expect_rules"]):
        tv = check_translation(
            bench.module, compiled.module, technique=entry["technique"]
        )
        fired |= {f.rule_id for f in tv.findings}
        report = tv
    missing = set(entry["expect_rules"]) - fired
    assert not missing, (
        f"{entry['file']}: expected {entry['expect_rules']}, "
        f"got {sorted(fired)}:\n{report.render()}"
    )
    if entry.get("in_contract_info"):
        # Under the wait-mode contract the finding is informational …
        contract = check_compiled(
            compiled, plat, config=CONTRACT_CONFIG, consistency=True
        )
        assert contract.ok(), contract.render()
        assert not contract.ok(Severity.INFO)
    else:
        # … everywhere else it gates at default severity.
        assert not report.ok(), report.render()


class TestDynamicConviction:
    def _entry(self, name):
        (entry,) = [e for e in ENTRIES if e["file"] == name]
        return entry

    def test_delete_restore_convicted_by_strict_restores(self):
        entry = self._entry("warloop_schematic_delete_restore.ir")
        bench, plat, compiled = load_cell(entry)
        inputs = bench.default_inputs()
        # The emulator's restore honors exactly the checkpoint metadata
        # the static rule reasons about, and convicts.
        convicted = run_against_reference(
            compiled.module, bench.module, plat.model, compiled.policy,
            PowerManager.energy_budget(EB), vm_size=plat.vm_size,
            inputs=inputs,
        )
        assert not convicted.ok
        assert not convicted.outputs_match or convicted.crashed

    def test_repeated_read_convicted_by_boundary_sweep(self):
        entry = self._entry("warloop_ratchet_repeated_read.ir")
        bench, plat, compiled = load_cell(entry)
        # Both runs must sample the same world: the reference carries
        # the same volatile-input marking as the sabotaged module.
        reference = mark_volatile_input(
            bench.module, entry["detail"]["volatile_input"]
        )
        anomalies, total = count_anomalies(
            compiled, reference, plat, bench.default_inputs()
        )
        assert anomalies > 0, f"0/{total} schedules diverged"

    def test_dirty_write_convicted_by_boundary_sweep(self):
        entry = self._entry("warloop_ratchet_dirty_write.ir")
        bench, plat, compiled = load_cell(entry)
        # The injected increment changes the continuous-power outputs,
        # so the module's own continuous run is the reference: any
        # divergence under a single injected failure is a replay bug.
        anomalies, total = count_anomalies(
            compiled, compiled.module, plat, bench.default_inputs()
        )
        assert anomalies > 0, f"0/{total} schedules diverged"

    @pytest.mark.parametrize("name", [
        "crc_schematic_reordered_store.ir",
        "warloop_schematic_leaked_private.ir",
        "sumloop_ratchet_dropped_store.ir",
    ])
    def test_transform_sabotage_convicted_on_any_schedule(self, name):
        # Transform bugs change continuous-power semantics, so no fault
        # injection is needed: the run diverges from the source
        # reference even on the guarantee schedule.
        entry = self._entry(name)
        bench, plat, compiled = load_cell(entry)
        run = run_against_reference(
            compiled.module, bench.module, plat.model, compiled.policy,
            PowerManager.energy_budget(EB),
            vm_size=plat.vm_size, inputs=bench.default_inputs(),
        )
        assert run.completed, run.failure_reason
        assert not run.outputs_match

    def test_wait_mode_repeated_read_contract_split(self):
        entry = self._entry("sumloop_schematic_repeated_read.ir")
        bench, plat, compiled = load_cell(entry)
        inputs = bench.default_inputs()
        reference = mark_volatile_input(
            bench.module, entry["detail"]["volatile_input"]
        )
        # In contract: the certified budget never fails mid-segment, so
        # the sampling region is never replayed and the run is clean.
        guarantee = run_against_reference(
            compiled.module, reference, plat.model, compiled.policy,
            PowerManager.energy_budget(EB),
            vm_size=plat.vm_size, inputs=inputs,
        )
        assert guarantee.ok, guarantee.failure_reason
        # Out of contract: injected boundary failures replay the sample.
        anomalies, total = count_anomalies(compiled, reference, plat, inputs)
        assert anomalies > 0, f"0/{total} schedules diverged"

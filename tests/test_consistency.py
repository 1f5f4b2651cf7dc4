"""Unit and cross-validation tests for the memory-consistency certifier.

Three layers:

- the region facts pass (:mod:`repro.analysis.regions`) on hand-built IR:
  element-sensitive WAR events, environment-read events and taint flows,
  VM entry reads, and the entry-write shadowing regression (a must-write
  at function entry survives checkpoint clearing when discharging
  ``vm_entry_reads``);
- the CONS rules (:mod:`repro.staticcheck.consistency`) on miniature
  modules with known verdicts, including the certificate artifact and
  the checker facade (suppression, overrides, and one CONS001 verdict
  whether or not the full certifier runs);
- the full corpus × technique matrix held against the dynamic oracle:
  every cell certifies clean under its contract configuration, and the
  emulator's strict restore (poisoning whatever a restore set misses)
  agrees.
"""

import functools
import json

import pytest

from repro.emulator import PowerManager
from repro.emulator.interpreter import run_continuous
from repro.energy import msp430fr5969_platform
from repro.ir.printer import print_module
from repro.ir.textparser import parse_ir
from repro.analysis.regions import analyze_regions
from repro.core.verify import run_against_reference
from repro.runner.cache import ArtifactCache
from repro.staticcheck import (
    RULE_SCHEMA_VERSION,
    Severity,
    certify_consistency,
    check_compiled,
    check_module,
    sarif_document,
)
from repro.staticcheck.checker import CheckReport
from repro.staticcheck.rules import RuleConfig
from repro.baselines import COMPILERS
from repro.testkit.corpus import CORPUS, compile_for, load_program
from repro.testkit.sabotage import strip_checkpoint

EB = 3000.0
TECHNIQUES = sorted(COMPILERS)


def cell(program, technique, eb=EB):
    bench = load_program(program)
    plat = msp430fr5969_platform(eb=eb)
    compiled = compile_for(
        technique, bench.module, plat, input_generator=bench.input_generator()
    )
    return bench, plat, compiled


@functools.lru_cache(maxsize=None)
def policy_of(technique):
    """``technique``'s runtime policy, as its compiler sets it."""
    return cell("sumloop", technique)[2].policy


def contract_config(policy):
    """The CLI's configuration for a technique with runtime ``policy``."""
    if policy.wait_for_full_recharge:
        return RuleConfig(severity_overrides={
            "CONS001": Severity.INFO, "CONS002": Severity.INFO,
        })
    return RuleConfig()


def rules_of(report):
    return sorted({f.rule_id for f in report.findings})


# -- region facts ----------------------------------------------------------


class TestRegionFacts:
    def test_element_sensitive_war(self):
        module = parse_ir("""
module m (entry @main)
global @a:u32[4]

func @main() -> void {
.entry:
    checkpoint #1 save=[] restore=[] vm_after=[] nvm_after=[a]
    %t1:u32 = load.nvm @a[0:i32]
    store.nvm @a[1:i32] = %t1:u32
    store.nvm @a[0:i32] = %t1:u32
    ret
}
""")
        facts = analyze_regions(module)
        wars = [e for e in facts.events if e.kind == "war"]
        # a[1] never read -> no event; a[0] read then written -> war.
        assert [e.element for e in wars] == [0]
        assert wars[0].variable == "a"
        assert wars[0].definite

    def test_distinct_elements_do_not_conflict(self):
        module = parse_ir("""
module m (entry @main)
global @a:u32[4]

func @main() -> void {
.entry:
    checkpoint #1 save=[] restore=[] vm_after=[] nvm_after=[a]
    %t1:u32 = load.nvm @a[0:i32]
    store.nvm @a[1:i32] = %t1:u32
    ret
}
""")
        facts = analyze_regions(module)
        assert [e for e in facts.events if e.kind == "war"] == []

    def test_unknown_index_conflicts_conservatively(self):
        module = parse_ir("""
module m (entry @main)
global @a:u32[4]

func @main() -> void {
  local i: @main.i:i32
.entry:
    checkpoint #1 save=[] restore=[] vm_after=[] nvm_after=[a, main.i]
    %t0:i32 = load.nvm @main.i
    %t1:u32 = load.nvm @a[0:i32]
    store.nvm @a[%t0:i32] = %t1:u32
    ret
}
""")
        facts = analyze_regions(module)
        wars = [e for e in facts.events if e.kind == "war" and
                e.variable == "a"]
        assert len(wars) == 1
        assert not wars[0].definite  # may alias a[0], not proven

    def test_env_read_event_and_taint_flow(self):
        module = parse_ir("""
module m (entry @main)
global @sensor:u32 [volatile_input]
global @out:u32

func @main() -> void {
.entry:
    checkpoint #1 save=[] restore=[] vm_after=[] nvm_after=[out, sensor]
    %t1:u32 = load.nvm @sensor
    %t2:u8 = lt %t1:u32, 10:i32
    branch %t2:u8 ? .low : .high
.low:
    store.nvm @out = %t1:u32
    jump .done
.high:
    jump .done
.done:
    ret
}
""")
        facts = analyze_regions(module)
        envs = [e for e in facts.events if e.kind == "env-read"]
        assert [e.variable for e in envs] == ["sensor"]
        flows = facts.env_flows["sensor"]
        assert "branch" in flows and "memory" in flows

    def test_entry_write_shadows_vm_entry_reads_across_checkpoints(self):
        # Regression: the region must-write set is cleared at taken
        # checkpoints (correct for WAR windows), but a write that
        # happened since *function entry* still shadows later reads for
        # the purpose of vm_entry_reads — the caller's post-restore
        # window cannot reach past a taken checkpoint.
        module = parse_ir("""
module m (entry @main)
global @x:u32

func @main() -> void {
  maxiter .loop = 4
.entry:
    store.vm @x = 1:i32
    jump .loop
.loop:
    checkpoint #1 save=[] restore=[x] vm_after=[x] nvm_after=[]
    %t1:u32 = load.vm @x
    %t2:u8 = lt %t1:u32, 8:i32
    branch %t2:u8 ? .loop : .done
.done:
    ret
}
""")
        facts = analyze_regions(module)
        assert facts.summaries["main"].vm_entry_reads == frozenset()

    def test_unshadowed_vm_read_is_an_entry_read(self):
        module = parse_ir("""
module m (entry @main)
global @x:u32

func @main() -> void {
.entry:
    %t1:u32 = load.vm @x
    store.vm @x = %t1:u32
    ret
}
""")
        facts = analyze_regions(module)
        assert facts.summaries["main"].vm_entry_reads == frozenset({"x"})


# -- CONS rules on miniature modules --------------------------------------


CONS3_SRC = """
module m (entry @main)
global @x:u32
global @y:u32

func @main() -> void {
.entry:
    checkpoint #1 save=[] restore=[%(restore)s] vm_after=[x, y] nvm_after=[]
    %%t1:u32 = load.vm @x
    store.vm @y = %%t1:u32
    checkpoint #2 save=[x, y] restore=[] vm_after=[] nvm_after=[]
    ret
}
"""


class TestConsRules:
    def test_cons003_restore_miss_convicted_at_the_read(self):
        module = parse_ir(CONS3_SRC % {"restore": ""})
        report = check_module(module, consistency=True,
                              policy=policy_of("schematic"))
        assert "CONS003" in rules_of(report)
        assert "CONS004" in rules_of(report)
        cons3 = [f for f in report.findings if f.rule_id == "CONS003"]
        # x is read before any write -> convicted; y is fully written
        # before its first read -> discharged.
        assert {f.details["variable"] for f in cons3} == {"x"}
        assert all(f.severity is Severity.ERROR for f in cons3)

    def test_cons003_discharged_when_restored(self):
        module = parse_ir(CONS3_SRC % {"restore": "x"})
        report = check_module(module, consistency=True,
                              policy=policy_of("schematic"))
        assert "CONS003" not in rules_of(report)
        assert "CONS004" not in rules_of(report)
        cert = report.stats["certificate"]
        assert cert["summary"]["violated"] == 0
        assert cert["summary"]["obligations"] > 0

    def test_cons003_interprocedural_via_callee(self):
        module = parse_ir("""
module m (entry @main)
global @x:u32

func @main() -> void {
.entry:
    checkpoint #1 save=[] restore=[] vm_after=[x] nvm_after=[]
    call @reader()
    ret
}

func @reader() -> void {
.entry:
    %t1:u32 = load.vm @x
    ret
}
""")
        report = check_module(module, consistency=True,
                              policy=policy_of("schematic"))
        cons3 = [f for f in report.findings if f.rule_id == "CONS003"]
        assert len(cons3) == 1
        assert cons3[0].details.get("via") == "reader"

    def test_cons004_technique_without_vm_restore(self):
        # These runtimes keep every variable in NVM: any VM placement is
        # a metadata/semantics mismatch regardless of restore_vars.
        module = parse_ir(CONS3_SRC % {"restore": "x"})
        for technique in ("ratchet", "rockclimb", "allnvm"):
            report = check_module(module, consistency=True,
                                  policy=policy_of(technique))
            cons4 = [f for f in report.findings if f.rule_id == "CONS004"]
            assert [f.details["variables"] for f in cons4] == [["x", "y"]]
            assert cons4[0].details["technique"] == technique

    def test_cons001_definite_self_overwrite(self):
        module = parse_ir("""
module m (entry @main)
global @x:u32

func @main() -> void {
.entry:
    checkpoint #1 save=[] restore=[] vm_after=[] nvm_after=[x]
    %t1:u32 = load.nvm @x
    %t2:u32 = add %t1:u32, 1:i32
    store.nvm @x = %t2:u32
    checkpoint #2 save=[] restore=[] vm_after=[] nvm_after=[]
    ret
}
""")
        report = check_module(module, consistency=True,
                              policy=policy_of("ratchet"))
        cons1 = [f for f in report.findings if f.rule_id == "CONS001"]
        assert len(cons1) == 1
        assert cons1[0].details["definite"]
        assert cons1[0].severity is Severity.ERROR
        # The default configuration reports the very same finding.
        default = check_module(module, policy=policy_of("ratchet"))
        assert [f for f in default.findings if f.rule_id == "CONS001"] == cons1

    def test_cons002_env_read_in_replay_region(self):
        module = parse_ir("""
module m (entry @main)
global @sensor:u32 [volatile_input]
global @out:u32

func @main() -> void {
.entry:
    checkpoint #1 save=[] restore=[] vm_after=[] nvm_after=[out, sensor]
    %t1:u32 = load.nvm @sensor
    store.nvm @out = %t1:u32
    checkpoint #2 save=[] restore=[] vm_after=[] nvm_after=[]
    ret
}
""")
        report = check_module(module, consistency=True,
                              policy=policy_of("mementos"))
        cons2 = [f for f in report.findings if f.rule_id == "CONS002"]
        assert len(cons2) == 1
        assert cons2[0].details["variable"] == "sensor"
        assert "memory" in cons2[0].message

    def test_certificate_structure(self):
        module = parse_ir(CONS3_SRC % {"restore": ""})
        cert = certify_consistency(module, policy_of("schematic"))
        doc = cert.to_json()
        assert doc["technique"] == "schematic"
        assert doc["module"] == "m"
        statuses = {o["status"] for o in doc["obligations"]}
        assert statuses <= {"discharged", "violated"}
        assert doc["summary"]["violated"] >= 1
        anchors = {o.get("anchor") for o in doc["obligations"]
                   if o["rule"] in ("CONS003", "CONS004")}
        assert "ckpt1" in anchors
        json.dumps(doc)  # machine-readable end to end

    def test_policy_table(self):
        # Each compiler's policy is the one statement of its runtime:
        # wait mode for SCHEMATIC's placements, VM placements only where
        # the runtime can hold them.
        table = {
            t: (policy_of(t).wait_for_full_recharge, policy_of(t).supports_vm)
            for t in TECHNIQUES
        }
        assert table == {
            "alfred": (False, True),
            "allnvm": (True, False),
            "mementos": (False, True),
            "ratchet": (False, False),
            "rockclimb": (True, False),
            "schematic": (True, True),
        }
        assert all(policy_of(t).name == t for t in TECHNIQUES)

    def test_no_policy_assumes_vm_capable_rollback(self):
        report = check_module(parse_ir(CONS3_SRC % {"restore": "x"}),
                              consistency=True)
        assert report.stats["certificate"]["technique"] == "unknown"
        assert "CONS004" not in rules_of(report)


# -- checker facade edge cases --------------------------------------------


class TestFacade:
    def _violating_module(self):
        return parse_ir(CONS3_SRC % {"restore": ""})

    def test_cons_rules_gate_exit(self):
        report = check_module(self._violating_module(), consistency=True,
                              policy=policy_of("schematic"))
        assert not report.ok()

    def test_suppression_drops_cons_findings(self):
        config = RuleConfig(suppressed=frozenset({"CONS003", "CONS004"}))
        report = check_module(self._violating_module(), consistency=True,
                              policy=policy_of("schematic"), config=config)
        assert "CONS003" not in rules_of(report)
        assert "CONS004" not in rules_of(report)
        # The certificate still records the violated obligations: the
        # proof artifact is not subject to reporting configuration.
        assert report.stats["certificate"]["summary"]["violated"] >= 1

    def test_severity_override_downgrades_gate(self):
        config = RuleConfig(severity_overrides={
            "CONS003": Severity.INFO, "CONS004": Severity.INFO,
        })
        report = check_module(self._violating_module(), consistency=True,
                              policy=policy_of("schematic"), config=config)
        assert report.ok()
        assert not report.ok(Severity.INFO)

    def test_mixed_families_gate_independently(self):
        # Suppressing CONS001 drops the idempotency finding in both
        # configurations, without dropping its certificate obligation.
        module = parse_ir("""
module m (entry @main)
global @x:u32

func @main() -> void {
.entry:
    checkpoint #1 save=[] restore=[] vm_after=[] nvm_after=[x]
    %t1:u32 = load.nvm @x
    store.nvm @x = %t1:u32
    ret
}
""")
        config = RuleConfig(suppressed=frozenset({"CONS001"}))
        for consistency in (False, True):
            report = check_module(module, consistency=consistency,
                                  policy=policy_of("ratchet"), config=config)
            assert "CONS001" not in rules_of(report)
        assert report.stats["certificate"]["summary"]["violated"] == 1
        baseline = check_module(module, policy=policy_of("ratchet"))
        assert rules_of(baseline) == ["CONS001"]

    def test_consistency_off_reports_unchanged(self):
        module = self._violating_module()
        off = check_module(module, policy=policy_of("schematic"))
        assert "certificate" not in off.stats
        assert "consistency" not in off.stats["analyses"]


# -- content-addressed report cache ---------------------------------------


class TestReportCache:
    def test_cold_then_warm(self, tmp_path):
        _, plat, compiled = cell("warloop", "schematic")
        cache = ArtifactCache(tmp_path)
        first = check_compiled(compiled, plat, consistency=True, cache=cache)
        assert cache.misses == 1 and cache.hits == 0
        second = check_compiled(compiled, plat, consistency=True, cache=cache)
        assert cache.hits == 1
        assert isinstance(second, CheckReport)
        assert second.to_json() == first.to_json()
        assert "staticcheck" in cache.by_category

    def test_consistency_flag_changes_the_key(self, tmp_path):
        _, plat, compiled = cell("warloop", "schematic")
        cache = ArtifactCache(tmp_path)
        check_compiled(compiled, plat, consistency=False, cache=cache)
        report = check_compiled(compiled, plat, consistency=True, cache=cache)
        assert cache.hits == 0 and cache.misses == 2
        assert "certificate" in report.stats

    def test_module_edit_invalidates(self, tmp_path):
        _, plat, compiled = cell("warloop", "schematic")
        cache = ArtifactCache(tmp_path)
        check_compiled(compiled, plat, consistency=True, cache=cache)
        edited = compiled.module.clone()
        func = edited.entry_function
        block = next(iter(func.blocks.values()))
        del block.instructions[0]  # drop the boot checkpoint
        compiled.module = edited
        check_compiled(compiled, plat, consistency=True, cache=cache)
        assert cache.hits == 0 and cache.misses == 2

    def test_config_changes_the_key(self, tmp_path):
        _, plat, compiled = cell("warloop", "schematic")
        cache = ArtifactCache(tmp_path)
        check_compiled(compiled, plat, consistency=True, cache=cache)
        check_compiled(compiled, plat, consistency=True, cache=cache,
                       config=contract_config(compiled.policy))
        assert cache.hits == 0 and cache.misses == 2

    def test_schema_version_is_mixed_in(self, tmp_path, monkeypatch):
        # A bump must invalidate every cached report and restamp SARIF.
        from repro.staticcheck import checker, rules

        _, plat, compiled = cell("warloop", "schematic")
        config = RuleConfig()
        cache = ArtifactCache(tmp_path)
        old_key = checker._report_cache_key(compiled, plat, config, False)
        check_compiled(compiled, plat, config, cache=cache)
        bumped = RULE_SCHEMA_VERSION + 1
        # checker.py binds the version at import; sarif_document reads
        # it from rules.py at call time.
        monkeypatch.setattr(checker, "RULE_SCHEMA_VERSION", bumped)
        monkeypatch.setattr(rules, "RULE_SCHEMA_VERSION", bumped)
        assert checker._report_cache_key(compiled, plat, config, False) \
            != old_key
        report = check_compiled(compiled, plat, config, cache=cache)
        assert cache.hits == 0 and cache.misses == 2
        doc = sarif_document(
            [("warloop", "schematic", f) for f in report.findings]
        )
        assert doc["runs"][0]["tool"]["driver"]["version"] == (
            f"rules-v{bumped}"
        )

    @pytest.mark.parametrize("technique", ["ratchet", "schematic"])
    def test_compiled_module_text_is_hash_seed_stable(self, technique):
        # The report cache is addressed by the printed module, so the
        # compile must be deterministic across interpreter processes.
        # Regression: ratchet used to assign checkpoint ids while
        # iterating a set of placement positions, so ids followed the
        # per-process hash seed and warm runs missed the cache.
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).parent.parent / "src"
        snippet = (
            "from repro.energy import msp430fr5969_platform\n"
            "from repro.testkit.corpus import compile_for, load_program\n"
            "from repro.ir.printer import print_module\n"
            "bench = load_program('warloop')\n"
            "plat = msp430fr5969_platform(eb=3000.0)\n"
            f"c = compile_for('{technique}', bench.module, plat, "
            "input_generator=bench.input_generator())\n"
            "print(print_module(c.module))\n"
        )
        texts = set()
        for seed in ("1", "4242"):
            out = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True, check=True,
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": str(src),
                     "PATH": "/usr/bin:/bin"},
            )
            texts.add(out.stdout)
        assert len(texts) == 1


# -- corpus × technique certification matrix ------------------------------


class TestCorpusCertification:
    CELLS = [(p, t) for p in sorted(CORPUS) for t in TECHNIQUES]

    @pytest.mark.parametrize(
        "program,technique", CELLS,
        ids=[f"{p}-{t}" for p, t in CELLS],
    )
    def test_cell_certifies_clean_in_contract(self, program, technique):
        _, plat, compiled = cell(program, technique)
        if not compiled.feasible:
            pytest.skip("technique declares the program infeasible")
        report = check_compiled(
            compiled, plat, config=contract_config(compiled.policy),
            consistency=True,
        )
        assert report.ok(), report.render()
        cert = report.stats["certificate"]
        gating = [f for f in report.findings
                  if f.rule_id.startswith("CONS")
                  and f.severity is Severity.ERROR]
        assert gating == []
        assert cert["summary"]["obligations"] > 0

    @pytest.mark.parametrize(
        "program,technique", CELLS,
        ids=[f"{p}-{t}" for p, t in CELLS],
    )
    def test_parity_with_baseline_verdict(self, program, technique):
        # Turning the certifier on never flips a cell's verdict under
        # its contract configuration: CONS001 is the same finding either
        # way, and the other CONS rules add no false positives.
        _, plat, compiled = cell(program, technique)
        if not compiled.feasible:
            pytest.skip("technique declares the program infeasible")
        baseline = check_compiled(
            compiled, plat, config=contract_config(compiled.policy)
        )
        certified = check_compiled(
            compiled, plat, config=contract_config(compiled.policy),
            consistency=True,
        )
        assert baseline.ok() == certified.ok()
        assert baseline.ok(Severity.INFO) == certified.ok(Severity.INFO)

    @pytest.mark.parametrize(
        "program,technique", CELLS,
        ids=[f"{p}-{t}" for p, t in CELLS],
    )
    def test_one_idempotency_verdict_in_both_configurations(
        self, program, technique
    ):
        # CONS001 is one analysis: the default configuration and the full
        # certifier report the same findings, on the placed module and
        # on the same module with a load-bearing checkpoint stripped.
        _, plat, compiled = cell(program, technique)
        if not compiled.feasible:
            pytest.skip("technique declares the program infeasible")

        def cons001(consistency):
            report = check_compiled(compiled, plat, consistency=consistency)
            return [
                (f.rule_id, f.location, f.severity, f.details)
                for f in report.findings if f.rule_id == "CONS001"
            ]

        assert cons001(False) == cons001(True)
        compiled.module, _ = strip_checkpoint(compiled.module)
        assert cons001(False) == cons001(True)

    DYNAMIC_CELLS = [
        ("warloop", "schematic"),
        ("warloop", "ratchet"),
        ("warloop", "mementos"),
        ("calls", "schematic"),
        ("calls", "alfred"),
        ("sumloop", "rockclimb"),
    ]

    @pytest.mark.parametrize(
        "program,technique", DYNAMIC_CELLS,
        ids=[f"{p}-{t}" for p, t in DYNAMIC_CELLS],
    )
    def test_discharged_certificate_matches_strict_emulation(
        self, program, technique
    ):
        # Cross-validation of the CONS003/CONS004 discharge: the
        # emulator poisons every non-restored VM variable at each
        # restore, so a wrongly discharged
        # obligation would corrupt the outputs. A clean certificate must
        # therefore imply a clean strict-emulation run.
        bench, plat, compiled = cell(program, technique)
        if not compiled.feasible:
            pytest.skip("technique declares the program infeasible")
        report = check_compiled(
            compiled, plat, config=contract_config(compiled.policy),
            consistency=True,
        )
        assert report.ok(), report.render()
        inputs = bench.default_inputs()
        result = run_against_reference(
            compiled.module,
            bench.module,
            plat.model,
            compiled.policy,
            PowerManager.energy_budget(EB),
            vm_size=plat.vm_size,
            inputs=inputs,
        )
        assert result.crash_consistent, result.failure_reason


# -- strict restores and environment inputs --------------------------------


class TestEmulatorSemantics:
    def test_restore_poisons_unrestored_vm(self):
        # The delete_restore sabotage is convicted by the emulator's
        # restore, which rebuilds exactly restore_vars — the emulator
        # half of CONS003.
        from repro.testkit.sabotage import delete_restore

        bench, plat, compiled = cell("warloop", "schematic")
        broken, _, removed = delete_restore(compiled.module)
        assert removed
        convicted = run_against_reference(
            broken, bench.module, plat.model, compiled.policy,
            PowerManager.energy_budget(EB), vm_size=plat.vm_size,
            inputs=bench.default_inputs(),
        )
        assert not convicted.ok

    def test_env_input_samples_are_monotone(self):
        module = parse_ir("""
module m (entry @main)
global @sensor:u32
global @a:u32
global @b:u32

func @main() -> void {
.entry:
    %t1:u32 = load.nvm @sensor
    store.nvm @a = %t1:u32
    %t2:u32 = load.nvm @sensor
    store.nvm @b = %t2:u32
    ret
}
""")
        module.globals["sensor"].volatile_input = True
        report = run_continuous(module, msp430fr5969_platform(eb=EB).model,
                                inputs={"sensor": [7]})
        # Each load observes base + sample counter: 7, then 8.
        assert report.outputs["a"] == [7]
        assert report.outputs["b"] == [8]

    def test_env_module_rejects_snapshotting(self):
        from repro.emulator.interpreter import Interpreter
        from repro.emulator.runtime import CheckpointPolicy
        from repro.errors import EmulationError

        module = parse_ir("""
module m (entry @main)
global @sensor:u32 [volatile_input]

func @main() -> void {
.entry:
    %t1:u32 = load.nvm @sensor
    ret
}
""")
        interp = Interpreter(
            module,
            msp430fr5969_platform(eb=EB).model,
            CheckpointPolicy.wait_mode("schematic"),
            PowerManager.continuous(),
        )
        with pytest.raises(EmulationError):
            interp.capture_snapshot()

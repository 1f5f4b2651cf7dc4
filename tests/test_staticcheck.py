"""Unit tests for the compile-time intermittent-safety checker.

Each analyzer is exercised on purpose-built miniature modules: the
WAR/idempotency rule CONS001 in the checker's default configuration
(exposure, definite-write shadowing, checkpoint clearing, element
sensitivity, interprocedural hazards), the VM-residency analysis, the
checkpoint metadata checks, the energy certifier, and the findings/rules
plumbing (severities, suppression, deduplication, report rendering).
"""

import json

import pytest

from repro.analysis.regions import analyze_regions
from repro.baselines.common import set_all_spaces
from repro.baselines.ratchet import compile_ratchet
from repro.emulator.runtime import CheckpointPolicy
from repro.frontend import compile_source
from repro.ir.instructions import Checkpoint, CondCheckpoint, Load, Store
from repro.ir.values import MemorySpace
from repro.staticcheck import (
    CheckReport,
    RULES,
    RuleConfig,
    Severity,
    analyze_residency,
    certify_energy,
    check_module,
    get_rule,
)
from repro.staticcheck.alloc import check_checkpoint_metadata
from repro.staticcheck.common import FindingSink
from repro.staticcheck.findings import Finding, Location
from repro.staticcheck.rules import render_catalog

from tests.helpers import MODEL, platform


def war_findings(module, policy=None):
    """The idempotency (CONS001) findings of ``check_module``'s default
    configuration."""
    report = check_module(module, policy=policy)
    return [f for f in report.findings if f.rule_id == "CONS001"]


#: A roll-back policy with a MEMENTOS-style skip heuristic.
SKIP_POLICY = CheckpointPolicy.rollback_mode("skip", skip_threshold=0.5)


def find_instruction(func, kind, var_name):
    for label, block in func.blocks.items():
        for i, inst in enumerate(block.instructions):
            if isinstance(inst, kind) and inst.var.name == var_name:
                return label, i
    raise AssertionError(f"no {kind.__name__} of {var_name}")


WAR_SRC = """
u32 x;
u32 y;
void main() {
    y = x + 1;
    x = x + 1;
}
"""


class TestWarAnalysis:
    def test_scalar_write_after_read_flagged(self):
        module = compile_source(WAR_SRC, "war")
        findings = war_findings(module)
        assert [f.rule_id for f in findings] == ["CONS001"]
        assert findings[0].details["variable"] == "x"
        assert findings[0].severity is Severity.ERROR

    def test_checkpoint_between_clears_the_region(self):
        module = compile_source(WAR_SRC, "war")
        func = module.functions["main"]
        label, i = find_instruction(func, Store, "x")
        func.blocks[label].instructions.insert(
            i, Checkpoint(ckpt_id=1, skippable=False)
        )
        assert war_findings(module) == []

    def test_skippable_checkpoint_clears_only_without_skip_policy(self):
        module = compile_source(WAR_SRC, "war")
        func = module.functions["main"]
        label, i = find_instruction(func, Store, "x")
        func.blocks[label].instructions.insert(
            i, Checkpoint(ckpt_id=1, skippable=True)
        )
        assert war_findings(module) == []
        # Under a MEMENTOS-style skip heuristic the checkpoint may be
        # elided, so the region is not reliably ended.
        flagged = war_findings(module, policy=SKIP_POLICY)
        assert [f.rule_id for f in flagged] == ["CONS001"]

    def test_conditional_checkpoint_never_clears(self):
        module = compile_source(WAR_SRC, "war")
        func = module.functions["main"]
        label, i = find_instruction(func, Store, "x")
        func.blocks[label].instructions.insert(
            i, CondCheckpoint(ckpt_id=1, every=4)
        )
        assert [f.rule_id for f in war_findings(module)] == ["CONS001"]

    def test_write_read_write_is_idempotent(self):
        module = compile_source(
            """
            u32 x;
            u32 y;
            void main() {
                x = 5;
                y = x;
                x = x + 1;
            }
            """,
            "idem",
        )
        # Replays re-execute the leading full write first, so the read
        # always observes the same value (Ratchet's first-access rule).
        assert war_findings(module) == []

    @pytest.mark.parametrize(
        "statement,expected",
        [
            # Different constant elements: the replay is idempotent.
            ("a[0] = a[1] + 1;", None),
            # The write provably hits the element the read observed.
            ("a[1] = a[1] + 1;", Severity.ERROR),
            # A symbolic index may hit it.
            ("a[k] = a[1] + 1;", Severity.WARNING),
        ],
    )
    def test_array_element_write_after_read(self, statement, expected):
        module = compile_source(
            f"i32 a[4];\ni32 k;\nvoid main() {{ {statement} }}", "arr"
        )
        findings = check_module(module).findings
        if expected is None:
            assert findings == []
        else:
            assert [(f.rule_id, f.severity) for f in findings] == [
                ("CONS001", expected)
            ]
            assert findings[0].details["variable"] == "a"

    def test_vm_accesses_are_not_hazards(self):
        module = compile_source(WAR_SRC, "war")
        set_all_spaces(module, MemorySpace.VM)
        assert war_findings(module) == []


CROSS_SRC = """
u32 g;
u32 h;
u32 peek() { return g; }
void poke() { g = 7; }
void main() { h = peek(); poke(); }
"""


class TestInterproceduralWar:
    def test_exposed_read_meets_later_callee_write(self):
        module = compile_source(CROSS_SRC, "cross")
        summaries = analyze_regions(module).summaries
        assert summaries["peek"].exposed_at_exit == {("g", None)}
        assert summaries["poke"].writes_before_clear == {("g", None)}
        assert not summaries["poke"].always_clears
        findings = war_findings(module)
        assert [f.rule_id for f in findings] == ["CONS001"]
        assert findings[0].location.function == "main"
        assert findings[0].details["via"] == "poke"

    def test_callee_checkpoint_discharges_the_hazard(self):
        module = compile_source(CROSS_SRC, "cross")
        poke = module.functions["poke"]
        poke.entry.instructions.insert(
            0, Checkpoint(ckpt_id=1, skippable=False)
        )
        assert analyze_regions(module).summaries["poke"].always_clears
        assert war_findings(module) == []

    def test_ratchet_breaks_cross_call_war_through_callee_locals(self):
        """Regression: a callee's statically allocated locals alias the
        same NVM storage on every call, so a read left exposed by one
        call forms a WAR hazard with the next call's write. RATCHET's
        placement must break it (it used to see only caller-visible
        effect sets and miss it)."""
        module = compile_source(
            """
            u32 r1;
            u32 r2;
            u32 f(u32 x) {
                u32 acc = 0;
                for (i32 i = 0; i < 4; i++) {
                    acc = acc + x;
                }
                return acc;
            }
            void main() {
                r1 = f(3);
                r2 = f(5);
            }
            """,
            "crosslocal",
        )
        compiled = compile_ratchet(module, platform())
        assert war_findings(compiled.module) == []


class TestResidencyAnalysis:
    SRC = """
    u32 x;
    u32 y;
    void main() {
        x = 1;
        y = x + 2;
    }
    """

    def build(self):
        module = compile_source(self.SRC, "res")
        set_all_spaces(module, MemorySpace.NVM)
        func = module.functions["main"]
        label, i = find_instruction(func, Store, "x")
        func.blocks[label].instructions[i].space = MemorySpace.VM
        return module, func

    def residency_findings(self, module):
        sink = FindingSink()
        analyze_residency(module, sink)
        return sink.findings

    def test_vm_access_without_residency(self):
        module, _ = self.build()
        findings = self.residency_findings(module)
        assert [f.rule_id for f in findings] == ["ALLOC001"]
        assert findings[0].details["variable"] == "x"

    def test_checkpoint_establishes_residency(self):
        module, func = self.build()
        func.entry.instructions.insert(
            0,
            Checkpoint(
                ckpt_id=1,
                alloc_after={"x": MemorySpace.VM},
                skippable=False,
            ),
        )
        findings = self.residency_findings(module)
        # The VM store is fine now, but the later NVM load of x observes
        # a stale home while x is VM-resident.
        assert [f.rule_id for f in findings] == ["ALLOC002"]
        label, i = find_instruction(func, Load, "x")
        assert findings[0].location == Location("main", label, i)

    def test_skippable_checkpoint_does_not_establish_residency(self):
        module, func = self.build()
        func.entry.instructions.insert(
            0,
            Checkpoint(
                ckpt_id=1,
                alloc_after={"x": MemorySpace.VM},
                skippable=True,
            ),
        )
        sink = FindingSink()
        analyze_residency(module, sink, policy_may_skip=True)
        assert "ALLOC001" in {f.rule_id for f in sink.findings}


class TestCheckpointMetadata:
    def metadata_findings(self, module, vm_size=None):
        sink = FindingSink()
        check_checkpoint_metadata(module, sink, vm_size=vm_size)
        return sink.findings

    def simple_module(self):
        return compile_source(
            "u32 x;\nu32 y;\nvoid main() { x = 1; y = x; }", "meta"
        )

    def test_unknown_names_and_unallocated_restores(self):
        module = self.simple_module()
        module.functions["main"].entry.instructions.insert(
            0,
            Checkpoint(
                ckpt_id=1,
                save_vars=("ghost",),
                restore_vars=("y",),
                alloc_after={},
                skippable=False,
            ),
        )
        by_rule = {}
        for f in self.metadata_findings(module):
            by_rule.setdefault(f.rule_id, []).append(f.details["variable"])
        assert by_rule["CKPT001"] == ["ghost"]
        # y is restored but alloc_after does not map it to VM.
        assert by_rule["CKPT002"] == ["y"]

    def test_vm_capacity_exceeded(self):
        module = self.simple_module()
        module.functions["main"].entry.instructions.insert(
            0,
            Checkpoint(
                ckpt_id=1,
                alloc_after={
                    "x": MemorySpace.VM,
                    "y": MemorySpace.VM,
                },
                skippable=False,
            ),
        )
        findings = self.metadata_findings(module, vm_size=4)
        assert [f.rule_id for f in findings] == ["ALLOC003"]
        assert findings[0].details["vm_bytes"] == 8
        assert self.metadata_findings(module, vm_size=8) == []

    def test_vm_capacity_exact_fit_is_certified(self):
        # The rule is "exceeds", not "reaches": a working set of exactly
        # vm_size bytes is certified, one byte less of capacity convicts.
        module = self.simple_module()
        module.functions["main"].entry.instructions.insert(
            0,
            Checkpoint(
                ckpt_id=1,
                alloc_after={
                    "x": MemorySpace.VM,
                    "y": MemorySpace.VM,
                },
                skippable=False,
            ),
        )
        assert self.metadata_findings(module, vm_size=8) == []
        findings = self.metadata_findings(module, vm_size=7)
        assert [f.rule_id for f in findings] == ["ALLOC003"]
        assert findings[0].details["vm_bytes"] == 8
        assert findings[0].details["vm_size"] == 7

    def test_zero_byte_vm_platform(self):
        # A platform with no volatile memory at all: NVM-only checkpoints
        # are fine, the first VM mapping of any size convicts.
        module = self.simple_module()
        module.functions["main"].entry.instructions.insert(
            0,
            Checkpoint(
                ckpt_id=1,
                alloc_after={"x": MemorySpace.NVM},
                skippable=False,
            ),
        )
        assert self.metadata_findings(module, vm_size=0) == []
        module = self.simple_module()
        module.functions["main"].entry.instructions.insert(
            0,
            Checkpoint(
                ckpt_id=1,
                alloc_after={"x": MemorySpace.VM},
                skippable=False,
            ),
        )
        findings = self.metadata_findings(module, vm_size=0)
        assert [f.rule_id for f in findings] == ["ALLOC003"]
        assert findings[0].details["vm_bytes"] == 4
        assert findings[0].details["vm_size"] == 0

    def test_vm_capacity_uses_declared_element_counts(self):
        # The working set is sized from the declared variables (count x
        # element width), not from the subset of elements the code
        # happens to touch: u16 table[8] costs 16 bytes even though main
        # reads one element.
        module = compile_source(
            "u16 table[8];\nu32 x;\nvoid main() { x = (u32) table[0]; }",
            "declared",
        )
        module.functions["main"].entry.instructions.insert(
            0,
            Checkpoint(
                ckpt_id=1,
                alloc_after={
                    "table": MemorySpace.VM,
                    "x": MemorySpace.VM,
                },
                skippable=False,
            ),
        )
        assert self.metadata_findings(module, vm_size=20) == []
        findings = self.metadata_findings(module, vm_size=19)
        assert [f.rule_id for f in findings] == ["ALLOC003"]
        assert findings[0].details["vm_bytes"] == 20

    def test_vm_capacity_skips_unknown_names(self):
        # An alloc_after entry naming a variable that does not exist is
        # CKPT001's conviction; the capacity sum counts only declared
        # variables instead of crashing on (or guessing) the ghost.
        module = self.simple_module()
        module.functions["main"].entry.instructions.insert(
            0,
            Checkpoint(
                ckpt_id=1,
                alloc_after={
                    "ghost": MemorySpace.VM,
                    "x": MemorySpace.VM,
                },
                skippable=False,
            ),
        )
        findings = self.metadata_findings(module, vm_size=4)
        assert [f.rule_id for f in findings] == ["CKPT001"]
        findings = self.metadata_findings(module, vm_size=3)
        assert sorted(f.rule_id for f in findings) == ["ALLOC003", "CKPT001"]
        alloc = [f for f in findings if f.rule_id == "ALLOC003"][0]
        assert alloc.details["vm_bytes"] == 4


class TestEnergyCertifier:
    def test_unbounded_checkpoint_free_loop(self):
        module = compile_source(
            """
            u32 x;
            u32 y;
            void main() {
                while (x != 0) {
                    x = x >> 1;
                }
                y = 1;
            }
            """,
            "unb",
        )
        set_all_spaces(module, MemorySpace.NVM)
        sink = FindingSink()
        certify_energy(module, MODEL, 3000.0, sink)
        assert [f.rule_id for f in sink.findings] == ["ENER002"]
        # Reported at the loop header, without an instruction index.
        assert sink.findings[0].location.index is None

    def test_certified_window_is_tight(self, schematic_sumloop):
        compiled, plat = schematic_sumloop
        sink = FindingSink()
        certifier = certify_energy(
            compiled.module, plat.model, plat.eb, sink
        )
        assert sink.findings == []
        worst = certifier.worst_window
        assert 0 < worst <= plat.eb

        # Just above the measured worst case: still certified.
        sink = FindingSink()
        certify_energy(compiled.module, plat.model, worst + 1.0, sink)
        assert sink.findings == []

        # Just below: the same window is now over budget.
        sink = FindingSink()
        certify_energy(compiled.module, plat.model, worst * 0.99, sink)
        assert {f.rule_id for f in sink.findings} == {"ENER001"}


@pytest.fixture(scope="module")
def schematic_sumloop():
    from repro.testkit.corpus import compile_for, load_program

    bench = load_program("sumloop")
    plat = platform()
    compiled = compile_for(
        "schematic",
        bench.module,
        plat,
        input_generator=bench.input_generator(),
    )
    return compiled, plat


class TestFindingsAndRules:
    def test_severity_parse(self):
        assert Severity.parse(" Error ") is Severity.ERROR
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
        with pytest.raises(ValueError, match="warning"):
            Severity.parse("fatal")

    def test_get_rule_lists_choices(self):
        with pytest.raises(KeyError, match="CONS001"):
            get_rule("NOPE999")

    def test_catalog_covers_every_rule(self):
        catalog = render_catalog()
        for rule_id in RULES:
            assert rule_id in catalog

    def test_rule_config_rejects_unknown_ids(self):
        with pytest.raises(KeyError):
            RuleConfig(suppressed=frozenset({"NOPE999"}))
        with pytest.raises(KeyError):
            RuleConfig(severity_overrides={"NOPE999": Severity.INFO})

    def test_rule_config_suppresses_and_overrides(self):
        finding = Finding(
            rule_id="CONS001",
            severity=Severity.ERROR,
            location=Location("main", "entry", 0),
            message="m",
        )
        assert RuleConfig(suppressed=frozenset({"CONS001"})).apply(finding) is None
        demoted = RuleConfig(
            severity_overrides={"CONS001": Severity.INFO}
        ).apply(finding)
        assert demoted.severity is Severity.INFO
        assert demoted.rule_id == "CONS001"
        untouched = RuleConfig().apply(finding)
        assert untouched is finding

    def test_finding_sink_deduplicates(self):
        sink = FindingSink()
        finding = Finding(
            rule_id="CONS001",
            severity=Severity.ERROR,
            location=Location("main", "entry", 0),
            message="m",
        )
        sink.add(finding)
        sink.add(finding)
        assert len(sink.findings) == 1

    def test_location_and_finding_render(self):
        location = Location("main", "body", 3)
        assert str(location) == "@main/.body[3]"
        finding = Finding(
            rule_id="CONS001",
            severity=Severity.ERROR,
            location=location,
            message="boom",
        )
        assert finding.render() == "CONS001 error @main/.body[3]: boom"

    def test_findings_sort_most_severe_first(self):
        info = Finding("ALLOC002", Severity.INFO, Location("a"), "i")
        error = Finding("CONS001", Severity.ERROR, Location("z"), "e")
        ordered = sorted([info, error], key=Finding.sort_key)
        assert ordered[0] is error


class TestCheckModule:
    def test_report_gating_thresholds(self):
        module = compile_source(WAR_SRC, "war")
        report = check_module(module)
        assert not report.ok()
        assert report.ok(Severity.ERROR) is False
        assert report.max_severity() is Severity.ERROR
        demoted = check_module(
            module,
            config=RuleConfig(severity_overrides={"CONS001": Severity.INFO}),
        )
        assert demoted.ok()
        assert not demoted.ok(Severity.INFO)

    def test_energy_runs_only_for_wait_mode(self, schematic_sumloop):
        compiled, plat = schematic_sumloop
        report = check_module(
            compiled.module,
            plat.model,
            policy=compiled.policy,
            eb=plat.eb,
            vm_size=plat.vm_size,
        )
        assert "energy" in report.stats["analyses"]
        assert report.stats["worst_window_nj"] <= plat.eb

        from repro.emulator.runtime import CheckpointPolicy

        rollback = check_module(
            compiled.module,
            plat.model,
            policy=CheckpointPolicy.rollback_mode("x"),
            eb=plat.eb,
            vm_size=plat.vm_size,
        )
        assert "energy" not in rollback.stats["analyses"]

    def test_report_render_and_json(self):
        module = compile_source(WAR_SRC, "war")
        report = check_module(module)
        text = report.render()
        assert "CONS001" in text
        assert "1 error" in text
        doc = json.loads(json.dumps(report.to_json()))
        assert doc["findings"][0]["rule"] == "CONS001"
        assert doc["stats"]["functions"] == 1

    def test_clean_module_report(self):
        module = compile_source(
            "u32 x;\nvoid main() { x = 1; }", "clean"
        )
        report = check_module(module)
        assert report.ok(Severity.INFO)
        assert report.findings == []
        assert report.max_severity() is None
        assert "0 findings" in report.render()


class TestMergeFindings:
    """The canonical merged-path normalization (satellite of the TV
    work): suppression is decided strictly before severity overrides,
    so a rule that is both suppressed and overridden stays suppressed
    on every merged path."""

    def _finding(self, rule_id, severity, function="f", message="m"):
        return Finding(
            rule_id=rule_id, severity=severity,
            location=Location(function), message=message,
        )

    def test_suppressed_and_overridden_rule_stays_suppressed(self):
        from repro.staticcheck import merge_findings

        config = RuleConfig(
            suppressed=frozenset({"CONS001"}),
            severity_overrides={"CONS001": Severity.INFO},
        )
        groups = [
            [self._finding("CONS001", Severity.ERROR)],
            [self._finding("CONS001", Severity.ERROR, function="g")],
        ]
        assert merge_findings(groups, config) == []

    def test_merge_applies_overrides_and_sorts_severity_major(self):
        from repro.staticcheck import merge_findings

        config = RuleConfig(severity_overrides={"ALLOC002": Severity.ERROR})
        merged = merge_findings(
            [
                [self._finding("ENER002", Severity.INFO, function="b")],
                [self._finding("ALLOC002", Severity.WARNING, function="a")],
            ],
            config,
        )
        # The override promotes ALLOC002 above the info finding, and the
        # result is sorted most-severe first regardless of group order.
        assert [(f.rule_id, f.severity) for f in merged] == [
            ("ALLOC002", Severity.ERROR),
            ("ENER002", Severity.INFO),
        ]

    def test_merge_without_config_only_sorts(self):
        from repro.staticcheck import merge_findings

        one = self._finding("CONS001", Severity.ERROR)
        two = self._finding("ALLOC002", Severity.WARNING)
        assert merge_findings([[two], [one]]) == [one, two]

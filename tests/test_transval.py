"""Translation validation: the simulation-relation inference
(:mod:`repro.analysis.simrel`), the TV rule family
(:mod:`repro.staticcheck.transval`), the CLI modes that expose them,
and the default-on silent validation hook in :mod:`repro.core.verify`.

The positive direction certifies real placements — every corpus program
under the placing techniques discharges all obligations with a
checkable certificate. The negative direction uses the transform
sabotage battery to pin each mismatch kind to its rule: TV001 for an
unmatched observable effect, TV002 for order divergence, TV003 for a
correspondence violation, and checkpoint erasure as the reason a
stripped checkpoint is *not* a TV finding.
"""

import json

import pytest

from repro.analysis.simrel import (
    KIND_CORRESPONDENCE,
    KIND_EFFECT,
    KIND_ORDER,
    KIND_STRUCTURE,
    PairOutcome,
    infer_correspondence,
    infer_simulation,
)
from repro.core import verify
from repro.energy import msp430fr5969_platform
from repro.ir.printer import print_module
from repro.ir.textparser import parse_ir
from repro.runner.cache import ArtifactCache
from repro.staticcheck import check_translation, validate_translation
from repro.staticcheck.__main__ import main as cli_main
from repro.staticcheck.common import FindingSink
from repro.staticcheck.rules import RuleConfig
from repro.staticcheck.transval import rule_for
from repro.testkit.corpus import compile_for, load_program
from repro.testkit.sabotage import (
    drop_store,
    leak_privatized_local,
    reorder_observable_store,
    strip_checkpoint,
)

EB = 3000.0

#: (program, technique) cells spanning wait-mode placement, roll-back
#: instrumentation and the no-op baseline; the full grid runs in the
#: deep suite and in CI's transval-equivalence job.
CELLS = [
    ("sumloop", "schematic"),
    ("warloop", "schematic"),
    ("crc", "ratchet"),
    ("calls", "ratchet"),
    ("branchy", "allnvm"),
]


def compile_cell(program, technique):
    bench = load_program(program)
    plat = msp430fr5969_platform(eb=EB)
    compiled = compile_for(
        technique, bench.module, plat,
        input_generator=bench.input_generator(),
    )
    assert compiled.feasible
    return bench, compiled


def clone(module):
    return parse_ir(print_module(module))


class TestSimulationRelation:
    @pytest.mark.parametrize("program,technique", CELLS)
    def test_real_placements_refine_their_source(self, program, technique):
        bench, compiled = compile_cell(program, technique)
        relation = infer_simulation(bench.module, compiled.module)
        assert relation.refines
        assert not relation.missing_functions
        # Callee-first composition certifies every function.
        for name, rel in relation.functions.items():
            assert rel.certified, name
            assert relation.certified(name)
        assert set(relation.functions) == set(bench.module.functions)

    def test_schematic_placement_erases_checkpoints(self):
        bench, compiled = compile_cell("warloop", "schematic")
        relation = infer_simulation(bench.module, compiled.module)
        assert sum(
            rel.erased_checkpoints for rel in relation.functions.values()
        ) > 0

    def test_module_refines_itself(self):
        bench = load_program("sumloop")
        relation = infer_simulation(bench.module, clone(bench.module))
        assert relation.refines
        corr = relation.correspondence
        assert not corr.private
        assert all(t == s for t, s in corr.to_source.items())

    def test_stripped_checkpoint_is_not_a_tv_violation(self):
        # Checkpoints are erased by the relation: removing one changes
        # the failure-atomicity story (the consistency certifier's job),
        # not the continuous-power observable semantics.
        bench, compiled = compile_cell("warloop", "schematic")
        broken, _site = strip_checkpoint(compiled.module)
        assert infer_simulation(bench.module, broken).refines

    def test_missing_function_breaks_refinement(self):
        bench, compiled = compile_cell("calls", "ratchet")
        pruned = clone(compiled.module)
        del pruned.functions["weight"]
        relation = infer_simulation(bench.module, pruned)
        assert relation.missing_functions == ["weight"]
        assert not relation.refines

    def test_correspondence_maps_privatized_names(self):
        bench, compiled = compile_cell("crc", "ratchet")
        corr = infer_correspondence(bench.module, compiled.module)
        # Every source global has a transformed counterpart …
        mapped = set(corr.to_source.values())
        for name in bench.module.globals:
            assert name in mapped, name
        # … and nothing maps onto a name the source does not have.
        source_names = set(bench.module.globals) | {
            var.name
            for func in bench.module.functions.values()
            for var in func.variables.values()
        }
        for _t, s in corr.to_source.items():
            assert s in source_names, s


class TestRuleMapping:
    def _pair(self, kind, checkpoint_involved=False):
        return PairOutcome(
            function="main", source_block="entry",
            transformed_block="entry", status="violated",
            kind=kind, checkpoint_involved=checkpoint_involved,
        )

    def test_kind_to_rule(self):
        assert rule_for(self._pair(KIND_EFFECT)) == "TV001"
        assert rule_for(self._pair(KIND_ORDER)) == "TV002"
        assert rule_for(self._pair(KIND_CORRESPONDENCE)) == "TV003"

    def test_structure_escalates_only_with_a_checkpoint(self):
        assert rule_for(self._pair(KIND_STRUCTURE)) == "TV001"
        assert rule_for(
            self._pair(KIND_STRUCTURE, checkpoint_involved=True)
        ) == "TV004"

    @pytest.mark.parametrize("program,technique,sabotage,rule", [
        ("crc", "schematic", reorder_observable_store, "TV002"),
        ("warloop", "schematic", leak_privatized_local, "TV003"),
        ("sumloop", "ratchet", drop_store, "TV001"),
    ])
    def test_transform_sabotage_draws_its_rule(
        self, program, technique, sabotage, rule
    ):
        bench, compiled = compile_cell(program, technique)
        broken, _where = sabotage(compiled.module)
        sink = FindingSink()
        cert = validate_translation(
            bench.module, broken, sink, technique=technique
        )
        fired = {f.rule_id for f in sink.findings}
        assert rule in fired, sorted(fired)
        assert cert.summary()["violated"] > 0

    def test_missing_function_finding(self):
        bench, compiled = compile_cell("calls", "ratchet")
        pruned = clone(compiled.module)
        del pruned.functions["weight"]
        sink = FindingSink()
        validate_translation(bench.module, pruned, sink)
        missing = [f for f in sink.findings if f.details.get("missing")]
        assert [f.location.function for f in missing] == ["weight"]
        assert all(f.rule_id == "TV001" for f in missing)


class TestCheckTranslation:
    def test_clean_report_carries_the_certificate(self):
        bench, compiled = compile_cell("sumloop", "schematic")
        report = check_translation(
            bench.module, compiled.module, technique="schematic"
        )
        assert report.ok(), report.render()
        assert report.stats["analyses"] == ["transval"]
        summary = report.stats["transval"]
        assert summary["violated"] == 0
        assert summary["discharged"] == summary["obligations"] > 0
        cert = report.stats["certificate"]
        assert cert["technique"] == "schematic"
        assert cert["module"] == compiled.module.name
        assert cert["summary"] == summary
        for obligation in cert["obligations"]:
            assert obligation["status"] == "discharged"
            assert ":." in obligation["anchor"]
        assert (
            report.stats["certified_functions"] == report.stats["functions"]
        )

    def test_violating_pair_report_gates(self):
        bench, compiled = compile_cell("sumloop", "ratchet")
        broken, _ = drop_store(compiled.module)
        report = check_translation(bench.module, broken)
        assert not report.ok()
        assert {f.rule_id for f in report.findings} <= {
            "TV001", "TV002", "TV003", "TV004",
        }
        # Findings anchor at the transformed side.
        for finding in report.findings:
            assert finding.location.function

    def test_suppression_flows_through_the_merged_path(self):
        bench, compiled = compile_cell("sumloop", "ratchet")
        broken, _ = drop_store(compiled.module)
        loud = check_translation(bench.module, broken)
        fired = {f.rule_id for f in loud.findings}
        config = RuleConfig(suppressed=frozenset(fired))
        quiet = check_translation(bench.module, broken, config)
        assert quiet.findings == []
        # The certificate still records the violated obligations.
        assert quiet.stats["transval"]["violated"] > 0

    def test_cache_round_trip_and_invalidation(self, tmp_path):
        bench, compiled = compile_cell("sumloop", "schematic")
        cache = ArtifactCache(tmp_path / "cache")
        first = check_translation(
            bench.module, compiled.module,
            technique="schematic", cache=cache,
        )
        assert cache.stores == 1 and cache.hits == 0
        second = check_translation(
            bench.module, compiled.module,
            technique="schematic", cache=cache,
        )
        assert cache.hits == 1
        assert second.to_json() == first.to_json()
        # Editing the transformed side misses: the key covers both texts.
        broken, _ = drop_store(compiled.module)
        third = check_translation(
            bench.module, broken, technique="schematic", cache=cache,
        )
        assert cache.stores == 2
        assert not third.ok()


class TestCli:
    def _pair_on_disk(self, tmp_path, broken=False):
        bench, compiled = compile_cell("sumloop", "ratchet")
        module = compiled.module
        if broken:
            module, _ = drop_store(module)
        src = tmp_path / "src.ir"
        xf = tmp_path / "placed.ir"
        src.write_text(print_module(bench.module))
        xf.write_text(print_module(module))
        return str(src), str(xf)

    def test_transval_mode_certifies_a_clean_pair(self, tmp_path, capsys):
        src, xf = self._pair_on_disk(tmp_path)
        assert cli_main(["--transval", src, xf, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "certified" in out
        assert "obligations discharged" in out

    def test_transval_mode_gates_a_broken_pair(self, tmp_path, capsys):
        src, xf = self._pair_on_disk(tmp_path, broken=True)
        assert cli_main(["--transval", src, xf, "--no-cache"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_transval_json_document(self, tmp_path, capsys):
        src, xf = self._pair_on_disk(tmp_path)
        argv = ["--transval", src, xf, "--no-cache", "--json"]
        assert cli_main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "certified"
        assert doc["source"] == src and doc["transformed"] == xf
        assert doc["stats"]["transval"]["violated"] == 0

    def test_transval_sarif_document(self, tmp_path, capsys):
        src, xf = self._pair_on_disk(tmp_path, broken=True)
        argv = ["--transval", src, xf, "--no-cache", "--format", "sarif"]
        assert cli_main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert results
        assert all(r["ruleId"].startswith("TV") for r in results)

    def test_transval_missing_file_is_a_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.ir")
        argv = ["--transval", missing, missing, "--no-cache"]
        assert cli_main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_all_mode_merges_the_transval_family(self, capsys):
        argv = ["--all", "--programs", "sumloop", "--json", "--no-cache"]
        assert cli_main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        (report,) = doc["reports"]
        assert report["verdict"] == "certified"
        assert "transval" in report["stats"]["analyses"]
        assert report["stats"]["transval"]["violated"] == 0
        cert = report["stats"]["transval_certificate"]
        assert cert["summary"]["obligations"] > 0


class TestDefaultOnValidation:
    @pytest.fixture(autouse=True)
    def _fresh_counters(self):
        verify.reset_transval_stats()
        yield
        verify.reset_transval_stats()

    def test_validate_placement_counts_and_memoizes(self):
        bench, compiled = compile_cell("sumloop", "schematic")
        # The memo is keyed on object identity: hold one source module
        # across both calls.
        source = bench.module
        assert verify.validate_placement(source, compiled.module)
        stats = verify.transval_stats()
        assert stats["validated"] == 1
        assert stats["certified"] == 1
        assert stats["memo_hits"] == 0
        # The identity-keyed memo serves the repeat without re-inference.
        assert verify.validate_placement(source, compiled.module)
        stats = verify.transval_stats()
        assert stats["validated"] == 1
        assert stats["memo_hits"] == 1

    def test_validate_placement_counts_violations(self):
        bench, compiled = compile_cell("sumloop", "ratchet")
        broken, _ = drop_store(compiled.module)
        assert verify.validate_placement(bench.module, broken) is False
        assert verify.transval_stats()["violations"] == 1

    def test_oracle_hook_validates_silently(self):
        bench, compiled = compile_cell("sumloop", "schematic")
        plat = msp430fr5969_platform(eb=EB)
        from repro.emulator import PowerManager

        result = verify.run_against_reference(
            compiled.module, bench.module, plat.model, compiled.policy,
            PowerManager.energy_budget(EB),
            vm_size=plat.vm_size, inputs=bench.default_inputs(),
        )
        assert result.ok, result.failure_reason
        stats = verify.transval_stats()
        assert stats["validated"] == 1
        assert stats["certified"] == 1

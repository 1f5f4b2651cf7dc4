"""CLI tests and static<->dynamic cross-validation for the checker.

The CLI follows the testkit conventions: exit 0 when every module is
certified, 1 on gating findings (or a missed sabotage), 2 with a
valid-choices listing on unknown program/technique/rule/severity names.

The cross-validation tests hold the two oracles against each other on
the same compiled modules:

- *in-contract* (the energy-budget schedule the module was compiled
  for): the static wait-mode verdict must match the dynamic guarantee
  run;
- *out-of-contract* (failures injected at arbitrary boundaries): the
  static WAR/idempotency rule CONS001 at default severity must flag
  exactly the modules whose injection sweep reports memory anomalies.
"""

import json

import pytest

from repro.emulator import PowerManager
from repro.energy import msp430fr5969_platform
from repro.core.verify import run_against_reference
from repro.emulator.interpreter import run_continuous
from repro.staticcheck import Severity, check_compiled, check_module
from repro.staticcheck.__main__ import main
from repro.staticcheck.rules import RuleConfig
from repro.testkit.corpus import compile_for, load_program
from repro.testkit.oracle import OUTCOME_OK, check_schedule, classify
from repro.testkit.sabotage import strip_checkpoint
from repro.testkit.sweep import (
    record_boundaries,
    select_points,
    sweep_technique,
)


def wait_mode_config(policy):
    """The CLI's per-technique configuration: replay findings are
    informational for wait-mode runtimes (in-contract replays never
    happen under the certified budget)."""
    if policy.wait_for_full_recharge:
        return RuleConfig(
            severity_overrides={
                "CONS001": Severity.INFO,
                "CONS002": Severity.INFO,
            }
        )
    return RuleConfig()


class TestCliExitCodes:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "CONS001" in out and "ENER001" in out

    def test_unknown_program_lists_choices(self, capsys):
        assert main(["--programs", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "nosuch" in err and "sumloop" in err

    def test_unknown_technique_lists_choices(self, capsys):
        assert main(["--programs", "sumloop", "--techniques", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "nosuch" in err and "schematic" in err

    def test_unknown_suppress_rule(self, capsys):
        assert main(["--programs", "sumloop", "--suppress", "NOPE999"]) == 2
        assert "CONS001" in capsys.readouterr().err

    @pytest.mark.parametrize("number", [1, 2])
    def test_stale_suppress_rule_rejected_before_compiling(
        self, capsys, monkeypatch, number
    ):
        # An id outside the catalog, such as a retired WAR rule, must
        # be rejected before the matrix compiles its first cell.
        def no_compile(*args, **kwargs):
            raise AssertionError("compiled before validating --suppress")

        monkeypatch.setattr(
            "repro.staticcheck.__main__.compile_for", no_compile
        )
        stale = f"WAR{number:03d}"
        argv = ["--programs", "aes", "--techniques", "schematic",
                "--suppress", stale]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert stale in err and "CONS001" in err

    def test_unknown_fail_on_severity(self, capsys):
        assert main(["--programs", "sumloop", "--fail-on", "fatal"]) == 2
        assert "fatal" in capsys.readouterr().err


class TestCliCertification:
    def test_corpus_schematic_certified(self, capsys):
        assert main(["--programs", "sumloop,warloop"]) == 0
        out = capsys.readouterr().out
        assert out.count("certified") == 2
        assert "worst-case window" in out

    def test_rollback_baseline_certified(self, capsys):
        assert main(["--programs", "warloop", "--techniques", "ratchet"]) == 0
        assert "certified" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert main(["--programs", "sumloop", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["failures"] == 0
        (report,) = doc["reports"]
        assert report["program"] == "sumloop"
        assert report["technique"] == "schematic"
        assert report["verdict"] == "certified"
        assert report["stats"]["worst_window_nj"] <= 3000.0

    def test_bounds_mode_verifies_source_modules(self, capsys):
        assert main(["--bounds", "--programs", "sumloop,calls"]) == 0
        out = capsys.readouterr().out
        assert out.count("verified") == 2
        assert "loop bounds proven" in out

    def test_bounds_mode_json(self, capsys):
        argv = ["--bounds", "--programs", "sumloop", "--json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["failures"] == 0
        (report,) = doc["reports"]
        assert report["verdict"] == "verified"
        assert report["stats"]["analyses"] == ["bounds"]
        assert report["stats"]["proven_bounds"] == 1

    def test_fail_on_info_gates_wait_mode_war_exposure(self, capsys):
        # The all-NVM wait-mode baseline leaves warloop's scalars in NVM;
        # their WAR exposure is informational (the recharge contract
        # excludes mid-segment failures) but gates at --fail-on info.
        argv = ["--programs", "warloop", "--techniques", "allnvm"]
        assert main(argv) == 0
        assert "CONS001 info" in capsys.readouterr().out
        assert main(argv + ["--fail-on", "info"]) == 1
        assert "FAILED" in capsys.readouterr().out


class TestCrossValidation:
    """The static verdicts against the dynamic fault-injection oracle."""

    CELLS = [
        ("sumloop", "schematic"),
        ("warloop", "schematic"),
        ("warloop", "ratchet"),
        ("calls", "ratchet"),
    ]

    @pytest.mark.parametrize("program,technique", CELLS)
    def test_certified_cells_survive_the_dynamic_sweep(
        self, program, technique
    ):
        plat = msp430fr5969_platform(eb=3000.0)
        bench = load_program(program)
        compiled = compile_for(
            technique,
            bench.module,
            plat,
            input_generator=bench.input_generator(),
        )
        report = check_compiled(
            compiled, plat, config=wait_mode_config(compiled.policy)
        )
        result = sweep_technique(
            program, technique, eb=3000.0, granularity="static"
        )
        assert report.ok() == result.ok, (
            f"static says ok={report.ok()} but the dynamic sweep says "
            f"ok={result.ok}:\n{report.render()}\n{result.render()}"
        )
        assert report.ok(), report.render()

    def test_sabotaged_module_consistency(self):
        """One stripped checkpoint, both oracles, same module.

        At eb=150 the merged segment still fits the budget, so the
        *in-contract* verdicts agree on 'safe': the static wait-mode
        report stays clean and the guarantee-schedule run sees zero
        failures. The *out-of-contract* verdicts agree on 'broken': the
        static idempotency rule flags the exposed scalars at default
        severity, and injecting failures at the swept boundaries
        produces memory anomalies."""
        eb = 150.0
        plat = msp430fr5969_platform(eb=eb)
        bench = load_program("warloop")
        compiled = compile_for(
            "schematic",
            bench.module,
            plat,
            input_generator=bench.input_generator(),
        )
        broken, site = strip_checkpoint(compiled.module)
        compiled.module = broken

        # Static, in-contract (wait-mode replay downgrade): certified.
        in_contract = check_module(
            broken,
            plat.model,
            policy=compiled.policy,
            eb=eb,
            vm_size=plat.vm_size,
            config=wait_mode_config(compiled.policy),
        )
        assert in_contract.ok(), in_contract.render()
        assert in_contract.stats["worst_window_nj"] <= eb

        # Static, out-of-contract (default severities): CONS001 exposure.
        out_of_contract = check_module(
            broken,
            plat.model,
            policy=compiled.policy,
            eb=eb,
            vm_size=plat.vm_size,
        )
        assert not out_of_contract.ok()
        assert "CONS001" in {f.rule_id for f in out_of_contract.findings}

        inputs = bench.default_inputs()

        # Dynamic, in-contract: the compiled-for schedule still
        # completes with zero power failures.
        guarantee = run_against_reference(
            broken,
            bench.module,
            plat.model,
            compiled.policy,
            PowerManager.energy_budget(eb),
            vm_size=plat.vm_size,
            inputs=inputs,
        )
        assert classify(guarantee, guarantee=True) == OUTCOME_OK
        assert guarantee.power_failures == 0

        # Dynamic, out-of-contract: injections at the static boundaries
        # hit the exposed WAR scalars.
        reference = run_continuous(bench.module, plat.model, inputs=inputs)
        boundaries, _ = record_boundaries(
            compiled, plat.model, plat.vm_size, inputs
        )
        violations = 0
        for point in select_points(boundaries, "static"):
            run = check_schedule(
                compiled,
                reference,
                plat.model,
                (point.offset,),
                plat.vm_size,
                inputs,
                50_000_000,
            )
            if classify(run, guarantee=True) != OUTCOME_OK:
                violations += 1
        assert violations > 0


# -- deep suite (pytest -m sweep) ---------------------------------------------


@pytest.mark.sweep
def test_deep_cli_certifies_all_benchmarks(capsys):
    """Acceptance: every MiBench2 benchmark as transformed by SCHEMATIC
    is certified with zero gating findings."""
    assert main([]) == 0
    out = capsys.readouterr().out
    assert out.count("certified") == 8
    assert "FAILED" not in out


@pytest.mark.sweep
def test_deep_cli_flags_every_sabotage_victim(capsys):
    """Acceptance: with one checkpoint stripped per benchmark at a tight
    budget, every broken module draws at least one gating finding."""
    assert main(["--sabotage", "--eb", "800"]) == 0
    out = capsys.readouterr().out
    assert out.count("sabotage caught") == 8
    assert "SABOTAGE MISSED" not in out


@pytest.mark.sweep
def test_deep_cli_all_techniques_on_crc(capsys):
    assert main(["--programs", "crc", "--techniques", "all"]) == 0
    out = capsys.readouterr().out
    assert "FAILED" not in out

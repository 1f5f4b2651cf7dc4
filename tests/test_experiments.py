"""Integration tests for the experiment harness: the paper's qualitative
claims (:mod:`repro.experiments.claims`, the same predicates ``run_all``
checks on the full grid) must hold on a fast benchmark subset."""

import pytest

from repro.emulator.diffemu import PowerSpec
from repro.experiments import EvaluationContext, claims
from repro.experiments.common import TBPF_VALUES
from repro.experiments import (
    analysis_cost,
    figure6_energy_breakdown,
    figure7_allocation_quality,
    figure8_capacitor_size,
    table1_vm_feasibility,
    table2_exec_time,
    table3_forward_progress,
)

SUBSET = ["crc", "randmath"]


def assert_holds(outcome):
    """A claim predicate's (measured, holds) pair: evaluated and true."""
    assert outcome is not None and outcome[1], outcome


@pytest.fixture(scope="module")
def ctx():
    return EvaluationContext(benchmarks=SUBSET, profile_runs=2)


@pytest.fixture(scope="module")
def full_ctx():
    # Includes one over-2KB benchmark so Table I shows an infeasibility.
    return EvaluationContext(benchmarks=["crc", "randmath", "rc4"],
                             profile_runs=2)


class TestTable1(object):
    def test_feasibility_pattern(self, full_ctx):
        result = table1_vm_feasibility.run(full_ctx)
        # All-VM techniques cannot run rc4 (6.3 KB > 2 KB).
        assert not result.cells["mementos"]["rc4"]
        assert_holds(claims.table1_pattern(result))

    def test_render_contains_marks(self, full_ctx):
        text = table1_vm_feasibility.run(full_ctx).render()
        assert "Y" in text and "x" in text


class TestTable2:
    def test_cycles_within_2x_of_paper(self, ctx):
        assert_holds(claims.table2_cycles(table2_exec_time.run(ctx)))

    def test_failure_counts_consistent(self, ctx):
        result = table2_exec_time.run(ctx)
        for row in result.rows:
            assert row.failures[1_000] >= row.failures[10_000]
            assert row.failures[10_000] >= row.failures[100_000]
            assert row.failures[1_000] == row.cycles // 1_000


class TestTable3:
    def test_adaptive_techniques_always_finish(self, ctx):
        result = table3_forward_progress.run(ctx)
        assert_holds(claims.table3_wait_mode_terminate(result))

    def test_mementos_fails_at_tiny_budget(self, ctx):
        result = table3_forward_progress.run(ctx)
        assert_holds(claims.table3_mementos_small_budget(result))


class TestFigure6:
    def test_schematic_beats_every_baseline(self, ctx):
        result = figure6_energy_breakdown.run(ctx)
        assert_holds(claims.figure6_cheapest(result))

    def test_wait_mode_zero_reexecution(self, ctx):
        result = figure6_energy_breakdown.run(ctx)
        assert_holds(claims.figure6_no_reexecution(result))

    def test_average_reduction_positive(self, ctx):
        result = figure6_energy_breakdown.run(ctx)
        assert_holds(claims.figure6_energy_reduction(result))


class TestFigure7:
    def test_schematic_computation_cheaper(self, ctx):
        result = figure7_allocation_quality.run(ctx)
        assert_holds(claims.figure7_computation_reduction(result))

    def test_most_accesses_hit_vm(self, ctx):
        result = figure7_allocation_quality.run(ctx)
        assert_holds(claims.figure7_vm_access_share(result))

    def test_allnvm_has_no_vm_accesses(self, ctx):
        result = figure7_allocation_quality.run(ctx)
        for name in SUBSET:
            assert result.cells[name]["allnvm"].vm_accesses == 0


class TestFigure8:
    def test_schematic_management_shrinks_with_budget(self, ctx):
        result = figure8_capacitor_size.run(ctx, benchmark="crc")
        assert_holds(claims.figure8_schematic_shrinks(result))

    def test_schematic_adapts_better_than_ratchet(self, ctx):
        result = figure8_capacitor_size.run(ctx, benchmark="crc")
        assert_holds(claims.figure8_ratchet_stays_above(result))
        assert_holds(claims.figure8_schematic_falls_fastest(result))


class TestAnalysisCost:
    def test_scaling_measured(self, ctx):
        result = analysis_cost.run(
            ctx, benchmarks=["crc"], chain_sizes=(4, 8, 16)
        )
        assert len(result.scaling) == 3
        assert result.benchmark_times["crc"] > 0
        blocks = [b for b, _, _ in result.scaling]
        assert blocks == sorted(blocks)

    def test_growth_is_polynomial(self, ctx):
        result = analysis_cost.run(
            ctx, benchmarks=[], chain_sizes=(8, 16, 32, 64)
        )
        assert_holds(claims.analysis_growth(result))


class TestEbForTbpf:
    def test_eb_scales_linearly_with_tbpf(self, ctx):
        eb1 = ctx.eb_for_tbpf("crc", 1_000)
        eb10 = ctx.eb_for_tbpf("crc", 10_000)
        assert eb10 == pytest.approx(eb1 * 10)

    def test_run_caching(self, ctx):
        a = ctx.run("schematic", "crc", 5000.0)
        b = ctx.run("schematic", "crc", 5000.0)
        assert a is b


class TestAblations:
    def test_each_design_choice_matters(self, ctx):
        from repro.experiments import ablations

        result = ablations.run(ctx)
        assert_holds(claims.ablations_numit_dominates(result))
        assert_holds(claims.ablations_minimum_overheads(result))
        assert_holds(claims.ablations_cost_energy(result))
        # The ablated variants remain *correct*, just slower.
        assert_holds(claims.ablations_complete(result))


class TestPeriodicFailureModel:
    def test_cycles_model_preserves_table3_shape(self):
        """Under the SCEPTIC emulator's literal methodology — a failure
        every TBPF active cycles — the wait-mode techniques still
        complete every benchmark at every TBPF, as in Table III."""
        ctx = EvaluationContext(benchmarks=["crc", "randmath"])
        for technique in ("rockclimb", "schematic"):
            for tbpf in TBPF_VALUES:
                for name in ctx.benchmark_names:
                    eb = ctx.eb_for_tbpf(name, tbpf)
                    spec = PowerSpec.periodic(tbpf, eb)
                    outcome = ctx.run(technique, name, eb, spec)
                    assert outcome.succeeded, (technique, name, tbpf)
                    assert outcome.report.power_mode == spec.mode


class TestFigure6TimeReduction:
    def test_time_reduction_positive(self, ctx):
        result = figure6_energy_breakdown.run(ctx)
        assert_holds(claims.figure6_time_reduction(result))

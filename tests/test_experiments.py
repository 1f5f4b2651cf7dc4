"""Integration tests for the experiment harness: the paper's qualitative
claims must hold on a fast benchmark subset."""

import pytest

from repro.emulator.diffemu import PowerSpec
from repro.experiments import EvaluationContext
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
        # All-NVM techniques and SCHEMATIC run everything.
        for technique in ("ratchet", "rockclimb", "schematic"):
            assert all(result.cells[technique].values()), technique
        # All-VM techniques cannot run rc4 (6.3 KB > 2 KB).
        for technique in ("mementos", "alfred"):
            assert not result.cells[technique]["rc4"]
            assert result.cells[technique]["crc"]

    def test_render_contains_marks(self, full_ctx):
        text = table1_vm_feasibility.run(full_ctx).render()
        assert "Y" in text and "x" in text


class TestTable2:
    def test_cycles_within_2x_of_paper(self, ctx):
        result = table2_exec_time.run(ctx)
        for row in result.rows:
            assert 0.5 <= row.cycles / row.paper_cycles <= 2.0, row.benchmark

    def test_failure_counts_consistent(self, ctx):
        result = table2_exec_time.run(ctx)
        for row in result.rows:
            assert row.failures[1_000] >= row.failures[10_000]
            assert row.failures[10_000] >= row.failures[100_000]
            assert row.failures[1_000] == row.cycles // 1_000


class TestTable3:
    def test_adaptive_techniques_always_finish(self, ctx):
        result = table3_forward_progress.run(ctx)
        for technique in ("rockclimb", "schematic"):
            for tbpf in (1_000, 10_000, 100_000):
                assert all(result.cells[technique][tbpf].values()), (
                    technique, tbpf,
                )

    def test_mementos_fails_at_tiny_budget(self, ctx):
        result = table3_forward_progress.run(ctx)
        assert not all(result.cells["mementos"][1_000].values())


class TestFigure6:
    def test_schematic_beats_every_baseline(self, ctx):
        result = figure6_energy_breakdown.run(ctx)
        for baseline in ("ratchet", "mementos", "rockclimb", "alfred"):
            reduction = result.reduction_vs(baseline)
            assert reduction is not None and reduction > 0, baseline

    def test_wait_mode_zero_reexecution(self, ctx):
        result = figure6_energy_breakdown.run(ctx)
        for technique in ("rockclimb", "schematic"):
            for name in SUBSET:
                cell = result.cells[technique][name]
                assert cell.energy.reexecution == 0.0

    def test_average_reduction_positive(self, ctx):
        result = figure6_energy_breakdown.run(ctx)
        assert result.average_reduction() > 0.2


class TestFigure7:
    def test_schematic_computation_cheaper(self, ctx):
        result = figure7_allocation_quality.run(ctx)
        reduction = result.computation_reduction()
        assert 0.05 < reduction < 0.6  # paper: 25%

    def test_most_accesses_hit_vm(self, ctx):
        result = figure7_allocation_quality.run(ctx)
        assert result.vm_access_share() > 0.5  # paper: 69%

    def test_allnvm_has_no_vm_accesses(self, ctx):
        result = figure7_allocation_quality.run(ctx)
        for name in SUBSET:
            assert result.cells[name]["allnvm"].vm_accesses == 0


class TestFigure8:
    def test_schematic_management_shrinks_with_budget(self, ctx):
        result = figure8_capacitor_size.run(ctx, benchmark="crc")
        mgmt = [
            result.management_energy("schematic", tbpf)
            for tbpf in (1_000, 10_000, 100_000)
        ]
        assert all(m is not None for m in mgmt)
        assert mgmt[0] > mgmt[1] > mgmt[2]

    def test_schematic_adapts_better_than_ratchet(self, ctx):
        result = figure8_capacitor_size.run(ctx, benchmark="crc")
        s = result.management_energy("schematic", 100_000)
        r = result.management_energy("ratchet", 100_000)
        assert s is not None and r is not None and s < r


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
        exponent = result.growth_exponent()
        assert exponent is not None
        assert exponent < 3.5  # paper bound: O(V^3)


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
        assert result.overhead_vs_full("numit-1") > 1.5
        assert result.overhead_vs_full("allnvm") > 1.05
        # The ablated variants remain *correct*, just slower.
        for variant in ablations.VARIANTS:
            for name in SUBSET:
                assert result.cells[variant][name].completed, (variant, name)


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
        assert result.average_time_reduction() > 0.1  # paper: 54%

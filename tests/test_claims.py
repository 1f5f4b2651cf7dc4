"""The claims table (``repro.experiments.claims``): each predicate on
hand-built section results, on its pass side and on its fail side, and
the ``run_all`` exit code on a planted regression."""

import functools

import pytest

from repro.baselines import COMPILERS, compile_schematic
from repro.emulator.meter import EnergyBreakdown
from repro.experiments import ablations, claims, run_all
from repro.experiments.ablations import AblationCell, AblationResult
from repro.experiments.analysis_cost import AnalysisCostResult
from repro.experiments.figure6_energy_breakdown import Figure6Cell, Figure6Result
from repro.experiments.figure7_allocation_quality import (
    Figure7Cell,
    Figure7Result,
)
from repro.experiments.figure8_capacitor_size import Figure8Result
from repro.experiments.table1_vm_feasibility import Table1Result
from repro.experiments.table2_exec_time import Table2Result, Table2Row
from repro.experiments.table3_forward_progress import Table3Result

TBPF = (1_000, 10_000, 100_000)


def holds(outcome):
    assert outcome is not None
    return outcome[1]


def table1(*flips):
    cells = {
        "ratchet": {"crc": True, "rc4": True},
        "mementos": {"crc": True, "rc4": False},
        "schematic": {"crc": True, "rc4": True},
    }
    for technique, name in flips:
        cells[technique][name] = not cells[technique][name]
    return Table1Result(cells=cells, footprints={"crc": 1568, "rc4": 6307})


def table3(wait_ok=True, mementos_ok=False):
    def row(ok):
        return {t: {"crc": ok, "rc4": ok} for t in TBPF}

    cells = {"rockclimb": row(True), "schematic": row(wait_ok),
             "mementos": row(mementos_ok)}
    return Table3Result(cells=cells, benchmarks=["crc", "rc4"])


def figure6(schematic_total, schematic_cycles=80, reexecution=0.0):
    """SCHEMATIC against two baselines on one benchmark; the other two
    did not complete and must not count."""
    def cell(technique, total, cycles, reexec=0.0):
        energy = EnergyBreakdown(computation=total - reexec,
                                 reexecution=reexec)
        return {"crc": Figure6Cell(technique, "crc", True, energy, cycles)}

    cells = {
        "ratchet": cell("ratchet", 100.0, 200),
        "mementos": {"crc": Figure6Cell("mementos", "crc", False)},
        "rockclimb": cell("rockclimb", 50.0, 100, reexecution),
        "alfred": {"crc": Figure6Cell("alfred", "crc", False)},
        "schematic": cell("schematic", schematic_total, schematic_cycles),
    }
    return Figure6Result(tbpf=10_000, cells=cells, benchmarks=["crc"])


def figure7(schematic_computation, vm_accesses):
    cells = {"crc": {
        "allnvm": Figure7Cell("crc", "allnvm", True, computation=100.0,
                              nvm_accesses=100),
        "schematic": Figure7Cell("crc", "schematic", True,
                                 computation=schematic_computation,
                                 vm_accesses=vm_accesses,
                                 nvm_accesses=100 - vm_accesses),
    }}
    return Figure7Result(tbpf=10_000, cells=cells, benchmarks=["crc"])


def figure8(**series):
    """Management energy per technique at TBPF 1k/10k/100k (None = did
    not complete); the paper's crc shape by default."""
    shape = {
        "ratchet": (125.0, 100.5, 97.6),
        "mementos": (None, 49.2, 22.2),
        "rockclimb": (10.5, 10.5, 10.5),
        "schematic": (10.0, 1.5, 0.75),
    }
    shape.update(series)
    cells = {
        technique: {
            tbpf: None if m is None else EnergyBreakdown(save=m)
            for tbpf, m in zip(TBPF, values)
        }
        for technique, values in shape.items()
    }
    return Figure8Result(benchmark="crc", cells=cells)


def ablation_result(completed=True, **totals):
    shape = {"full": 10.0, "no-amortization": 11.3, "no-liveness-trim": 10.1,
             "numit-1": 80.0, "allnvm": 12.4}
    shape.update(totals)
    cells = {
        variant: {"crc": AblationCell(variant, "crc", completed or
                                      variant == "full", total=total)}
        for variant, total in shape.items()
    }
    return AblationResult(tbpf=10_000, cells=cells, benchmarks=["crc"])


def growth(power):
    return AnalysisCostResult(
        benchmark_times={},
        scaling=[(v, 0, 1e-3 * v ** power) for v in (8, 16, 32)],
    )


#: (predicate, a result it holds on, results it fails on).
CASES = [
    # An all-NVM technique losing a benchmark, or an all-VM one fitting
    # rc4 into 2 KB, both break the paper's pattern.
    (claims.table1_pattern, table1(),
     [table1(("ratchet", "crc")), table1(("mementos", "rc4"))]),
    (claims.table2_cycles, Table2Result([Table2Row("crc", 44_100, 41_133, {})]),
     [Table2Result([Table2Row("crc", 41_133 * 3, 41_133, {})]),
      Table2Result([Table2Row("crc", 41_133 // 3, 41_133, {})]),
      Table2Result([Table2Row("crc", 0, 41_133, {})])]),
    (claims.table3_wait_mode_terminate, table3(), [table3(wait_ok=False)]),
    (claims.table3_mementos_small_budget, table3(),
     [table3(mementos_ok=True)]),
    (claims.figure6_cheapest, figure6(20.0), [figure6(60.0)]),
    (claims.figure6_energy_reduction, figure6(20.0), [figure6(70.0)]),
    (claims.figure6_time_reduction, figure6(20.0),
     [figure6(20.0, schematic_cycles=150)]),
    (claims.figure6_no_reexecution, figure6(20.0),
     [figure6(20.0, reexecution=1.0)]),
    # 25% passes; 1% is too small and 90% implausible.
    (claims.figure7_computation_reduction, figure7(75.0, 80),
     [figure7(99.0, 80), figure7(10.0, 80)]),
    (claims.figure7_vm_access_share, figure7(75.0, 80), [figure7(75.0, 40)]),
    (claims.figure8_schematic_shrinks, figure8(),
     [figure8(schematic=(10.0, 1.5, 1.5)),
      figure8(schematic=(None, 1.5, 0.75))]),
    (claims.figure8_schematic_falls_fastest, figure8(),
     [figure8(rockclimb=(40.0, 10.0, 1.0)),
      figure8(schematic=(None, 1.5, 0.75))]),
    # A 10x drop that still ends above RATCHET's flat series.
    (claims.figure8_ratchet_stays_above, figure8(),
     [figure8(schematic=(1000.0, 300.0, 100.0)),
      figure8(ratchet=(None, 100.5, 97.6))]),
    (claims.analysis_growth, growth(2), [growth(4)]),
    (claims.ablations_numit_dominates, ablation_result(),
     [ablation_result(allnvm=90.0)]),
    # numit-1 can stay the largest overhead and still fall below its bound.
    (claims.ablations_minimum_overheads, ablation_result(),
     [ablation_result(**{"numit-1": 12.0}, allnvm=10.2),
      ablation_result(allnvm=10.9),
      ablation_result(**{"no-amortization": 10.4})]),
    (claims.ablations_cost_energy, ablation_result(),
     [ablation_result(**{"no-liveness-trim": 9.9})]),
    (claims.ablations_complete, ablation_result(),
     [ablation_result(completed=False)]),
]


@pytest.mark.parametrize(
    "check, passing, failing", CASES, ids=[c[0].__name__ for c in CASES]
)
def test_predicate_pass_and_fail_sides(check, passing, failing):
    assert holds(check(passing))
    for result in failing:
        assert not holds(check(result))


def test_every_claim_has_a_planted_case():
    assert [c.check for c in claims.CLAIMS] == [case[0] for case in CASES]


def test_measured_values():
    assert claims.figure6_energy_reduction(figure6(20.0)) == ("70%", True)
    # MEMENTOS falls 2.2x between 10k and 100k, faster than SCHEMATIC's
    # 2.0x there, but it fails at 1k and does not count.
    assert claims.figure8_schematic_falls_fastest(figure8()) == (
        "13.3x (next: ratchet 1.28x)", True,
    )
    assert claims.ablations_numit_dominates(ablation_result()) == (
        "8.00x (next: allnvm 1.24x)", True,
    )
    assert claims.ablations_minimum_overheads(ablation_result()) == (
        "no-amortization 1.13x, numit-1 8.00x, allnvm 1.24x", True,
    )
    assert claims.figure8_ratchet_stays_above(figure8()) == (
        "lowest ratio 12.5x (TBPF=1000)", True,
    )
    assert claims.table2_cycles(
        Table2Result([Table2Row("crc", 0, 41_133, {})])
    ) == ("worst infx (crc)", False)


def test_missing_section_or_data_is_not_applicable():
    assert all(v.holds is None for v in claims.evaluate({}))
    verdicts = claims.evaluate({
        "Table III": Table3Result(cells={}, benchmarks=[]),
        "Analysis cost": AnalysisCostResult({}, scaling=[(8, 0, 1.0)]),
    })
    assert all(v.holds is None for v in verdicts)
    assert claims.failed(verdicts) == []


def test_render_names_each_verdict():
    verdicts = claims.evaluate({
        "Table III": table3(wait_ok=False), "Figure 6": figure6(20.0),
    })
    text = claims.render(verdicts)
    assert "5 hold, 1 fail, 12 n/a" in text
    [failed] = claims.failed(verdicts)
    assert failed.name.startswith("Table III: ROCKCLIMB")
    assert f"FAILS    {failed.name}" in text
    names = [c.name for c in claims.CLAIMS]
    assert len(set(names)) == len(names)
    titles = {title for title, _ in run_all.SECTIONS}
    assert {c.section for c in claims.CLAIMS} <= titles


def test_planted_regression_fails_the_claims(capsys, monkeypatch):
    """SCHEMATIC replaced by its numit-1 ablation (a checkpoint on every
    loop iteration) on a two-kernel grid: run_all must exit 1 and name
    the claims that the regression breaks."""
    numit_1 = functools.partial(
        compile_schematic, config=ablations.VARIANTS["numit-1"]
    )
    monkeypatch.setitem(COMPILERS, "schematic", numit_1)
    with pytest.raises(SystemExit) as exc:
        run_all.main(["--benchmarks", "crc,randmath", "--no-cache"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    failing = captured.err.split("claims failed: ", 1)[1]
    for name in (
        "Figure 6: SCHEMATIC is the cheapest technique everywhere",
        "Figure 6: average energy reduction vs the baselines",
        "Figure 8: SCHEMATIC's management energy falls fastest",
        "Figure 8: RATCHET's management energy stays above SCHEMATIC's",
    ):
        assert name in failing
        assert f"FAILS    {name}" in captured.out
    # The ablations compile their own variants: untouched by the swap.
    assert "holds    Ablations: every variant stays correct" in captured.out

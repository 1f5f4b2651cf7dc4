"""The paper's evaluation claims (§IV), each stated once and checked.

A claim is a named predicate over one ``run_all`` section's result
(``run_all.SECTIONS`` titles). Evaluating it yields a :class:`Verdict`:
the measured value, the paper's value where the paper gives one, and
whether the claim holds. A claim whose section did not run, or whose
result holds no data for it, is ``n/a`` (``holds is None``) and does
not fail. Every threshold and the paper's Table I pattern live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.experiments.common import TBPF_VALUES

#: Paper Table I: the benchmarks each technique cannot run in 2 KB of VM.
PAPER_TABLE1_INFEASIBLE = {
    "mementos": ("dijkstra", "fft", "rc4"),
    "alfred": ("dijkstra", "fft", "rc4"),
}
#: Table II: largest factor between our cycle counts and the paper's.
CYCLES_TOLERANCE = 2.0
#: Figure 6: SCHEMATIC's mean energy / execution-time reduction.
MIN_ENERGY_REDUCTION = 0.2
MIN_TIME_REDUCTION = 0.1
#: Figure 7: computation-energy reduction vs All-NVM (open interval) and
#: the share of SCHEMATIC's memory accesses that hit VM.
COMPUTATION_REDUCTION_RANGE = (0.05, 0.6)
MIN_VM_ACCESS_SHARE = 0.5
#: §III-C bounds the analysis by O(V^3); the fitted exponent of compile
#: time vs block count must stay below this.
MAX_GROWTH_EXPONENT = 3.5
#: Ablations: each design choice's energy over full SCHEMATIC must
#: exceed this (no-liveness-trim has no bound beyond "not cheaper").
MIN_ABLATION_OVERHEAD = {"no-amortization": 1.05, "numit-1": 2.0,
                         "allnvm": 1.1}
#: Techniques that wait for a full capacitor instead of rolling back.
WAIT_MODE = ("rockclimb", "schematic")

#: (measured, holds), or None when the result holds no data for a claim.
Outcome = Optional[Tuple[str, bool]]


@dataclass(frozen=True)
class Verdict:
    name: str
    measured: Optional[str]
    paper: Optional[str]
    holds: Optional[bool]  # None: not evaluated (n/a)


@dataclass(frozen=True)
class Claim:
    name: str
    section: str
    check: Callable[[object], Outcome]
    paper: Optional[str] = None

    def evaluate(self, results: Mapping[str, object]) -> Verdict:
        outcome = None
        if self.section in results:
            outcome = self.check(results[self.section])
        measured, holds = outcome or (None, None)
        return Verdict(self.name, measured, self.paper, holds)


def _count(flags: List[bool], unit: str) -> Outcome:
    if not flags:
        return None
    return f"{sum(flags)}/{len(flags)} {unit}", all(flags)


def _runner_up(others: Dict[str, float]) -> str:
    if not others:
        return ""
    best = max(others, key=lambda k: (others[k], k))
    return f" (next: {best} {others[best]:.2f}x)"


def table1_pattern(result) -> Outcome:
    return _count([
        ok == (name not in PAPER_TABLE1_INFEASIBLE.get(technique, ()))
        for technique, row in result.cells.items()
        for name, ok in row.items()
    ], "cells agree")


def _factor(cycles: int, paper: int) -> float:
    if cycles <= 0:  # a broken run or lowering: no factor bounds it
        return float("inf")
    return max(cycles, paper) / min(cycles, paper)


def table2_cycles(result) -> Outcome:
    ratios = [
        (_factor(r.cycles, r.paper_cycles), r.benchmark)
        for r in result.rows
        if r.paper_cycles > 0
    ]
    if not ratios:
        return None
    worst, name = max(ratios)
    return f"worst {worst:.2f}x ({name})", worst <= CYCLES_TOLERANCE


def table3_wait_mode_terminate(result) -> Outcome:
    return _count([
        ok
        for technique in WAIT_MODE
        for by_name in result.cells.get(technique, {}).values()
        for ok in by_name.values()
    ], "runs")


def table3_mementos_small_budget(result) -> Outcome:
    by_name = result.cells.get("mementos", {}).get(min(TBPF_VALUES), {})
    failed = [not ok for ok in by_name.values()]
    if not failed:
        return None
    return f"{sum(failed)}/{len(failed)} fail", any(failed)


def figure6_cheapest(result) -> Outcome:
    def total(cell) -> Optional[float]:
        ok = cell.completed and cell.energy is not None
        return cell.energy.total if ok else None

    wins = []
    for name in result.benchmarks:
        ours = total(result.cells["schematic"][name])
        rivals = [total(cells[name]) for technique, cells
                  in result.cells.items() if technique != "schematic"]
        wins.append(ours is not None
                    and all(r is None or ours < r for r in rivals))
    return _count(wins, "benchmarks")


def figure6_energy_reduction(result) -> Outcome:
    if not result.benchmarks:
        return None
    mean = result.average_reduction()
    return f"{mean:.0%}", mean > MIN_ENERGY_REDUCTION


def figure6_time_reduction(result) -> Outcome:
    if not result.benchmarks:
        return None
    mean = result.average_time_reduction()
    return f"{mean:.0%}", mean > MIN_TIME_REDUCTION


def figure6_no_reexecution(result) -> Outcome:
    spent = [
        cell.energy.reexecution
        for technique in WAIT_MODE
        for cell in result.cells.get(technique, {}).values()
        if cell.completed and cell.energy is not None
    ]
    if not spent:
        return None
    return f"{sum(spent) / 1000:.1f} uJ", sum(spent) == 0.0


def figure7_computation_reduction(result) -> Outcome:
    if not result.benchmarks:
        return None
    low, high = COMPUTATION_REDUCTION_RANGE
    value = result.computation_reduction()
    return f"{value:.0%}", low < value < high


def figure7_vm_access_share(result) -> Outcome:
    if not result.benchmarks:
        return None
    value = result.vm_access_share()
    return f"{value:.0%}", value > MIN_VM_ACCESS_SHARE


def _management(result, technique: str) -> List[Optional[float]]:
    return [result.management_energy(technique, t) for t in TBPF_VALUES]


def figure8_schematic_shrinks(result) -> Outcome:
    series = _management(result, "schematic")
    if None in series:
        return "did not complete", False
    text = " -> ".join(f"{m / 1000:.1f}" for m in series) + " uJ"
    return text, all(a > b for a, b in zip(series, series[1:]))


def figure8_schematic_falls_fastest(result) -> Outcome:
    """Management energy at the smallest TBPF over that at the largest,
    among the techniques that complete at every TBPF. Both end points
    count: between 10k and 100k alone MEMENTOS falls faster on crc."""
    drops = {
        technique: series[0] / series[-1] if series[-1] else float("inf")
        for technique in result.cells
        for series in [_management(result, technique)]
        if None not in series
    }
    ours = drops.pop("schematic", None)
    if ours is None:
        return "did not complete", False
    text = f"{ours:.1f}x" + _runner_up(drops)
    return text, all(ours > d for d in drops.values())


def figure8_ratchet_stays_above(result) -> Outcome:
    """RATCHET's placement ignores the platform, so its management
    energy stays above SCHEMATIC's at every TBPF."""
    ratchet = _management(result, "ratchet")
    ours = _management(result, "schematic")
    if None in ratchet or None in ours:
        return "did not complete", False
    ratio, tbpf = min(
        (r / s if s else float("inf"), tbpf)
        for r, s, tbpf in zip(ratchet, ours, TBPF_VALUES)
    )
    return f"lowest ratio {ratio:.1f}x (TBPF={tbpf})", ratio > 1.0


def analysis_growth(result) -> Outcome:
    exponent = result.growth_exponent()
    if exponent is None:
        return None
    # The section's own wording, which the run-to-run diffs mask.
    return f"growth exponent: {exponent:.2f}", exponent < MAX_GROWTH_EXPONENT


def _overheads(result) -> Dict[str, float]:
    if not result.benchmarks:
        return {}
    return {v: result.overhead_vs_full(v) for v in result.cells if v != "full"}


def ablations_numit_dominates(result) -> Outcome:
    overheads = _overheads(result)
    ours = overheads.pop("numit-1", None)
    if ours is None:
        return None
    text = f"{ours:.2f}x" + _runner_up(overheads)
    return text, all(ours > o for o in overheads.values())


def ablations_minimum_overheads(result) -> Outcome:
    overheads = _overheads(result)
    bounded = [v for v in MIN_ABLATION_OVERHEAD if v in overheads]
    if not bounded:
        return None
    text = ", ".join(f"{v} {overheads[v]:.2f}x" for v in bounded)
    return text, all(overheads[v] > MIN_ABLATION_OVERHEAD[v] for v in bounded)


def ablations_cost_energy(result) -> Outcome:
    overheads = _overheads(result)
    if not overheads:
        return None
    least = min(overheads, key=lambda v: (overheads[v], v))
    return f"least {overheads[least]:.2f}x ({least})", overheads[least] >= 1.0


def ablations_complete(result) -> Outcome:
    return _count([
        cell.completed
        for by_name in result.cells.values()
        for cell in by_name.values()
    ], "runs")


CLAIMS: List[Claim] = [
    Claim("Table I: feasibility pattern equals the paper's",
          "Table I", table1_pattern),
    Claim(f"Table II: cycle counts within {CYCLES_TOLERANCE:g}x of the "
          "paper's", "Table II", table2_cycles),
    Claim("Table III: ROCKCLIMB and SCHEMATIC always terminate",
          "Table III", table3_wait_mode_terminate, "all"),
    Claim(f"Table III: MEMENTOS fails at TBPF={min(TBPF_VALUES)}",
          "Table III", table3_mementos_small_budget, "7/8 fail"),
    Claim("Figure 6: SCHEMATIC is the cheapest technique everywhere",
          "Figure 6", figure6_cheapest),
    Claim("Figure 6: average energy reduction vs the baselines",
          "Figure 6", figure6_energy_reduction, "51%"),
    Claim("Figure 6: average execution-time reduction",
          "Figure 6", figure6_time_reduction, "54%"),
    Claim("Figure 6: wait-mode techniques never re-execute",
          "Figure 6", figure6_no_reexecution, "0"),
    Claim("Figure 7: computation-energy reduction vs All-NVM",
          "Figure 7", figure7_computation_reduction, "25%"),
    Claim("Figure 7: most memory accesses hit VM",
          "Figure 7", figure7_vm_access_share, "69%"),
    Claim("Figure 8: SCHEMATIC's management energy shrinks with EB",
          "Figure 8", figure8_schematic_shrinks),
    Claim("Figure 8: SCHEMATIC's management energy falls fastest",
          "Figure 8", figure8_schematic_falls_fastest),
    Claim("Figure 8: RATCHET's management energy stays above SCHEMATIC's",
          "Figure 8", figure8_ratchet_stays_above),
    Claim("Analysis cost: compile time grows polynomially",
          "Analysis cost", analysis_growth, "O(V^3)"),
    Claim("Ablations: numit-1 is the most load-bearing choice",
          "Ablations", ablations_numit_dominates),
    Claim("Ablations: each design choice costs more than its bound",
          "Ablations", ablations_minimum_overheads),
    Claim("Ablations: no variant is cheaper than full SCHEMATIC",
          "Ablations", ablations_cost_energy),
    Claim("Ablations: every variant stays correct",
          "Ablations", ablations_complete),
]


def evaluate(results: Mapping[str, object]) -> List[Verdict]:
    """Every claim's verdict over ``results`` (section title -> result)."""
    return [claim.evaluate(results) for claim in CLAIMS]


def failed(verdicts: List[Verdict]) -> List[Verdict]:
    return [v for v in verdicts if v.holds is False]


def render(verdicts: List[Verdict]) -> str:
    """The block ``run_all`` prints after the sections. The measured
    value comes last and unpadded, so a wall-clock reading in it does not
    shift the other columns."""
    label = {True: "holds", False: "FAILS", None: "n/a"}
    counts = [sum(v.holds is s for v in verdicts) for s in (True, False, None)]
    width = max(len(v.name) for v in verdicts) + 2
    lines = [
        "Claims of the paper's evaluation: "
        f"{counts[0]} hold, {counts[1]} fail, {counts[2]} n/a",
        f"{'verdict':<9}{'claim':<{width}}{'paper':<10}measured",
    ]
    lines += [
        f"{label[v.holds]:<9}{v.name:<{width}}{v.paper or '-':<10}"
        f"{v.measured or 'n/a'}"
        for v in verdicts
    ]
    return "\n".join(lines)

"""Differential-emulation identity suite: forked == cold, bit for bit.

The contract :mod:`repro.emulator.diffemu` makes — and design-space
sweeps rely on — is that a differentially emulated cell is
*indistinguishable* from a cold one: the full
:class:`~repro.emulator.report.ExecutionReport` (outputs, energy
breakdown, counters, failure offsets), the power failure log and the
``step_hook`` stream suffix. This file pins that contract:

- column identity over corpus programs x techniques x power modes
  (synthesize, fork and cold plans all exercised);
- a hypothesis property: *every* snapshot on a densely recorded tape
  resumes into the recording's exact report;
- forked ``step_hook`` streams are suffixes of the cold stream.

The default grid keeps tier-1 fast; ``-m sweep`` widens it to every
benchmark x technique x mode (see ``make sweep``).
"""

from typing import Dict, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator import run_continuous, run_intermittent
from repro.emulator.diffemu import (
    PowerSpec,
    fork_cell,
    record_tape,
    run_cell,
)
from repro.energy import msp430fr5969_platform
from repro.programs import BENCHMARK_NAMES
from repro.testkit.corpus import compile_for, load_program

TBPF = 10_000

#: Tier-1 grid: two small corpus programs, every tape-eligible technique.
DEFAULT_PROGRAMS = ("warloop", "calls")
TECHNIQUES = ("schematic", "ratchet", "rockclimb", "alfred", "allnvm")

_COLUMNS: Dict[Tuple[str, str], Tuple] = {}


def _column(program: str, technique: str):
    """Compile one (program, technique) column at the paper's EB-for-TBPF
    conversion; memoized because compilation dominates the suite."""
    key = (program, technique)
    if key not in _COLUMNS:
        bench = load_program(program)
        proto = msp430fr5969_platform()
        ref = run_continuous(
            bench.module, proto.model, inputs=bench.default_inputs()
        )
        eb = ref.energy.total / max(ref.active_cycles, 1) * TBPF
        plat = msp430fr5969_platform(eb=eb)
        compiled = compile_for(
            technique, bench.module, plat,
            input_generator=bench.input_generator(),
        )
        _COLUMNS[key] = (plat, bench, compiled, eb)
    return _COLUMNS[key]


def _specs(eb: float, final_timeline: int, seeds=(3,)):
    """One cell per power mode, chosen to hit all three plan kinds:
    ample budgets synthesize, tight ones fork or fall back."""
    specs = [
        PowerSpec.energy_budget(eb),
        PowerSpec.energy_budget(eb * 4),
        PowerSpec.energy_budget(eb / 4),
        PowerSpec.periodic(tbpf=TBPF, eb=eb),
        PowerSpec.periodic(tbpf=TBPF * 10, eb=eb),
        PowerSpec.scheduled((final_timeline // 2,), eb=eb),
    ]
    specs += [
        PowerSpec.stochastic(mean_cycles=TBPF, seed=s, eb=eb) for s in seeds
    ]
    return specs


def _assert_column_identical(program: str, technique: str, seeds=(3,)):
    plat, bench, compiled, eb = _column(program, technique)
    if not compiled.feasible:
        pytest.skip(f"{technique} infeasible on {program}")
    inputs = bench.default_inputs()
    tape = record_tape(
        compiled.module, plat.model, compiled.policy,
        vm_size=plat.vm_size, inputs=inputs,
    )
    kinds = set()
    for spec in _specs(eb, tape.final.timeline, seeds=seeds):
        cold = run_intermittent(
            compiled.module, plat.model, compiled.policy, spec.build(),
            vm_size=plat.vm_size, inputs=inputs,
        )
        got, plan = run_cell(
            compiled.module, plat.model, compiled.policy, spec, tape,
            vm_size=plat.vm_size, inputs=inputs,
        )
        kinds.add(plan.kind)
        assert repr(got) == repr(cold), (
            f"{program}/{technique} under {spec.describe()} "
            f"(plan={plan.kind}): diff emulation diverged from cold"
        )
        assert got.failure_offsets == cold.failure_offsets
        assert got.outputs == cold.outputs
    return kinds


@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("program", DEFAULT_PROGRAMS)
def test_column_identity(program, technique):
    kinds = _assert_column_identical(program, technique)
    # The ample-budget cells of a wait-mode column never fail: they must
    # be synthesized, not re-emulated (that is where the speedup lives).
    if _column(program, technique)[2].policy.wait_for_full_recharge:
        assert "synthesize" in kinds


@pytest.mark.sweep
@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("program", BENCHMARK_NAMES)
def test_column_identity_exhaustive(program, technique):
    _assert_column_identical(program, technique, seeds=(0, 1, 2, 3))


def test_voltage_checking_policies_cannot_be_taped():
    """MEMENTOS consults the remaining charge before any failure; its
    prefix is mode-dependent, so recording must refuse outright."""
    plat, bench, compiled, _ = _column("warloop", "mementos")
    with pytest.raises(ValueError):
        record_tape(
            compiled.module, plat.model, compiled.policy,
            vm_size=plat.vm_size, inputs=bench.default_inputs(),
        )


# -- every snapshot resumes exactly -------------------------------------------

_DENSE: Dict[str, Tuple] = {}


def _dense_tape():
    """A tape keeping *every* commit of the recording (no thinning)."""
    if "tape" not in _DENSE:
        plat, bench, compiled, _ = _column("warloop", "schematic")
        tape = record_tape(
            compiled.module, plat.model, compiled.policy,
            vm_size=plat.vm_size, inputs=bench.default_inputs(),
            max_snapshots=1 << 30,
        )
        assert len(tape.entries) == tape.commits
        _DENSE["tape"] = (plat, bench, compiled, tape)
    return _DENSE["tape"]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_snapshot_restores_exactly(data):
    """Resuming any commit's snapshot under continuous power replays the
    rest of the recording and lands on the recording's exact report —
    capture/restore is lossless at every commit index."""
    plat, bench, compiled, tape = _dense_tape()
    idx = data.draw(st.integers(0, len(tape.entries) - 1))
    report = fork_cell(
        compiled.module, plat.model, compiled.policy,
        PowerSpec.continuous(), tape, idx,
        vm_size=plat.vm_size, inputs=bench.default_inputs(),
    )
    assert repr(report) == repr(tape.report)


def test_forked_step_hook_stream_is_a_cold_suffix():
    """The instrumentable boundary stream of a fork must be exactly the
    cold run's tail: same sites, same cycle counts, in order."""
    plat, bench, compiled, tape = _dense_tape()
    spec = PowerSpec.continuous()

    cold_stream = []
    run_intermittent(
        compiled.module, plat.model, compiled.policy, spec.build(),
        vm_size=plat.vm_size, inputs=bench.default_inputs(),
        step_hook=lambda site, cycles: cold_stream.append((site, cycles)),
    )
    fork_stream = []
    fork_cell(
        compiled.module, plat.model, compiled.policy, spec, tape,
        len(tape.entries) // 2,
        vm_size=plat.vm_size, inputs=bench.default_inputs(),
        step_hook=lambda site, cycles: fork_stream.append((site, cycles)),
    )
    assert fork_stream, "fork executed nothing"
    assert len(fork_stream) < len(cold_stream)
    assert cold_stream[-len(fork_stream):] == fork_stream


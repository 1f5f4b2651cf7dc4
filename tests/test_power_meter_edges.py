"""Edge cases of the power-failure model and the energy meter.

The testkit leans hard on PowerManager semantics — inclusive budgets,
one-failure-per-step scheduled injection, replayable failure logs — so
these pin the corners: zero budgets, exhausted schedules,
``remaining_fraction`` in every mode, and the meter's conservation and
monotonicity invariants under arbitrary operation sequences.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator.meter import EnergyMeter
from repro.emulator.compiled import fold_source
from repro.emulator.power import PowerManager, PowerMode


# -- zero budgets ------------------------------------------------------------


def test_eb_zero_fails_on_first_positive_consumption():
    power = PowerManager.energy_budget(0.0)
    # Zero-energy steps consume exactly the (zero) budget: inclusive, safe.
    assert not power.consume(0.0, 1)
    assert power.remaining == 0.0
    assert power.consume(0.001, 1)
    assert power.failures == 1


def test_tbpf_zero_means_no_periodic_failures():
    power = PowerManager.periodic(0)
    for _ in range(100):
        assert not power.consume(1.0, 7)
    assert power.failures == 0
    assert power.remaining == float("inf")
    assert power.remaining_fraction == 1.0


# -- remaining_fraction in all five modes ------------------------------------


def test_remaining_fraction_continuous():
    power = PowerManager.continuous()
    power.consume(1e9, 10**9)
    assert power.remaining == float("inf")
    assert power.remaining_fraction == 1.0


def test_remaining_fraction_energy_budget():
    power = PowerManager.energy_budget(100.0)
    assert power.remaining_fraction == 1.0
    power.consume(25.0, 1)
    assert math.isclose(power.remaining_fraction, 0.75)
    power.consume(75.0, 1)
    assert power.remaining_fraction == 0.0
    power.recharge_full()
    assert power.remaining_fraction == 1.0
    # Infinite budget: the fraction must not become nan.
    assert PowerManager.energy_budget(float("inf")).remaining_fraction == 1.0


def test_remaining_fraction_periodic():
    power = PowerManager.periodic(100)
    power.consume(0.0, 40)
    assert math.isclose(power.remaining_fraction, 0.60)
    power.consume(0.0, 60)
    assert power.remaining_fraction == 0.0


def test_remaining_fraction_scheduled_drains_toward_next_offset():
    power = PowerManager.scheduled([100])
    assert power.remaining_fraction == 1.0
    power.consume(0.0, 50)
    assert math.isclose(power.remaining_fraction, 0.5)
    power.consume(0.0, 50)  # timeline == offset: inclusive, no failure
    assert power.failures == 0
    assert power.remaining_fraction == 0.0
    assert power.consume(0.0, 1)
    power.recharge_full()
    # Schedule exhausted: supply is effectively continuous again.
    assert power.next_scheduled is None
    assert power.remaining_fraction == 1.0


def test_remaining_fraction_stochastic():
    power = PowerManager.stochastic(mean_cycles=1_000.0, seed=3)
    window = power._window
    assert window >= 1
    power.consume(0.0, window)
    assert power.remaining_fraction == 0.0  # exactly the window: still alive
    assert power.failures == 0


# -- scheduled injection semantics -------------------------------------------


def test_scheduled_one_failure_per_step():
    """Two offsets inside one step still cost two *separate* failures: the
    second fires on the next consume call (a failure during recovery)."""
    power = PowerManager.scheduled([10, 11])
    assert not power.consume(0.0, 10)  # reaches 10 exactly: safe
    assert power.consume(0.0, 5)  # crosses both 10 and 11
    assert power.failures == 1
    assert power.consume(0.0, 1)  # the second offset fires here
    assert power.failures == 2
    assert not power.consume(0.0, 1)


def _drive(power: PowerManager, steps):
    """Run ``power`` through ``steps`` with interpreter-style recharges;
    return the indices of the failing steps."""
    failed = []
    for i, (energy, cycles) in enumerate(steps):
        if power.consume(energy, cycles):
            failed.append(i)
            power.recharge_full()
    return failed


def test_failure_log_replays_as_a_scheduled_run():
    """The invariant the shrinker relies on: replaying a run's failure_log
    through PowerManager.scheduled reproduces the same failure points."""
    steps = [(1.0, 7)] * 40
    original = PowerManager.periodic(50)
    original_failed = _drive(original, steps)
    assert original.failures > 0

    replay = PowerManager.scheduled(original.failure_log)
    assert _drive(replay, steps) == original_failed
    assert replay.failure_log == original.failure_log


def test_recording_run_never_fails_and_logs_boundaries():
    power = PowerManager.recording()
    for _ in range(5):
        assert not power.consume(1.0, 3)
    assert power.failures == 0
    assert power.record == [0, 3, 6, 9, 12]  # pre-step timeline offsets


# -- stochastic mode ----------------------------------------------------------


def test_stochastic_is_deterministic_per_seed():
    def trace(seed):
        power = PowerManager.stochastic(mean_cycles=200.0, seed=seed)
        out = []
        for i in range(2_000):
            if power.consume(1.0, 1):
                out.append(i)
                power.recharge_full()
        return out

    a, b = trace(42), trace(42)
    assert a == b
    assert a  # mean 200 over 2000 cycles: failures certain
    assert trace(7) != a  # astronomically unlikely to collide


def test_stochastic_redraws_window_on_recharge():
    power = PowerManager.stochastic(mean_cycles=500.0, seed=0)
    windows = set()
    for _ in range(32):
        windows.add(power._window)
        power.recharge_full()
    assert len(windows) > 1


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=40),
    st.floats(min_value=0.0, max_value=1e9),
)
def test_fold_is_the_per_step_addition_sequence(stream, start):
    """A compiled region folds each accounting stream with a generated
    expression (``fold_source``); evaluated, it must give exactly what
    one ``+=`` per instruction gives, on every Python (from 3.12 on
    ``sum`` compensates rounding and would not)."""
    expected = start
    for value in stream:
        expected += value
    assert _fold(stream, start) == expected
    # A compensated sum differs on both streams below; the fold must not.
    assert _fold([0.1] * 10, 0.0) == 0.9999999999999999
    assert _fold([1e16, 1.0, 1.0], 0.0) == 1e16


def _fold(stream, start):
    """Evaluate the generated fold of ``stream`` onto ``start``."""
    return eval(fold_source("c", stream), {"__builtins__": {}}, {"c": start})


def test_stochastic_requires_positive_mean():
    try:
        PowerManager(mode=PowerMode.STOCHASTIC, mean_cycles=0.0)
    except ValueError:
        pass
    else:
        raise AssertionError("mean_cycles=0 must be rejected")


# -- EnergyMeter invariants under hypothesis ----------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("compute"),
            st.floats(0.0, 100.0),
            st.floats(0.0, 50.0),
            st.booleans(),
            st.booleans(),
        ),
        st.tuples(st.just("save"), st.floats(0.0, 100.0)),
        st.tuples(st.just("restore"), st.floats(0.0, 100.0)),
        st.tuples(st.just("commit")),
        st.tuples(st.just("rollback")),
    ),
    max_size=60,
)


@settings(max_examples=100, deadline=None)
@given(_OPS)
def test_energy_meter_monotone_and_conserving(ops):
    """Total energy (committed + pending) never decreases, no category
    ever goes negative, and every charged nanojoule lands in exactly one
    of computation / re-execution / save / restore."""
    meter = EnergyMeter()
    charged_compute = charged_save = charged_restore = 0.0
    prev_total = 0.0
    for op in ops:
        if op[0] == "compute":
            _, energy, access, is_vm, has_access = op
            access = min(access, energy)
            meter.charge_compute(
                energy, access_energy=access,
                access_is_vm=is_vm, has_access=has_access,
            )
            charged_compute += energy
        elif op[0] == "save":
            meter.charge_save(op[1])
            charged_save += op[1]
        elif op[0] == "restore":
            meter.charge_restore(op[1])
            charged_restore += op[1]
        elif op[0] == "commit":
            meter.commit()
        else:
            meter.rollback()
        total = meter.total_with_pending
        assert total >= prev_total - 1e-9
        prev_total = total

    b = meter.breakdown
    for value in (b.computation, b.save, b.restore, b.reexecution,
                  b.cpu, b.vm_access, b.nvm_access):
        assert value >= -1e-9
    # Conservation: committed computation + re-execution + still-pending
    # computation account for every charged compute nanojoule.
    assert math.isclose(
        b.computation + b.reexecution + meter.pending.computation,
        charged_compute, rel_tol=1e-9, abs_tol=1e-6,
    )
    assert math.isclose(b.save, charged_save, rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(b.restore, charged_restore, rel_tol=1e-9, abs_tol=1e-6)
    # The Fig. 7 split partitions committed computation.
    assert math.isclose(
        b.cpu + b.vm_access + b.nvm_access, b.computation,
        rel_tol=1e-9, abs_tol=1e-6,
    )

"""Power-failure injection: the capacitor and its discharge.

Four failure-injecting modes (plus ``CONTINUOUS``, which never fails):

- ``ENERGY_BUDGET``: the capacitor holds ``EB`` nJ; a power failure occurs
  the moment cumulative consumption since the last full recharge exceeds
  ``EB``. This is the view SCHEMATIC's guarantee is stated in (§II-B).
- ``PERIODIC_CYCLES``: a failure every ``TBPF`` *active* cycles, the
  SCEPTIC emulator's "time between power failures" knob (§IV-A). §IV-C
  links the two: EB is set to the average energy consumed per TBPF window.
- ``SCHEDULED``: failures at an explicit, sorted list of absolute
  active-cycle offsets (the *timeline*, which keeps counting across
  recharges). This is the fault-injection mode of the testkit: a schedule
  of one offset kills exactly one chosen instruction boundary, a schedule
  of two models a failure followed by an immediate second failure during
  recovery, and a schedule replayed from a recorded
  :attr:`PowerManager.failure_log` reproduces any other mode's run
  deterministically.
- ``STOCHASTIC``: seeded geometric inter-failure times (in active cycles),
  modeling RF energy harvesting where each charge cycle buys an
  unpredictable amount of work. Fully deterministic given ``seed``.

Boundary semantics (uniform across all modes)
---------------------------------------------

The budget — ``EB`` nJ, ``TBPF`` cycles, a scheduled offset, or a drawn
stochastic window — is **inclusive**: the system may consume *exactly* the
budget and survive; the failure strikes on the first unit *beyond* it.
This matches the static guarantee, which admits placements whose
worst-case inter-checkpoint consumption equals ``EB``
(:meth:`repro.core.path_analysis.RegionAnalysis`): a segment costing
exactly the budget must complete. All comparisons in :meth:`consume` are
therefore strict (``>``), never ``>=``.

Sleeping at a checkpoint (wait-for-full-recharge techniques) resets the
capacitor; failures during sleep are harmless (the paper: "Should a power
failure occur during a standby period, the system goes back to sleep").
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

class PowerMode(enum.Enum):
    CONTINUOUS = "continuous"  # never fails (reference/profiling runs)
    ENERGY_BUDGET = "energy-budget"
    PERIODIC_CYCLES = "periodic-cycles"
    SCHEDULED = "scheduled"
    STOCHASTIC = "stochastic"


# Module names for the members: on CPython 3.11 a member lookup on the
# enum class costs several times the identity test it feeds, and
# consume runs once per step.
_CONTINUOUS = PowerMode.CONTINUOUS
_ENERGY_BUDGET = PowerMode.ENERGY_BUDGET
_PERIODIC_CYCLES = PowerMode.PERIODIC_CYCLES
_SCHEDULED = PowerMode.SCHEDULED
_STOCHASTIC = PowerMode.STOCHASTIC
_INF = math.inf


@dataclass
class PowerManager:
    """Tracks capacitor charge (or the TBPF countdown) during emulation.

    Attributes:
        timeline: total active cycles consumed since boot, *monotonic
            across recharges* — the time axis scheduled failures live on.
        failure_log: for every injected failure, the timeline value at the
            start of the step that failed. Feeding this list back into
            :meth:`scheduled` replays the same failure points (execution
            being deterministic), which is what the testkit's
            counterexample shrinker relies on.
        record: when set to a list, :meth:`consume` appends the pre-step
            timeline of every call — the instruction-boundary offsets a
            scheduled failure can target.
    """

    mode: PowerMode = PowerMode.CONTINUOUS
    eb: float = float("inf")  # nJ, ENERGY_BUDGET mode
    tbpf: int = 0  # active cycles, PERIODIC_CYCLES mode
    schedule: Sequence[int] = ()  # timeline offsets, SCHEDULED mode
    mean_cycles: float = 0.0  # mean inter-failure window, STOCHASTIC mode
    seed: int = 0  # STOCHASTIC mode PRNG seed
    consumed_since_recharge: float = 0.0
    cycles_since_recharge: int = 0
    failures: int = 0
    recharges: int = 0
    timeline: int = 0
    failure_log: List[int] = field(default_factory=list)
    record: Optional[List[int]] = None
    #: When set to a list, :meth:`recharge_full` appends one
    #: ``(consumed_since_recharge, cycles_since_recharge, timeline)``
    #: triple *before* resetting the counters — the per-window peak
    #: aggregates the differential-emulation planner replays failure
    #: predicates against (:mod:`repro.emulator.diffemu`). Only the cold
    #: recharge path pays for this; :meth:`consume` is untouched.
    span_log: Optional[List] = None
    _schedule_pos: int = 0
    _window_anchor: int = 0  # timeline at the last recharge (SCHEDULED)
    _window: int = 0  # current stochastic inter-failure window
    _rng: Optional[random.Random] = None

    def __post_init__(self) -> None:
        self.schedule = sorted(int(o) for o in self.schedule)
        if self.mode is _STOCHASTIC:
            if not self.mean_cycles or self.mean_cycles <= 0:
                raise ValueError("STOCHASTIC mode needs mean_cycles > 0")
            self._rng = random.Random(self.seed)
            self._window = self._draw_window()

    def _draw_window(self) -> int:
        """Geometric inter-failure time with mean ``mean_cycles`` — each
        active cycle independently kills the supply with probability
        1/mean (the memoryless model of an RF harvesting front end)."""
        assert self._rng is not None
        u = self._rng.random()
        # Inverse-CDF sampling of Geometric(p), support {1, 2, ...}.
        p = 1.0 / self.mean_cycles
        if p >= 1.0:
            return 1
        return max(1, int(math.log(1.0 - u) / math.log(1.0 - p)) + 1)

    def _fail(self, cycles: int) -> bool:
        self.failures += 1
        self.failure_log.append(self.timeline - cycles)
        return True

    def consume(self, energy: float, cycles: int) -> bool:
        """Account one atomic energy-consuming step (an instruction, a
        checkpoint save, a restore, a voltage check); returns True if the
        power failed *during* it. The failing step does not commit its
        effects — the failure strikes at the step boundary, which is
        conservative for roll-back techniques and irrelevant for wait-mode
        ones. See the module docstring for the (inclusive) boundary
        semantics."""
        if self.record is not None:
            self.record.append(self.timeline)
        self.consumed_since_recharge += energy
        self.cycles_since_recharge += cycles
        self.timeline += cycles
        if self.mode is _ENERGY_BUDGET:
            if self.consumed_since_recharge > self.eb:
                return self._fail(cycles)
        elif self.mode is _PERIODIC_CYCLES:
            if self.tbpf > 0 and self.cycles_since_recharge > self.tbpf:
                return self._fail(cycles)
        elif self.mode is _SCHEDULED:
            if (
                self._schedule_pos < len(self.schedule)
                and self.timeline > self.schedule[self._schedule_pos]
            ):
                # One failure per step; offsets already passed fire on the
                # next step (an immediate failure during recovery).
                self._schedule_pos += 1
                return self._fail(cycles)
        elif self.mode is _STOCHASTIC:
            if self.cycles_since_recharge > self._window:
                return self._fail(cycles)
        return False

    def admission_limits(self) -> Tuple[float, float, float]:
        """The ``(energy, cycles since recharge, timeline)`` values a
        compiled region must stay within for no failure predicate of
        :meth:`consume` to fire: ``inf`` where the mode has none. A region
        reads them once at entry (:mod:`repro.emulator.compiled`); only
        cold paths change them (:meth:`recharge_full` redraws a
        stochastic window, a failing :meth:`consume` advances the
        schedule).

        Why testing only a segment's final values is sound: the region
        folds a segment's energies onto ``consumed_since_recharge`` in
        the same left-to-right C-double additions :meth:`consume`
        performs, so the final value is bit-identical to stepping, and
        adding nonnegative floats is monotone under IEEE
        round-to-nearest, so every prefix is <= the final value: final
        <= limit means no prefix exceeded it (the predicates are strict
        ``>``). The cycle counters are exact, monotone integers."""
        mode = self.mode
        if mode is _ENERGY_BUDGET:
            return self.eb, _INF, _INF
        if mode is _PERIODIC_CYCLES:
            return _INF, (self.tbpf if self.tbpf > 0 else _INF), _INF
        if mode is _SCHEDULED:
            if self._schedule_pos < len(self.schedule):
                return _INF, _INF, self.schedule[self._schedule_pos]
            return _INF, _INF, _INF
        if mode is _STOCHASTIC:
            return _INF, self._window, _INF
        return _INF, _INF, _INF

    @property
    def next_scheduled(self) -> Optional[int]:
        """The next pending scheduled offset, None when exhausted."""
        if self._schedule_pos < len(self.schedule):
            return self.schedule[self._schedule_pos]
        return None

    @property
    def remaining(self) -> float:
        """Remaining capacitor energy (what MEMENTOS's voltage measurement
        observes). In the cycle-denominated modes the remaining window is
        converted to a fraction of ``eb`` when ``eb`` is finite."""
        if self.mode is _ENERGY_BUDGET:
            return max(self.eb - self.consumed_since_recharge, 0.0)
        if self.mode is _CONTINUOUS or (
            self.mode is _PERIODIC_CYCLES and self.tbpf <= 0
        ):
            return float("inf")
        return self.remaining_fraction * (
            self.eb if self.eb != float("inf") else 1.0
        )

    @property
    def remaining_fraction(self) -> float:
        """Fraction of the current charge window still unspent, in [0, 1].

        For ``SCHEDULED`` the window runs from the last recharge to the
        next scheduled offset, for ``STOCHASTIC`` it is the drawn
        inter-failure time — so a MEMENTOS-style voltage check sees the
        charge genuinely draining toward the injected failure."""
        if self.mode is _ENERGY_BUDGET and self.eb > 0:
            if self.eb == float("inf"):
                return 1.0
            return max(1.0 - self.consumed_since_recharge / self.eb, 0.0)
        if self.mode is _PERIODIC_CYCLES and self.tbpf > 0:
            return max(1.0 - self.cycles_since_recharge / self.tbpf, 0.0)
        if self.mode is _SCHEDULED:
            nxt = self.next_scheduled
            if nxt is None:
                return 1.0
            window = max(nxt - self._window_anchor, 1)
            return max((nxt - self.timeline) / window, 0.0)
        if self.mode is _STOCHASTIC and self._window > 0:
            return max(1.0 - self.cycles_since_recharge / self._window, 0.0)
        return 1.0

    def recharge_full(self) -> None:
        """Sleep until the capacitor is fully charged (or: the device
        restarts after an outage with a replenished capacitor)."""
        if self.span_log is not None:
            self.span_log.append((
                self.consumed_since_recharge,
                self.cycles_since_recharge,
                self.timeline,
            ))
        self.consumed_since_recharge = 0.0
        self.cycles_since_recharge = 0
        self.recharges += 1
        self._window_anchor = self.timeline
        if self.mode is _STOCHASTIC:
            self._window = self._draw_window()

    def state_dict(self) -> dict:
        """All dynamic state, for snapshot/fork emulation. The static
        configuration (mode, eb, schedule, ...) is deliberately excluded:
        a snapshot restores onto a manager built from the same spec, and
        :meth:`restore_state` enforces that."""
        return {
            "mode": self.mode.value,
            "consumed_since_recharge": self.consumed_since_recharge,
            "cycles_since_recharge": self.cycles_since_recharge,
            "failures": self.failures,
            "recharges": self.recharges,
            "timeline": self.timeline,
            "failure_log": list(self.failure_log),
            "_schedule_pos": self._schedule_pos,
            "_window_anchor": self._window_anchor,
            "_window": self._window,
            "_rng_state": (
                self._rng.getstate() if self._rng is not None else None
            ),
        }

    def restore_state(self, state: dict) -> None:
        if state["mode"] != self.mode.value:
            raise ValueError(
                f"power snapshot for mode {state['mode']!r} cannot restore "
                f"onto a {self.mode.value!r} manager"
            )
        self.consumed_since_recharge = state["consumed_since_recharge"]
        self.cycles_since_recharge = state["cycles_since_recharge"]
        self.failures = state["failures"]
        self.recharges = state["recharges"]
        self.timeline = state["timeline"]
        self.failure_log = list(state["failure_log"])
        self._schedule_pos = state["_schedule_pos"]
        self._window_anchor = state["_window_anchor"]
        self._window = state["_window"]
        if state["_rng_state"] is not None:
            assert self._rng is not None
            self._rng.setstate(state["_rng_state"])

    @classmethod
    def continuous(cls) -> "PowerManager":
        return cls(mode=PowerMode.CONTINUOUS)

    @classmethod
    def energy_budget(cls, eb: float) -> "PowerManager":
        return cls(mode=PowerMode.ENERGY_BUDGET, eb=eb)

    @classmethod
    def periodic(cls, tbpf: int, eb: float = float("inf")) -> "PowerManager":
        return cls(mode=PowerMode.PERIODIC_CYCLES, tbpf=tbpf, eb=eb)

    @classmethod
    def scheduled(
        cls, offsets: Sequence[int], eb: float = float("inf")
    ) -> "PowerManager":
        """Fail at each timeline offset in ``offsets`` (active cycles since
        boot). An empty schedule never fails — useful as a recording run
        (set :attr:`record`) that enumerates every injectable boundary."""
        return cls(mode=PowerMode.SCHEDULED, schedule=tuple(offsets), eb=eb)

    @classmethod
    def stochastic(
        cls, mean_cycles: float, seed: int = 0, eb: float = float("inf")
    ) -> "PowerManager":
        """Seeded geometric inter-failure times with the given mean."""
        return cls(
            mode=PowerMode.STOCHASTIC,
            mean_cycles=mean_cycles,
            seed=seed,
            eb=eb,
        )

    @classmethod
    def recording(cls) -> "PowerManager":
        """A never-failing manager that logs every step boundary."""
        power = cls(mode=PowerMode.SCHEDULED, schedule=())
        power.record = []
        return power

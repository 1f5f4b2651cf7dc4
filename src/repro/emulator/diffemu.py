"""Differential grid emulation: record a column once, fork every cell.

A design-space sweep runs one (module, platform, technique) *column*
under many power configurations — EB values, TBPF periods, power modes.
All of those cells execute the **same deterministic instruction stream**
up to their first power failure; they differ only in where that failure
lands. Cold emulation replays the shared prefix for every cell. This
module replays it **once**: call :func:`record_tape` once per column,
then :func:`run_cell` once per :class:`PowerSpec`. A tape pays off only
when many cells share it: the paper evaluation (``run_all``, about two
cells per column) emulates every cell cold instead.

1. :func:`record_tape` runs the column failure-free (continuous power),
   capturing a resumable :class:`~repro.emulator.interpreter.EmulatorSnapshot`
   at checkpoint commits (thinned to at most ``max_snapshots`` by stride
   doubling) plus, per recharge window, the peak power-meter aggregates
   (``PowerManager.span_log``).
2. :func:`plan_cell` replays the cell's failure predicate against the
   recorded aggregates to locate the first window in which the cell's
   first power failure fires, and picks the last snapshot *strictly
   before* that point.
3. :func:`run_cell` resumes from that snapshot — or synthesizes the
   report outright when the predicate never fires (the cell would simply
   replay the recording), or falls back to cold emulation when no usable
   snapshot precedes the first failure.

Why the prefix is shareable across power modes
----------------------------------------------

Before its first failure a :class:`~repro.emulator.power.PowerManager`
only *accumulates*: ``consumed_since_recharge``, ``cycles_since_recharge``
and ``timeline`` evolve identically under every mode (recharges are
checkpoint-driven in wait mode and absent in roll-back mode), and the
mode only parameterizes the failure *predicate* — all strict-``>``
comparisons of those aggregates against a fixed threshold, monotone
within a recharge window. So a window fires iff its end-of-window
aggregates fire, and the first firing window (plus the fork point's own
aggregates) fully determines where the cell diverges from the recording.

Two policy classes are excluded by construction and always run cold:

- voltage-checking policies (``skip_threshold`` set, MEMENTOS): they read
  ``remaining_fraction`` *before* the first failure, so their prefix is
  mode-dependent;
- anything the caller instruments (step hooks, tracing, telemetry):
  byte-identical observation streams require the cold path.

Tapes carry an explicit content digest (:meth:`SnapshotTape.seal` /
:meth:`SnapshotTape.verify`): a corrupted snapshot — even a single
bit-flip that still unpickles — fails verification and :func:`run_cell`
falls back to cold emulation instead of resuming from wrong state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.emulator.interpreter import (
    EmulatorSnapshot,
    Interpreter,
    InterpreterConfig,
)
from repro.emulator.power import PowerManager, PowerMode
from repro.emulator.report import ExecutionReport
from repro.emulator.runtime import CheckpointPolicy
from repro.energy.model import EnergyModel
from repro.errors import EmulationError
from repro.ir.module import Module

#: Bump when the tape layout or planning semantics change: tapes from
#: older code carry the old value in :attr:`SnapshotTape.schema`.
TAPE_SCHEMA = 1

#: Snapshots kept per tape. Thinning is stride doubling: the tape always
#: holds commits ``0, s, 2s, ...`` for the smallest power-of-two stride
#: that fits, so resume points stay evenly spread over the whole run.
DEFAULT_MAX_SNAPSHOTS = 32


# -- power specifications ---------------------------------------------------------


@dataclass(frozen=True)
class PowerSpec:
    """A :class:`PowerManager` *configuration* (not its mutable state).

    Frozen and hashable so it can parameterize planning and caching. The
    cache identity (:meth:`key_parts`) always includes the mode, the seed
    and the schedule — a SCHEDULED and a STOCHASTIC cell with otherwise
    equal numbers must never share a snapshot or a cached run.
    """

    mode: str = PowerMode.CONTINUOUS.value
    eb: float = float("inf")
    tbpf: int = 0
    mean_cycles: float = 0.0
    seed: int = 0
    schedule: Tuple[int, ...] = ()

    @classmethod
    def continuous(cls) -> "PowerSpec":
        return cls(mode=PowerMode.CONTINUOUS.value)

    @classmethod
    def energy_budget(cls, eb: float) -> "PowerSpec":
        return cls(mode=PowerMode.ENERGY_BUDGET.value, eb=eb)

    @classmethod
    def periodic(cls, tbpf: int, eb: float = float("inf")) -> "PowerSpec":
        return cls(mode=PowerMode.PERIODIC_CYCLES.value, tbpf=tbpf, eb=eb)

    @classmethod
    def scheduled(
        cls, offsets: Sequence[int], eb: float = float("inf")
    ) -> "PowerSpec":
        return cls(
            mode=PowerMode.SCHEDULED.value,
            schedule=tuple(sorted(int(o) for o in offsets)),
            eb=eb,
        )

    @classmethod
    def stochastic(
        cls, mean_cycles: float, seed: int = 0, eb: float = float("inf")
    ) -> "PowerSpec":
        return cls(
            mode=PowerMode.STOCHASTIC.value,
            mean_cycles=mean_cycles,
            seed=seed,
            eb=eb,
        )

    @classmethod
    def from_manager(cls, power: PowerManager) -> "PowerSpec":
        """The spec of a freshly built manager (pre-consumption)."""
        return cls(
            mode=power.mode.value,
            eb=power.eb,
            tbpf=power.tbpf,
            mean_cycles=power.mean_cycles,
            seed=power.seed,
            schedule=tuple(power.schedule),
        )

    def build(self) -> PowerManager:
        return PowerManager(
            mode=PowerMode(self.mode),
            eb=self.eb,
            tbpf=self.tbpf,
            mean_cycles=self.mean_cycles,
            seed=self.seed,
            schedule=self.schedule,
        )

    def key_parts(self) -> Tuple:
        """Canonical cache-key identity — every field, every mode, always
        (pinned by tests/test_diffemu_planner.py)."""
        return (
            "power-spec",
            self.mode,
            repr(self.eb),
            self.tbpf,
            repr(self.mean_cycles),
            self.seed,
            tuple(self.schedule),
        )

    def describe(self) -> str:
        if self.mode == PowerMode.ENERGY_BUDGET.value:
            return f"energy eb={self.eb:.0f}"
        if self.mode == PowerMode.PERIODIC_CYCLES.value:
            return f"periodic tbpf={self.tbpf}"
        if self.mode == PowerMode.SCHEDULED.value:
            return f"scheduled x{len(self.schedule)}"
        if self.mode == PowerMode.STOCHASTIC.value:
            return f"stochastic mean={self.mean_cycles:.0f} seed={self.seed}"
        return self.mode


# -- tape -------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerPoint:
    """The power meter's aggregates at one instant of the recording."""

    consumed: float
    cycles: int
    timeline: int
    recharges: int
    window_anchor: int


@dataclass
class TapeEntry:
    ordinal: int  # commit index on the recording run (0-based)
    ckpt_id: int
    point: PowerPoint
    snapshot: EmulatorSnapshot


@dataclass
class SnapshotTape:
    """The recorded column: snapshots + per-window power aggregates."""

    policy_name: str
    wait_mode: bool
    #: (consumed, cycles, end-of-window timeline) per completed recharge
    #: window, in order — the *peak* aggregates the predicates replay.
    recharge_spans: List[Tuple[float, int, int]]
    entries: List[TapeEntry]
    final: PowerPoint
    commits: int  # commits observed before thinning
    report: ExecutionReport  # the failure-free recording's report
    schema: int = TAPE_SCHEMA
    digest: str = ""

    def _compute_digest(self) -> str:
        h = hashlib.sha256()

        def feed(obj) -> None:
            h.update(repr(obj).encode("utf-8"))
            h.update(b"\x00")

        feed((self.schema, self.policy_name, self.wait_mode, self.commits))
        feed(self.recharge_spans)
        feed(self.final)
        feed(self.report)
        for entry in self.entries:
            snap = entry.snapshot
            feed((entry.ordinal, entry.ckpt_id, entry.point))
            feed(snap.frames)
            feed((
                snap.ckpt_id,
                snap.snapshot_payload_bytes,
                snap.instructions_executed,
                snap.active_cycles,
                snap.checkpoints_skipped,
                snap.peak_vm_bytes,
                snap.seg_anchor,
                snap.attempts_on_snapshot,
                snap.run_id,
            ))
            feed(snap.images)
            feed(snap.meter_state)
            feed(snap.power_state)
        return h.hexdigest()

    def seal(self) -> "SnapshotTape":
        self.digest = self._compute_digest()
        return self

    def verify(self) -> bool:
        """True iff the tape's contents still match its sealed digest.

        Catches corruption the pickle layer cannot: a flipped register
        value or power aggregate unpickles fine but would make every fork
        silently wrong."""
        try:
            return bool(self.digest) and self._compute_digest() == self.digest
        except Exception:
            return False


def record_tape(
    module: Module,
    model: EnergyModel,
    policy: CheckpointPolicy,
    *,
    vm_size: int = 1 << 30,
    inputs: Optional[Dict[str, List[int]]] = None,
    max_instructions: int = 200_000_000,
    max_snapshots: int = DEFAULT_MAX_SNAPSHOTS,
) -> SnapshotTape:
    """Run the column failure-free and capture its snapshot tape.

    The recording runs under continuous power: before the first failure
    every mode executes this exact stream (module docstring), so one tape
    serves the whole column. Raises :class:`ValueError` for
    voltage-checking policies, whose prefix is not mode-independent.
    """
    if policy.skip_threshold is not None:
        raise ValueError(
            f"policy {policy.name!r} consults the remaining charge before "
            "failures; its prefix is mode-dependent and cannot be taped"
        )
    power = PowerManager.continuous()
    power.span_log = []
    entries: List[TapeEntry] = []
    state = {"stride": 1, "commits": 0}

    def hook(interp: Interpreter, ckpt_id: int) -> None:
        ordinal = state["commits"]
        state["commits"] += 1
        if ordinal % state["stride"]:
            return
        snap = interp.capture_snapshot()
        entries.append(TapeEntry(
            ordinal=ordinal,
            ckpt_id=ckpt_id,
            point=_point_of(snap.power_state),
            snapshot=snap,
        ))
        if len(entries) > max_snapshots:
            # Keep commits 0, 2s, 4s, ...: ordinals stay multiples of the
            # doubled stride and evenly spread over the run so far.
            del entries[1::2]
            state["stride"] *= 2

    config = InterpreterConfig(
        inputs=dict(inputs or {}),
        max_instructions=max_instructions,
        vm_size=vm_size,
        commit_hook=hook,
    )
    interp = Interpreter(module, model, policy, power, config)
    report = interp.run()
    tape = SnapshotTape(
        policy_name=policy.name,
        wait_mode=policy.wait_for_full_recharge,
        recharge_spans=list(power.span_log),
        entries=entries,
        final=PowerPoint(
            consumed=power.consumed_since_recharge,
            cycles=power.cycles_since_recharge,
            timeline=power.timeline,
            recharges=power.recharges,
            window_anchor=power._window_anchor,
        ),
        commits=state["commits"],
        report=report,
    )
    return tape.seal()


def _point_of(power_state: dict) -> PowerPoint:
    return PowerPoint(
        consumed=power_state["consumed_since_recharge"],
        cycles=power_state["cycles_since_recharge"],
        timeline=power_state["timeline"],
        recharges=power_state["recharges"],
        window_anchor=power_state["_window_anchor"],
    )


# -- planning ---------------------------------------------------------------------


@dataclass(frozen=True)
class ForkPlan:
    """Where one cell diverges from the recording, and how to run it.

    ``kind`` is ``"synthesize"`` (the cell never fails: its report is the
    recording's), ``"fork"`` (resume ``tape.entries[entry_index]``) or
    ``"cold"`` (no snapshot strictly precedes the first failure).
    ``first_failure_window`` is the 0-based recharge-window ordinal the
    first failure fires in, -1 when it never fires.
    """

    kind: str
    entry_index: int = -1
    first_failure_window: int = -1
    reason: str = ""


class _WindowSizes:
    """Lazily reconstructed stochastic window sizes.

    A fresh STOCHASTIC manager draws window 0 at construction and one
    more window per recharge, so size ``j`` is the ``(j+1)``-th draw of
    ``Random(seed)`` — replayed here on a throwaway manager.
    """

    def __init__(self, spec: PowerSpec):
        self._sizes: List[int] = []
        self._manager: Optional[PowerManager] = None
        if spec.mode == PowerMode.STOCHASTIC.value:
            self._manager = spec.build()
            self._sizes.append(self._manager._window)

    def __call__(self, j: int) -> int:
        if self._manager is None:
            return 0
        while len(self._sizes) <= j:
            self._sizes.append(self._manager._draw_window())
        return self._sizes[j]


def _fires(
    spec: PowerSpec,
    consumed: float,
    cycles: int,
    timeline: int,
    window: int,
) -> bool:
    """Replay :meth:`PowerManager.consume`'s failure predicate (strict
    ``>``, inclusive budgets) against recorded aggregates."""
    mode = spec.mode
    if mode == PowerMode.ENERGY_BUDGET.value:
        return consumed > spec.eb
    if mode == PowerMode.PERIODIC_CYCLES.value:
        return spec.tbpf > 0 and cycles > spec.tbpf
    if mode == PowerMode.SCHEDULED.value:
        return bool(spec.schedule) and timeline > spec.schedule[0]
    if mode == PowerMode.STOCHASTIC.value:
        return cycles > window
    return False  # CONTINUOUS never fails


def plan_cell(tape: SnapshotTape, spec: PowerSpec) -> ForkPlan:
    """Locate the cell's first divergence from the recording and pick the
    last snapshot strictly before it (module docstring for the math)."""
    sizes = _WindowSizes(spec)
    first: Optional[int] = None
    for j, (consumed, cycles, timeline) in enumerate(tape.recharge_spans):
        if _fires(spec, consumed, cycles, timeline, sizes(j)):
            first = j
            break
    if first is None:
        open_ordinal = len(tape.recharge_spans)
        if not _fires(
            spec, tape.final.consumed, tape.final.cycles,
            tape.final.timeline, sizes(open_ordinal),
        ):
            return ForkPlan(
                kind="synthesize",
                reason="no failure fires on the recorded run",
            )
        first = open_ordinal

    # A snapshot is safe iff it lies strictly before the first failure:
    # either in an earlier (non-firing) window, or in the firing window
    # but with aggregates the predicate does not yet fire on.
    best = -1
    for i, entry in enumerate(tape.entries):
        r = entry.point.recharges
        if r < first:
            best = i
        elif r == first and not _fires(
            spec, entry.point.consumed, entry.point.cycles,
            entry.point.timeline, sizes(r),
        ):
            best = i
        elif r > first:
            break
    if best < 0:
        return ForkPlan(
            kind="cold",
            first_failure_window=first,
            reason="first failure precedes the first snapshot",
        )
    return ForkPlan(
        kind="fork",
        entry_index=best,
        first_failure_window=first,
        reason=(
            f"fork commit #{tape.entries[best].ordinal} "
            f"(window {tape.entries[best].point.recharges}), first failure "
            f"in window {first}"
        ),
    )


def _fork_power_state(spec: PowerSpec, point: PowerPoint) -> dict:
    """The cell's power-manager state at the fork point.

    The recording ran under a CONTINUOUS manager, so the snapshot's own
    power state has the wrong mode; but pre-failure the cell's manager
    holds the same aggregates with zero failures, and its RNG (if any)
    has drawn exactly ``recharges`` windows past the boot draw."""
    p = spec.build()
    for _ in range(point.recharges):
        if p._rng is not None:
            p._window = p._draw_window()
    return {
        "mode": p.mode.value,
        "consumed_since_recharge": point.consumed,
        "cycles_since_recharge": point.cycles,
        "failures": 0,
        "recharges": point.recharges,
        "timeline": point.timeline,
        "failure_log": [],
        "_schedule_pos": 0,
        "_window_anchor": point.window_anchor,
        "_window": p._window,
        "_rng_state": p._rng.getstate() if p._rng is not None else None,
    }


# -- running ----------------------------------------------------------------------


def _synthesize(tape: SnapshotTape, spec: PowerSpec) -> ExecutionReport:
    """The report of a cell whose failure predicate never fires: the
    recording's report, re-labelled with the cell's power mode. Containers
    are copied so cells never alias each other."""
    report = tape.report
    return replace(
        report,
        power_mode=spec.mode,
        energy=replace(report.energy),
        outputs={name: list(v) for name, v in report.outputs.items()},
        failure_offsets=list(report.failure_offsets),
    )


def fork_cell(
    module: Module,
    model: EnergyModel,
    policy: CheckpointPolicy,
    spec: PowerSpec,
    tape: SnapshotTape,
    entry_index: int,
    *,
    vm_size: int = 1 << 30,
    inputs: Optional[Dict[str, List[int]]] = None,
    max_instructions: int = 200_000_000,
    step_hook: Optional[Callable[[str, int], None]] = None,
) -> ExecutionReport:
    """Resume one cell from ``tape.entries[entry_index]``."""
    entry = tape.entries[entry_index]
    adapted = replace(
        entry.snapshot,
        power_state=_fork_power_state(spec, entry.point),
    )
    config = InterpreterConfig(
        inputs=dict(inputs or {}),
        max_instructions=max_instructions,
        vm_size=vm_size,
        step_hook=step_hook,
    )
    interp = Interpreter(module, model, policy, spec.build(), config)
    return interp.resume(adapted)


def run_cell(
    module: Module,
    model: EnergyModel,
    policy: CheckpointPolicy,
    spec: PowerSpec,
    tape: SnapshotTape,
    *,
    vm_size: int = 1 << 30,
    inputs: Optional[Dict[str, List[int]]] = None,
    max_instructions: int = 200_000_000,
) -> Tuple[ExecutionReport, ForkPlan]:
    """Run one grid cell differentially: synthesize, fork or fall back.

    The returned report is byte-identical to a cold
    :func:`~repro.emulator.interpreter.run_intermittent` of the same cell
    (the identity suite's invariant). A tape that fails digest
    verification or cannot actually resume falls back to cold emulation.
    """
    if not tape.verify():
        plan = ForkPlan(kind="cold", reason="tape failed verification")
        return _run_cold(
            module, model, policy, spec, vm_size=vm_size, inputs=inputs,
            max_instructions=max_instructions,
        ), plan
    plan = plan_cell(tape, spec)
    if plan.kind == "synthesize":
        return _synthesize(tape, spec), plan
    if plan.kind == "fork":
        try:
            report = fork_cell(
                module, model, policy, spec, tape, plan.entry_index,
                vm_size=vm_size, inputs=inputs,
                max_instructions=max_instructions,
            )
        except EmulationError as exc:
            # A tape recorded for a different module revision (or
            # otherwise unresumable) must degrade, never miscompute.
            plan = ForkPlan(
                kind="cold",
                first_failure_window=plan.first_failure_window,
                reason=f"snapshot rejected: {exc}",
            )
            return _run_cold(
                module, model, policy, spec, vm_size=vm_size, inputs=inputs,
                max_instructions=max_instructions,
            ), plan
        return report, plan
    return _run_cold(
        module, model, policy, spec, vm_size=vm_size, inputs=inputs,
        max_instructions=max_instructions,
    ), plan


def _run_cold(
    module: Module,
    model: EnergyModel,
    policy: CheckpointPolicy,
    spec: PowerSpec,
    *,
    vm_size: int,
    inputs: Optional[Dict[str, List[int]]],
    max_instructions: int,
) -> ExecutionReport:
    from repro.emulator.interpreter import run_intermittent

    return run_intermittent(
        module, model, policy, spec.build(),
        vm_size=vm_size, inputs=inputs,
        max_instructions=max_instructions,
    )

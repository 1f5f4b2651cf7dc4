"""Static energy certification: every inter-checkpoint segment fits EB.

A wait-mode runtime (SCHEMATIC, Fig. 3) sleeps until the capacitor is
full at every taken checkpoint, so the forward-progress guarantee
(paper §II-B) holds exactly when the worst-case energy consumed between
two successive full recharges — restore, region instructions, and the
closing save — never exceeds the budget ``EB``. This module re-derives
that bound from the :class:`~repro.energy.model.EnergyModel` and the
transformed IR alone, independently of the bookkeeping inside
``core/path_analysis.py``; agreement between the two (and with the
dynamic testkit) is the cross-validation the testkit oracle closes.

The certification is compositional:

- Within an acyclic region, the worst window is a longest-path problem:
  a two-component state ``(a, b)`` is propagated in topological order,
  where ``a`` is the worst energy accumulated since the *region entry*
  along paths with no taken checkpoint yet (parametric in the caller's
  incoming window) and ``b`` is the worst *absolute* window since the
  last taken checkpoint's recharge. Merges take the component-wise max.
- Every step is abstracted as a :class:`StepEffect` — the worst
  checkpoint-free traversal energy (``nock``), the worst checkpoint-free
  prefix energy including closing-save exposures (``peek``), and the
  worst exit window when an internal checkpoint was taken (``tail``).
  Instructions, whole callees, and collapsed loops all fit this shape,
  which is what makes calls and nested loops composable.
- Loops are collapsed innermost-first (the paper's bottom-up traversal,
  §III-B2). A latch ``CondCheckpoint(every=N)`` fires every N
  iterations, so at most ``N-1`` checkpoint-free iterations separate
  taken checkpoints (``numit``-bounded windows, Algorithm 1); a bounded
  loop without one chains at most ``maxiter-1``. A checkpoint-free loop
  with neither bound cannot be certified (rule ENER002).

Unlike Algorithm 1's placement-time accounting, the certifier charges
the conditional checkpoint's iteration-count test
(:data:`~repro.emulator.runtime.COND_CHECK_CYCLES`) to the enclosing
window, because the interpreter does; the placement leaves enough slack
for this in practice, and a disagreement here is exactly what the
checker exists to surface.

Energy rules only apply to wait-mode policies: roll-back baselines make
progress by replaying, not by fitting segments into the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.cfg import CFG
from repro.analysis.loops import Loop, LoopNest
from repro.emulator.runtime import COND_CHECK_CYCLES
from repro.energy.model import EnergyModel
from repro.ir.function import Function
from repro.ir.instructions import Call, Checkpoint, CondCheckpoint
from repro.ir.module import Module
from repro.staticcheck.common import (
    FindingSink,
    checkpoint_payload_bytes,
    variable_map,
)
from repro.staticcheck.findings import Finding, Location
from repro.staticcheck.rules import RULES


@dataclass(frozen=True)
class StepEffect:
    """Worst-case energy behaviour of one step (instruction, call, or
    collapsed loop) with respect to checkpoint windows."""

    #: Max energy of a traversal that takes no checkpoint (None if every
    #: path through the step checkpoints).
    nock: Optional[float]
    #: Max checkpoint-free prefix energy, including the exposure of
    #: completing an internal save. This is the single number a caller
    #: needs to bound its window across the step: in-window + peek <= EB.
    peek: float
    #: Max absolute window on exit for paths whose last taken checkpoint
    #: is internal to the step (None if no such path).
    tail: Optional[float]
    #: Per-checkpoint breakdown of ``peek``: ckpt_id -> max checkpoint-free
    #: prefix energy for windows *closing at that save* (save included).
    #: Lets a caller attribute the absolute bound ``b + peek_by[id]`` to
    #: the specific internal checkpoint instead of only to the aggregate.
    peek_by: Dict[int, float] = field(default_factory=dict)


def _max_opt(*values: Optional[float]) -> Optional[float]:
    alive = [v for v in values if v is not None]
    return max(alive) if alive else None


def _bump_close(store: Dict[int, float], close_id: int, value: float) -> None:
    if value > store.get(close_id, 0.0):
        store[close_id] = value


@dataclass
class _CondSite:
    ckpt_id: int
    every: int
    save: float
    restore: float
    location: Location


@dataclass
class _RegionResult:
    """Worst-case state at the boundaries of one region."""

    peek: float
    #: Per-closing-checkpoint breakdown of ``peek`` (see StepEffect).
    peek_by: Dict[int, float] = field(default_factory=dict)
    #: Container exit edges (u, v) -> joined (a, b) at the edge.
    exits: Dict[Tuple[str, str], Tuple[Optional[float], Optional[float]]] = field(
        default_factory=dict
    )
    #: Joined state on the back edges (loop regions only).
    latch: Optional[Tuple[Optional[float], Optional[float]]] = None
    #: Function exits (blocks without successors; top-level regions only).
    returns: Optional[Tuple[Optional[float], Optional[float]]] = None
    cond_sites: List[_CondSite] = field(default_factory=list)


@dataclass
class _LoopEffect:
    """A collapsed loop as seen by its parent region."""

    header: str
    peek: float
    #: Exit edge (u, v) -> per-edge effect.
    exits: Dict[Tuple[str, str], StepEffect] = field(default_factory=dict)
    #: Per-closing-checkpoint breakdown of ``peek`` (see StepEffect).
    peek_by: Dict[int, float] = field(default_factory=dict)


class EnergyCertifier:
    """Certify one transformed module against a budget ``EB``."""

    def __init__(
        self,
        module: Module,
        model: EnergyModel,
        eb: float,
        sink: FindingSink,
        inferred_bounds: Optional[Dict[Tuple[str, str], int]] = None,
    ):
        self.module = module
        self.model = model
        self.eb = eb
        self.sink = sink
        #: Proven trip bounds from the value-range analysis,
        #: ``(function, header) -> max trips`` — consulted when a loop
        #: carries no ``@maxiter`` of its own.
        self.inferred_bounds = dict(inferred_bounds or {})
        self.variables = variable_map(module)
        self.summaries: Dict[str, StepEffect] = {}
        #: Largest certified absolute window — the margin statistic.
        self.worst_window = 0.0
        #: ckpt_id -> largest certified absolute window *closing* at that
        #: checkpoint's save. Any dynamic wait-mode window that commits at
        #: checkpoint C (restore + compute + save) is bounded by
        #: ``segment_bounds[C]``; the telemetry headroom report
        #: cross-validates observed windows against these.
        self.segment_bounds: Dict[int, float] = {}
        self._tol = 1e-6 + abs(eb) * 1e-9
        self._itercheck = COND_CHECK_CYCLES * model.energy_per_cycle

    # -- driver ------------------------------------------------------------

    def run(self) -> Dict[str, StepEffect]:
        for name in CallGraph(self.module).reverse_topological():
            func = self.module.function(name)
            self.summaries[name] = self._analyze_function(
                func, is_entry=(name == self.module.entry)
            )
        return self.summaries

    def _analyze_function(self, func: Function, is_entry: bool) -> StepEffect:
        cfg = CFG(func)
        nest = LoopNest(cfg)
        loop_effects: Dict[str, _LoopEffect] = {}
        for loop in nest.bottom_up():
            loop_effects[loop.header] = self._summarize_loop(
                func, cfg, nest, loop, loop_effects
            )
        # Boot is a recharge boundary: a restart replays from the entry
        # after paying an empty restore, so the entry function's windows
        # are absolute from the start. Callees start parametric (a=0).
        if is_entry:
            entry_state = (None, self.model.restore_energy(0))
        else:
            entry_state = (0.0, None)
        result = self._analyze_region(
            func, cfg, nest, None, loop_effects, entry_state
        )
        returns = result.returns or (None, None)
        return StepEffect(
            nock=returns[0],
            peek=result.peek,
            tail=returns[1],
            peek_by=dict(result.peek_by),
        )

    # -- region propagation ------------------------------------------------

    def _analyze_region(
        self,
        func: Function,
        cfg: CFG,
        nest: LoopNest,
        container: Optional[Loop],
        loop_effects: Dict[str, _LoopEffect],
        entry_state: Tuple[Optional[float], Optional[float]],
    ) -> _RegionResult:
        members = [
            label
            for label in cfg.labels
            if nest.loop_of(label) is container
            and (container is None or label in container.body)
        ]
        children = (
            nest.top_level() if container is None else container.children
        )
        child_of = {child.header: child for child in children}
        nodes = set(members) | set(child_of)
        entry_node = cfg.entry if container is None else container.header

        result = _RegionResult(peek=0.0)

        # Node adjacency: member block -> successors; child loop -> the
        # targets of its exit edges. Back edges (to the container header)
        # and container exits are routed to the result instead.
        out_edges: Dict[str, List[Tuple[str, Optional[Tuple[str, str]]]]] = {
            node: [] for node in nodes
        }

        def classify(u: str, v: str, node: str) -> None:
            """Route edge u->v leaving `node` (u==node for blocks; for a
            collapsed child, u is the in-loop source of its exit edge)."""
            if container is not None and v == container.header:
                out_edges[node].append(("<latch>", (u, v)))
            elif container is not None and v not in container.body:
                out_edges[node].append(("<exit>", (u, v)))
            elif v in child_of:
                out_edges[node].append((v, (u, v)))
            else:
                out_edges[node].append((v, (u, v)))

        for label in members:
            for succ in cfg.succs[label]:
                classify(label, succ, label)
        for child in children:
            for edge in child.exit_edges(cfg):
                classify(edge.src, edge.dst, child.header)

        # Kahn topological order over the region DAG.
        indeg = {node: 0 for node in nodes}
        for node in nodes:
            for target, _ in out_edges[node]:
                if target in indeg:
                    indeg[target] += 1
        ready = [n for n in sorted(nodes) if indeg[n] == 0]
        order: List[str] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for target, _ in out_edges[node]:
                if target in indeg:
                    indeg[target] -= 1
                    if indeg[target] == 0:
                        ready.append(target)

        states: Dict[str, Tuple[Optional[float], Optional[float]]] = {
            entry_node: entry_state
        }

        def merge_into(
            key: str,
            state: Tuple[Optional[float], Optional[float]],
            store: Dict,
        ) -> None:
            old = store.get(key)
            if old is None:
                store[key] = state
            else:
                store[key] = (
                    _max_opt(old[0], state[0]),
                    _max_opt(old[1], state[1]),
                )

        exit_states: Dict[Tuple[str, str], Tuple[Optional[float], Optional[float]]] = {}
        latch_state: Dict[str, Tuple[Optional[float], Optional[float]]] = {}
        return_state: Dict[str, Tuple[Optional[float], Optional[float]]] = {}

        for node in order:
            in_state = states.get(node)
            if in_state is None:
                continue  # not reachable within this region
            if node in child_of:
                per_edge = self._apply_loop(
                    func, loop_effects[node], in_state, result
                )
                for target, edge in out_edges[node]:
                    assert edge is not None
                    out_state = per_edge.get(edge)
                    if out_state is None:
                        continue
                    if target == "<latch>":
                        merge_into("latch", out_state, latch_state)
                    elif target == "<exit>":
                        merge_into(edge, out_state, exit_states)
                    else:
                        merge_into(target, out_state, states)
            else:
                out_state = self._walk_block(
                    func, node, in_state, container, result
                )
                if not cfg.succs[node]:
                    merge_into("ret", out_state, return_state)
                for target, edge in out_edges[node]:
                    if target == "<latch>":
                        merge_into("latch", out_state, latch_state)
                    elif target == "<exit>":
                        assert edge is not None
                        merge_into(edge, out_state, exit_states)
                    else:
                        merge_into(target, out_state, states)

        result.exits = exit_states
        result.latch = latch_state.get("latch")
        result.returns = return_state.get("ret")
        return result

    # -- steps -------------------------------------------------------------

    def _walk_block(
        self,
        func: Function,
        label: str,
        state: Tuple[Optional[float], Optional[float]],
        container: Optional[Loop],
        result: _RegionResult,
    ) -> Tuple[Optional[float], Optional[float]]:
        a, b = state
        is_latch = container is not None and label in container.latches
        for i, inst in enumerate(func.blocks[label].instructions):
            location = Location(func.name, label, i)
            if isinstance(inst, Checkpoint):
                save = self.model.save_energy(
                    checkpoint_payload_bytes(inst.save_vars, self.variables)
                )
                restore = self.model.restore_energy(
                    checkpoint_payload_bytes(inst.restore_vars, self.variables)
                )
                if a is not None:
                    result.peek = max(result.peek, a + save)
                    _bump_close(result.peek_by, inst.ckpt_id, a + save)
                self._check_window(
                    b, save, location,
                    f"window closing at checkpoint #{inst.ckpt_id} "
                    f"(save {save:.1f} nJ)",
                    close_id=inst.ckpt_id,
                )
                a = None
                b = restore
                self._check_window(b, 0.0, location,
                                   f"restore of checkpoint #{inst.ckpt_id}")
            elif isinstance(inst, CondCheckpoint):
                save = self.model.save_energy(
                    checkpoint_payload_bytes(inst.save_vars, self.variables)
                )
                restore = self.model.restore_energy(
                    checkpoint_payload_bytes(inst.restore_vars, self.variables)
                )
                if a is not None:
                    a += self._itercheck
                if b is not None:
                    b += self._itercheck
                    self._check_window(b, 0.0, location, "iteration-count test")
                if is_latch:
                    # The loop summary accounts for when this fires.
                    result.cond_sites.append(
                        _CondSite(
                            ckpt_id=inst.ckpt_id,
                            every=inst.every,
                            save=save,
                            restore=restore,
                            location=location,
                        )
                    )
                else:
                    # Off the latch its counter phase is unknown: it may
                    # fire on any visit, or not at all.
                    if a is not None:
                        result.peek = max(result.peek, a + save)
                        _bump_close(result.peek_by, inst.ckpt_id, a + save)
                    self._check_window(
                        b, save, location,
                        f"window closing at conditional checkpoint "
                        f"#{inst.ckpt_id} (save {save:.1f} nJ)",
                        close_id=inst.ckpt_id,
                    )
                    b = _max_opt(b, restore)
            elif isinstance(inst, Call):
                effect = self.summaries[inst.callee]
                # The dispatch itself costs energy (call_cycles) before
                # any callee instruction runs; the emulator charges it
                # inside the window, so the certifier must too (the
                # telemetry headroom report falsifies bounds without it).
                dispatch = self.model.instruction_energy(inst)
                if a is not None:
                    a += dispatch
                if b is not None:
                    b += dispatch
                if a is not None:
                    result.peek = max(result.peek, a + effect.peek)
                    for cid, p in effect.peek_by.items():
                        _bump_close(result.peek_by, cid, a + p)
                if b is not None:
                    # Attribute absolute windows closing at the callee's
                    # internal checkpoints; the aggregate check below
                    # already flags any EB violation among them.
                    for cid, p in effect.peek_by.items():
                        self._note_close(cid, b + p)
                self._check_window(
                    b, effect.peek, location,
                    f"window through call to @{inst.callee}",
                )
                a = (
                    a + effect.nock
                    if a is not None and effect.nock is not None
                    else None
                )
                b = _max_opt(
                    b + effect.nock
                    if b is not None and effect.nock is not None
                    else None,
                    effect.tail,
                )
            else:
                energy = self.model.instruction_energy(inst)
                if a is not None:
                    a += energy
                if b is not None:
                    b += energy
                    self._check_window(b, 0.0, location, f"after {inst}")
            if a is not None:
                result.peek = max(result.peek, a)
        return (a, b)

    def _apply_loop(
        self,
        func: Function,
        effect: _LoopEffect,
        state: Tuple[Optional[float], Optional[float]],
        result: _RegionResult,
    ) -> Dict[Tuple[str, str], Tuple[Optional[float], Optional[float]]]:
        a, b = state
        location = Location(func.name, effect.header)
        if a is not None:
            result.peek = max(result.peek, a + effect.peek)
            for cid, p in effect.peek_by.items():
                _bump_close(result.peek_by, cid, a + p)
        if b is not None:
            for cid, p in effect.peek_by.items():
                self._note_close(cid, b + p)
        self._check_window(
            b, effect.peek, location,
            f"window through the loop at .{effect.header}",
        )
        per_edge: Dict[Tuple[str, str], Tuple[Optional[float], Optional[float]]] = {}
        for edge, step in effect.exits.items():
            out_a = a + step.nock if a is not None and step.nock is not None else None
            out_b = _max_opt(
                b + step.nock
                if b is not None and step.nock is not None
                else None,
                step.tail,
            )
            per_edge[edge] = (out_a, out_b)
        return per_edge

    # -- loops -------------------------------------------------------------

    def _summarize_loop(
        self,
        func: Function,
        cfg: CFG,
        nest: LoopNest,
        loop: Loop,
        loop_effects: Dict[str, _LoopEffect],
    ) -> _LoopEffect:
        body = self._analyze_region(
            func, cfg, nest, loop, loop_effects, (0.0, None)
        )
        header_loc = Location(func.name, loop.header)
        it, ltb = body.latch if body.latch is not None else (None, None)
        cond = min(body.cond_sites, key=lambda c: c.every) if body.cond_sites else None
        trips = loop.maxiter
        if trips is None:
            trips = self.inferred_bounds.get((func.name, loop.header))

        fire_possible = cond is not None and (trips is None or trips >= cond.every)
        if it is not None and trips is None and not fire_possible:
            rule = RULES["ENER002"]
            self.sink.add(
                Finding(
                    rule_id=rule.rule_id,
                    severity=rule.default_severity,
                    location=header_loc,
                    message=(
                        f"loop at .{loop.header} has a checkpoint-free "
                        f"path from header to latch, no trip bound, and "
                        f"no conditional latch checkpoint: its worst-case "
                        f"checkpoint-to-checkpoint energy is unbounded"
                    ),
                    details={"loop": loop.header},
                )
            )
            it = None  # already reported; avoid cascading window errors

        # Max checkpoint-free full iterations, from two viewpoints:
        #
        # - ``spins``/``growth`` — *additional* iterations after a window
        #   (re)opened inside the loop (an internal close consumed one of
        #   the ``trips`` passes, a fire resets the counter): trips - 1,
        #   or every - 1 once a conditional latch checkpoint is in play;
        # - ``entry_spins``/``entry_growth`` — iterations on a traversal
        #   that *enters and leaves* the loop without checkpointing. A
        #   while-shaped loop runs all ``trips`` full iterations and then
        #   exits from the header, so the exit-edge state (header-only)
        #   must ride on trips full iterations, not trips - 1 (using
        #   trips - 1 under-counted every nock/tail/peek by one iteration
        #   — falsified by the telemetry headroom report).
        if it is None:
            spins = 0
            entry_spins = 0
        elif cond is not None:
            spins = cond.every - 1
            entry_spins = cond.every - 1
            if trips is not None:
                spins = min(spins, trips - 1)
                entry_spins = min(entry_spins, trips)
        else:
            spins = (trips or 1) - 1
            entry_spins = trips or 1
        spins = max(spins, 0)
        entry_spins = max(entry_spins, 0)
        growth = spins * it if it is not None else 0.0
        entry_growth = entry_spins * it if it is not None else 0.0

        # Absolute windows that live entirely inside the loop.
        starts = [ltb]
        if fire_possible and cond is not None:
            starts.append(cond.restore)
        start = _max_opt(*starts)
        if start is not None:
            self._check_window(
                start + growth, body.peek, header_loc,
                f"window re-entering the loop at .{loop.header}",
            )
            for cid, p in body.peek_by.items():
                self._note_close(cid, start + growth + p)
            if fire_possible and cond is not None:
                per_round = cond.every if trips is None else min(cond.every, trips)
                fire_base = start + (per_round * it if it is not None else 0.0)
                self._check_window(
                    fire_base, cond.save, cond.location,
                    f"window closing at conditional checkpoint "
                    f"#{cond.ckpt_id} (fires every {cond.every} "
                    f"iterations; save {cond.save:.1f} nJ)",
                    close_id=cond.ckpt_id,
                )

        # Checkpoint-free prefix exposure seen from the loop entry. The
        # in-pass prefix ``body.peek`` belongs to one of the body-running
        # passes, so it rides on ``growth``; the conservative
        # ``entry_growth`` also covers a header-only prefix after the
        # final full iteration.
        peek = body.peek + entry_growth
        peek_by = {cid: p + growth for cid, p in body.peek_by.items()}
        if fire_possible and cond is not None and it is not None:
            peek = max(peek, growth + it + cond.save)
            _bump_close(peek_by, cond.ckpt_id, growth + it + cond.save)

        exits: Dict[Tuple[str, str], StepEffect] = {}
        for edge, (a_e, b_e) in body.exits.items():
            nock_e = a_e + entry_growth if a_e is not None else None
            tail_parts = [b_e]
            if a_e is not None:
                if ltb is not None:
                    tail_parts.append(ltb + growth + a_e)
                if fire_possible and cond is not None:
                    tail_parts.append(cond.restore + growth + a_e)
            exits[edge] = StepEffect(
                nock=nock_e, peek=peek, tail=_max_opt(*tail_parts),
                peek_by=peek_by,
            )
        return _LoopEffect(
            header=loop.header, peek=peek, exits=exits, peek_by=peek_by
        )

    # -- window accounting -------------------------------------------------

    def _note_close(self, close_id: int, total: float) -> None:
        """Attribute an absolute window closing at ``close_id`` without
        re-checking it against EB: the enclosing aggregate peek check at
        the same program point already reports any violation, so this
        only sharpens :attr:`segment_bounds` attribution."""
        self.worst_window = max(self.worst_window, total)
        if total > self.segment_bounds.get(close_id, 0.0):
            self.segment_bounds[close_id] = total

    def _check_window(
        self,
        window: Optional[float],
        extra: float,
        location: Location,
        context: str,
        close_id: Optional[int] = None,
    ) -> None:
        """Record/flag the absolute window ``window + extra``.

        ``close_id`` marks windows that *close* at a checkpoint save:
        their totals also feed :attr:`segment_bounds` under that id."""
        if window is None:
            return
        total = window + extra
        self.worst_window = max(self.worst_window, total)
        if close_id is not None:
            previous = self.segment_bounds.get(close_id, 0.0)
            if total > previous:
                self.segment_bounds[close_id] = total
        if total > self.eb + self._tol:
            rule = RULES["ENER001"]
            self.sink.add(
                Finding(
                    rule_id=rule.rule_id,
                    severity=rule.default_severity,
                    location=location,
                    message=(
                        f"worst-case energy window {total:.1f} nJ exceeds "
                        f"the budget EB={self.eb:g} nJ ({context}); a "
                        f"wait-mode runtime dies mid-segment here"
                    ),
                    details={
                        "window_nj": round(total, 3),
                        "eb_nj": self.eb,
                        "context": context,
                    },
                )
            )


def certify_energy(
    module: Module,
    model: EnergyModel,
    eb: float,
    sink: FindingSink,
    inferred_bounds: Optional[Dict[Tuple[str, str], int]] = None,
) -> EnergyCertifier:
    """Run the certifier; returns it for its summaries/statistics.

    ``inferred_bounds`` supplies proven trip counts for loops without an
    ``@maxiter`` (see :mod:`repro.analysis.ranges`), turning previously
    ENER002-uncertifiable loops certifiable."""
    certifier = EnergyCertifier(module, model, eb, sink, inferred_bounds)
    certifier.run()
    return certifier

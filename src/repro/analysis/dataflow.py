"""Generic forward dataflow solver over a CFG.

A small worklist engine shared by the definite-assignment check in
:mod:`repro.ir.validate` and the static checkers in
:mod:`repro.staticcheck` (WAR exposure, VM-residency). The solver is
deliberately agnostic about the state domain: callers provide

- ``entry_state`` — the state on entry to the function's entry block;
- ``transfer(label, state) -> state`` — the effect of one whole block
  (must be a pure function of its inputs);
- ``join(a, b) -> state`` — the confluence operator (union for
  may-analyses, intersection for must-analyses).

States must support ``==``; immutable values (frozensets, tuples) are the
intended currency. Termination is the caller's obligation — ``transfer``
and ``join`` must be monotone over a finite-height lattice — but the
solver guards against runaway iteration and raises
:class:`~repro.errors.AnalysisError` instead of spinning.

Two optional hooks extend the solver for richer domains (the interval
analysis in :mod:`repro.analysis.ranges` uses both):

- ``edge_transfer(src, dst, state) -> state | None`` refines a
  predecessor's out-state for one specific edge — branch-condition
  refinement in a value-range domain. Returning ``None`` marks the edge
  statically infeasible; it then contributes nothing to the successor,
  and a block all of whose incoming edges are infeasible is treated
  exactly like an unreachable block.
- ``widen(old_in, new_in) -> state`` accelerates convergence for
  infinite-height domains. It is applied at the labels in ``widen_at``
  (loop headers) whenever a block's in-state grows; the caller must
  guarantee that iterated widening stabilizes in finitely many steps,
  and that ``widen(w, j) == w`` whenever ``j`` is below ``w`` (widening
  an in-state by something it already covers leaves it as it is).

Blocks unreachable from the entry receive no state: they are absent from
the returned maps, and ``transfer`` is never called for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Dict, Optional, TypeVar

from repro.analysis.cfg import CFG
from repro.errors import AnalysisError

S = TypeVar("S")


@dataclass
class ForwardSolution:
    """Fixpoint states per reachable block label."""

    block_in: Dict[str, object]
    block_out: Dict[str, object]
    passes: int  # sweeps over the CFG until the fixpoint settled


def solve_forward(
    cfg: CFG,
    entry_state: S,
    transfer: Callable[[str, S], S],
    join: Callable[[S, S], S],
    edge_transfer: Optional[Callable[[str, str, S], Optional[S]]] = None,
    widen: Optional[Callable[[S, S], S]] = None,
    widen_at: Collection[str] = (),
) -> ForwardSolution:
    """Iterate ``transfer`` to a fixpoint in reverse postorder.

    Reverse postorder visits every block after its forward predecessors,
    so acyclic regions settle in one sweep and loops need one extra sweep
    per nesting level — the classic bound for reducible CFGs.

    A sweep revisits a block only when some predecessor's out-state
    changed since the block's last visit (every block is visited in the
    first sweep). This is exact: a block whose predecessors are unchanged
    would re-join the very in-state it joined last time, ``J``, which is
    either its stored in-state or, at a widening point, below the stored
    ``widen(old, J)``; both cases leave the block as it is (the second by
    the ``widen`` contract above). So the ``transfer`` calls, their order,
    the resulting states and ``passes`` are those of re-joining every
    block on every sweep, at a cost proportional to the changes instead of
    to ``passes`` times the CFG.
    """
    order = cfg.reverse_postorder()
    block_in: Dict[str, S] = {}
    block_out: Dict[str, S] = {}
    widen_labels = frozenset(widen_at) if widen is not None else frozenset()

    # Any monotone chain settles within height * blocks sweeps; reducible
    # CFGs need far fewer. The margin only exists to turn a non-monotone
    # transfer function into a diagnosable error. Widening domains get a
    # wider margin: each widening point may take a few extra sweeps to
    # climb through its (finite) threshold ladder.
    max_passes = 2 * len(order) + 8 + 8 * len(widen_labels)

    # Labels with a predecessor whose out-state changed since their last
    # visit; every label starts out dirty.
    dirty = set(order)
    passes = 0
    changed = True
    while changed:
        passes += 1
        if passes > max_passes:
            raise AnalysisError(
                f"{cfg.function.name}: dataflow did not converge in "
                f"{max_passes} passes (non-monotone transfer function?)"
            )
        changed = False
        for label in order:
            if label not in dirty:
                continue
            dirty.discard(label)
            state: S | None = entry_state if label == cfg.entry else None
            for pred in cfg.preds[label]:
                out = block_out.get(pred)
                if out is None:
                    continue
                if edge_transfer is not None:
                    out = edge_transfer(pred, label, out)
                    if out is None:
                        continue  # edge statically infeasible
                state = out if state is None else join(state, out)
            if state is None:
                continue  # no reachable predecessor yet
            if label in block_in:
                if state == block_in[label]:
                    continue  # transfer is pure: same in-state, same out-state
                if label in widen_labels:
                    state = widen(block_in[label], state)
                    if state == block_in[label]:
                        continue
            block_in[label] = state
            out_state = transfer(label, state)
            if label not in block_out or out_state != block_out[label]:
                block_out[label] = out_state
                dirty.update(cfg.succs[label])
                changed = True
    return ForwardSolution(block_in=block_in, block_out=block_out, passes=passes)

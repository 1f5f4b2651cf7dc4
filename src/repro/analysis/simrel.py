"""Simulation-relation inference between a source module and its
transformed output.

The placement passes (SCHEMATIC and every baseline in
:mod:`repro.baselines`) promise to be *refinements*: they insert
checkpoints and rewrite memory spaces, but a continuously powered run of
the transformed module must produce exactly the observable behaviour of
the source module. This module infers and checks the witness for that
claim — a per-function simulation relation in the Alive2/CompCert-TV
tradition — which :mod:`repro.staticcheck.transval` turns into TV
findings and proof certificates.

Construction, in three layers:

1. **Variable correspondence** (:func:`infer_correspondence`). Names
   shared by both modules correspond to themselves; a transformed-only
   variable whose ``base__suffix`` name points at a *source-only*
   variable of the same shape is an inferred rename; every other
   transformed-only variable is *private* (a privatization artifact) and
   every other source-only variable is *dropped*. Private variables are
   erased from the observable trace, but their values are tracked: a
   private value that leaks into an observable effect, or a private
   variable that is live across basic blocks, violates the
   correspondence (rule TV003).

2. **Product-graph block matching** (:func:`relate_function`). A
   worklist pairs blocks starting from the two entry blocks, stepping
   both CFGs in lockstep. Checkpoint instructions are erased from the
   trace, and *transparent* blocks — the ``__ckpt_<id>`` blocks
   :func:`repro.core.transform._split_edge` creates, containing only
   checkpoints and an unconditional jump — are skipped when resolving
   transformed successors. The relation must be a function in both
   directions: a source block matched against two different transformed
   blocks (or vice versa) cannot be closed (rule TV004).

3. **Symbolic block discharge** (:func:`discharge_pair`). Each matched
   straight-line pair is executed symbolically (the structural-tuple
   symbol convention of :mod:`repro.analysis.ranges`, extended with
   memory versions and store-to-load forwarding) and must produce the
   same ordered stream of observable events — stores to corresponding
   variables, volatile-input samples, calls — the same terminator
   behaviour, and the same final register state. Memory spaces
   (``VM``/``NVM``/``AUTO``) are allocation metadata, not behaviour, and
   are normalized away; residency correctness is the ALLOC rules' job.

Calls compose callee-first, like the region-facts dataflow: functions
are related in :meth:`repro.analysis.callgraph.CallGraph.reverse_topological`
order and a function is *certified* only when its own blocks discharge
and every callee it reaches is certified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    Checkpoint,
    CondCheckpoint,
    Jump,
    Load,
    Move,
    Ret,
    Store,
    UnOp,
)
from repro.ir.module import Module
from repro.ir.values import Const, Value, VarRef

#: Structural symbolic values (same convention as ``analysis.ranges``):
#: ``("const", value, type)``, ``("reg", name, type)`` for block-entry
#: register state, ``("mem", var, index, era, version)`` for memory
#: reads, ``("env", var, index, sample)`` for volatile-input samples,
#: ``("ret", callee, call_seq)``, ``("priv", var, era, version)`` for
#: unknown private values, and ``("wrap"| "bin" | "un", ...)`` operator
#: nodes.
Sym = Tuple

_CHECKPOINT_KINDS = (Checkpoint, CondCheckpoint)

#: Mismatch kinds a block pair can report, mapped to rules by
#: :mod:`repro.staticcheck.transval`.
KIND_EFFECT = "effect"              # TV001: unmatched observable effect
KIND_ORDER = "order"                # TV002: observable-order divergence
KIND_CORRESPONDENCE = "correspondence"  # TV003: variable correspondence
KIND_STRUCTURE = "structure"        # TV004 when a checkpoint is involved


# -- variable correspondence ----------------------------------------------


@dataclass(frozen=True)
class VarCorrespondence:
    """Inferred mapping from transformed variables to source variables.

    ``to_source`` maps every transformed mangled name either to itself
    (shared names) or to the source-only variable it renames. Names in
    ``private`` exist only in the transformed module and have no source
    storage; names in ``dropped`` exist only in the source module.
    ``shadows`` records which source variable a private name *looks*
    like a privatized copy of (diagnostic only — a shadow is not a
    correspondence, because the source storage still exists separately).
    """

    to_source: Dict[str, str]
    private: FrozenSet[str] = frozenset()
    dropped: FrozenSet[str] = frozenset()
    shadows: Dict[str, str] = field(default_factory=dict)

    def canonical(self, name: str) -> Optional[str]:
        """Source-side name for a transformed variable, None if private."""
        return self.to_source.get(name)


def _rename_base(name: str) -> Optional[str]:
    """``func.x__priv1`` -> ``func.x``: the candidate pre-privatization
    name, or None when the name carries no ``__suffix``."""
    head, sep, _tail = name.rpartition("__")
    return head if sep and head else None


def infer_correspondence(
    source: Module, transformed: Module
) -> VarCorrespondence:
    """Infer the variable correspondence between the two modules."""
    src = {var.name: var for var in source.all_variables()}
    xf = {var.name: var for var in transformed.all_variables()}
    to_source: Dict[str, str] = {}
    private: Set[str] = set()
    shadows: Dict[str, str] = {}
    for name, var in xf.items():
        if name in src:
            to_source[name] = name
            continue
        base = _rename_base(name)
        if base is not None and base in src:
            src_var = src[base]
            if (
                base not in xf
                and src_var.type == var.type
                and src_var.count == var.count
            ):
                # A true rename: the source storage does not survive in
                # the transformed module, so the new name *is* it.
                to_source[name] = base
                continue
            shadows[name] = base
        private.add(name)
    matched_sources = set(to_source.values())
    dropped = frozenset(name for name in src if name not in matched_sources)
    return VarCorrespondence(
        to_source=to_source,
        private=frozenset(private),
        dropped=dropped,
        shadows=shadows,
    )


# -- symbolic block execution ---------------------------------------------


class _Memory:
    """One side's view of memory within a block: per-variable store
    lists for store-to-load forwarding, invalidated at call sites (the
    ``era``)."""

    def __init__(self) -> None:
        self.era = 0
        self._stores: Dict[str, List[Tuple[Optional[Sym], Sym]]] = {}

    def store(self, name: str, index: Optional[Sym], value: Sym) -> None:
        self._stores.setdefault(name, []).append((index, value))

    def load(self, name: str, index: Optional[Sym]) -> Sym:
        stores = self._stores.get(name, ())
        for s_index, s_value in reversed(stores):
            if s_index == index:
                return s_value
            if not _distinct_indices(s_index, index):
                break  # may alias: forwarding would be unsound
        return ("mem", name, index, self.era, len(stores))

    def invalidate(self) -> None:
        """A call may write any corresponding memory."""
        self.era += 1
        self._stores.clear()


def _distinct_indices(a: Optional[Sym], b: Optional[Sym]) -> bool:
    """Provably different array elements (lets forwarding look past an
    unrelated constant-index store)."""
    return (
        a is not None
        and b is not None
        and a[0] == "const"
        and b[0] == "const"
        and a[1] != b[1]
    )


@dataclass(frozen=True)
class Event:
    """One observable effect: ``payload`` is compared across sides,
    ``at`` anchors it to an instruction index in its own block."""

    payload: Sym
    at: int


@dataclass
class BlockTrace:
    """Everything observable about one symbolic block execution."""

    events: List[Event] = field(default_factory=list)
    #: ("jump",), ("branch", cond_sym), ("ret", value_sym | None),
    #: or ("open",) for an unterminated block.
    terminator: Sym = ("open",)
    #: Final symbolic values of every register written in the block.
    reg_exit: Dict[str, Sym] = field(default_factory=dict)
    #: Checkpoint instructions erased from the trace.
    erased_checkpoints: int = 0
    #: The block contains (or the successor resolution traversed) a
    #: checkpoint — used to classify structural failures as TV004.
    has_checkpoint: bool = False


def run_block(
    block: BasicBlock, corr: Optional[VarCorrespondence]
) -> BlockTrace:
    """Execute ``block`` symbolically, erasing checkpoints,
    private-variable traffic and memory spaces. ``corr`` names the
    variable correspondence for a transformed block; ``None`` selects
    the identity (for the source side, where every variable is its own
    correspondent)."""
    trace = BlockTrace()
    regs: Dict[str, Sym] = {}
    memory = _Memory()
    private = _Memory()
    env_seq: Dict[str, int] = {}
    call_seq: Dict[str, int] = {}

    def canonical_of(name: str) -> Optional[str]:
        return name if corr is None else corr.canonical(name)

    def value_sym(value: Optional[Value]) -> Optional[Sym]:
        if value is None:
            return None
        if isinstance(value, Const):
            return ("const", value.value, str(value.type))
        if isinstance(value, VarRef):
            name = value.variable.name
            canonical = canonical_of(name)
            if canonical is None:
                return ("priv-ref", name)
            return ("ref", canonical)
        sym = regs.get(value.name)
        if sym is None:
            sym = ("reg", value.name, str(value.type))
        return sym

    for at, inst in enumerate(block.instructions):
        if isinstance(inst, _CHECKPOINT_KINDS):
            trace.erased_checkpoints += 1
            trace.has_checkpoint = True
            continue
        if isinstance(inst, Move):
            src = value_sym(inst.src)
            assert src is not None
            regs[inst.dest.name] = ("wrap", str(inst.dest.type), src)
        elif isinstance(inst, BinOp):
            lhs, rhs = value_sym(inst.lhs), value_sym(inst.rhs)
            regs[inst.dest.name] = (
                "bin", str(inst.op), str(inst.dest.type), lhs, rhs
            )
        elif isinstance(inst, UnOp):
            regs[inst.dest.name] = (
                "un", str(inst.op), str(inst.dest.type), value_sym(inst.src)
            )
        elif isinstance(inst, Load):
            index = value_sym(inst.index)
            canonical = canonical_of(inst.var.name)
            if canonical is None:
                regs[inst.dest.name] = private.load(inst.var.name, index)
            elif inst.var.volatile_input:
                seq = env_seq.get(canonical, 0)
                env_seq[canonical] = seq + 1
                sample: Sym = ("env", canonical, index, seq)
                trace.events.append(Event(sample, at))
                regs[inst.dest.name] = sample
            else:
                regs[inst.dest.name] = memory.load(canonical, index)
        elif isinstance(inst, Store):
            index = value_sym(inst.index)
            value = value_sym(inst.value)
            assert value is not None
            canonical = canonical_of(inst.var.name)
            if canonical is None:
                private.store(inst.var.name, index, value)
            else:
                trace.events.append(
                    Event(("store", canonical, index, value), at)
                )
                memory.store(canonical, index, value)
        elif isinstance(inst, Call):
            args = tuple(value_sym(arg) for arg in inst.args)
            trace.events.append(Event(("call", inst.callee, args), at))
            seq = call_seq.get(inst.callee, 0)
            call_seq[inst.callee] = seq + 1
            if inst.dest is not None:
                regs[inst.dest.name] = ("ret", inst.callee, seq)
            memory.invalidate()  # the callee may write any shared memory
        elif isinstance(inst, Jump):
            trace.terminator = ("jump",)
        elif isinstance(inst, Branch):
            trace.terminator = ("branch", value_sym(inst.cond))
        elif isinstance(inst, Ret):
            trace.terminator = ("ret", value_sym(inst.value))
    trace.reg_exit = regs
    return trace


def _mentions_private(sym: object) -> bool:
    if not isinstance(sym, tuple):
        return False
    if sym and sym[0] in ("priv", "priv-ref"):
        return True
    return any(_mentions_private(part) for part in sym)


def render_sym(sym: Optional[Sym]) -> str:
    """Compact human-readable form of a symbolic value."""
    if sym is None:
        return "_"
    kind = sym[0]
    if kind == "const":
        return str(sym[1])
    if kind == "reg":
        return f"%{sym[1]}"
    if kind == "mem":
        idx = "" if sym[2] is None else f"[{render_sym(sym[2])}]"
        return f"@{sym[1]}{idx}#{sym[3]}.{sym[4]}"
    if kind == "env":
        idx = "" if sym[2] is None else f"[{render_sym(sym[2])}]"
        return f"sample(@{sym[1]}{idx}, {sym[3]})"
    if kind == "ret":
        return f"ret(@{sym[1]}, {sym[2]})"
    if kind == "priv":
        return f"private @{sym[1]}"
    if kind in ("ref", "priv-ref"):
        return f"&{sym[1]}"
    if kind == "wrap":
        return f"({sym[1]}){render_sym(sym[2])}"
    if kind == "bin":
        return f"({render_sym(sym[3])} {sym[1]} {render_sym(sym[4])})"
    if kind == "un":
        return f"{sym[1]} {render_sym(sym[3])}"
    return repr(sym)


def render_event(payload: Sym) -> str:
    kind = payload[0]
    if kind == "store":
        idx = "" if payload[2] is None else f"[{render_sym(payload[2])}]"
        return f"store @{payload[1]}{idx} = {render_sym(payload[3])}"
    if kind == "env":
        return render_sym(payload)
    if kind == "call":
        args = ", ".join(render_sym(arg) for arg in payload[2])
        return f"call @{payload[1]}({args})"
    return repr(payload)


# -- block-pair discharge -------------------------------------------------


@dataclass
class PairOutcome:
    """One proof obligation: the matched pair discharged, or the first
    divergence found in it."""

    function: str
    source_block: str
    transformed_block: str
    status: str = "discharged"  # or "violated"
    kind: Optional[str] = None  # a KIND_* constant when violated
    detail: str = ""
    source_event: Optional[str] = None
    transformed_event: Optional[str] = None
    #: Transformed-side instruction index to anchor a finding at.
    at: Optional[int] = None
    events: int = 0
    erased_checkpoints: int = 0
    checkpoint_involved: bool = False

    @property
    def discharged(self) -> bool:
        return self.status == "discharged"

    def facts(self) -> Dict[str, object]:
        facts: Dict[str, object] = {
            "source_block": self.source_block,
            "transformed_block": self.transformed_block,
            "observable_events": self.events,
            "erased_checkpoints": self.erased_checkpoints,
        }
        if self.kind is not None:
            facts["kind"] = self.kind
        if self.detail:
            facts["detail"] = self.detail
        if self.source_event is not None:
            facts["source_event"] = self.source_event
        if self.transformed_event is not None:
            facts["transformed_event"] = self.transformed_event
        return facts


def _violate(
    outcome: PairOutcome,
    kind: str,
    detail: str,
    *,
    source_event: Optional[str] = None,
    transformed_event: Optional[str] = None,
    at: Optional[int] = None,
) -> PairOutcome:
    outcome.status = "violated"
    outcome.kind = kind
    outcome.detail = detail
    outcome.source_event = source_event
    outcome.transformed_event = transformed_event
    outcome.at = at
    return outcome


def discharge_pair(
    function: str,
    s_block: BasicBlock,
    t_block: BasicBlock,
    corr: VarCorrespondence,
    *,
    edge_checkpoints: int = 0,
) -> PairOutcome:
    """Symbolically execute a matched block pair and compare observable
    behaviour. ``edge_checkpoints`` counts checkpoints erased while
    resolving the transformed successor edge into this pair."""
    s_trace = run_block(s_block, None)
    t_trace = run_block(t_block, corr)
    outcome = PairOutcome(
        function=function,
        source_block=s_block.label,
        transformed_block=t_block.label,
        events=len(s_trace.events),
        erased_checkpoints=t_trace.erased_checkpoints + edge_checkpoints,
        checkpoint_involved=t_trace.has_checkpoint or edge_checkpoints > 0,
    )

    # 1. Ordered observable event streams.
    s_payloads = [event.payload for event in s_trace.events]
    t_payloads = [event.payload for event in t_trace.events]
    for k in range(max(len(s_payloads), len(t_payloads))):
        s_ev = s_payloads[k] if k < len(s_payloads) else None
        t_ev = t_payloads[k] if k < len(t_payloads) else None
        if s_ev == t_ev:
            continue
        t_at = t_trace.events[k].at if k < len(t_trace.events) else None
        if t_ev is None:
            return _violate(
                outcome, KIND_EFFECT,
                "source effect has no transformed counterpart",
                source_event=render_event(s_ev),
                at=len(t_block.instructions) - 1,
            )
        if _mentions_private(t_ev):
            return _violate(
                outcome, KIND_CORRESPONDENCE,
                "a private (non-corresponding) value reaches an "
                "observable effect",
                source_event=None if s_ev is None else render_event(s_ev),
                transformed_event=render_event(t_ev),
                at=t_at,
            )
        if s_ev is None:
            return _violate(
                outcome, KIND_EFFECT,
                "transformed effect has no source counterpart",
                transformed_event=render_event(t_ev),
                at=t_at,
            )
        if s_ev in t_payloads[k + 1:] or t_ev in s_payloads[k + 1:]:
            return _violate(
                outcome, KIND_ORDER,
                "observable effects occur in a different order",
                source_event=render_event(s_ev),
                transformed_event=render_event(t_ev),
                at=t_at,
            )
        return _violate(
            outcome, KIND_EFFECT,
            "observable effect diverges",
            source_event=render_event(s_ev),
            transformed_event=render_event(t_ev),
            at=t_at,
        )

    # 2. Terminator behaviour.
    if s_trace.terminator[0] != t_trace.terminator[0]:
        kind = (
            KIND_STRUCTURE if outcome.checkpoint_involved else KIND_EFFECT
        )
        return _violate(
            outcome, kind,
            f"terminator shape diverges: source "
            f"{s_trace.terminator[0]} vs transformed "
            f"{t_trace.terminator[0]}",
            at=len(t_block.instructions) - 1,
        )
    if s_trace.terminator != t_trace.terminator:
        mismatch_kind = (
            KIND_CORRESPONDENCE
            if _mentions_private(t_trace.terminator)
            else KIND_EFFECT
        )
        what = (
            "branch condition" if s_trace.terminator[0] == "branch"
            else "return value"
        )
        return _violate(
            outcome, mismatch_kind,
            f"observable {what} diverges",
            source_event=render_sym(s_trace.terminator[1]),
            transformed_event=render_sym(t_trace.terminator[1]),
            at=len(t_block.instructions) - 1,
        )

    # 3. Final register state: an unobserved-but-divergent register
    # would silently poison matched successors, which assume equal
    # register files at block entry.
    for name in sorted(set(s_trace.reg_exit) | set(t_trace.reg_exit)):
        s_sym = s_trace.reg_exit.get(name)
        t_sym = t_trace.reg_exit.get(name)
        if s_sym == t_sym:
            continue
        return _violate(
            outcome, KIND_CORRESPONDENCE,
            f"register %{name} diverges at block exit",
            source_event=render_sym(s_sym),
            transformed_event=render_sym(t_sym),
            at=len(t_block.instructions) - 1,
        )
    return outcome


# -- function-level product walk ------------------------------------------


@dataclass
class FunctionRelation:
    """The simulation relation inferred for one function pair."""

    function: str
    pairs: List[PairOutcome] = field(default_factory=list)
    matched: Dict[str, str] = field(default_factory=dict)
    erased_checkpoints: int = 0
    calls: FrozenSet[str] = frozenset()
    #: Set after composition: this function and every callee refine.
    certified: bool = False

    @property
    def refines(self) -> bool:
        return all(pair.discharged for pair in self.pairs)


def _resolve_transparent(
    func: Function, label: str
) -> Tuple[str, int, bool]:
    """Skip through transparent checkpoint blocks (checkpoints + jump
    only, as created by edge splitting). Returns the effective label,
    the number of checkpoints erased on the way, and False when the
    resolution cannot terminate (a checkpoint-only cycle)."""
    erased = 0
    seen = {label}
    while True:
        block = func.blocks.get(label)
        if block is None:
            return label, erased, True
        term = block.terminator
        body = block.instructions[:-1] if term is not None else None
        if (
            body
            and isinstance(term, Jump)
            and all(isinstance(inst, _CHECKPOINT_KINDS) for inst in body)
        ):
            erased += len(body)
            label = term.target
            if label in seen:
                return label, erased, False
            seen.add(label)
            continue
        return label, erased, True


def _private_escapes(
    func: Function, corr: VarCorrespondence
) -> List[Tuple[str, str, str]]:
    """Private variables whose value is live across block boundaries:
    ``(name, reading_block, shadow_of)`` for every private variable that
    is read before being written in some block while being written
    somewhere in the function. Such a variable carries state between
    straight-line regions that the source module keeps in corresponding
    storage — the correspondence cannot absorb it."""
    if not corr.private:
        return []
    written: Dict[str, Set[str]] = {}
    read_first: Dict[str, List[str]] = {}
    for label, block in func.blocks.items():
        seen_write: Set[str] = set()
        for inst in block.instructions:
            if isinstance(inst, Load) and inst.var.name in corr.private:
                name = inst.var.name
                if name not in seen_write:
                    read_first.setdefault(name, []).append(label)
            elif isinstance(inst, Store) and inst.var.name in corr.private:
                seen_write.add(inst.var.name)
                written.setdefault(inst.var.name, set()).add(label)
            elif isinstance(inst, Call):
                for ref in inst.ref_args():
                    if ref.name in corr.private:
                        # By-ref escape into a callee.
                        written.setdefault(ref.name, set()).add(label)
    escapes: List[Tuple[str, str, str]] = []
    for name, blocks in sorted(read_first.items()):
        if name in written:
            escapes.append(
                (name, blocks[0], corr.shadows.get(name, ""))
            )
    return escapes


def relate_function(
    function: str,
    source: Function,
    transformed: Function,
    corr: VarCorrespondence,
) -> FunctionRelation:
    """Infer and check the simulation relation for one function pair."""
    relation = FunctionRelation(function=function)
    calls: Set[str] = set()

    t_entry, erased, ok = _resolve_transparent(
        transformed, transformed.entry.label
    )
    worklist: List[Tuple[str, str, int]] = [
        (source.entry.label, t_entry, erased)
    ]
    if not ok:
        relation.pairs.append(_violate(
            PairOutcome(
                function=function,
                source_block=source.entry.label,
                transformed_block=transformed.entry.label,
                checkpoint_involved=True,
            ),
            KIND_STRUCTURE,
            "checkpoint-only cycle: the simulation relation cannot be "
            "closed through it",
        ))
        worklist = []
    rev: Dict[str, str] = {}

    while worklist:
        s_label, t_label, edge_erased = worklist.pop()
        if s_label in relation.matched:
            if relation.matched[s_label] != t_label:
                relation.pairs.append(_violate(
                    PairOutcome(
                        function=function,
                        source_block=s_label,
                        transformed_block=t_label,
                        checkpoint_involved=edge_erased > 0,
                    ),
                    KIND_STRUCTURE,
                    f"source block .{s_label} is matched against both "
                    f".{relation.matched[s_label]} and .{t_label}",
                ))
            continue
        if t_label in rev and rev[t_label] != s_label:
            relation.pairs.append(_violate(
                PairOutcome(
                    function=function,
                    source_block=s_label,
                    transformed_block=t_label,
                    checkpoint_involved=edge_erased > 0,
                ),
                KIND_STRUCTURE,
                f"transformed block .{t_label} is matched against both "
                f".{rev[t_label]} and .{s_label}",
            ))
            continue
        s_block = source.blocks.get(s_label)
        t_block = transformed.blocks.get(t_label)
        if s_block is None or t_block is None:
            relation.pairs.append(_violate(
                PairOutcome(
                    function=function,
                    source_block=s_label,
                    transformed_block=t_label,
                ),
                KIND_STRUCTURE,
                "matched label does not exist",
            ))
            continue
        relation.matched[s_label] = t_label
        rev[t_label] = s_label

        outcome = discharge_pair(
            function, s_block, t_block, corr,
            edge_checkpoints=edge_erased,
        )
        relation.pairs.append(outcome)
        relation.erased_checkpoints += outcome.erased_checkpoints
        for inst in s_block.instructions:
            if isinstance(inst, Call):
                calls.add(inst.callee)
        if outcome.kind == KIND_STRUCTURE:
            continue  # successors are not comparable

        s_term = s_block.terminator
        t_term = t_block.terminator
        targets: List[Tuple[str, str]] = []
        if isinstance(s_term, Jump) and isinstance(t_term, Jump):
            targets.append((s_term.target, t_term.target))
        elif isinstance(s_term, Branch) and isinstance(t_term, Branch):
            targets.append((s_term.if_true, t_term.if_true))
            targets.append((s_term.if_false, t_term.if_false))
        for s_next, t_next in targets:
            resolved, erased, ok = _resolve_transparent(transformed, t_next)
            if not ok:
                relation.pairs.append(_violate(
                    PairOutcome(
                        function=function,
                        source_block=s_next,
                        transformed_block=t_next,
                        checkpoint_involved=True,
                    ),
                    KIND_STRUCTURE,
                    "checkpoint-only cycle: the simulation relation "
                    "cannot be closed through it",
                ))
                continue
            worklist.append((s_next, resolved, erased))

    for name, block_label, shadow in _private_escapes(transformed, corr):
        shadow_note = (
            f" (a privatized copy of @{shadow})" if shadow else ""
        )
        relation.pairs.append(_violate(
            PairOutcome(
                function=function,
                source_block="",
                transformed_block=block_label,
            ),
            KIND_CORRESPONDENCE,
            f"private variable @{name}{shadow_note} is live across "
            "basic blocks: its state escapes the straight-line regions "
            "the correspondence erases",
        ))

    relation.calls = frozenset(calls)
    return relation


# -- module-level composition ---------------------------------------------


@dataclass
class ModuleRelation:
    """The composed, callee-first simulation relation for a module pair."""

    source: str
    transformed: str
    correspondence: VarCorrespondence
    functions: Dict[str, FunctionRelation] = field(default_factory=dict)
    #: Functions present in the source module only.
    missing_functions: List[str] = field(default_factory=list)
    #: Functions present in the transformed module only.
    extra_functions: List[str] = field(default_factory=list)

    @property
    def refines(self) -> bool:
        return (
            not self.missing_functions
            and all(rel.refines for rel in self.functions.values())
        )

    def certified(self, function: str) -> bool:
        rel = self.functions.get(function)
        return rel is not None and rel.certified


def infer_simulation(source: Module, transformed: Module) -> ModuleRelation:
    """Infer and check the full simulation relation between a source
    module and its transformed output, callee-first."""
    corr = infer_correspondence(source, transformed)
    relation = ModuleRelation(
        source=source.name,
        transformed=transformed.name,
        correspondence=corr,
    )
    relation.missing_functions = sorted(
        name for name in source.functions if name not in transformed.functions
    )
    relation.extra_functions = sorted(
        name for name in transformed.functions if name not in source.functions
    )
    for name in CallGraph(source).reverse_topological():
        if name not in transformed.functions:
            continue
        relation.functions[name] = relate_function(
            name, source.functions[name], transformed.functions[name], corr
        )
    # Compose callee-first summaries: a function is certified when its
    # own blocks discharge and every callee it reaches is certified.
    # The call graph is acyclic (recursion is rejected at construction),
    # and reverse_topological yielded callees before callers.
    for name, rel in relation.functions.items():
        rel.certified = rel.refines and all(
            relation.certified(callee) for callee in rel.calls
        )
    return relation

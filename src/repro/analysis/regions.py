"""Replay-region facts: first-access ordering, environment reads, taint.

A *replay region* is the code between two taken checkpoints — the unit a
power failure re-executes. Surbatovich et al.'s correctness conditions
are all statements about what a region may observe on its second
execution, so the memory-consistency certifier
(:mod:`repro.staticcheck.consistency`) needs, per region:

- the *first-access ordering* of every non-volatile variable: which
  reads happen before the first full overwrite ("exposed" reads, the
  may-set), element-sensitive for constant array indices — a write to
  ``a[3]`` does not conflict with an exposed read of ``a[5]``;
- which *environment inputs* (``Variable.volatile_input``) are sampled
  inside the region — a replay re-samples them and the world has moved
  on;
- which VM-resident variables a function may *read before fully
  writing* from its entry, before any taken checkpoint — the fact a
  caller needs to extend a post-restore hazard window through a call.

The pass is a forward may-dataflow over each function's CFG (the same
:func:`repro.analysis.dataflow.solve_forward` worklist the residency
analyzer uses), run callee-first so every call site folds in a
:class:`RegionSummary` with the callee's by-reference formals
substituted by the caller's actuals. It produces *events* and
*summaries*, not findings: rule ids, severities and technique semantics
belong to :mod:`repro.staticcheck`, which consumes these facts.

A light register-taint pass per function records where sampled
environment values flow (branch conditions, stored memory, call
arguments) — the evidence CONS002 cites for why two executions of a
region may diverge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, call_ref_mapping, substitute
from repro.analysis.cfg import CFG
from repro.analysis.dataflow import solve_forward
from repro.ir.function import Function
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    Checkpoint,
    CondCheckpoint,
    Load,
    Move,
    Store,
    UnOp,
)
from repro.ir.module import Module
from repro.ir.values import Const, MemorySpace, Register, Variable

_CHECKPOINT_KINDS = (Checkpoint, CondCheckpoint)

#: (variable name, element) — element is the constant index when the
#: access provably targets one array element, None for scalars and for
#: symbolic (any-element) array accesses.
AccessKey = Tuple[str, Optional[int]]


def resolve_space(space: MemorySpace, default: MemorySpace) -> MemorySpace:
    """AUTO accesses execute in the interpreter's default space."""
    return default if space is MemorySpace.AUTO else space


def _access_key(name: str, index) -> AccessKey:
    if isinstance(index, Const):
        return (name, index.value)
    return (name, None)


def conflicts(read: AccessKey, write: AccessKey) -> bool:
    """May the write touch the element the read observed?"""
    if read[0] != write[0]:
        return False
    return read[1] is None or write[1] is None or read[1] == write[1]


def _shadowed(key: AccessKey, written: FrozenSet[AccessKey]) -> bool:
    """The read is preceded by a definite write of the same storage on
    every path in this region: ``(name, None)`` in ``written`` means the
    whole variable (a full scalar overwrite), ``(name, k)`` one proven
    element."""
    if (key[0], None) in written:
        return True
    return key[1] is not None and (key[0], key[1]) in written


def _substitute_keys(
    keys: FrozenSet[AccessKey], mapping: Dict[str, str]
) -> FrozenSet[AccessKey]:
    if not mapping:
        return keys
    return frozenset((mapping.get(name, name), idx) for name, idx in keys)


def checkpoint_clears(inst, policy_may_skip: bool) -> bool:
    """Whether this checkpoint is guaranteed to take a snapshot when
    execution passes it.

    A :class:`CondCheckpoint` fires only every ``every`` iterations, so a
    single pass may not snapshot. A skippable :class:`Checkpoint` under a
    policy with a skip heuristic (MEMENTOS) may be elided at run time.
    Both must be treated as *not* ending the current replay region."""
    if isinstance(inst, CondCheckpoint):
        return False
    if isinstance(inst, Checkpoint):
        return not (policy_may_skip and inst.skippable)
    return False


@dataclass(frozen=True)
class RegionEvent:
    """One hazard candidate observed during the facts walk."""

    #: ``"war"`` (write may overwrite an exposed read of the same
    #: storage in one region) or ``"env-read"`` (a volatile environment
    #: input is sampled inside a region).
    kind: str
    function: str
    block: str
    index: int
    variable: str
    #: For ``war``: the write provably targets the storage the exposed
    #: read observed (scalar, or equal constant elements).
    definite: bool = False
    #: Callee name when the hazardous access happens inside a call.
    via: Optional[str] = None
    #: Constant element index of the write, when known.
    element: Optional[int] = None


@dataclass(frozen=True)
class RegionSummary:
    """Caller-visible region behaviour of one function."""

    #: Storage the function may write on some path before any taken
    #: checkpoint (extends the caller's replay region).
    writes_before_clear: FrozenSet[AccessKey]
    #: Reads still exposed when the function returns (no taken
    #: checkpoint after the read on some path to the exit).
    exposed_at_exit: FrozenSet[AccessKey]
    #: Every entry-to-exit path passes a taken checkpoint.
    always_clears: bool
    #: VM-resident variables the function may *read* before definitely
    #: overwriting them, before any taken checkpoint from its entry —
    #: what a post-restore hazard window in the caller must survive.
    vm_entry_reads: FrozenSet[str]
    #: Environment inputs sampled anywhere in this function or its
    #: callees.
    env_reads: FrozenSet[str]


@dataclass
class RegionFacts:
    """Everything the facts pass derived for one module."""

    events: List[RegionEvent] = field(default_factory=list)
    summaries: Dict[str, RegionSummary] = field(default_factory=dict)
    #: Environment input -> kinds of sinks its samples flow into
    #: (``branch``, ``memory``, ``call``), module-wide.
    env_flows: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: function -> number of taken-checkpoint region anchors (clearing
    #: checkpoints) inside it, for certificate bookkeeping.
    anchors: Dict[str, int] = field(default_factory=dict)


#: (exposed reads [may], definitely written in this region [must],
#:  some path since entry has no taken checkpoint, VM entry-reads [may],
#:  definitely written since function entry [must] — unlike the region
#:  set this is NOT cleared at checkpoints: a store still shadows a
#:  later entry-window read even when a checkpoint sits between them,
#:  because any path crossing a taken checkpoint has left the caller's
#:  post-restore hazard window anyway)
_State = Tuple[
    FrozenSet[AccessKey],
    FrozenSet[AccessKey],
    bool,
    FrozenSet[str],
    FrozenSet[AccessKey],
]


def _join(a: _State, b: _State) -> _State:
    return (a[0] | b[0], a[1] & b[1], a[2] or b[2], a[3] | b[3], a[4] & b[4])


class _FunctionFacts:
    """Facts dataflow for one function, given its callees' summaries."""

    def __init__(
        self,
        module: Module,
        func: Function,
        summaries: Dict[str, RegionSummary],
        variables: Dict[str, Variable],
        policy_may_skip: bool,
        default_space: MemorySpace,
    ) -> None:
        self.module = module
        self.func = func
        self.summaries = summaries
        self.variables = variables
        self.policy_may_skip = policy_may_skip
        self.default_space = default_space
        self.cfg = CFG(func)
        self.env_reads: Set[str] = set()
        self.anchors = 0

    def run(self, facts: RegionFacts) -> RegionSummary:
        solution = solve_forward(
            self.cfg,
            (frozenset(), frozenset(), True, frozenset(), frozenset()),
            self._transfer,
            _join,
        )
        writes_before_clear: Set[AccessKey] = set()
        events: List[RegionEvent] = []
        for label, state in solution.block_in.items():
            self._walk(label, state, events, writes_before_clear)

        exit_state: Optional[_State] = None
        for label in self.cfg.exit_labels():
            out = solution.block_out.get(label)
            if out is None:
                continue
            exit_state = out if exit_state is None else _join(exit_state, out)
        if exit_state is None:  # function cannot return (endless loop)
            exit_state = (
                frozenset(), frozenset(), False, frozenset(), frozenset()
            )
        facts.events.extend(events)
        facts.anchors[self.func.name] = self.anchors
        return RegionSummary(
            writes_before_clear=frozenset(writes_before_clear),
            exposed_at_exit=exit_state[0],
            always_clears=not exit_state[2],
            vm_entry_reads=exit_state[3],
            env_reads=frozenset(self.env_reads),
        )

    # -- transfer ----------------------------------------------------------

    def _transfer(self, label: str, state: _State) -> _State:
        return self._walk(label, state, events=None, writes=None)

    def _walk(
        self,
        label: str,
        state: _State,
        events: Optional[List[RegionEvent]],
        writes: Optional[Set[AccessKey]],
    ) -> _State:
        exposed, written, noclear, vm_reads, entry_written = state
        reporting = events is not None
        for i, inst in enumerate(self.func.blocks[label].instructions):
            if isinstance(inst, Load):
                var = inst.var
                space = resolve_space(inst.space, self.default_space)
                key = _access_key(var.name, inst.index)
                if var.volatile_input:
                    if reporting:
                        self.env_reads.add(var.name)
                        events.append(
                            RegionEvent(
                                kind="env-read",
                                function=self.func.name,
                                block=label,
                                index=i,
                                variable=var.name,
                            )
                        )
                elif space is MemorySpace.NVM:
                    if not _shadowed(key, written):
                        exposed = exposed | {key}
                if space is MemorySpace.VM and noclear:
                    if not _shadowed(key, entry_written):
                        vm_reads = vm_reads | {var.name}
            elif isinstance(inst, Store):
                space = resolve_space(inst.space, self.default_space)
                name = inst.var.name
                wkey = _access_key(name, inst.index)
                if space is MemorySpace.NVM and reporting:
                    hits = [r for r in exposed if conflicts(r, wkey)]
                    if hits:
                        events.append(
                            RegionEvent(
                                kind="war",
                                function=self.func.name,
                                block=label,
                                index=i,
                                variable=name,
                                definite=self._definite(hits, wkey),
                                element=wkey[1],
                            )
                        )
                if space is MemorySpace.NVM and writes is not None and noclear:
                    writes.add(wkey)
                var = self.variables.get(name)
                if var is not None and not (var.is_array or var.is_ref):
                    written = written | {(name, None)}  # full overwrite
                    entry_written = entry_written | {(name, None)}
                elif wkey[1] is not None:
                    written = written | {wkey}  # one proven element
                    entry_written = entry_written | {wkey}
            elif isinstance(inst, _CHECKPOINT_KINDS):
                if checkpoint_clears(inst, self.policy_may_skip):
                    if reporting:
                        self.anchors += 1
                    exposed = frozenset()
                    written = frozenset()
                    noclear = False
            elif isinstance(inst, Call):
                state = self._apply_call(
                    inst, label, i,
                    (exposed, written, noclear, vm_reads, entry_written),
                    events, writes,
                )
                exposed, written, noclear, vm_reads, entry_written = state
        return (exposed, written, noclear, vm_reads, entry_written)

    def _definite(self, hits: List[AccessKey], wkey: AccessKey) -> bool:
        var = self.variables.get(wkey[0])
        if var is not None and not (var.is_array or var.is_ref):
            return True
        return any(
            r[1] is not None and r[1] == wkey[1] for r in hits
        )

    def _apply_call(
        self,
        call: Call,
        label: str,
        index: int,
        state: _State,
        events: Optional[List[RegionEvent]],
        writes: Optional[Set[AccessKey]],
    ) -> _State:
        exposed, written, noclear, vm_reads, entry_written = state
        callee = self.module.function(call.callee)
        summary = self.summaries[call.callee]
        mapping = call_ref_mapping(call, callee)
        callee_writes = _substitute_keys(summary.writes_before_clear, mapping)
        if events is not None:
            self.env_reads.update(summary.env_reads)
            by_name: Dict[str, List[Tuple[AccessKey, AccessKey]]] = {}
            for wkey in callee_writes:
                for r in exposed:
                    if conflicts(r, wkey):
                        by_name.setdefault(wkey[0], []).append((r, wkey))
            for name in sorted(by_name):
                var = self.variables.get(name)
                scalar = var is not None and not (var.is_array or var.is_ref)
                definite = scalar or any(
                    r[1] is not None and r[1] == w[1]
                    for r, w in by_name[name]
                )
                events.append(
                    RegionEvent(
                        kind="war",
                        function=self.func.name,
                        block=label,
                        index=index,
                        variable=name,
                        definite=definite,
                        via=call.callee,
                    )
                )
        if writes is not None and noclear:
            writes.update(callee_writes)
        if noclear:
            callee_vm = substitute(summary.vm_entry_reads, mapping)
            vm_reads = vm_reads | frozenset(
                n
                for n in callee_vm
                if not _shadowed((n, None), entry_written)
            )
        callee_exposed = frozenset(
            key
            for key in _substitute_keys(summary.exposed_at_exit, mapping)
            if not _shadowed(key, written)
        )
        if summary.always_clears:
            # Region restarted inside the callee; whatever the caller
            # read before the call belongs to a finished region.
            return (callee_exposed, frozenset(), False, vm_reads, entry_written)
        return (
            exposed | callee_exposed, written, noclear, vm_reads, entry_written
        )


# -- environment taint ----------------------------------------------------


def _env_taint(func: Function, cfg: CFG) -> Dict[str, Set[str]]:
    """Where each environment input's samples flow inside ``func``:
    a forward may-dataflow over (register, env var) pairs."""
    sinks: Dict[str, Set[str]] = {}

    def record(value, kind: str, tainted: FrozenSet[Tuple[str, str]]) -> None:
        if isinstance(value, Register):
            for reg, env in tainted:
                if reg == value.name:
                    sinks.setdefault(env, set()).add(kind)

    def taint_of(value, tainted: FrozenSet[Tuple[str, str]]) -> Set[str]:
        if not isinstance(value, Register):
            return set()
        return {env for reg, env in tainted if reg == value.name}

    def transfer(
        label: str, state: FrozenSet[Tuple[str, str]]
    ) -> FrozenSet[Tuple[str, str]]:
        tainted = set(state)
        for inst in func.blocks[label].instructions:
            if isinstance(inst, Load):
                tainted = {
                    (r, e) for r, e in tainted if r != inst.dest.name
                }
                if inst.var.volatile_input:
                    tainted.add((inst.dest.name, inst.var.name))
            elif isinstance(inst, (BinOp, UnOp, Move)):
                sources = (
                    [inst.lhs, inst.rhs]
                    if isinstance(inst, BinOp)
                    else [inst.src]
                )
                incoming: Set[str] = set()
                for src in sources:
                    incoming |= taint_of(src, frozenset(tainted))
                tainted = {
                    (r, e) for r, e in tainted if r != inst.dest.name
                }
                for env in incoming:
                    tainted.add((inst.dest.name, env))
            elif isinstance(inst, Store):
                record(inst.value, "memory", frozenset(tainted))
                if inst.index is not None:
                    record(inst.index, "memory", frozenset(tainted))
            elif isinstance(inst, Branch):
                record(inst.cond, "branch", frozenset(tainted))
            elif isinstance(inst, Call):
                for arg in inst.args:
                    record(arg, "call", frozenset(tainted))
                if inst.dest is not None:
                    tainted = {
                        (r, e) for r, e in tainted if r != inst.dest.name
                    }
        return frozenset(tainted)

    solve_forward(cfg, frozenset(), transfer, lambda a, b: a | b)
    return sinks


# -- module driver --------------------------------------------------------


def analyze_regions(
    module: Module,
    policy_may_skip: bool = False,
    default_space: MemorySpace = MemorySpace.NVM,
) -> RegionFacts:
    """Run the region facts pass over a whole module, callee-first."""
    variables = {var.name: var for var in module.all_variables()}
    facts = RegionFacts()
    has_env = any(v.volatile_input for v in module.all_variables())
    for name in CallGraph(module).reverse_topological():
        func = module.function(name)
        runner = _FunctionFacts(
            module, func, facts.summaries, variables,
            policy_may_skip, default_space,
        )
        facts.summaries[name] = runner.run(facts)
        if has_env:
            for env, kinds in _env_taint(func, runner.cfg).items():
                merged = set(facts.env_flows.get(env, frozenset()))
                merged |= kinds
                facts.env_flows[env] = frozenset(merged)
    return facts

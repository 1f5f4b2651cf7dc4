"""Variable-level liveness, interprocedural through call summaries.

SCHEMATIC trims checkpoint contents with liveness (§III-A2, Eq. 2): a VM
variable dead after a checkpoint is not saved; one whose first use after a
checkpoint is a full write is not restored. The granularity is whole
variables (the paper's allocation unit): a store to a scalar kills it, a
store to an array element does not kill the array.

Call instructions are handled with per-function *access summaries*: the set
of caller-visible variables (globals, plus by-reference parameter actuals)
the callee may read or write, computed callee-first over the call graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.analysis.accesses import AccessCounts
from repro.analysis.callgraph import CallGraph, call_ref_mapping
from repro.analysis.cfg import CFG
from repro.ir.function import Function
from repro.ir.instructions import Call, Instruction, Load, Store
from repro.ir.module import Module

#: Loop weight assumed for unbounded loops when statically weighting callee
#: access counts (profiles refine caller-side counts; this only affects how
#: attractive a callee's variables look to the caller's allocator).
DEFAULT_LOOP_WEIGHT = 8


@dataclass
class FunctionSummary:
    """Caller-visible effects of calling a function.

    Attributes:
        reads / writes: caller-visible variable names possibly read/written
            (globals and formal ref-parameter names; callers substitute
            actuals via :meth:`FunctionAccessSummaries.ref_mapping`).
        reads_all / writes_all: like reads/writes but *including* the
            callee's own locals (and, transitively, its callees' locals).
            Locals are statically allocated, so two consecutive calls to
            the same function touch the same storage — analyses that care
            about physical NVM state across calls (RATCHET's WAR-breaking
            placement, the static idempotency checker) need the full sets,
            not just the caller-visible ones.
        counts: loop-weighted access counts over the same name space.
    """

    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    reads_all: Set[str] = field(default_factory=set)
    writes_all: Set[str] = field(default_factory=set)
    counts: AccessCounts = field(default_factory=AccessCounts)


class FunctionAccessSummaries:
    """Computes and stores :class:`FunctionSummary` for every function."""

    def __init__(self, module: Module, callgraph: Optional[CallGraph] = None):
        self.module = module
        self.callgraph = callgraph or CallGraph(module)
        self.summaries: Dict[str, FunctionSummary] = {}
        for name in self.callgraph.reverse_topological():
            self.summaries[name] = self._summarize(module.functions[name])

    def _summarize(self, func: Function) -> FunctionSummary:
        summary = FunctionSummary()
        local_names = {
            v.name for v in func.variables.values() if not v.is_ref
        }

        cfg = CFG(func)
        from repro.analysis.loops import LoopNest

        nest = LoopNest(cfg)

        def block_weight(label: str) -> int:
            weight = 1
            loop = nest.loop_of(label)
            while loop is not None:
                trips = loop.maxiter if loop.maxiter else DEFAULT_LOOP_WEIGHT
                weight *= max(trips, 1)
                loop = loop.parent
            # Cap so a deeply nested callee does not produce absurd counts.
            return min(weight, 1 << 16)

        for label, block in func.blocks.items():
            weight = block_weight(label)
            for inst in block:
                if isinstance(inst, Load):
                    name = inst.var.name
                    summary.counts.add_read(name, weight)
                    summary.reads_all.add(name)
                    if name not in local_names:
                        summary.reads.add(name)
                elif isinstance(inst, Store):
                    name = inst.var.name
                    summary.counts.add_write(
                        name, weight, full=not inst.var.is_array
                    )
                    summary.writes_all.add(name)
                    if name not in local_names:
                        summary.writes.add(name)
                elif isinstance(inst, Call):
                    callee_summary = self.summaries[inst.callee]
                    mapping = self.ref_mapping(inst)
                    for read in callee_summary.reads:
                        summary_name = mapping.get(read, read)
                        if summary_name not in local_names:
                            summary.reads.add(summary_name)
                        summary.counts.add_read(summary_name, weight)
                    for write in callee_summary.writes:
                        summary_name = mapping.get(write, write)
                        if summary_name not in local_names:
                            summary.writes.add(summary_name)
                        summary.counts.add_write(summary_name, weight)
                    # Full sets: ref-substituted caller-visible names plus
                    # every (transitive) callee local, which stays under
                    # its own mangled name.
                    for read in callee_summary.reads_all:
                        summary.reads_all.add(mapping.get(read, read))
                    for write in callee_summary.writes_all:
                        summary.writes_all.add(mapping.get(write, write))

        # Drop locals from the caller-visible count space too? No: counts
        # keep local names so the function's own analysis can reuse them;
        # reads/writes are the caller-visible sets.
        return summary

    def ref_mapping(self, call: Call) -> Dict[str, str]:
        """Map callee formal-ref names to the actual variables at ``call``."""
        return call_ref_mapping(call, self.module.function(call.callee))

    def summary(self, name: str) -> FunctionSummary:
        return self.summaries[name]

    def call_effects(self, call: Call) -> Tuple[Set[str], Set[str]]:
        """(reads, writes) of caller-visible variable names for one call
        site, with formal ref parameters substituted by actuals."""
        callee = self.summaries[call.callee]
        mapping = self.ref_mapping(call)
        reads = {mapping.get(n, n) for n in callee.reads}
        writes = {mapping.get(n, n) for n in callee.writes}
        return reads, writes

    def call_effects_full(self, call: Call) -> Tuple[Set[str], Set[str]]:
        """Like :meth:`call_effects`, but including callee locals.

        Locals are statically allocated: consecutive calls to the same
        function reuse the same NVM storage, so a read the callee leaves
        exposed can form a WAR hazard with a write performed by a *later*
        call. Placement passes that break WAR dependencies must see them.
        """
        callee = self.summaries[call.callee]
        mapping = self.ref_mapping(call)
        reads = {mapping.get(n, n) for n in callee.reads_all}
        writes = {mapping.get(n, n) for n in callee.writes_all}
        return reads, writes

    def counts_at_call(self, call: Call) -> AccessCounts:
        """Loop-weighted access counts contributed by one call site, over
        caller-visible names only."""
        callee = self.summaries[call.callee]
        mapping = self.ref_mapping(call)
        visible = callee.reads | callee.writes
        result = AccessCounts()
        for name, count in callee.counts.reads.items():
            if name in visible:
                result.add_read(mapping.get(name, name), count)
        for name, count in callee.counts.writes.items():
            if name in visible:
                result.add_write(mapping.get(name, name), count)
        return result


class LivenessInfo:
    """Backward may-liveness over variable names for one function."""

    def __init__(
        self,
        func: Function,
        module: Module,
        summaries: FunctionAccessSummaries,
        cfg: Optional[CFG] = None,
    ):
        self.function = func
        self.module = module
        self.summaries = summaries
        self.cfg = cfg or CFG(func)
        self.live_in: Dict[str, Set[str]] = {}
        self.live_out: Dict[str, Set[str]] = {}
        self._use: Dict[str, Set[str]] = {}
        self._def: Dict[str, Set[str]] = {}
        self._exit_live = self._compute_exit_live()
        self._compute()

    def _compute_exit_live(self) -> Set[str]:
        """Variables conservatively live when the function returns: non-const
        globals (program outputs flow through globals) and ref parameters
        (they alias caller storage)."""
        live = {
            v.name for v in self.module.globals.values() if not v.is_const
        }
        for var in self.function.variables.values():
            if var.is_ref:
                live.add(var.name)
        return live

    def _inst_uses_defs(self, inst: Instruction) -> Tuple[Set[str], Set[str]]:
        if isinstance(inst, Load):
            return {inst.var.name}, set()
        if isinstance(inst, Store):
            if inst.var.is_array:
                # Partial write: the rest of the array stays live.
                return set(), set()
            return set(), {inst.var.name}
        if isinstance(inst, Call):
            reads, writes = self.summaries.call_effects(inst)
            # Writes by a callee are not kills (may-writes), but they make
            # the variable's pre-call value potentially irrelevant only if
            # definitely overwritten — we stay conservative.
            return set(reads), set()
        return set(), set()

    def _compute(self) -> None:
        for label, block in self.function.blocks.items():
            use: Set[str] = set()
            defined: Set[str] = set()
            for inst in block:
                uses, defs = self._inst_uses_defs(inst)
                use |= uses - defined
                defined |= defs
            self._use[label] = use
            self._def[label] = defined
            self.live_in[label] = set()
            self.live_out[label] = set()

        changed = True
        while changed:
            changed = False
            for label in reversed(self.cfg.reverse_postorder()):
                succs = self.cfg.succs[label]
                if succs:
                    out: Set[str] = set()
                    for s in succs:
                        out |= self.live_in[s]
                else:
                    out = set(self._exit_live)
                new_in = self._use[label] | (out - self._def[label])
                if out != self.live_out[label] or new_in != self.live_in[label]:
                    self.live_out[label] = out
                    self.live_in[label] = new_in
                    changed = True

    # -- queries -----------------------------------------------------------

    def live_at_edge(self, src: str, dst: str) -> Set[str]:
        """Variables live on the CFG edge ``src -> dst`` (= live-in of dst)."""
        return set(self.live_in[dst])

    def live_before_instruction(self, label: str, index: int) -> Set[str]:
        """Variables live immediately before ``block.instructions[index]``.

        Computed by a backward scan from the block's live-out; used for
        checkpoints inserted mid-block (around call sites)."""
        block = self.function.blocks[label]
        live = set(self.live_out[label])
        for inst in reversed(block.instructions[index:]):
            uses, defs = self._inst_uses_defs(inst)
            live -= defs
            live |= uses
        return live


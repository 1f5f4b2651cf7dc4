"""Execution-trace collection and path extraction (paper §III-A3).

"Path prioritization is performed by extensive instrumentation of the code
with varied input data, to gather execution traces, formed of sequences of
executed basic blocks. Traces are sorted on a per-function basis."

The profiler runs the program under continuous power with seeded random
inputs and records, per function invocation, the sequence of basic blocks
executed. Path extraction then *condenses* those block sequences onto a
region graph: blocks expand to their atoms, collapsed loops contract to
their loop atom, and consecutive repeats (loop iterations) deduplicate.
Loop-body paths are extracted from the iteration sub-sequences between
successive header occurrences.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import memo
from repro.analysis.loops import Loop
from repro.core.region import RegionGraph
from repro.emulator.interpreter import run_continuous
from repro.energy.model import EnergyModel
from repro.ir.module import Module
from repro.runner.cache import ArtifactCache

#: An input generator: run index -> {global name: values}.
InputGenerator = Callable[[int], Dict[str, List[int]]]


@dataclass
class Profile:
    """Per-function invocation traces with multiplicities."""

    #: function -> [(block label sequence, occurrence count)], sorted by
    #: decreasing count.
    traces: Dict[str, List[Tuple[Tuple[str, ...], int]]] = field(
        default_factory=dict
    )

    def function_traces(self, name: str) -> List[Tuple[Tuple[str, ...], int]]:
        return self.traces.get(name, [])

    def copy(self) -> "Profile":
        """A profile sharing no mutable list or dict with this one."""
        return Profile({name: list(traces)
                        for name, traces in self.traces.items()})


class _TraceCollector:
    """Reconstructs per-invocation block sequences from the interpreter's
    (function, label) trace callback using a shadow call stack (recursion is
    rejected upstream, so a function name identifies a stack level)."""

    def __init__(self) -> None:
        self.stack: List[Tuple[str, List[str]]] = []
        self.finished: Dict[str, Counter] = {}

    def __call__(self, function: str, label: str) -> None:
        if self.stack and self.stack[-1][0] == function:
            blocks = self.stack[-1][1]
            if not blocks or blocks[-1] != label:
                blocks.append(label)
            return
        # Either a call into a new function, or a return to a caller lower
        # in the stack.
        for depth in range(len(self.stack) - 1, -1, -1):
            if self.stack[depth][0] == function:
                # Return: finalize everything above this level.
                while len(self.stack) - 1 > depth:
                    self._finish(*self.stack.pop())
                blocks = self.stack[-1][1]
                if not blocks or blocks[-1] != label:
                    blocks.append(label)
                return
        self.stack.append((function, [label]))

    def _finish(self, function: str, blocks: List[str]) -> None:
        self.finished.setdefault(function, Counter())[tuple(blocks)] += 1

    def finalize(self) -> None:
        while self.stack:
            self._finish(*self.stack.pop())


def collect_profile(
    module: Module,
    model: EnergyModel,
    input_generator: Optional[InputGenerator] = None,
    runs: int = 4,
    seed: int = 20240301,
    max_instructions: int = 50_000_000,
) -> Profile:
    """Run the program ``runs`` times with varied inputs and collect traces.

    Without an input generator, a default one writes seeded random values
    into every non-const global scalar or array that has no initializer;
    const and initialized globals keep their declared values. Callers
    normally pass the benchmark's own generator.

    The inputs of every run are drawn first (in run order, as the runs
    would draw them) and the profile is memoized per process on the
    module text, model, instruction cap and those inputs
    (:mod:`repro.analysis.memo`); a hit returns a copy without running.
    """
    if input_generator is None:
        rng = random.Random(seed)

        def default_gen(_run: int) -> Dict[str, List[int]]:
            inputs: Dict[str, List[int]] = {}
            for name, var in module.globals.items():
                if var.is_const or var.init is not None:
                    continue
                inputs[name] = [
                    rng.randrange(0, max(var.type.max_value, 1) + 1)
                    for _ in range(var.count)
                ]
            return inputs

        input_generator = default_gen

    run_inputs = [input_generator(run) for run in range(runs)]
    key = (
        memo.source_key(module),
        ArtifactCache.key(repr(model), max_instructions, repr(run_inputs)),
    )
    cached = memo.lookup("profile", key)
    if cached is not None:
        return cached.copy()

    collector = _TraceCollector()
    for run, inputs in enumerate(run_inputs):
        collector.stack = []
        report = run_continuous(
            module,
            model,
            inputs=inputs,
            trace=collector,
            max_instructions=max_instructions,
        )
        collector.finalize()
        if not report.completed:
            raise RuntimeError(
                f"profiling run {run} did not complete: {report.failure_reason}"
            )

    profile = Profile()
    for function, counter in collector.finished.items():
        profile.traces[function] = sorted(
            counter.items(), key=lambda item: (-item[1], item[0])
        )
    memo.store("profile", key, profile.copy())
    return profile


# ---------------------------------------------------------------- condensation


def condense_block_sequence(
    region: RegionGraph, blocks: Sequence[str]
) -> Optional[Tuple[int, ...]]:
    """Map a block sequence onto a region atom path.

    Blocks inside collapsed loops contract to the loop atom (consecutive
    repeats deduplicated); other blocks expand to their atom lists. Returns
    None if the sequence touches blocks outside the region.
    """
    path: List[int] = []
    for label in blocks:
        if label in region.loop_atom_of:
            uid = region.loop_atom_of[label]
            if not path or path[-1] != uid:
                path.append(uid)
        elif label in region.block_atoms:
            for uid in region.block_atoms[label]:
                path.append(uid)
        else:
            return None
    return tuple(path)


def region_paths_from_traces(
    region: RegionGraph,
    traces: Sequence[Tuple[Tuple[str, ...], int]],
) -> List[Tuple[int, ...]]:
    """Condensed atom paths for a *function-level* region, ordered by
    decreasing trace frequency (duplicates merged)."""
    counter: Counter = Counter()
    order: Dict[Tuple[int, ...], int] = {}
    for blocks, count in traces:
        path = condense_block_sequence(region, blocks)
        if path is None or not path:
            continue
        if path[0] != region.entry_uid:
            continue
        counter[path] += count
        order.setdefault(path, len(order))
    return [
        path
        for path, _ in sorted(
            counter.items(), key=lambda item: (-item[1], order[item[0]])
        )
    ]


def loop_iteration_sequences(
    loop: Loop, blocks: Sequence[str]
) -> List[Tuple[str, ...]]:
    """Split one invocation trace into that loop's iteration sub-sequences.

    Each iteration runs from one occurrence of the loop header to just
    before the next (or to where the trace leaves the loop body)."""
    iterations: List[Tuple[str, ...]] = []
    current: List[str] = []
    inside = False
    for label in blocks:
        if label == loop.header:
            if inside and current:
                iterations.append(tuple(current))
            current = [label]
            inside = True
        elif inside:
            if label in loop.body:
                current.append(label)
            else:
                if current:
                    iterations.append(tuple(current))
                current = []
                inside = False
    if inside and current:
        iterations.append(tuple(current))
    return iterations


def loop_region_paths(
    region: RegionGraph,
    loop: Loop,
    traces: Sequence[Tuple[Tuple[str, ...], int]],
) -> List[Tuple[int, ...]]:
    """Condensed body paths for one loop, by decreasing frequency."""
    counter: Counter = Counter()
    order: Dict[Tuple[int, ...], int] = {}
    for blocks, count in traces:
        for iteration in loop_iteration_sequences(loop, blocks):
            path = condense_block_sequence(region, iteration)
            if path is None or not path or path[0] != region.entry_uid:
                continue
            counter[path] += count
            order.setdefault(path, len(order))
    return [
        path
        for path, _ in sorted(
            counter.items(), key=lambda item: (-item[1], order[item[0]])
        )
    ]

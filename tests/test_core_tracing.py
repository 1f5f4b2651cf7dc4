"""Tests for profiling and path extraction."""

import pytest

from repro.analysis import CFG, FunctionAccessSummaries, LoopNest, memo
from repro.analysis.callgraph import CallGraph
from repro.core import tracing
from repro.core.region import CostEnv, RegionBuilder
from repro.core.tracing import (
    collect_profile,
    condense_block_sequence,
    loop_iteration_sequences,
    loop_region_paths,
    region_paths_from_traces,
)
from repro.core.summaries import LoopResult, SharedAlloc
from repro.emulator import run_continuous
from repro.energy import msp430fr5969_model
from repro.frontend import compile_source
from tests.helpers import BRANCHY_SRC, CALLS_SRC, branchy_inputs, calls_inputs

MODEL = msp430fr5969_model()

#: One global of each kind the default input generator distinguishes.
DEFAULT_GEN_SRC = """
const u16 limit = 7;
u16 seeded = 5;
u16 raw;
u16 samples[4];
u32 result;
void main() {
    u32 acc = 0;
    if (limit != 7) { acc = 1; }
    if (seeded != 5) { acc = acc + 2; }
    result = acc + raw + samples[0];
}
"""


def profile_for(source, inputs_fn, runs=3):
    module = compile_source(source)

    def gen(run):
        return inputs_fn(seed=run)

    return module, collect_profile(module, MODEL, gen, runs=runs)


class TestCollectProfile:
    def test_traces_recorded_per_function(self):
        module, profile = profile_for(CALLS_SRC, calls_inputs)
        assert "main" in profile.traces
        assert "weight" in profile.traces
        assert "scale" in profile.traces

    def test_trace_counts_accumulate(self):
        module, profile = profile_for(CALLS_SRC, calls_inputs, runs=2)
        # weight is called 48 times per run * 2 runs.
        total = sum(count for _, count in profile.traces["weight"])
        assert total == 48 * 2

    def test_traces_sorted_by_frequency(self):
        module, profile = profile_for(CALLS_SRC, calls_inputs)
        counts = [count for _, count in profile.traces["weight"]]
        assert counts == sorted(counts, reverse=True)

    def test_traces_start_at_entry(self):
        module, profile = profile_for(CALLS_SRC, calls_inputs)
        for name, traces in profile.traces.items():
            entry = module.functions[name].entry.label
            for blocks, _ in traces:
                assert blocks[0] == entry

    def test_branchy_inputs_create_distinct_paths(self):
        module, profile = profile_for(BRANCHY_SRC, branchy_inputs, runs=4)
        # selector parity differs between runs -> at least 2 distinct traces
        assert len(profile.traces["main"]) >= 2

    def test_default_generator_fills_uninitialized_globals(
        self, monkeypatch
    ):
        """Without a generator, every run gets seeded random values for
        exactly the non-const globals that have no initializer, whatever
        their names: const and initialized globals keep their values."""
        module = compile_source(DEFAULT_GEN_SRC)
        seen = []

        def spy(module, model, inputs, **kwargs):
            seen.append(inputs)
            return run_continuous(module, model, inputs=inputs, **kwargs)

        monkeypatch.setattr(tracing, "run_continuous", spy)
        # A profile memoized by an earlier test would hide the runs.
        memo.reset_memo()
        profile = collect_profile(module, MODEL, runs=3)
        assert [sorted(inputs) for inputs in seen] == (
            [["raw", "result", "samples"]] * 3
        )
        for inputs in seen:
            assert len(inputs["samples"]) == 4
            assert all(0 <= v <= 0xFFFF for v in inputs["samples"])
        # Neither guarded branch is ever taken: one path, every run.
        [(blocks, count)] = profile.traces["main"]
        assert count == 3 and len(blocks) == 3


class TestCondensation:
    def _region(self, source, inputs_fn):
        module, profile = profile_for(source, inputs_fn)
        func = module.functions["main"]
        cfg = CFG(func)
        nest = LoopNest(cfg)
        loop_results = {}
        env = CostEnv(
            model=MODEL,
            eb=1_000_000.0,
            summaries=FunctionAccessSummaries(module, CallGraph(module)),
            function_results={},
            loop_results=loop_results,
        )
        builder = RegionBuilder(func, cfg, nest, env)
        # Give each top-level loop a stub result so it can collapse.
        for loop in nest.bottom_up():
            loop_results[loop.header] = LoopResult(
                header=loop.header,
                maxiter=loop.maxiter or 8,
                iteration_energy=1.0,
                numit=None,
                total_energy=8.0,
                shared=SharedAlloc(),
            )
        region = builder.build_function_region()
        return module, profile, region, nest

    def test_condensed_paths_are_region_paths(self):
        module, profile, region, nest = self._region(
            BRANCHY_SRC, branchy_inputs
        )
        paths = region_paths_from_traces(region, profile.traces["main"])
        assert paths
        edges = set(region.edges())
        for path in paths:
            assert path[0] == region.entry_uid
            for a, b in zip(path, path[1:]):
                assert (a, b) in edges

    def test_loop_blocks_collapse_to_single_atom(self):
        module, profile, region, nest = self._region(
            BRANCHY_SRC, branchy_inputs
        )
        (blocks, _count) = profile.traces["main"][0]
        path = condense_block_sequence(region, blocks)
        loop_uids = set(region.loop_atom_of.values())
        # The loop atom appears exactly once despite 12 iterations.
        assert sum(1 for uid in path if uid in loop_uids) == len(loop_uids)

    def test_foreign_blocks_rejected(self):
        module, profile, region, nest = self._region(
            BRANCHY_SRC, branchy_inputs
        )
        assert condense_block_sequence(region, ("nonexistent",)) is None


class TestLoopIterations:
    def test_iteration_extraction(self):
        module, profile = profile_for(BRANCHY_SRC, branchy_inputs)
        func = module.functions["main"]
        nest = LoopNest(CFG(func))
        loop = nest.loops[0]
        (blocks, _), *_ = profile.traces["main"]
        iterations = loop_iteration_sequences(loop, blocks)
        # 12 loop iterations -> 12 header-to-latch windows (the final exit
        # check contributes a header-only partial iteration).
        assert len(iterations) in (12, 13)
        for iteration in iterations:
            assert iteration[0] == loop.header
            assert all(label in loop.body for label in iteration)

    def test_loop_region_paths(self):
        module, profile = profile_for(BRANCHY_SRC, branchy_inputs, runs=4)
        func = module.functions["main"]
        cfg = CFG(func)
        nest = LoopNest(cfg)
        loop = nest.loops[0]
        env = CostEnv(
            model=MODEL,
            eb=1_000_000.0,
            summaries=FunctionAccessSummaries(module, CallGraph(module)),
            function_results={},
            loop_results={},
        )
        region = RegionBuilder(func, cfg, nest, env).build_loop_region(loop)
        paths = loop_region_paths(region, loop, profile.traces["main"])
        assert paths
        # Both branch arms appear across runs (selector parity varies).
        distinct_atoms = {uid for path in paths for uid in path}
        assert len(distinct_atoms) >= 4

"""The per-process analysis memo (``repro.analysis.memo``).

Profiling and range analysis are memoized on content: the printed
module, plus, for a profile, the model, the instruction cap and the
materialised inputs. These tests pin the three things that make that
sound and observable:

- a hit is equal to a fresh computation, on every corpus program and
  MiBench2 kernel, and printing is exact (print -> parse -> print is the
  identity, on placed modules too, and the parsed module profiles and
  range-analyses the same);
- every change to the key's content misses;
- a caller mutating what it got back cannot change a later hit;

plus the analysis-cost bypass and the manifest/metrics counters.
"""

import dataclasses
import json

import pytest

from repro.analysis import memo
from repro.analysis import ranges as ranges_mod
from repro.analysis.ranges import apply_inferred_bounds, infer_module_bounds
from repro.core.tracing import collect_profile
from repro.energy import msp430fr5969_model, msp430fr5969_platform
from repro.experiments import analysis_cost, run_all
from repro.experiments.analysis_cost import synthetic_program
from repro.experiments.common import EvaluationContext
from repro.frontend import compile_source
from repro.ir.printer import print_module
from repro.ir.textparser import parse_ir
from repro.testkit.corpus import available_programs, compile_for, load_program

MODEL = msp430fr5969_model()
RUNS = 2

#: Two loops without an annotation, so range analysis adds bounds.
UNANNOTATED_SRC = """
u32 out;
u32 n;
void main() {
    i32 i = 0;
    while (i < 9) {
        out = out + 1;
        i = i + 1;
    }
    u16 j = 0;
    while (j < 5) {
        out = out ^ n;
        j = j + 1;
    }
}
"""


@pytest.fixture(autouse=True)
def _fresh_memo():
    memo.reset_memo()
    yield
    memo.reset_memo()


def _platform():
    return msp430fr5969_platform(eb=3000.0)


def _profile(module, generator=None, runs=RUNS, model=MODEL, **kwargs):
    return collect_profile(module, model, generator, runs=runs, **kwargs)


def _bounds_after_apply(module):
    work = module.clone()
    applied = apply_inferred_bounds(work)
    maxiter = {name: dict(f.loop_maxiter) for name, f in
               work.functions.items()}
    return applied, maxiter


@pytest.mark.parametrize("program", available_programs())
def test_hit_equals_fresh_computation(program):
    """A hit equals the fresh computation. Printing is exact: the module
    parsed back from its text prints the same text and, computed afresh,
    has the same profile and proven bounds, so two modules with equal
    text cannot behave differently."""
    bench = load_program(program)
    fresh = _profile(bench.module, bench.input_generator())
    fresh_bounds = _bounds_after_apply(bench.module)
    assert memo.memo_stats() == {
        "profile_hits": 0, "profile_misses": 1,
        "ranges_hits": 0, "ranges_misses": 1,
    }
    hit = _profile(bench.module, bench.input_generator())
    hit_bounds = _bounds_after_apply(bench.module)
    assert memo.memo_stats()["profile_hits"] == 1
    assert memo.memo_stats()["ranges_hits"] == 1
    assert hit is not fresh
    assert hit.traces == fresh.traces
    assert hit_bounds == fresh_bounds

    text = print_module(bench.module)
    parsed = parse_ir(text)
    assert print_module(parsed) == text
    memo.forget()
    assert _profile(parsed, bench.input_generator()).traces == fresh.traces
    assert infer_module_bounds(parsed) == infer_module_bounds(bench.module)


@pytest.mark.parametrize("technique", ["schematic", "ratchet", "mementos"])
def test_printing_is_exact_on_placed_modules(technique):
    bench = load_program("calls")
    placed = compile_for(technique, bench.module, _platform(),
                         input_generator=bench.input_generator()).module
    text = print_module(placed)
    assert print_module(parse_ir(text)) == text


class TestKeyChangesMiss:
    """Each edit below changes what the analysis would compute from, so
    each must miss."""

    def _sumloop(self):
        bench = load_program("sumloop")
        return bench, bench.module

    def _assert_profile_miss(self, call):
        before = memo.memo_stats()["profile_misses"]
        call()
        assert memo.memo_stats()["profile_misses"] == before + 1
        assert memo.memo_stats()["profile_hits"] == 0

    def test_edited_instruction(self):
        bench, module = self._sumloop()
        text = print_module(module)
        assert "mul %t5:u32, 3:i32" in text
        edited = parse_ir(text.replace("mul %t5:u32, 3:i32",
                                       "mul %t5:u32, 5:i32"))
        _profile(module, bench.input_generator())
        self._assert_profile_miss(
            lambda: _profile(edited, bench.input_generator()))
        apply_inferred_bounds(module.clone())
        apply_inferred_bounds(edited)
        assert memo.memo_stats()["ranges_misses"] == 2
        assert memo.memo_stats()["ranges_hits"] == 0

    def test_changed_input_vector(self):
        bench, module = self._sumloop()
        generator = bench.input_generator()

        def edited(run):
            inputs = generator(run)
            if run == RUNS - 1:
                inputs["data"][3] += 1
            return inputs

        _profile(module, generator)
        self._assert_profile_miss(lambda: _profile(module, edited))

    def test_different_run_count(self):
        bench, module = self._sumloop()
        _profile(module, bench.input_generator())
        self._assert_profile_miss(
            lambda: _profile(module, bench.input_generator(), runs=RUNS + 1))

    def test_different_model_constant(self):
        bench, module = self._sumloop()
        other = dataclasses.replace(MODEL, energy_per_cycle=0.31)
        _profile(module, bench.input_generator())
        self._assert_profile_miss(
            lambda: _profile(module, bench.input_generator(), model=other))

    def test_different_instruction_cap(self):
        bench, module = self._sumloop()
        _profile(module, bench.input_generator())
        self._assert_profile_miss(
            lambda: _profile(module, bench.input_generator(),
                             max_instructions=1_000_000))

    def test_default_generator_seed(self):
        bench, module = self._sumloop()
        _profile(module)
        self._assert_profile_miss(lambda: _profile(module, seed=7))


class TestCallersCannotCorruptHits:
    def test_mutating_a_returned_profile(self):
        bench = load_program("branchy")
        first = _profile(bench.module, bench.input_generator())
        expected = {name: list(traces)
                    for name, traces in first.traces.items()}
        for traces in first.traces.values():
            traces.clear()
        first.traces["injected"] = [(("entry",), 1)]
        second = _profile(bench.module, bench.input_generator())
        assert memo.memo_stats()["profile_hits"] == 1
        assert second.traces == expected
        second.traces.clear()
        assert _profile(bench.module, bench.input_generator()).traces == (
            expected)

    def test_mutating_applied_bounds_and_loop_maxiter(self):
        source = compile_source(UNANNOTATED_SRC, "unannotated")
        first = source.clone()
        applied = apply_inferred_bounds(first)
        assert sorted(applied.values()) == [5, 9]
        expected = dict(first.functions["main"].loop_maxiter)
        for key in list(applied):
            applied[key] = 1
        first.functions["main"].loop_maxiter.clear()
        second = source.clone()
        assert apply_inferred_bounds(second) == {
            key: expected[key[1]] for key in applied
        }
        assert memo.memo_stats()["ranges_hits"] == 1
        assert second.functions["main"].loop_maxiter == expected


def test_analysis_cost_times_a_full_range_analysis(monkeypatch):
    """Each timed compile of the analysis-cost section must run range
    analysis itself, even with every module already in the memo."""
    ctx = EvaluationContext(benchmarks=["crc"])
    ctx.profile("crc")
    for module in (ctx.benchmark("crc").module,
                   compile_source(synthetic_program(4), "synthetic4")):
        apply_inferred_bounds(module.clone())
        apply_inferred_bounds(module.clone())
    assert memo.memo_stats()["ranges_hits"] == 2, "the memo must be warm"
    inside = []
    calls = []
    real_compile = analysis_cost.compile_schematic
    real_infer = ranges_mod.infer_module_bounds

    def timed_compile(*args, **kwargs):
        inside.append(True)
        calls.append(0)
        try:
            return real_compile(*args, **kwargs)
        finally:
            inside.pop()

    def infer(*args, **kwargs):
        if inside:
            calls[-1] += 1
        return real_infer(*args, **kwargs)

    monkeypatch.setattr(analysis_cost, "compile_schematic", timed_compile)
    monkeypatch.setattr(ranges_mod, "infer_module_bounds", infer)
    analysis_cost.run(ctx, chain_sizes=(4,))
    assert len(calls) == 2 and all(calls), calls


class _TwoCompiles:
    """A stand-in section: two techniques over one source module."""

    @staticmethod
    def run(ctx):
        bench = load_program("sumloop")
        for technique in ("schematic", "rockclimb"):
            compile_for(technique, bench.module, _platform(),
                        input_generator=bench.input_generator())
        return _Rendered()


class _Rendered:
    def render(self):
        return "two compiles"


def test_manifest_and_metrics_count_memo_traffic(tmp_path, capfd,
                                                 monkeypatch):
    monkeypatch.setattr(run_all, "SECTIONS", [("Two", _TwoCompiles)])
    # Traffic from before the run is not this run's.
    _profile(load_program("sumloop").module)
    manifest_path = tmp_path / "manifest.json"
    run_all.main([
        "--benchmarks", "crc", "--no-cache",
        "--metrics", "--metrics-dir", str(tmp_path),
        "--json", str(manifest_path),
    ])
    capfd.readouterr()
    manifest = json.loads(manifest_path.read_text())
    counts = {"profile_hits": 1, "profile_misses": 1,
              "ranges_hits": 1, "ranges_misses": 1}
    assert manifest["analysis_memo"] == counts
    counters = {
        r["name"]: r["value"]
        for r in manifest["metrics"]["metrics"] if r["kind"] == "counter"
    }
    for key, value in counts.items():
        kind, outcome = key.split("_")
        assert counters[f"placer.memo.{kind}.{outcome}"] == value

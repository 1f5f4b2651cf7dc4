"""Regression tests for the EvaluationContext caching bugs and the disk
cache integration.

Two historical bugs are pinned down here:

1. **Stale run keys** — the in-memory ``_runs`` key omitted the power
   model and TBPF, so under periodic failures two runs with the same EB
   but different periods aliased and the second returned the first's
   outcome.
2. **Hidden re-emulation** — the module-level ``eb_for_tbpf()`` built a
   throwaway ``EvaluationContext`` per call, silently re-running the full
   continuous reference every time.
"""

import dataclasses

import pytest

from repro.emulator.diffemu import PowerSpec
from repro.experiments import common
from repro.experiments.common import EvaluationContext, eb_for_tbpf
from repro.runner.cache import ArtifactCache

BENCH = "randmath"  # smallest/fastest of the eight


@pytest.fixture
def fresh_shared_ctx(monkeypatch):
    """Isolate the module-level shared context from other tests."""
    monkeypatch.setattr(common, "_SHARED_CTX", None)


# -- bug 1: stale run keys under periodic failures ----------------------------


def test_run_key_includes_failure_model_and_tbpf():
    key = EvaluationContext._run_key
    eb = 100.0
    periodic_1k = key("schematic", BENCH, eb, PowerSpec.periodic(1_000, eb))
    periodic_100k = key(
        "schematic", BENCH, eb, PowerSpec.periodic(100_000, eb)
    )
    energy = key("schematic", BENCH, eb, PowerSpec.energy_budget(eb))
    assert periodic_1k != periodic_100k, (
        "same EB, different period must be different cells"
    )
    assert energy not in (periodic_1k, periodic_100k), (
        "same EB, different power model must be different cells"
    )


def test_cycles_model_distinct_outcomes_per_tbpf():
    """The original symptom: same EB, different TBPF returned the stale
    first outcome. The two periods must now emulate independently."""
    ctx = EvaluationContext(benchmarks=[BENCH])
    eb = ctx.eb_for_tbpf(BENCH, 100_000)  # generous budget for both
    short = ctx.run("schematic", BENCH, eb, PowerSpec.periodic(1_000, eb))
    long = ctx.run("schematic", BENCH, eb, PowerSpec.periodic(100_000, eb))
    assert short is not long
    assert short.report is not None and long.report is not None
    assert short.report.power_failures != long.report.power_failures


# -- bug 2: eb_for_tbpf hidden re-emulation -----------------------------------


def test_eb_for_tbpf_reference_runs_once(fresh_shared_ctx, monkeypatch):
    calls = []
    real = common.run_continuous

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(common, "run_continuous", counting)
    first = eb_for_tbpf(BENCH, 1_000)
    second = eb_for_tbpf(BENCH, 10_000)
    third = eb_for_tbpf(BENCH, 1_000)
    assert len(calls) == 1, (
        "module-level eb_for_tbpf must memoize the reference run "
        f"(ran {len(calls)} times)"
    )
    assert second == pytest.approx(first * 10)
    assert third == first


def test_eb_for_tbpf_accepts_explicit_context(fresh_shared_ctx):
    ctx = EvaluationContext(benchmarks=[BENCH])
    assert eb_for_tbpf(BENCH, 1_000, ctx=ctx) == ctx.eb_for_tbpf(BENCH, 1_000)
    assert common._SHARED_CTX is None, "explicit ctx must not build the shared one"


# -- disk cache integration ---------------------------------------------------


def _count_emulations(monkeypatch, bucket):
    for name in ("run_continuous", "run_intermittent"):
        real = getattr(common, name)

        def counting(*args, __real=real, **kwargs):
            bucket.append(1)
            return __real(*args, **kwargs)

        monkeypatch.setattr(common, name, counting)


def test_warm_context_skips_all_emulation(tmp_path, monkeypatch):
    cache = ArtifactCache(tmp_path / "cache")
    cold = EvaluationContext(benchmarks=[BENCH], cache=cache)
    eb = cold.eb_for_tbpf(BENCH, 10_000)
    outcome = cold.run("schematic", BENCH, eb)
    assert cache.stores > 0

    emulations = []
    _count_emulations(monkeypatch, emulations)
    warm = EvaluationContext(
        benchmarks=[BENCH], cache=ArtifactCache(tmp_path / "cache")
    )
    warm_outcome = warm.run("schematic", BENCH, warm.eb_for_tbpf(BENCH, 10_000))
    assert emulations == [], "warm context must not touch the emulator"
    assert dataclasses.asdict(warm_outcome) == dataclasses.asdict(outcome)


def test_module_edit_invalidates_cache(tmp_path, monkeypatch):
    cache = ArtifactCache(tmp_path / "cache")
    cold = EvaluationContext(benchmarks=[BENCH], cache=cache)
    cold.run("schematic", BENCH, cold.eb_for_tbpf(BENCH, 10_000))

    emulations = []
    _count_emulations(monkeypatch, emulations)
    edited = EvaluationContext(
        benchmarks=[BENCH], cache=ArtifactCache(tmp_path / "cache")
    )
    # Simulate an edit to the benchmark source: the module fingerprint
    # changes, so every downstream artifact must be recomputed.
    edited._fingerprints[BENCH] = ArtifactCache.text_fingerprint("edited")
    edited.run("schematic", BENCH, edited.eb_for_tbpf(BENCH, 10_000))
    assert emulations, "changed module text must miss the cache"


def test_no_cache_context_stays_pure_in_memory(tmp_path):
    ctx = EvaluationContext(benchmarks=[BENCH], cache=None)
    a = ctx.run("schematic", BENCH, ctx.eb_for_tbpf(BENCH, 10_000))
    b = ctx.run("schematic", BENCH, ctx.eb_for_tbpf(BENCH, 10_000))
    assert a is b, "in-memory memoization must still hold without a cache"

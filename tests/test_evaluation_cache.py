"""Regression tests for the EvaluationContext caching bugs and the disk
cache integration.

Two historical bugs of the in-memory key are pinned down here:

1. **Stale run keys** — the in-memory run key omitted the power model
   and TBPF, so under periodic failures two runs with the same EB but
   different periods aliased and the second returned the first's
   outcome.
2. **Stale platform** — the in-memory keys omitted the platform, so a
   context whose ``platform_proto`` was replaced kept serving the old
   reference, EBs and runs.

Both are closed by keying memory with the content tuple the disk cache
uses (``EvaluationContext.key``).
"""

import dataclasses

from repro.emulator.diffemu import PowerSpec
from repro.energy import Platform
from repro.experiments import common
from repro.experiments.common import EvaluationContext
from repro.runner.cache import ArtifactCache

BENCH = "randmath"  # smallest/fastest of the eight


# -- bug 1: stale run keys under periodic failures ----------------------------


def test_run_key_includes_failure_model_and_tbpf():
    ctx = EvaluationContext(benchmarks=[BENCH])
    eb = 100.0

    def key(spec):
        return ctx.key("run", BENCH, technique="schematic", eb=eb, spec=spec)

    periodic_1k = key(PowerSpec.periodic(1_000, eb))
    periodic_100k = key(PowerSpec.periodic(100_000, eb))
    energy = key(PowerSpec.energy_budget(eb))
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


# -- bug 2: a replaced platform kept the old artifacts -------------------------


def test_replacing_the_platform_rederives_reference_eb_and_run():
    ctx = EvaluationContext(benchmarks=[BENCH])
    eb = ctx.eb_for_tbpf(BENCH, 10_000)
    reference = ctx.reference(BENCH)
    outcome = ctx.run("schematic", BENCH, eb)

    costlier_nvm = Platform(model=dataclasses.replace(
        ctx.platform_proto.model, nvm_access_ratio=4.0
    ))
    ctx.platform_proto = costlier_nvm
    fresh = EvaluationContext(benchmarks=[BENCH])
    fresh.platform_proto = costlier_nvm

    rederived = ctx.reference(BENCH)
    assert rederived is not reference
    assert rederived.energy.total == fresh.reference(BENCH).energy.total
    assert rederived.energy.total > reference.energy.total
    assert ctx.eb_for_tbpf(BENCH, 10_000) == fresh.eb_for_tbpf(BENCH, 10_000)
    assert ctx.eb_for_tbpf(BENCH, 10_000) != eb
    rerun = ctx.run("schematic", BENCH, eb)
    assert rerun is not outcome
    assert dataclasses.asdict(rerun) == dataclasses.asdict(
        fresh.run("schematic", BENCH, eb)
    )


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

"""Unit tests for the persistent artifact cache and the process pool.

The cache must be content-addressed (any input change → new key),
corruption tolerant (a bad entry is a miss, never an error) and atomic;
``parallel_map`` must preserve order and fall back to in-process
execution — including the initializer — for ``jobs <= 1``.
"""

import os
import pickle

import pytest

from repro.errors import ReproError
from repro.runner.cache import ArtifactCache, stats_line
from repro.runner.pool import parallel_map, resolve_jobs

# -- keys ---------------------------------------------------------------------


def test_key_is_deterministic():
    assert ArtifactCache.key("run", "crc", 1.5) == ArtifactCache.key(
        "run", "crc", 1.5
    )


def test_key_changes_with_any_part():
    base = ArtifactCache.key("run", "crc", 1.5, None)
    assert ArtifactCache.key("run", "crc", 2.5, None) != base
    assert ArtifactCache.key("run", "fft", 1.5, None) != base
    assert ArtifactCache.key("ref", "crc", 1.5, None) != base
    assert ArtifactCache.key("run", "crc", 1.5, 1000) != base


def test_key_distinguishes_float_and_int():
    # 1 and 1.0 compare equal in Python; as cache key parts they are
    # different configurations (an int TBPF vs a float EB).
    assert ArtifactCache.key(1) != ArtifactCache.key(1.0)


def test_text_fingerprint_changes_with_text():
    assert ArtifactCache.text_fingerprint("a") != ArtifactCache.text_fingerprint("b")


# -- storage ------------------------------------------------------------------


def test_roundtrip(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    key = ArtifactCache.key("x")
    assert cache.get("cat", key) is None
    assert cache.put("cat", key, {"value": [1, 2, 3]})
    assert cache.get("cat", key) == {"value": [1, 2, 3]}
    assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1


def test_corrupt_entry_is_a_miss_and_deleted(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    key = ArtifactCache.key("x")
    cache.put("cat", key, "fine")
    path = cache._path("cat", key)
    path.write_bytes(b"definitely not a pickle")
    assert cache.get("cat", key) is None
    assert not path.exists(), "corrupt entry must be unlinked"
    # The next write repopulates it cleanly.
    cache.put("cat", key, "fine again")
    assert cache.get("cat", key) == "fine again"


def test_truncated_pickle_is_a_miss(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    key = ArtifactCache.key("x")
    cache.put("cat", key, list(range(1000)))
    path = cache._path("cat", key)
    path.write_bytes(path.read_bytes()[:10])
    assert cache.get("cat", key) is None


@pytest.fixture(scope="module")
def small_entries():
    """One real, small value per evaluation cache category."""
    from repro.core.tracing import collect_profile
    from repro.emulator import PowerManager, run_continuous, run_intermittent
    from repro.energy import msp430fr5969_platform
    from repro.experiments.ablations import AblationCell
    from repro.experiments.common import RunOutcome
    from repro.testkit.corpus import compile_for, load_program

    bench = load_program("sumloop")
    plat = msp430fr5969_platform(eb=3000.0)
    inputs = bench.default_inputs()
    compiled = compile_for("allnvm", bench.module, plat,
                           input_generator=bench.input_generator())
    report = run_intermittent(
        compiled.module, plat.model, compiled.policy,
        PowerManager.energy_budget(3000.0), vm_size=plat.vm_size,
        inputs=inputs,
    )
    return {
        "reference": run_continuous(bench.module, plat.model, inputs=inputs),
        "profile": collect_profile(bench.module, plat.model,
                                   input_generator=bench.input_generator(),
                                   runs=2),
        "compiled": compiled,
        "run": RunOutcome("allnvm", "sumloop", 3000.0, True, True, True,
                          report, compiled.checkpoints_inserted),
        "ablation": AblationCell(variant="full", benchmark="sumloop",
                                 completed=True, total=1.5),
    }


@pytest.mark.parametrize(
    "category", ["reference", "profile", "compiled", "run", "ablation"]
)
def test_every_single_bit_flip_is_a_miss_or_the_same_value(
    tmp_path, small_entries, category
):
    """Exhaustive single-bit corruption of one stored entry: the cache
    must never serve a different value as a hit."""
    cache = ArtifactCache(tmp_path / "c")
    key = ArtifactCache.key(category)
    value = small_entries[category]
    assert cache.put(category, key, value)
    path = cache._path(category, key)
    good = path.read_bytes()
    expected = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    served = 0
    for bit in range(len(good) * 8):
        flipped = bytearray(good)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(flipped)
        got = cache.get(category, key)
        if got is not None:
            served += 1
            assert pickle.dumps(
                got, protocol=pickle.HIGHEST_PROTOCOL
            ) == expected, f"bit {bit} served a different value"
        else:
            assert not path.exists(), "a corrupt entry must be unlinked"
    assert cache.hits == served
    assert cache.misses == len(good) * 8 - served


def test_unpicklable_value_degrades_gracefully(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    assert cache.put("cat", ArtifactCache.key("x"), lambda: 0) is False


def test_disabled_cache_never_touches_disk(tmp_path):
    cache = ArtifactCache(tmp_path / "c", enabled=False)
    key = ArtifactCache.key("x")
    assert cache.put("cat", key, 1) is False
    assert cache.get("cat", key) is None
    assert not (tmp_path / "c").exists()


def test_prune_evicts_down_to_budget(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    for i in range(8):
        cache.put("cat", ArtifactCache.key(i), b"x" * 100)
    total = cache.size_bytes()
    evicted = cache.prune(total // 2)
    assert evicted > 0
    assert cache.size_bytes() <= total // 2


def test_clear_removes_root(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    cache.put("cat", ArtifactCache.key(1), 1)
    cache.clear()
    assert not (tmp_path / "c").exists()


def test_default_honors_kill_switch(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    assert ArtifactCache.default() is None
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    cache = ArtifactCache.default()
    assert cache is not None and cache.root == tmp_path / "env"


def test_schema_version_is_part_of_the_key(tmp_path, monkeypatch):
    import repro.runner.cache as cache_mod

    before = ArtifactCache.key("x")
    monkeypatch.setattr(cache_mod, "SCHEMA_VERSION", cache_mod.SCHEMA_VERSION + 1)
    assert ArtifactCache.key("x") != before


# -- statistics ---------------------------------------------------------------


def test_stats_track_per_category(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    run_key = ArtifactCache.key("r")
    assert cache.get("run", run_key) is None  # miss
    cache.put("run", run_key, 1)
    assert cache.get("run", run_key) == 1  # hit
    assert cache.get("compile", ArtifactCache.key("other")) is None  # miss

    assert cache.by_category["run"] == {
        "hits": 1, "misses": 1, "stores": 1, "pruned": 0,
    }
    assert cache.by_category["compile"] == {
        "hits": 0, "misses": 1, "stores": 0, "pruned": 0,
    }
    # Per-category counts sum to the totals.
    for field in ("hits", "misses", "stores"):
        assert getattr(cache, field) == sum(
            stats[field] for stats in cache.by_category.values()
        )


def test_stats_line_renders_totals_and_categories(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    key = ArtifactCache.key("x")
    cache.get("run", key)
    cache.put("run", key, 1)
    cache.get("run", key)
    line = stats_line(cache.stats_dict())
    assert "1 hits, 1 misses, 1 stores" in line
    assert "run 1/1/1" in line and "h/m/s" in line
    assert "pruned" not in line, "pruned only appears once eviction happened"


def test_prune_is_attributed_to_categories(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    for i in range(4):
        cache.put("run", ArtifactCache.key("r", i), b"x" * 200)
        cache.put("ref", ArtifactCache.key("f", i), b"y" * 200)
    evicted = cache.prune(0)
    assert evicted == 8
    assert cache.pruned == 8
    assert (
        cache.by_category["run"]["pruned"]
        + cache.by_category["ref"]["pruned"]
    ) == 8
    assert f"{cache.pruned} pruned" in stats_line(cache.stats_dict())


def test_stats_dict_is_manifest_ready(tmp_path):
    import json

    cache = ArtifactCache(tmp_path / "c")
    key = ArtifactCache.key("x")
    cache.get("run", key)
    cache.put("run", key, 1)
    stats = cache.stats_dict()
    assert stats["root"] == str(tmp_path / "c")
    assert stats["hits"] == 0 and stats["misses"] == 1
    assert stats["stores"] == 1 and stats["pruned"] == 0
    assert stats["categories"]["run"]["misses"] == 1
    json.dumps(stats)  # must serialize as-is into the --json manifest


# -- pool ---------------------------------------------------------------------


def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs("") == 1
    assert resolve_jobs("4") == 4
    assert resolve_jobs(3) == 3
    assert resolve_jobs("auto") == (os.cpu_count() or 1)
    with pytest.raises(ValueError):
        resolve_jobs(0)


_INIT_STATE = None


def _pool_init(value):
    global _INIT_STATE
    _INIT_STATE = value


def _pool_fn(x):
    return (x * x, _INIT_STATE)


def test_parallel_map_serial_runs_initializer_in_process():
    global _INIT_STATE
    _INIT_STATE = None
    out = parallel_map(_pool_fn, [1, 2, 3], jobs=1,
                       initializer=_pool_init, initargs=("seeded",))
    assert out == [(1, "seeded"), (4, "seeded"), (9, "seeded")]


def test_parallel_map_preserves_order_across_workers():
    items = list(range(20))
    serial = parallel_map(_pool_fn, items, jobs=1,
                          initializer=_pool_init, initargs=("s",))
    fanned = parallel_map(_pool_fn, items, jobs=2,
                          initializer=_pool_init, initargs=("s",))
    assert fanned == serial


def test_parallel_map_empty_and_single():
    assert parallel_map(_pool_fn, [], jobs=4, initializer=_pool_init,
                        initargs=("s",)) == []
    assert parallel_map(_pool_fn, [5], jobs=4, initializer=_pool_init,
                        initargs=("s",)) == [(25, "s")]


def _die_on_two(x):
    if x == 2:
        os._exit(1)
    return x


def test_parallel_map_names_the_item_a_killed_worker_left_unfinished():
    """The dying item comes first, so it is the first unfinished one
    whatever the other worker manages before the pool breaks."""
    with pytest.raises(ReproError) as exc:
        parallel_map(_die_on_two, [2, 1], jobs=2)
    message = str(exc.value)
    assert "worker process died" in message
    assert "item 0 of 2" in message and message.endswith(": 2")

"""Programs and compilers the testkit sweeps over.

Two sources of programs, behind one name space:

- a built-in corpus of small MiniC stress programs whose *dynamic*
  boundary counts are tiny enough for exhaustive (every dynamic step,
  single- and double-failure) sweeps;
- the eight MiBench2 benchmarks (:mod:`repro.programs`), where the sweep
  defaults to every *static* instruction boundary (first dynamic
  occurrence of each transformed-module instruction).

Both are :class:`repro.programs.base.Benchmark` instances, so they carry
their own evaluation inputs and profiling input generators.
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines import compile_for  # noqa: F401 -- re-exported
from repro.programs import BENCHMARK_NAMES, get_benchmark
from repro.programs.base import Benchmark

_SUMLOOP = """
u32 result;
i32 data[16];
void main() {
    u32 acc = 0;
    for (i32 i = 0; i < 16; i++) {
        acc += (u32) data[i] * 3;
    }
    result = acc;
}
"""

# A non-idempotent global updated every iteration: the canonical
# write-after-read pattern that turns a mid-segment re-execution into a
# memory anomaly when a transformation gets checkpointing wrong.
_WARLOOP = """
u32 total;
u32 rounds;
i32 data[12];
void main() {
    for (i32 i = 0; i < 12; i++) {
        total = total + (u32) data[i];
        rounds = rounds + 1;
        if ((total & 3) == 0) {
            total = total ^ 5;
        }
    }
}
"""

_BRANCHY = """
u32 result;
u32 selector;
i32 data[12];
void main() {
    u32 acc = 0;
    for (i32 i = 0; i < 12; i++) {
        if ((selector & 1) != 0) {
            acc += (u32) data[i] * 5;
        } else {
            acc ^= (u32) data[i];
        }
        if (acc > 10000) {
            acc %= 997;
        }
    }
    result = acc;
}
"""

_CALLS = """
u32 result;
i32 data[8];

u32 weight(u32 x) {
    u32 w = 0;
    @maxiter(32)
    while (x != 0) {
        w += x & 1;
        x >>= 1;
    }
    return w;
}

void main() {
    u32 acc = 0;
    for (i32 i = 0; i < 8; i++) {
        acc += weight((u32) data[i] + (u32) i);
    }
    result = acc;
}
"""

#: The built-in corpus, keyed by name. All programs are small on purpose:
#: an exhaustive dynamic sweep multiplies the run length by the boundary
#: count.
CORPUS: Dict[str, Benchmark] = {
    "sumloop": Benchmark(
        name="sumloop",
        source=_SUMLOOP,
        input_vars={"data": 100},
        output_vars=["result"],
    ),
    "warloop": Benchmark(
        name="warloop",
        source=_WARLOOP,
        input_vars={"data": 50},
        output_vars=["total", "rounds"],
    ),
    "branchy": Benchmark(
        name="branchy",
        source=_BRANCHY,
        input_vars={"data": 200, "selector": 2},
        output_vars=["result"],
    ),
    "calls": Benchmark(
        name="calls",
        source=_CALLS,
        input_vars={"data": 50},
        output_vars=["result"],
    ),
}


def available_programs() -> List[str]:
    """Corpus names followed by the benchmark names."""
    return list(CORPUS) + list(BENCHMARK_NAMES)


def load_program(name: str) -> Benchmark:
    """Resolve a program name against the corpus, then the benchmarks."""
    if name in CORPUS:
        return CORPUS[name]
    if name in BENCHMARK_NAMES:
        return get_benchmark(name)
    raise KeyError(
        f"unknown program {name!r}; choose from {available_programs()}"
    )


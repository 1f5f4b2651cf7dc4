"""Shared test fixtures: tiny programs, platforms, and run helpers."""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.baselines import compile_for
from repro.core.tracing import Profile, collect_profile
from repro.emulator import PowerManager, run_continuous, run_intermittent
from repro.energy import Platform, msp430fr5969_model, msp430fr5969_platform
from repro.frontend import compile_source
from repro.ir import Module

MODEL = msp430fr5969_model()

#: A small accumulate-over-array kernel exercising loops and allocation.
SUM_LOOP_SRC = """
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

#: Functions (scalar + by-reference array parameters), nested loops,
#: branches — the frontend/core integration workhorse.
CALLS_SRC = """
u32 result;
u32 aux;
i32 data[24];
u16 table[8];

u32 weight(u32 x) {
    u32 w = 0;
    @maxiter(32)
    while (x != 0) {
        w += x & 1;
        x >>= 1;
    }
    return w;
}

void scale(i32 buf[], i32 n) {
    for (i32 i = 0; i < 24; i++) {
        if (i < n) {
            buf[i] = buf[i] * 2 + 1;
        }
    }
}

void main() {
    scale(data, 20);
    u32 acc = 0;
    for (i32 i = 0; i < 24; i++) {
        for (i32 j = 0; j < 2; j++) {
            acc += weight((u32) data[i] + (u32) j);
        }
        acc += (u32) table[i % 8];
    }
    result = acc;
    aux = acc ^ 0xbeef;
}
"""

#: Branch-heavy program with different hot/cold paths.
BRANCHY_SRC = """
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


def compile_sum_loop() -> Module:
    return compile_source(SUM_LOOP_SRC, "sum_loop")


def compile_calls() -> Module:
    return compile_source(CALLS_SRC, "calls")


def compile_branchy() -> Module:
    return compile_source(BRANCHY_SRC, "branchy")


def sum_loop_inputs(seed: int = 5) -> Dict[str, List[int]]:
    rng = random.Random(seed)
    return {"data": [rng.randrange(0, 100) for _ in range(16)]}


def calls_inputs(seed: int = 5) -> Dict[str, List[int]]:
    rng = random.Random(seed)
    return {
        "data": [rng.randrange(0, 50) for _ in range(24)],
        "table": [rng.randrange(0, 1000) for _ in range(8)],
    }


def branchy_inputs(seed: int = 5) -> Dict[str, List[int]]:
    rng = random.Random(seed)
    return {
        "data": [rng.randrange(0, 200) for _ in range(12)],
        "selector": [seed % 2],
    }


def make_input_generator(template: Dict[str, int], sizes: Dict[str, int]):
    """Generator producing seeded random inputs per profiling run."""

    def generate(run: int) -> Dict[str, List[int]]:
        rng = random.Random(("gen", run))
        return {
            name: [rng.randrange(0, bound) for _ in range(sizes[name])]
            for name, bound in template.items()
        }

    return generate


def platform(eb: float = 3000.0, vm_size: int = 2048) -> Platform:
    return msp430fr5969_platform(eb=eb).with_vm_size(vm_size)


def run_technique(
    name: str,
    module: Module,
    plat: Platform,
    inputs: Dict[str, List[int]],
    profile: Optional[Profile] = None,
    input_generator=None,
):
    """Compile with one technique and run it intermittently; returns
    (CompiledTechnique, ExecutionReport or None)."""
    compiled = compile_for(
        name, module, plat, input_generator=input_generator, profile=profile
    )
    if not compiled.feasible:
        return compiled, None
    report = run_intermittent(
        compiled.module,
        plat.model,
        compiled.policy,
        PowerManager.energy_budget(plat.eb),
        vm_size=plat.vm_size,
        inputs=inputs,
    )
    return compiled, report


def reference_outputs(module: Module, inputs: Dict[str, List[int]]):
    return run_continuous(MODEL and module, MODEL, inputs=inputs).outputs


def quick_profile(module: Module, input_generator, runs: int = 2) -> Profile:
    return collect_profile(module, MODEL, input_generator, runs=runs)

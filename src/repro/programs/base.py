"""Common benchmark plumbing."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.frontend import compile_source
from repro.ir.module import Module

#: name -> values mapping written into the NVM image before a run.
Inputs = Dict[str, List[int]]


@dataclass
class Benchmark:
    """One benchmark program plus its input machinery.

    Attributes:
        name: benchmark name (paper naming).
        source: MiniC source text.
        input_vars: global variables that receive inputs, with a per-element
            upper bound (exclusive) for random generation.
        output_vars: globals compared against the reference run.
    """

    name: str
    source: str
    input_vars: Dict[str, int] = field(default_factory=dict)
    output_vars: List[str] = field(default_factory=list)
    _module: Optional[Module] = None

    @property
    def module(self) -> Module:
        """The compiled (untransformed) IR module, compiled once and
        shared by every caller: read it, never mutate it. Every
        transformer clones its input before rewriting it."""
        if self._module is None:
            self._module = compile_source(self.source, self.name)
        return self._module

    def _generate(self, rng: random.Random) -> Inputs:
        module = self.module
        inputs: Inputs = {}
        for name, bound in self.input_vars.items():
            var = module.globals[name]
            inputs[name] = [rng.randrange(0, bound) for _ in range(var.count)]
        return inputs

    def input_generator(self, base_seed: int = 1234):
        """A profiling input generator (run index -> inputs), seeded."""

        def generate(run: int) -> Inputs:
            return self._generate(random.Random(f"{base_seed}/{self.name}/{run}"))

        return generate

    def default_inputs(self, seed: int = 99) -> Inputs:
        """The fixed evaluation inputs (distinct from profiling inputs)."""
        return self._generate(random.Random(f"{seed}/{self.name}/eval"))

    def footprint_bytes(self) -> int:
        return self.module.data_footprint_bytes()


def format_table(values) -> str:
    """Render an integer sequence as a MiniC brace initializer."""
    return "{" + ", ".join(str(int(v)) for v in values) + "}"

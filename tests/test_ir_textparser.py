"""Round-trip tests for the textual IR printer/parser pair."""

import random
from pathlib import Path

import pytest

from repro.emulator import run_continuous
from repro.energy import msp430fr5969_model
from repro.frontend import compile_source
from repro.ir import print_module, validate_module
from repro.ir.textparser import parse_ir
from tests.helpers import (
    BRANCHY_SRC,
    CALLS_SRC,
    SUM_LOOP_SRC,
    branchy_inputs,
    calls_inputs,
    sum_loop_inputs,
)

MODEL = msp430fr5969_model()


def roundtrip(module):
    text = print_module(module)
    parsed = parse_ir(text)
    return text, parsed


class TestRoundTrip:
    @pytest.mark.parametrize(
        "source", [SUM_LOOP_SRC, CALLS_SRC, BRANCHY_SRC], ids=["sum", "calls", "branchy"]
    )
    def test_text_fixpoint(self, source):
        module = compile_source(source)
        text, parsed = roundtrip(module)
        assert print_module(parsed) == text

    def test_parsed_module_validates(self):
        module = compile_source(CALLS_SRC)
        _, parsed = roundtrip(module)
        validate_module(parsed)

    @pytest.mark.parametrize(
        "source,inputs_fn",
        [
            (SUM_LOOP_SRC, sum_loop_inputs),
            (CALLS_SRC, calls_inputs),
            (BRANCHY_SRC, branchy_inputs),
        ],
        ids=["sum", "calls", "branchy"],
    )
    def test_parsed_module_runs_identically(self, source, inputs_fn):
        module = compile_source(source)
        _, parsed = roundtrip(module)
        inputs = inputs_fn()
        original = run_continuous(module, MODEL, inputs=inputs)
        reparsed = run_continuous(parsed, MODEL, inputs=inputs)
        assert original.outputs == reparsed.outputs
        assert original.active_cycles == reparsed.active_cycles
        assert original.energy.total == pytest.approx(reparsed.energy.total)

    def test_metadata_survives(self):
        module = compile_source(
            """
            u32 out; u32 a; u32 b;
            void main() {
                atomic { a = 1; b = a + 2; }
                @maxiter(9)
                while (out < 5) { out += 1; }
            }
            """
        )
        _, parsed = roundtrip(module)
        func = parsed.functions["main"]
        assert func.atomic_ranges == module.functions["main"].atomic_ranges
        assert func.loop_maxiter == module.functions["main"].loop_maxiter

    def test_const_init_values_survive(self):
        module = compile_source(
            "const u16 t[5] = {10, 20, 30, 40, 50}; "
            "u32 out; void main() { out = (u32) t[3]; }"
        )
        _, parsed = roundtrip(module)
        assert parsed.globals["t"].init == [10, 20, 30, 40, 50]
        assert parsed.globals["t"].is_const


class TestTransformedRoundTrip:
    def test_checkpoints_survive(self):
        from repro.core import Schematic, SchematicConfig
        from tests.helpers import compile_sum_loop, platform

        result = Schematic(
            platform(eb=250.0), SchematicConfig(profile_runs=1)
        ).compile(
            compile_sum_loop(),
            input_generator=lambda run: sum_loop_inputs(seed=run),
        )
        text, parsed = roundtrip(result.module)
        assert print_module(parsed) == text

        # The reparsed instrumented program behaves identically under
        # intermittent power.
        from repro.emulator import CheckpointPolicy, PowerManager, run_intermittent

        inputs = sum_loop_inputs()
        original = run_intermittent(
            result.module, MODEL, CheckpointPolicy.wait_mode("s"),
            PowerManager.energy_budget(250.0), vm_size=2048, inputs=inputs,
        )
        reparsed = run_intermittent(
            parsed, MODEL, CheckpointPolicy.wait_mode("s"),
            PowerManager.energy_budget(250.0), vm_size=2048, inputs=inputs,
        )
        assert original.outputs == reparsed.outputs
        assert original.checkpoints_saved == reparsed.checkpoints_saved
        assert original.energy.total == pytest.approx(reparsed.energy.total)

    def test_benchmark_roundtrip(self):
        from repro.programs import get_benchmark

        bench = get_benchmark("crc")
        module = bench.module
        text, parsed = roundtrip(module)
        assert print_module(parsed) == text
        inputs = bench.default_inputs()
        assert (
            run_continuous(module, MODEL, inputs=inputs).outputs
            == run_continuous(parsed, MODEL, inputs=inputs).outputs
        )


class TestParserDiagnostics:
    def test_empty_text(self):
        from repro.errors import IRError

        with pytest.raises(IRError, match="empty"):
            parse_ir("")

    def test_bad_header(self):
        from repro.errors import IRError

        with pytest.raises(IRError, match="module header"):
            parse_ir("not a module")

    def test_unknown_variable_in_instruction(self):
        from repro.errors import IRError

        text = "\n".join(
            [
                "module m (entry @main)",
                "",
                "func @main() -> void {",
                ".entry:",
                "    store.nvm @ghost = 1:i32",
                "    ret",
                "}",
            ]
        )
        with pytest.raises(IRError, match="unknown variable"):
            parse_ir(text)

    def test_garbage_instruction(self):
        from repro.errors import IRError

        text = "\n".join(
            [
                "module m (entry @main)",
                "",
                "func @main() -> void {",
                ".entry:",
                "    frobnicate the bits",
                "}",
            ]
        )
        with pytest.raises(IRError):
            parse_ir(text)

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("module m (entry @main)\nglobal @g:u2", 2, "unknown type name"),
            ("module m (entry @main)\nglobal @g:i32[2] = {1, 2, 3}", 2,
             "init has 3 values"),
            ("module m (entry @main)\n\nfunc @main() -> void {\n.entry:\n"
             "    ret\n    ret\n}", 6, "already terminated"),
        ],
        ids=["type-name", "init-length", "after-terminator"],
    )
    def test_constructor_errors_name_the_line(self, text, line, message):
        from repro.errors import IRError

        with pytest.raises(IRError, match=f"IR text line {line}: .*{message}"):
            parse_ir(text)


CORPUS_BAD = sorted(
    (Path(__file__).parent / "corpus_bad").glob("*.ir"), key=lambda p: p.name
)
MUTATION_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789%@.:,[]{}()=#&-_ \n"


def _mutate(text, rng):
    """1-3 seeded single-character deletions, insertions or swaps."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(3)
        i = min(rng.randrange(len(chars) + 1), len(chars) - 1)
        if op == 0:
            del chars[i]
        elif op == 1:
            chars.insert(i, rng.choice(MUTATION_ALPHABET))
        else:
            chars[i] = rng.choice(MUTATION_ALPHABET)
    return "".join(chars)


@pytest.mark.parametrize("path", CORPUS_BAD, ids=lambda p: p.stem)
def test_mutated_ir_ends_in_a_located_diagnosis(path):
    """Malformed IR never escapes as a bare library exception: every
    mutant either parses (and validates or is rejected as a ReproError)
    or fails with an IRError naming its line."""
    from repro.errors import IRError, ReproError

    text = path.read_text()
    rng = random.Random(path.name)
    for _ in range(200):
        mutant = _mutate(text, rng)
        try:
            module = parse_ir(mutant)
        except IRError as exc:
            assert str(exc).startswith("IR text line "), (mutant, exc)
            continue
        try:
            validate_module(module)
        except ReproError:
            pass

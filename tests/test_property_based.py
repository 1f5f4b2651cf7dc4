"""Property-based tests (hypothesis) on core data structures and
invariants: integer semantics, allocation packing, energy accounting,
the lexer, and the intermittent-execution equivalence property."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import SegmentContext, SegmentFold, plan_segment
from repro.core.region import Atom, AtomKind
from repro.emulator import (
    CheckpointPolicy,
    PowerManager,
    run_continuous,
    run_intermittent,
)
from repro.energy import msp430fr5969_model
from repro.frontend import compile_source, tokenize
from repro.ir import I8, I16, I32, IntType, MemorySpace, U8, U16, U32, Variable

MODEL = msp430fr5969_model()
ALL_TYPES = [I8, U8, I16, U16, I32, U32]


class TestWrapProperties:
    @given(st.sampled_from(ALL_TYPES), st.integers(-(1 << 40), 1 << 40))
    def test_wrap_is_in_range_and_idempotent(self, type_, value):
        wrapped = type_.wrap(value)
        assert type_.contains(wrapped)
        assert type_.wrap(wrapped) == wrapped

    @given(st.sampled_from(ALL_TYPES), st.integers(-(1 << 40), 1 << 40))
    def test_wrap_congruent_modulo_2n(self, type_, value):
        wrapped = type_.wrap(value)
        assert (wrapped - value) % (1 << type_.bits) == 0

    @given(
        st.sampled_from(ALL_TYPES),
        st.integers(-(1 << 33), 1 << 33),
        st.integers(-(1 << 33), 1 << 33),
    )
    def test_wrap_distributes_over_addition(self, type_, a, b):
        assert type_.wrap(type_.wrap(a) + type_.wrap(b)) == type_.wrap(a + b)


class TestInterpreterArithmetic:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, (1 << 32) - 1),
        st.integers(0, (1 << 32) - 1),
        st.sampled_from(["+", "-", "*", "&", "|", "^"]),
    )
    def test_u32_binops_match_python(self, a, b, op):
        source = f"""
        u32 out; u32 a; u32 b;
        void main() {{ out = a {op} b; }}
        """
        module = compile_source(source)
        report = run_continuous(module, MODEL, inputs={"a": [a], "b": [b]})
        python = {
            "+": a + b, "-": a - b, "*": a * b,
            "&": a & b, "|": a | b, "^": a ^ b,
        }[op]
        assert report.outputs["out"] == [python & 0xFFFFFFFF]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, (1 << 31) - 1), st.integers(1, (1 << 31) - 1))
    def test_division_matches_c_semantics(self, a, b):
        module = compile_source(
            "u32 out; u32 rem; u32 a; u32 b;"
            "void main() { out = a / b; rem = a % b; }"
        )
        report = run_continuous(module, MODEL, inputs={"a": [a], "b": [b]})
        assert report.outputs["out"] == [a // b]
        assert report.outputs["rem"] == [a % b]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(-(1 << 31), (1 << 31) - 1), st.integers(0, 31))
    def test_i32_shift_right_arithmetic(self, a, amount):
        module = compile_source(
            "i32 out; i32 a; i32 s; void main() { out = a >> s; }"
        )
        report = run_continuous(
            module, MODEL, inputs={"a": [a], "s": [amount]}
        )
        assert report.outputs["out"] == [a >> amount]


class TestLexerProperties:
    @settings(max_examples=50)
    @given(st.integers(0, (1 << 31) - 1))
    def test_int_literal_roundtrip(self, value):
        token = tokenize(str(value))[0]
        assert token.value == value
        hex_token = tokenize(hex(value))[0]
        assert hex_token.value == value

    @settings(max_examples=30)
    @given(
        st.lists(
            st.sampled_from(["foo", "u32", "42", "+", "<<", "(", ")", ";"]),
            min_size=0,
            max_size=20,
        )
    )
    def test_token_count_stable_under_whitespace(self, parts):
        compact = " ".join(parts)
        spaced = "  \n\t ".join(parts)
        assert len(tokenize(compact)) == len(tokenize(spaced))


class TestAllocationProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 200),  # size bytes
                st.integers(0, 400),  # reads
                st.integers(0, 400),  # writes
            ),
            min_size=1,
            max_size=10,
        ),
        st.integers(16, 2048),
    )
    def test_packing_never_exceeds_capacity(self, var_specs, capacity):
        variables = {}
        atom = Atom(uid=1, kind=AtomKind.SLICE, label="bb", base_energy=1.0)
        for i, (size, reads, writes) in enumerate(var_specs):
            name = f"v{i}"
            variables[name] = Variable(name, U8, count=size)
            if reads:
                atom.counts.add_read(name, reads)
            if writes:
                atom.counts.add_write(name, writes, full=True)
        ctx = SegmentContext(
            model=MODEL, vm_capacity=capacity, variables=variables
        )
        plan = plan_segment(ctx, SegmentFold([atom]), set(variables), True, True)
        assert plan is not None
        assert plan.vm_bytes <= capacity
        vm_total = sum(
            variables[n].size_bytes
            for n, s in plan.alloc.items()
            if s is MemorySpace.VM
        )
        assert vm_total <= capacity

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 500), st.integers(0, 500))
    def test_save_restore_subsets_of_vm(self, reads, writes):
        variables = {"x": Variable("x", I32)}
        atom = Atom(uid=1, kind=AtomKind.SLICE, label="bb", base_energy=1.0)
        if reads:
            atom.counts.add_read("x", reads)
        if writes:
            atom.counts.add_write("x", writes, full=True)
        ctx = SegmentContext(model=MODEL, vm_capacity=64, variables=variables)
        plan = plan_segment(ctx, SegmentFold([atom]), {"x"}, True, True)
        vm = set(plan.vm_names)
        assert set(plan.save_names) <= vm
        assert set(plan.restore_names) <= vm


class TestEnergyAccountingProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, (1 << 16) - 1), st.integers(0, 3))
    def test_energy_conserved_across_categories(self, seed, log_eb):
        """Total committed energy equals the sum of its four categories,
        and wait-mode intermittent outputs always match continuous ones."""
        rng = random.Random(seed)
        inputs = {"data": [rng.randrange(0, 100) for _ in range(16)]}
        from tests.helpers import compile_sum_loop

        module = compile_sum_loop()
        ref = run_continuous(module, MODEL, inputs=inputs)
        breakdown = ref.energy
        assert breakdown.total == (
            breakdown.computation
            + breakdown.save
            + breakdown.restore
            + breakdown.reexecution
        )
        assert abs(
            breakdown.computation
            - (breakdown.cpu + breakdown.vm_access + breakdown.nvm_access)
        ) < 1e-6


class TestIntermittentEquivalence:
    """The central correctness property: for any inputs and any sufficient
    budget, intermittent execution produces the same outputs as continuous
    execution."""

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(0, (1 << 16) - 1),
        st.sampled_from([250.0, 400.0, 900.0, 5000.0]),
    )
    def test_mementos_equivalence(self, seed, eb):
        rng = random.Random(seed)
        inputs = {"data": [rng.randrange(0, 100) for _ in range(16)]}
        from repro.baselines import compile_mementos
        from tests.helpers import compile_sum_loop, platform

        module = compile_sum_loop()
        ref = run_continuous(module, MODEL, inputs=inputs)
        compiled = compile_mementos(module, platform(eb=eb))
        report = run_intermittent(
            compiled.module,
            MODEL,
            compiled.policy,
            PowerManager.energy_budget(eb),
            vm_size=2048,
            inputs=inputs,
        )
        if report.completed:
            assert report.outputs == ref.outputs

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, (1 << 16) - 1))
    def test_ratchet_equivalence(self, seed):
        rng = random.Random(seed)
        inputs = {"data": [rng.randrange(0, 100) for _ in range(16)]}
        from repro.baselines import compile_ratchet
        from tests.helpers import compile_sum_loop, platform

        module = compile_sum_loop()
        ref = run_continuous(module, MODEL, inputs=inputs)
        compiled = compile_ratchet(module, platform(eb=300.0))
        report = run_intermittent(
            compiled.module,
            MODEL,
            compiled.policy,
            PowerManager.energy_budget(300.0),
            vm_size=2048,
            inputs=inputs,
        )
        assert report.completed
        assert report.outputs == ref.outputs

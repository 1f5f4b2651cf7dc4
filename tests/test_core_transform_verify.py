"""Tests for the transformation pass (edge splitting, space rewriting) and
the dynamic forward-progress verifier."""

import random

import pytest

from repro.core.transform import _CheckpointFactory, _split_edge
from repro.core.verify import verify_forward_progress
from repro.emulator import run_continuous
from repro.energy import msp430fr5969_model
from repro.errors import PlacementError
from repro.frontend import compile_source
from repro.ir import (
    Branch,
    Checkpoint,
    CondCheckpoint,
    Jump,
    MemorySpace,
    validate_module,
)
from tests.helpers import SUM_LOOP_SRC, platform, sum_loop_inputs

MODEL = msp430fr5969_model()


class TestCheckpointFactory:
    def test_unique_ids(self):
        factory = _CheckpointFactory()
        a = factory.make((), (), {})
        b = factory.make((), (), {})
        assert a.ckpt_id != b.ckpt_id

    def test_full_vs_conditional(self):
        factory = _CheckpointFactory()
        full = factory.make((), (), {}, every=1)
        cond = factory.make((), (), {}, every=4)
        assert isinstance(full, Checkpoint)
        assert isinstance(cond, CondCheckpoint) and cond.every == 4

    def test_sets_sorted(self):
        factory = _CheckpointFactory()
        ckpt = factory.make(("b", "a"), ("z", "y"), {})
        assert ckpt.save_vars == ("a", "b")
        assert ckpt.restore_vars == ("y", "z")

    def test_skippable_flag(self):
        factory = _CheckpointFactory()
        assert factory.make((), (), {}).skippable
        assert not factory.make((), (), {}, skippable=False).skippable


class TestEdgeSplitting:
    def _module(self):
        return compile_source(
            """
            u32 out; u32 sel;
            void main() {
                if (sel != 0) { out = 1; } else { out = 2; }
            }
            """
        )

    def test_split_jump_edge(self):
        module = self._module()
        func = module.functions["main"]
        then_label = next(l for l in func.blocks if l.startswith("then"))
        join_label = func.blocks[then_label].successor_labels()[0]
        ckpt = Checkpoint(99)
        _split_edge(func, then_label, join_label, ckpt)
        new_target = func.blocks[then_label].successor_labels()[0]
        assert new_target != join_label
        new_block = func.blocks[new_target]
        assert new_block.instructions[0] is ckpt
        assert isinstance(new_block.terminator, Jump)
        validate_module(module)

    def test_split_branch_edge(self):
        module = self._module()
        func = module.functions["main"]
        entry = func.entry
        term = entry.terminator
        assert isinstance(term, Branch)
        target = term.if_true
        _split_edge(func, entry.label, target, Checkpoint(50))
        assert term.if_true != target
        validate_module(module)

    def test_split_wrong_edge_rejected(self):
        module = self._module()
        func = module.functions["main"]
        with pytest.raises(PlacementError):
            _split_edge(func, func.entry.label, "nonexistent", Checkpoint(1))

    def test_semantics_preserved_after_split(self):
        module = self._module()
        ref = run_continuous(module.clone(), MODEL, inputs={"sel": [1]})
        func = module.functions["main"]
        entry = func.entry
        term = entry.terminator
        ckpt = Checkpoint(7)
        _split_edge(func, entry.label, term.if_true, ckpt)
        for block in func.blocks.values():
            for inst in block:
                if hasattr(inst, "space") and inst.space is MemorySpace.AUTO:
                    inst.space = MemorySpace.NVM
        report = run_continuous(module, MODEL, inputs={"sel": [1]})
        assert report.outputs == ref.outputs


class TestVerifier:
    def test_ok_on_correct_placement(self):
        from repro.core import Schematic
        from repro.core.placement import SchematicConfig

        module = compile_source(SUM_LOOP_SRC)
        plat = platform(eb=1_000.0)
        result = Schematic(plat, SchematicConfig(profile_runs=1)).compile(
            module, input_generator=lambda run: sum_loop_inputs(seed=run)
        )
        verdict = verify_forward_progress(
            result.module, module, MODEL, plat.eb, plat.vm_size,
            inputs=sum_loop_inputs(),
        )
        assert verdict.ok
        assert verdict.power_failures == 0

    def test_detects_undersized_budget(self):
        """Compiling for a large budget but *running* on a small one must
        be flagged: the guarantee is budget-specific."""
        from repro.core import Schematic
        from repro.core.placement import SchematicConfig

        module = compile_source(SUM_LOOP_SRC)
        plat = platform(eb=100_000.0)
        result = Schematic(plat, SchematicConfig(profile_runs=1)).compile(
            module, input_generator=lambda run: sum_loop_inputs(seed=run)
        )
        verdict = verify_forward_progress(
            result.module, module, MODEL, 150.0, plat.vm_size,
            inputs=sum_loop_inputs(),
        )
        assert not verdict.ok

    def test_detects_output_divergence(self):
        """A deliberately corrupted transform (checkpoint dropping a dirty
        VM variable) must be caught by the output comparison."""
        from repro.core import Schematic
        from repro.core.placement import SchematicConfig

        module = compile_source(SUM_LOOP_SRC)
        plat = platform(eb=250.0)
        result = Schematic(plat, SchematicConfig(profile_runs=1)).compile(
            module, input_generator=lambda run: sum_loop_inputs(seed=run)
        )
        # Corrupt: clear every checkpoint's save set.
        broken = result.module.clone()
        saw_saves = False
        for func in broken.functions.values():
            for block in func.blocks.values():
                for inst in block:
                    if isinstance(inst, (Checkpoint, CondCheckpoint)):
                        if inst.save_vars:
                            saw_saves = True
                        inst.save_vars = ()
        if not saw_saves:
            pytest.skip("placement has no variable saves to corrupt")
        # A never-saved VM loop counter resets at every checkpoint window,
        # so the corrupted program may loop forever; the instruction budget
        # bounds the run and reports it as not completed.
        verdict = verify_forward_progress(
            broken, module, MODEL, plat.eb, plat.vm_size,
            inputs=sum_loop_inputs(),
            max_instructions=2_000_000,
        )
        assert not verdict.ok


#: The body checkpoint after ``acc ^= i`` keeps ``acc`` in VM but the
#: step segment behind it never reads it, so the checkpoint does not
#: restore it; the back-edge checkpoint right after saves every live VM
#: resident at the latch, ``acc`` included.
UNREAD_RESIDENT_SRC = """
u32 out;
i32 data[5];

u32 mix(u32 v) {
    v ^= v >> 3;
    v *= 2654435761;
    return v ^ (v >> 13);
}

void main() {
    u32 acc = 956;
    for (i32 i = 0; i < 9; i++) {
        for (i32 j = 0; j < 3; j++) {
            acc += (u32) data[(i * 3 + j) % 5] * 3;
            acc = mix(acc);
        }
        if (acc > 681419581) { break; }
        acc ^= (u32) i;
    }
    out = acc;
}
"""


class TestSavedResidentsAreRestored:
    def _compile(self):
        from repro.core import Schematic
        from repro.core.placement import SchematicConfig

        module = compile_source(UNREAD_RESIDENT_SRC)
        plat = platform(eb=300.0)
        def gen(run):
            r = random.Random(15_700 + run)
            return {"data": [r.randrange(0, 500) for _ in range(5)]}

        result = Schematic(plat, SchematicConfig(profile_runs=2)).compile(
            module, input_generator=gen
        )
        return module, plat, result

    def test_every_checkpoint_keeping_acc_in_vm_restores_it(self):
        """``acc`` is saved at every checkpoint of the loop, so each one
        that keeps it in VM must load it back, read or not."""
        _, _, result = self._compile()
        ckpts = [
            inst
            for block in result.module.functions["main"].blocks.values()
            for inst in block
            if isinstance(inst, (Checkpoint, CondCheckpoint))
        ]
        assert any("main.acc" in c.save_vars for c in ckpts)
        keeping = [
            c for c in ckpts
            if c.alloc_after.get("main.acc") is MemorySpace.VM
        ]
        assert keeping
        for ckpt in keeping:
            assert "main.acc" in ckpt.restore_vars, ckpt

    def test_outputs_match_continuous_run(self):
        module, plat, result = self._compile()
        inputs = {"data": [462, 103, 80, 149, 400]}
        verdict = verify_forward_progress(
            result.module, module, MODEL, plat.eb, plat.vm_size, inputs=inputs,
        )
        assert verdict.completed
        assert verdict.outputs_match
        assert verdict.power_failures == 0

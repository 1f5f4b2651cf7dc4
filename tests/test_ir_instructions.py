"""Unit tests for instruction use/def and variable-access reporting."""

import pytest

from repro.ir import (
    BinOp,
    Branch,
    Call,
    Checkpoint,
    CondCheckpoint,
    Const,
    I32,
    Jump,
    Load,
    Move,
    Opcode,
    Register,
    Ret,
    Store,
    U8,
    UnOp,
    UnaryOpcode,
    Variable,
    VarRef,
)
from repro.ir.values import MemorySpace

R1 = Register("r1", I32)
R2 = Register("r2", I32)
R3 = Register("r3", I32)
VAR = Variable("x", I32)
ARR = Variable("a", I32, count=4)


class TestUsesDefs:
    def test_binop(self):
        inst = BinOp(Opcode.ADD, R1, R2, Const(1, I32))
        assert inst.uses() == [R2]
        assert inst.defs() == [R1]

    def test_binop_two_register_operands(self):
        inst = BinOp(Opcode.MUL, R1, R2, R3)
        assert set(inst.uses()) == {R2, R3}

    def test_move(self):
        inst = Move(R1, R2)
        assert inst.uses() == [R2] and inst.defs() == [R1]

    def test_unop(self):
        inst = UnOp(UnaryOpcode.NEG, R1, R2)
        assert inst.uses() == [R2] and inst.defs() == [R1]

    def test_load(self):
        inst = Load(R1, ARR, index=R2)
        assert inst.uses() == [R2]
        assert inst.defs() == [R1]
        assert inst.var_reads() == [ARR]
        assert inst.var_writes() == []

    def test_store(self):
        inst = Store(ARR, R2, R1)
        assert set(inst.uses()) == {R1, R2}
        assert inst.defs() == []
        assert inst.var_writes() == [ARR]

    def test_call_scalar_args(self):
        inst = Call(R1, "f", [R2, Const(3, I32)])
        assert inst.uses() == [R2]
        assert inst.defs() == [R1]
        assert inst.ref_args() == []

    def test_call_ref_args(self):
        inst = Call(None, "g", [VarRef(ARR), R2])
        assert inst.ref_args() == [ARR]
        assert inst.defs() == []

    def test_branch(self):
        inst = Branch(R1, "a", "b")
        assert inst.uses() == [R1]
        assert inst.is_terminator

    def test_jump_and_ret(self):
        assert Jump("x").is_terminator
        assert Ret(R1).uses() == [R1]
        assert Ret().uses() == []


class TestTerminators:
    def test_non_terminators(self):
        assert not BinOp(Opcode.ADD, R1, R2, R2).is_terminator
        assert not Load(R1, VAR).is_terminator
        assert not Checkpoint(1).is_terminator


class TestCheckpointInstructions:
    def test_checkpoint_defaults(self):
        ckpt = Checkpoint(7)
        assert ckpt.save_vars == ()
        assert ckpt.restore_vars == ()
        assert ckpt.skippable

    def test_cond_checkpoint_validates_period(self):
        with pytest.raises(ValueError):
            CondCheckpoint(1, every=0)

    def test_cond_checkpoint_ok(self):
        ckpt = CondCheckpoint(2, every=5, save_vars=("x",))
        assert ckpt.every == 5
        assert "x" in ckpt.save_vars

    def test_str_forms(self):
        assert "checkpoint #3" in str(Checkpoint(3))
        assert "every=4" in str(CondCheckpoint(9, every=4))


class TestPrintedForms:
    """The printed text is the IR's text format and every memo and cache
    key hashes it, so each opcode and memory space keeps its spelling."""

    @pytest.mark.parametrize("op", list(Opcode))
    def test_binop(self, op):
        inst = BinOp(op, R1, R2, Const(1, I32))
        assert str(inst) == f"%r1:i32 = {op.value} %r2:i32, 1:i32"

    @pytest.mark.parametrize(
        "op,text", [(UnaryOpcode.NEG, "neg"), (UnaryOpcode.NOT, "not"),
                    (UnaryOpcode.LNOT, "lnot")],
    )
    def test_unop(self, op, text):
        assert str(UnOp(op, R1, R2)) == f"%r1:i32 = {text} %r2:i32"

    @pytest.mark.parametrize(
        "space,text", [(MemorySpace.VM, "vm"), (MemorySpace.NVM, "nvm"),
                       (MemorySpace.AUTO, "auto")],
    )
    def test_load_and_store(self, space, text):
        assert str(Load(R1, ARR, index=R2, space=space)) == (
            f"%r1:i32 = load.{text} @a[%r2:i32]"
        )
        assert str(Load(R1, VAR, space=space)) == f"%r1:i32 = load.{text} @x"
        assert str(Store(ARR, Const(2, I32), R1, space=space)) == (
            f"store.{text} @a[2:i32] = %r1:i32"
        )
        assert str(Store(VAR, None, Const(5, I32), space=space)) == (
            f"store.{text} @x = 5:i32"
        )

    def test_binop_spellings(self):
        assert [op.value for op in Opcode] == [
            "add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl",
            "shr", "eq", "ne", "lt", "le", "gt", "ge",
        ]

"""Unit tests for the IRBuilder, BasicBlock, Function and Module."""

import pytest

from repro.errors import IRError
from repro.ir import (
    Const,
    I32,
    IRBuilder,
    Module,
    Opcode,
    Param,
    U8,
    Variable,
)


def build_simple():
    module = Module("m")
    builder = IRBuilder(module)
    func = builder.start_function("main")
    x = builder.local("x", I32)
    builder.emit_store(x, builder.const(4, I32))
    loaded = builder.emit_load(x)
    doubled = builder.emit_binop(Opcode.MUL, loaded, Const(2, I32))
    builder.emit_store(x, doubled)
    builder.emit_ret()
    return module, builder, func


class TestBuilder:
    def test_entry_block_created(self):
        module, _, func = build_simple()
        assert func.entry.label == "entry"
        assert func.entry.is_terminated

    def test_fresh_registers_unique(self):
        module = Module("m")
        builder = IRBuilder(module)
        builder.start_function("f")
        regs = {builder.fresh_reg(I32).name for _ in range(10)}
        assert len(regs) == 10

    def test_cannot_append_after_terminator(self):
        module, builder, func = build_simple()
        with pytest.raises(IRError):
            builder.emit_ret()

    def test_load_array_requires_index(self):
        module = Module("m")
        builder = IRBuilder(module)
        builder.start_function("f")
        arr = builder.local("arr", I32, count=4)
        with pytest.raises(IRError):
            builder.emit_load(arr)

    def test_store_scalar_rejects_index(self):
        module = Module("m")
        builder = IRBuilder(module)
        builder.start_function("f")
        x = builder.local("x", I32)
        with pytest.raises(IRError):
            builder.emit_store(x, Const(1, I32), index=Const(0, I32))

    def test_store_to_const_rejected(self):
        module = Module("m")
        builder = IRBuilder(module)
        builder.start_function("f")
        table = builder.local("t", U8, count=2, is_const=True, init=[1, 2])
        with pytest.raises(IRError):
            builder.emit_store(table, Const(1, U8), index=Const(0, I32))

    def test_comparison_result_is_u8(self):
        module = Module("m")
        builder = IRBuilder(module)
        builder.start_function("f")
        r = builder.emit_binop(Opcode.LT, Const(1, I32), Const(2, I32))
        assert r.type == U8

    def test_local_names_are_mangled(self):
        module, _, func = build_simple()
        assert func.variables["x"].name == "main.x"


class TestBasicBlock:
    def test_successor_labels_branch(self):
        module = Module("m")
        builder = IRBuilder(module)
        builder.start_function("f")
        then = builder.new_block("then")
        done = builder.new_block("done")
        cond = builder.emit_binop(Opcode.EQ, Const(1, I32), Const(1, I32))
        entry = builder.block
        builder.emit_branch(cond, then, done)
        assert set(entry.successor_labels()) == {then.label, done.label}
        builder.position_at(then)
        builder.emit_jump(done)
        assert then.successor_labels() == [done.label]

    def test_branch_same_target_deduplicated(self):
        module = Module("m")
        builder = IRBuilder(module)
        builder.start_function("f")
        target = builder.new_block("t")
        cond = builder.emit_binop(Opcode.EQ, Const(1, I32), Const(1, I32))
        entry = builder.block
        builder.emit_branch(cond, target, target)
        assert entry.successor_labels() == [target.label]


class TestFunction:
    def test_duplicate_block_label_rejected(self):
        module = Module("m")
        builder = IRBuilder(module)
        func = builder.start_function("f")
        with pytest.raises(IRError):
            func.add_block("entry")

    def test_duplicate_variable_rejected(self):
        module = Module("m")
        builder = IRBuilder(module)
        builder.start_function("f")
        builder.local("x", I32)
        with pytest.raises(IRError):
            builder.local("x", I32)

    def test_arg_registers_align_with_params(self):
        func_params = [
            Param("a", I32),
            Param("buf", I32, is_ref=True),
            Param("b", U8),
        ]
        from repro.ir import Function

        func = Function("f", func_params)
        regs = func.arg_registers()
        assert regs[0].name == "arg0" and regs[0].type == I32
        assert regs[1] is None
        assert regs[2].name == "arg2" and regs[2].type == U8

    def test_called_functions_deduplicated(self):
        module = Module("m")
        builder = IRBuilder(module)
        callee = builder.start_function("callee", return_type=I32)
        builder.emit_ret(Const(0, I32))
        caller = builder.start_function("caller")
        builder.emit_call("callee", [], I32)
        builder.emit_call("callee", [], I32)
        builder.emit_ret()
        assert caller.called_functions() == ["callee"]


class TestModule:
    def test_duplicate_global_rejected(self):
        module = Module("m")
        module.add_global(Variable("g", I32))
        with pytest.raises(IRError):
            module.add_global(Variable("g", I32))

    def test_data_footprint_counts_globals_and_locals(self):
        module, _, func = build_simple()
        module.add_global(Variable("g", I32, count=10))
        # main.x (4) + g (40)
        assert module.data_footprint_bytes() == 44

    def test_footprint_excludes_ref_params(self):
        module = Module("m")
        builder = IRBuilder(module)
        func = builder.start_function("f", [Param("buf", I32, is_ref=True)])
        func.add_variable(
            Variable("f.buf", I32, count=2, is_ref=True), bare_name="buf"
        )
        builder.emit_ret()
        assert module.data_footprint_bytes() == 0

    def test_find_variable(self):
        module, _, _ = build_simple()
        assert module.find_variable("main.x").name == "main.x"
        with pytest.raises(IRError):
            module.find_variable("nope")

    def test_clone_is_deep(self):
        module, _, _ = build_simple()
        clone = module.clone()
        clone.functions["main"].blocks["entry"].instructions.pop()
        original = module.functions["main"].blocks["entry"]
        assert original.is_terminated


CLONE_SRC = """
u32 out; const u8 table[4] = {3, 1, 4, 1}; i32 data[4];
void fill(i32 buf[], i32 v) {
    for (i32 i = 0; i < 4; i++) { buf[i] = v + (i32) table[i]; }
}
void main() {
    fill(data, 10);
    atomic { out = (u32) (data[0] + data[3]); }
}
"""


def _mutable_objects(module):
    """Every mutable object reachable from ``module``'s IR, by id."""
    from repro.ir.values import VarRef

    found = {}

    def add(obj):
        found[id(obj)] = obj

    for obj in (module, module.globals, module.functions):
        add(obj)
    for var in module.all_variables():
        add(var)
        if var.init is not None:
            add(var.init)
    for func in module.functions.values():
        for obj in (func, func.params, func.variables, func.blocks,
                    func.loop_maxiter, func.atomic_ranges):
            add(obj)
        for block in func.blocks.values():
            add(block)
            add(block.instructions)
            for inst in block.instructions:
                add(inst)
                for field in vars(inst).values():
                    if isinstance(field, (list, dict, Variable)):
                        add(field)
                    for arg in field if isinstance(field, list) else ():
                        if isinstance(arg, VarRef):
                            add(arg.variable)
    return found


def test_clone_is_structural_and_shares_no_mutable_state():
    """The clone prints as the original, shares no mutable object with
    it, and every variable reference points at the clone's own variable
    of that name; a placed module's checkpoint maps are copies too."""
    import copy

    from repro.energy import msp430fr5969_platform
    from repro.frontend import compile_source
    from repro.ir.printer import print_module
    from repro.ir.values import VarRef
    from repro.testkit.corpus import compile_for, load_program

    bench = load_program("calls")
    placed = compile_for(
        "schematic", bench.module, msp430fr5969_platform(eb=3000.0),
        input_generator=bench.input_generator(),
    ).module
    for module in (compile_source(CLONE_SRC), placed):
        clone = module.clone()
        assert print_module(clone) == print_module(module)
        assert print_module(clone) == print_module(copy.deepcopy(module))
        assert not set(_mutable_objects(clone)) & set(_mutable_objects(module))
        table = {var.name: var for var in clone.all_variables()}
        refs = 0
        for func in clone.functions.values():
            for block in func.blocks.values():
                for inst in block.instructions:
                    var = getattr(inst, "var", None)
                    if var is not None:
                        assert table[var.name] is var
                    for arg in getattr(inst, "args", ()):
                        if isinstance(arg, VarRef):
                            assert table[arg.variable.name] is arg.variable
                            refs += 1
        assert refs or module is placed

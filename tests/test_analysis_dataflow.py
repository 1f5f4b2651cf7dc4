"""Unit tests for the generic forward dataflow solver."""

import json
from pathlib import Path

import pytest

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import ForwardSolution, solve_forward
from repro.errors import AnalysisError
from repro.ir import I32, IRBuilder, Module
from repro.ir.textparser import parse_ir

CORPUS_BAD_DIR = Path(__file__).parent / "corpus_bad"
CORPUS_BAD = json.loads((CORPUS_BAD_DIR / "manifest.json").read_text())
ENTRIES = CORPUS_BAD["modules"]


def diamond_function():
    """entry -> {left, right} -> join -> ret, plus an unreachable block.

    Returns (func, labels) with labels for left/right/join/dead.
    """
    module = Module("m")
    builder = IRBuilder(module)
    func = builder.start_function("main")
    x = builder.local("x", I32)
    left = builder.new_block("left")
    right = builder.new_block("right")
    join = builder.new_block("join")
    dead = builder.new_block("dead")
    cond = builder.emit_load(x)
    builder.emit_branch(cond, left, right)
    builder.position_at(left)
    builder.emit_jump(join)
    builder.position_at(right)
    builder.emit_jump(join)
    builder.position_at(join)
    builder.emit_ret()
    builder.position_at(dead)
    builder.emit_ret()
    labels = {
        "left": left.label,
        "right": right.label,
        "join": join.label,
        "dead": dead.label,
    }
    return func, labels


def loop_function():
    """entry -> header -> {body -> header, exit}."""
    module = Module("m")
    builder = IRBuilder(module)
    func = builder.start_function("main")
    x = builder.local("x", I32)
    header = builder.new_block("header")
    body = builder.new_block("body")
    exit_ = builder.new_block("exit")
    builder.emit_jump(header)
    builder.position_at(header)
    cond = builder.emit_load(x)
    builder.emit_branch(cond, body, exit_)
    builder.position_at(body)
    builder.emit_jump(header)
    builder.position_at(exit_)
    builder.emit_ret()
    labels = {"header": header.label, "body": body.label, "exit": exit_.label}
    return func, labels


def collect_labels(label, state):
    """Transfer that appends the block's own label to a frozenset state."""
    return state | {label}


class TestSolveForward:
    def test_may_join_collects_both_branches(self):
        func, labels = diamond_function()
        solution = solve_forward(
            CFG(func), frozenset(), collect_labels, lambda a, b: a | b
        )
        join = labels["join"]
        assert solution.block_in[join] == {
            "entry", labels["left"], labels["right"]
        }
        assert solution.block_out[join] == solution.block_in[join] | {join}

    def test_must_join_keeps_only_common_facts(self):
        func, labels = diamond_function()
        solution = solve_forward(
            CFG(func), frozenset(), collect_labels, lambda a, b: a & b
        )
        # Neither branch block is on *every* path into the join.
        assert solution.block_in[labels["join"]] == {"entry"}

    def test_unreachable_block_receives_no_state(self):
        func, labels = diamond_function()
        calls = []

        def transfer(label, state):
            calls.append(label)
            return state | {label}

        solution = solve_forward(
            CFG(func), frozenset(), transfer, lambda a, b: a | b
        )
        assert labels["dead"] not in solution.block_in
        assert labels["dead"] not in solution.block_out
        assert labels["dead"] not in calls

    def test_loop_reaches_fixpoint(self):
        func, labels = loop_function()
        solution = solve_forward(
            CFG(func), frozenset(), collect_labels, lambda a, b: a | b
        )
        # The back edge feeds body facts into the header.
        assert solution.block_in[labels["header"]] == {
            "entry", labels["header"], labels["body"]
        }
        assert solution.passes >= 2  # at least one extra sweep for the loop

    def test_entry_state_seeds_the_entry_block(self):
        func, labels = diamond_function()
        solution = solve_forward(
            CFG(func),
            frozenset({"seed"}),
            collect_labels,
            lambda a, b: a | b,
        )
        assert "seed" in solution.block_in["entry"]
        assert "seed" in solution.block_in[labels["join"]]

    def test_infinite_chain_raises_instead_of_spinning(self):
        func, labels = loop_function()

        def transfer(label, state):
            # Monotone but over an infinite-height lattice: the loop grows
            # the counter forever.
            return state + 1 if label == labels["header"] else state

        with pytest.raises(AnalysisError, match="did not converge"):
            solve_forward(CFG(func), 0, transfer, max)


# ---------------------------------------------------------------------------
# Identity with the full-sweep solver
# ---------------------------------------------------------------------------


def reference_solve_forward(
    cfg, entry_state, transfer, join, edge_transfer=None, widen=None,
    widen_at=(),
):
    """The solver before change-driven revisits: every sweep re-joins
    every reachable block in reverse postorder. Kept here as the oracle
    the production solver must match state for state."""
    order = cfg.reverse_postorder()
    block_in, block_out = {}, {}
    widen_labels = frozenset(widen_at) if widen is not None else frozenset()
    passes = 0
    changed = True
    while changed:
        passes += 1
        changed = False
        for label in order:
            state = entry_state if label == cfg.entry else None
            for pred in cfg.preds[label]:
                out = block_out.get(pred)
                if out is None:
                    continue
                if edge_transfer is not None:
                    out = edge_transfer(pred, label, out)
                    if out is None:
                        continue
                state = out if state is None else join(state, out)
            if state is None:
                continue
            if label in block_in:
                if state == block_in[label]:
                    continue
                if label in widen_labels:
                    state = widen(block_in[label], state)
                    if state == block_in[label]:
                        continue
            block_in[label] = state
            out_state = transfer(label, state)
            if label not in block_out or out_state != block_out[label]:
                block_out[label] = out_state
                changed = True
    return ForwardSolution(block_in=block_in, block_out=block_out,
                           passes=passes)


#: Every module binding of the solver (the IR validator imports it
#: lazily from repro.analysis.dataflow at call time).
SOLVER_CALLERS = (
    "repro.analysis.dataflow",
    "repro.analysis.ranges",
    "repro.analysis.regions",
    "repro.staticcheck.alloc",
)


@pytest.fixture
def checked_solver(monkeypatch):
    """Route every solve_forward call through both solvers and assert the
    same states, passes and sequence of transfer calls. Yields the
    per-caller call counts."""
    calls = {}

    def checked(cfg, entry_state, transfer, join, **hooks):
        def logged(log):
            def transfer_logged(label, state):
                log.append((label, state))
                return transfer(label, state)
            return transfer_logged

        ref_log, new_log = [], []
        ref = reference_solve_forward(
            cfg, entry_state, logged(ref_log), join, **hooks
        )
        new = solve_forward(cfg, entry_state, logged(new_log), join, **hooks)
        where = cfg.function.name
        assert new.block_in == ref.block_in, where
        assert new.block_out == ref.block_out, where
        assert new.passes == ref.passes, where
        assert new_log == ref_log, where
        caller = transfer.__module__
        calls[caller] = calls.get(caller, 0) + 1
        return new

    for module in SOLVER_CALLERS:
        monkeypatch.setattr(f"{module}.solve_forward", checked)
    yield calls


def _source_modules():
    from repro.experiments.analysis_cost import synthetic_program
    from repro.frontend import compile_source
    from repro.testkit.corpus import available_programs, load_program

    for name in available_programs():
        yield name, lambda name=name: load_program(name).module
    for chains in (4, 8, 16, 32, 64):
        yield f"synthetic{chains}", lambda chains=chains: compile_source(
            synthetic_program(chains), f"synthetic{chains}"
        )


SOURCE_MODULES = dict(_source_modules())


class TestSolverIdentity:
    @pytest.mark.parametrize("name", sorted(SOURCE_MODULES))
    def test_source_module_analyses(self, checked_solver, name):
        """Range analysis (the widening client) and the definite-assignment
        check over every function of a corpus program, MiBench2 kernel or
        synthetic chain program."""
        from repro.analysis.ranges import infer_module_bounds
        from repro.ir.validate import validate_module

        module = SOURCE_MODULES[name]()
        validate_module(module)
        infer_module_bounds(module)
        assert checked_solver["repro.analysis.ranges"] >= len(
            module.functions
        )
        assert checked_solver["repro.ir.validate"] >= len(module.functions)

    @pytest.mark.parametrize(
        "entry", ENTRIES, ids=[e["file"].removesuffix(".ir") for e in ENTRIES]
    )
    def test_corpus_bad_certification(self, checked_solver, entry):
        """The certifier's residency and region analyses on the
        checked-in sabotaged modules."""
        from repro.energy import msp430fr5969_platform
        from repro.staticcheck import check_compiled
        from repro.testkit.corpus import compile_for, load_program

        bench = load_program(entry["program"])
        plat = msp430fr5969_platform(eb=CORPUS_BAD["eb"])
        compiled = compile_for(
            entry["technique"], bench.module, plat,
            input_generator=bench.input_generator(),
        )
        compiled.module = parse_ir((CORPUS_BAD_DIR / entry["file"]).read_text())
        check_compiled(compiled, plat, consistency=True)
        assert checked_solver["repro.analysis.regions"] > 0
        assert checked_solver["repro.staticcheck.alloc"] > 0


def test_range_joins_scale_with_changes_not_sweeps(monkeypatch):
    """A deterministic scaling guard: the number of range-analysis joins
    on the synthetic chain programs must grow about linearly with the
    chain count (a full re-join per sweep grows it quadratically)."""
    from repro.analysis.ranges import FunctionRanges, infer_module_bounds
    from repro.experiments.analysis_cost import synthetic_program
    from repro.frontend import compile_source

    joins = [0]
    join = FunctionRanges._join

    def counted(self, a, b):
        joins[0] += 1
        return join(self, a, b)

    monkeypatch.setattr(FunctionRanges, "_join", counted)

    def count(chains):
        joins[0] = 0
        infer_module_bounds(
            compile_source(synthetic_program(chains), f"synthetic{chains}")
        )
        return joins[0]

    at_32, at_64 = count(32), count(64)
    assert at_64 < 2.5 * at_32, (at_32, at_64)

"""Unit tests for the Reachable Checkpoint Graph solver."""

import pytest

from repro.core.allocation import SegmentContext
from repro.core.rcg import RCG, Boundary, RCGInfeasibleError
from repro.core.region import Atom, AtomKind
from repro.core.summaries import CkptBearing
from repro.energy import msp430fr5969_model
from repro.ir import I32, MemorySpace, U8, Variable

MODEL = msp430fr5969_model()


def make_atoms(energies, access_var=None, accesses=0):
    atoms = []
    for i, energy in enumerate(energies):
        atom = Atom(
            uid=i + 1, kind=AtomKind.SLICE, label=f"b{i}", base_energy=energy
        )
        if access_var and accesses:
            atom.counts.add_read(access_var, accesses)
        atoms.append(atom)
    return atoms


def make_ctx(variables=None, capacity=2048):
    return SegmentContext(
        model=MODEL,
        vm_capacity=capacity,
        variables=variables or {"x": Variable("x", I32)},
    )


def solve(atoms, eb, left=None, right=None, ctx=None):
    rcg = RCG(
        ctx or make_ctx(),
        eb,
        atoms,
        left or Boundary(kind="fresh", energy=eb, has_edge=False),
        right or Boundary(kind="fresh", energy=MODEL.save_energy(0),
                          has_edge=False),
        live_at_position=lambda p: set(),
    )
    return rcg.solve()


SAVE0 = MODEL.save_energy(0)
RESTORE0 = MODEL.restore_energy(0)


class TestBasicSolve:
    def test_everything_fits_no_checkpoints(self):
        result = solve(make_atoms([10.0, 10.0, 10.0]), eb=1_000.0)
        assert result.enabled_positions == []
        assert len(result.segments) == 1

    def test_tight_budget_inserts_checkpoint(self):
        # Two 300 nJ atoms with EB=500: they cannot share a segment.
        result = solve(make_atoms([300.0, 300.0]), eb=500.0)
        assert result.enabled_positions == [1]
        assert len(result.segments) == 2

    def test_three_segments_when_needed(self):
        result = solve(make_atoms([300.0, 300.0, 300.0]), eb=450.0)
        assert result.enabled_positions == [1, 2]

    def test_infeasible_atom_raises(self):
        with pytest.raises(RCGInfeasibleError):
            solve(make_atoms([900.0]), eb=500.0)

    def test_minimum_energy_chosen(self):
        # Either one checkpoint (after atom 0 or after atom 1) works;
        # the solver must not enable both.
        result = solve(make_atoms([200.0, 200.0, 200.0]), eb=520.0)
        assert len(result.enabled_positions) == 1

    def test_costs_accumulate(self):
        result = solve(make_atoms([300.0, 300.0]), eb=500.0)
        # exec + one save + one restore, plus boundary effects
        assert result.total_cost >= 600.0


class TestBoundaries:
    def test_left_atom_budget_respected(self):
        # Predecessor left only 100 nJ: a 300 nJ atom cannot run before
        # the first checkpoint; the boundary edge must carry one.
        atoms = make_atoms([300.0])
        left = Boundary(kind="atom", energy=100.0, alloc={}, has_edge=True)
        right = Boundary(kind="fresh", energy=SAVE0, has_edge=False)
        result = solve(atoms, eb=600.0, left=left, right=right)
        assert 0 in result.enabled_positions

    def test_left_atom_flow_through_when_cheap(self):
        atoms = make_atoms([50.0])
        left = Boundary(kind="atom", energy=500.0, alloc={}, has_edge=True)
        right = Boundary(kind="fresh", energy=SAVE0, has_edge=False)
        result = solve(atoms, eb=600.0, left=left, right=right)
        assert result.enabled_positions == []

    def test_right_atom_need_respected(self):
        # The successor needs 400 nJ: a 300 nJ atom flowing into it without
        # a checkpoint would need 300+400 <= budget.
        atoms = make_atoms([300.0])
        right = Boundary(kind="atom", energy=400.0, alloc={}, has_edge=True)
        result = solve(atoms, eb=600.0, right=right)
        assert result.enabled_positions == [1]

    def test_mandatory_right_checkpoint(self):
        atoms = make_atoms([50.0])
        right = Boundary(
            kind="fresh", energy=0.0, has_edge=True, mandatory_ckpt=True
        )
        result = solve(atoms, eb=10_000.0, right=right)
        assert result.enabled_positions == [1]

    def test_mandatory_left_checkpoint(self):
        atoms = make_atoms([50.0])
        left = Boundary(
            kind="atom", energy=1_000.0, alloc={}, has_edge=True,
            mandatory_ckpt=True,
        )
        result = solve(atoms, eb=10_000.0, left=left)
        assert 0 in result.enabled_positions


class TestAllocationInRCG:
    def test_segment_allocation_attached(self):
        variables = {"hot": Variable("hot", I32)}
        ctx = make_ctx(variables=variables)
        atoms = make_atoms([20.0], access_var="hot", accesses=200)
        rcg = RCG(
            ctx,
            5_000.0,
            atoms,
            Boundary(kind="fresh", energy=5_000.0, has_edge=False),
            Boundary(kind="fresh", energy=SAVE0, has_edge=False),
            live_at_position=lambda p: {"hot"},
        )
        result = rcg.solve()
        (segment,) = result.segments
        assert segment.plan.alloc["hot"] is MemorySpace.VM
        assert result.entry_alloc["hot"] is MemorySpace.VM

    def test_exit_dirty_reported_for_fresh_exit(self):
        variables = {"hot": Variable("hot", I32)}
        ctx = make_ctx(variables=variables)
        atoms = make_atoms([20.0])
        atoms[0].counts.add_write("hot", 200, full=True)
        rcg = RCG(
            ctx,
            5_000.0,
            atoms,
            Boundary(kind="fresh", energy=5_000.0, has_edge=False),
            Boundary(kind="fresh", energy=SAVE0, has_edge=False),
            live_at_position=lambda p: {"hot"},
        )
        result = rcg.solve()
        assert "hot" in result.exit_dirty


class TestBarriers:
    def _barrier_atom(self, uid=2):
        atom = Atom(uid=uid, kind=AtomKind.LOOP, label="loop")
        atom.ckpt = CkptBearing(
            e_to_first=100.0,
            e_from_last=100.0,
            internal_energy=500.0,
        )
        return atom

    def test_barrier_forces_checkpoints_on_both_sides(self):
        atoms = make_atoms([50.0])
        atoms.append(self._barrier_atom())
        atoms.extend(make_atoms([60.0]))
        atoms[2].uid = 3
        result = solve(atoms, eb=1_000.0)
        assert 1 in result.enabled_positions  # entry edge of the barrier
        assert 2 in result.enabled_positions  # exit edge of the barrier

    def test_no_segment_spans_barrier(self):
        atoms = make_atoms([50.0])
        atoms.append(self._barrier_atom())
        atoms.extend(make_atoms([60.0]))
        atoms[2].uid = 3
        result = solve(atoms, eb=1_000.0)
        for segment in result.segments:
            assert 2 not in segment.atom_uids  # the barrier's uid

    def test_barrier_too_hungry_is_infeasible(self):
        atom = self._barrier_atom()
        atom.ckpt = CkptBearing(
            e_to_first=2_000.0, e_from_last=100.0, internal_energy=2_100.0
        )
        with pytest.raises(RCGInfeasibleError):
            solve([atom], eb=1_000.0)


class TestIncrementalFoldIdentity:
    """``build`` extends one :class:`SegmentFold` per start position; every
    plan it makes must equal the plan of a fold built from scratch over
    the same ``atoms[i:j]`` — floats, dict contents and order included."""

    @pytest.mark.parametrize("program", ["crc", "randmath", "synthetic8"])
    def test_incremental_plans_equal_scratch_plans(self, monkeypatch, program):
        from repro.baselines import compile_schematic
        from repro.core import rcg as rcg_module
        from repro.core.allocation import SegmentFold, plan_segment
        from repro.core.placement import SchematicConfig
        from repro.energy import msp430fr5969_platform
        from repro.experiments.analysis_cost import synthetic_program
        from repro.frontend import compile_source
        from repro.programs import get_benchmark

        if program.startswith("synthetic"):
            module = compile_source(synthetic_program(8), program)
            inputs = None
        else:
            bench = get_benchmark(program)
            module, inputs = bench.module, bench.input_generator()
        segment = {}
        plan_in_rcg = RCG._plan

        def spy_plan(self, fold, start_pos, end_pos, *args, **kwargs):
            segment["atoms"] = self.atoms[start_pos:end_pos]
            return plan_in_rcg(self, fold, start_pos, end_pos, *args, **kwargs)

        checked = [0]

        def checked_plan(ctx, fold, live_at_end, *args, **kwargs):
            incremental = plan_segment(ctx, fold, live_at_end, *args, **kwargs)
            scratch_fold = SegmentFold(segment["atoms"])
            assert len(fold) == len(scratch_fold)
            scratch = plan_segment(
                ctx, scratch_fold, live_at_end, *args, **kwargs
            )
            assert incremental == scratch
            if incremental is not None:
                assert list(incremental.alloc.items()) == list(
                    scratch.alloc.items()
                )
            checked[0] += 1
            return incremental

        monkeypatch.setattr(RCG, "_plan", spy_plan)
        monkeypatch.setattr(rcg_module, "plan_segment", checked_plan)
        compile_schematic(
            module,
            msp430fr5969_platform(eb=3000.0),
            input_generator=inputs,
            config=SchematicConfig(profile_runs=1),
        )
        assert checked[0] > 0

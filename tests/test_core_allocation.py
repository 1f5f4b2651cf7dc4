"""Tests for segment allocation: the gain function (Eq. 1/2) and packing."""

import pytest

from repro.analysis.accesses import AccessCounts
from repro.core.allocation import (
    SegmentContext,
    SegmentFold,
    plan_segment,
)
from repro.core.region import Atom, AtomKind
from repro.core.summaries import SharedAlloc
from repro.energy import msp430fr5969_model
from repro.ir import I32, MemorySpace, U8, Variable

MODEL = msp430fr5969_model()


def make_atom(uid=1, reads=None, writes=None, base=10.0, shared=None,
              write_first=False):
    atom = Atom(uid=uid, kind=AtomKind.SLICE, label="bb", base_energy=base)
    phases = (
        [("w", writes), ("r", reads)] if write_first else [("r", reads), ("w", writes)]
    )
    for kind, table in phases:
        for name, count in (table or {}).items():
            if kind == "r":
                atom.counts.add_read(name, count)
            else:
                atom.counts.add_write(name, count, full=True)
    atom.shared = shared
    return atom


def make_ctx(vm_capacity=2048, variables=None, inherited=None, amort=1.0):
    variables = variables or {
        "x": Variable("x", I32),
        "y": Variable("y", I32),
        "big": Variable("big", U8, count=600),
        "t": Variable("t", U8, count=16, is_const=True, init=[0] * 16),
        "p": Variable("p", I32, pinned_nvm=True),
    }
    return SegmentContext(
        model=MODEL,
        vm_capacity=vm_capacity,
        variables=variables,
        inherited=dict(inherited or {}),
        gain_amortization=amort,
    )


class TestGainAndPacking:
    def test_hot_variable_goes_vm(self):
        ctx = make_ctx()
        atom = make_atom(reads={"x": 50}, writes={"x": 50})
        plan = plan_segment(ctx, SegmentFold([atom]), {"x"}, True, True)
        assert plan.alloc["x"] is MemorySpace.VM

    def test_cold_variable_stays_nvm(self):
        ctx = make_ctx()
        atom = make_atom(reads={"x": 1})
        plan = plan_segment(ctx, SegmentFold([atom]), {"x"}, True, True)
        assert plan.alloc["x"] is MemorySpace.NVM

    def test_pinned_variable_never_vm(self):
        ctx = make_ctx()
        atom = make_atom(reads={"p": 1000})
        plan = plan_segment(ctx, SegmentFold([atom]), set(), True, True)
        assert plan.alloc["p"] is MemorySpace.NVM

    def test_capacity_respected(self):
        variables = {
            "a": Variable("a", U8, count=1500),
            "b": Variable("b", U8, count=1500),
        }
        ctx = make_ctx(vm_capacity=2048, variables=variables)
        atom = make_atom(reads={"a": 5000, "b": 5000})
        plan = plan_segment(ctx, SegmentFold([atom]), set(), True, True)
        vm_names = [n for n, s in plan.alloc.items() if s is MemorySpace.VM]
        assert len(vm_names) == 1  # only one of the two fits
        assert plan.vm_bytes <= 2048

    def test_gain_size_ratio_prefers_small(self):
        variables = {
            "small": Variable("small", U8, count=4),
            "large": Variable("large", U8, count=1200),
        }
        ctx = make_ctx(vm_capacity=1203, variables=variables)
        # Equal total access counts, so the small one has the better ratio.
        atom = make_atom(reads={"small": 400, "large": 400})
        plan = plan_segment(ctx, SegmentFold([atom]), set(), True, True)
        assert plan.alloc["small"] is MemorySpace.VM
        assert plan.alloc["large"] is MemorySpace.NVM

    def test_amortization_flips_decision(self):
        reads = {"x": 3}
        cold_ctx = make_ctx(amort=1.0)
        atom = make_atom(reads=reads)
        plan_cold = plan_segment(cold_ctx, SegmentFold([atom]), {"x"}, True, True)
        assert plan_cold.alloc["x"] is MemorySpace.NVM
        hot_ctx = make_ctx(amort=64.0)
        plan_hot = plan_segment(hot_ctx, SegmentFold([make_atom(reads=reads)]), {"x"}, True, True)
        assert plan_hot.alloc["x"] is MemorySpace.VM


class TestEq2Liveness:
    def test_write_first_variable_has_no_restore(self):
        ctx = make_ctx()
        atom = make_atom(writes={"x": 30}, reads={"x": 30}, write_first=True)
        plan = plan_segment(ctx, SegmentFold([atom]), {"x"}, True, True)
        assert plan.alloc["x"] is MemorySpace.VM
        assert "x" not in plan.restore_names

    def test_read_first_variable_restored(self):
        ctx = make_ctx()
        atom = make_atom(reads={"x": 60})
        plan = plan_segment(ctx, SegmentFold([atom]), set(), True, True)
        if plan.alloc["x"] is MemorySpace.VM:
            assert "x" in plan.restore_names

    def test_dead_at_end_not_saved(self):
        ctx = make_ctx()
        atom = make_atom(writes={"x": 40}, reads={"x": 40})
        plan = plan_segment(ctx, SegmentFold([atom]), live_at_end=set(),
                            has_start_ckpt=True, has_end_ckpt=True)
        assert "x" not in plan.save_names

    def test_live_dirty_saved(self):
        ctx = make_ctx()
        atom = make_atom(writes={"x": 40}, reads={"x": 40})
        plan = plan_segment(ctx, SegmentFold([atom]), {"x"}, True, True)
        assert plan.alloc["x"] is MemorySpace.VM
        assert "x" in plan.save_names

    def test_clean_variable_not_saved(self):
        ctx = make_ctx()
        atom = make_atom(reads={"x": 80})
        plan = plan_segment(ctx, SegmentFold([atom]), {"x"}, True, True)
        if plan.alloc["x"] is MemorySpace.VM:
            assert "x" not in plan.save_names

    def test_const_never_saved(self):
        ctx = make_ctx()
        atom = make_atom(reads={"t": 500})
        plan = plan_segment(ctx, SegmentFold([atom]), {"t"}, True, True)
        assert plan.alloc["t"] is MemorySpace.VM
        assert "t" not in plan.save_names
        assert "t" in plan.restore_names


class TestForcedAndInherited:
    def test_forced_merge(self):
        a = make_atom(uid=1, shared=SharedAlloc(forced={"x": MemorySpace.VM}))
        b = make_atom(uid=2, shared=SharedAlloc(forced={"y": MemorySpace.NVM}))
        fold = SegmentFold([a, b])
        assert fold.forced == {"x": MemorySpace.VM, "y": MemorySpace.NVM}

    def test_forced_conflict_returns_none(self):
        a = make_atom(uid=1, shared=SharedAlloc(forced={"x": MemorySpace.VM}))
        b = make_atom(uid=2, shared=SharedAlloc(forced={"x": MemorySpace.NVM}))
        fold = SegmentFold([a, b])
        assert fold.forced is None
        ctx = make_ctx()
        assert plan_segment(ctx, fold, set(), True, True) is None
        # The conflict is sticky: no longer segment becomes feasible.
        fold.extend(make_atom(uid=3))
        assert fold.forced is None
        assert plan_segment(ctx, fold, set(), True, True) is None

    def test_inherited_conflict_with_forced(self):
        ctx = make_ctx(inherited={"x": MemorySpace.NVM})
        atom = make_atom(shared=SharedAlloc(forced={"x": MemorySpace.VM}))
        assert plan_segment(ctx, SegmentFold([atom]), set(), True, True) is None

    def test_no_packing_keeps_inherited_only(self):
        ctx = make_ctx(inherited={"x": MemorySpace.VM})
        atom = make_atom(reads={"x": 10, "y": 500})
        plan = plan_segment(ctx, SegmentFold([atom]), set(), has_start_ckpt=False,
                            has_end_ckpt=True, allow_packing=False)
        assert plan.alloc["x"] is MemorySpace.VM
        assert plan.alloc["y"] is MemorySpace.NVM

    def test_inherited_vm_counts_against_capacity(self):
        variables = {
            "a": Variable("a", U8, count=1500),
            "b": Variable("b", U8, count=1500),
        }
        ctx = make_ctx(
            vm_capacity=2048,
            variables=variables,
            inherited={"a": MemorySpace.VM},
        )
        atom = make_atom(reads={"b": 9000})
        plan = plan_segment(ctx, SegmentFold([atom]), set(), has_start_ckpt=False,
                            has_end_ckpt=True)
        # b cannot fit next to the inherited resident a.
        assert plan.alloc["b"] is MemorySpace.NVM

    def test_private_reserve_shrinks_capacity(self):
        variables = {"a": Variable("a", U8, count=1500)}
        shared = SharedAlloc(private_reserve=1000)
        ctx = make_ctx(vm_capacity=2048, variables=variables)
        inner = make_atom(uid=2, shared=shared)
        hot = make_atom(uid=1, reads={"a": 9000})
        plan = plan_segment(ctx, SegmentFold([hot, inner]), set(), True, True)
        assert plan.alloc["a"] is MemorySpace.NVM

    def test_forced_restore_skipped_when_overwritten_before(self):
        writer = make_atom(uid=1, writes={"x": 1})
        inner = make_atom(
            uid=2,
            shared=SharedAlloc(
                forced={"x": MemorySpace.VM},
                vm_names=("x",),
                restore_names=("x",),
            ),
        )
        ctx = make_ctx()
        plan = plan_segment(ctx, SegmentFold([writer, inner]), {"x"}, True, True)
        assert "x" not in plan.restore_names

    def test_forced_restore_kept_when_read_inside(self):
        inner = make_atom(
            uid=1,
            shared=SharedAlloc(
                forced={"x": MemorySpace.VM},
                vm_names=("x",),
                restore_names=("x",),
            ),
        )
        writer = make_atom(uid=2, writes={"x": 1})
        ctx = make_ctx()
        plan = plan_segment(ctx, SegmentFold([inner, writer]), {"x"}, True, True)
        assert "x" in plan.restore_names


class TestAggregateCounts:
    def test_sequential_order_preserves_first_access(self):
        reader = make_atom(uid=1, reads={"x": 1})
        writer = make_atom(uid=2, writes={"x": 1})
        counts = SegmentFold([reader, writer]).counts
        assert counts.first_access["x"] == "r"
        counts2 = SegmentFold([writer, reader]).counts
        assert counts2.first_access["x"] == "w"

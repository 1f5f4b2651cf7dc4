"""Harness-side spans around the public functions of each pipeline layer.

A :class:`Recorder` wraps every layer function from the outside: the
function object in its defining module, every other binding of that
same object in a loaded ``repro.*`` module (``from x import f`` copies
the reference), every dict value that holds it (``COMPILERS``) and the
class attribute for methods. Spans (name, start, end, parent) are kept
in memory; :func:`layer_metrics` turns them into per-layer counts and
self times, where a span's self time is its duration minus the
durations of its direct children (calls are single-threaded, so
children never overlap).

The program's own telemetry (``repro.telemetry.enable``) is never
turned on: it changes which code runs (cache reads, diffemu routing,
interpreter loop), so the trace would describe a different program.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional

#: Placement techniques, one span name each (``repro.baselines.COMPILERS``).
TECHNIQUES = ("schematic", "rockclimb", "allnvm", "ratchet", "mementos",
              "alfred")

#: Emulator span kinds: reference and profiling runs (``run_continuous``),
#: grid tape recording, differential cells and cold intermittent runs.
EMULATOR_KINDS = ("reference", "profile", "grid.record", "grid.cell",
                  "grid.cold")

#: The paper sections (``run_all.SECTIONS``), by metric key.
SECTION_KEYS = ("table1", "table2", "table3", "figure6", "figure7",
                "figure8", "analysis_cost", "ablations")


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0


class Recorder:
    """In-memory span log plus the counters read off layer results."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = {}

    # ------------------------------------------------------------ spans

    def _inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start

    def span(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn()`` inside a span named ``name``."""
        index = self._open(name)
        try:
            return fn()
        finally:
            self._close(index)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name_for: Callable[[], str], fn: Callable,
             on_result: Optional[Callable[[str, Any, tuple], None]] = None
             ) -> Callable:
        """A wrapper that records one span per call; ``name_for()`` picks
        the span name at call time (attribution by calling span) and
        ``on_result(name, result, args)`` reads counters off the result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_for()
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(name, result, args)
            return result

        return wrapper

    # ---------------------------------------------------------- install

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        """Replace every binding of ``original`` (by identity) across the
        loaded ``repro.*`` modules, including dict values such as
        ``COMPILERS``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper

    def _wrap_function(self, module_name: str, attr: str,
                       name_for: Callable[[], str], on_result=None) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._rebind(original, self.wrap(name_for, original, on_result))

    def _wrap_method(self, module_name: str, cls_name: str, attr: str,
                     name: str, on_result=None) -> None:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(lambda: name, original, on_result))

    def install(self) -> None:
        """Wrap every layer function. Call after the workload's modules
        are imported and before any layer work runs."""
        fixed = lambda name: (lambda: name)  # noqa: E731

        self._wrap_function("repro.frontend.lowering", "compile_source",
                            fixed("frontend"))
        self._wrap_function("repro.analysis.ranges", "infer_module_bounds",
                            fixed("analysis.ranges"))
        baselines = importlib.import_module("repro.baselines")
        for technique in TECHNIQUES:
            fn = baselines.COMPILERS[technique]
            self._rebind(fn, self.wrap(
                fixed(f"placement.{technique}"), fn, self._on_compiled
            ))
        self._wrap_function("repro.core.allocation", "plan_segment",
                            fixed("placement.plan_segment"))
        self._wrap_method("repro.core.rcg", "RCG", "build",
                          "placement.rcg_build")
        self._wrap_method("repro.core.rcg", "RCG", "solve",
                          "placement.dijkstra", self._on_rcg)
        self._wrap_function("repro.core.tracing", "collect_profile",
                            fixed("profiling"))
        self._wrap_function(
            "repro.emulator.interpreter", "run_continuous",
            lambda: ("emulator.profile" if self._inside("profiling")
                     else "emulator.reference"),
            self._on_report,
        )
        self._wrap_function("repro.emulator.interpreter", "run_intermittent",
                            fixed("emulator.grid.cold"), self._on_report)
        self._wrap_function("repro.emulator.diffemu", "record_tape",
                            fixed("emulator.grid.record"), self._on_tape)
        self._wrap_function("repro.emulator.diffemu", "run_cell",
                            fixed("emulator.grid.cell"), self._on_cell)
        self._wrap_function("repro.core.verify", "validate_placement",
                            fixed("transval"))
        for attr in ("check_compiled", "check_bounds"):
            self._wrap_function("repro.staticcheck.checker", attr,
                                fixed("staticcheck"), self._on_check)
        self._wrap_function("repro.staticcheck.transval",
                            "check_translation", fixed("staticcheck"),
                            self._on_check)
        self._wrap_method("repro.runner.cache", "ArtifactCache", "get",
                          "runner.cache.get", self._on_cache_get)
        self._wrap_method("repro.runner.cache", "ArtifactCache", "put",
                          "runner.cache.put")

    # ------------------------------------------------- result counters

    def _on_compiled(self, name, compiled, _args) -> None:
        self.count("placement.feasible", bool(compiled.feasible))
        self.count("placement.checkpoints", compiled.checkpoints_inserted)

    def _on_rcg(self, _name, _result, args) -> None:
        rcg = args[0]
        self.count("placement.rcg.atoms", rcg.m)
        self.count("placement.rcg.nodes", rcg.stat_nodes)
        self.count("placement.rcg.edges_rejected_eb",
                   rcg.stat_edges_rejected_eb)

    def _on_report(self, name, report, _args) -> None:
        self.count(f"{name}.cycles", report.active_cycles)

    def _on_tape(self, name, tape, _args) -> None:
        self.count("diffemu.tapes_recorded")
        self.count(f"{name}.cycles", tape.report.active_cycles)

    def _on_cell(self, name, result, _args) -> None:
        report, plan = result
        kind = {"synthesize": "synthesized", "fork": "forked"}.get(
            plan.kind, "cold")
        self.count(f"diffemu.{kind}")
        if plan.kind != "cold":  # cold cycles land on emulator.grid.cold
            self.count(f"{name}.cycles", report.active_cycles)

    def _on_check(self, _name, report, _args) -> None:
        self.count("staticcheck.findings", len(report.findings))

    def _on_cache_get(self, _name, value, _args) -> None:
        self.count("runner.cache.hits" if value is not None
                   else "runner.cache.misses")

    # ----------------------------------------------------------- output

    def write(self, path: str) -> None:
        """Write the span log as JSON lines (name, start, end, parent)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.start, span.end,
                                     span.parent]) + "\n")


def layer_metrics(rec: Recorder, t0: float, t1: float, wall_s: float
                  ) -> Dict[str, float]:
    """Per-layer calls and self time over the spans that start inside
    the timed region [t0, t1] (frontend also counts set-up, where most
    of its work happens), plus the counters read off results."""
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    timed_self = 0.0
    for span in rec.spans:
        timed = t0 <= span.start <= t1
        if not timed and span.name != "frontend":
            continue
        own = (span.end - span.start) - span.child_s
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        total_s[span.name] = total_s.get(span.name, 0.0) + (
            span.end - span.start)
        if timed:
            timed_self += own

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    counts = rec.counts
    out: Dict[str, float] = {
        "frontend.calls": c("frontend"),
        "frontend.self_s": s("frontend"),
        "analysis.ranges.calls": c("analysis.ranges"),
        "analysis.ranges.self_s": s("analysis.ranges"),
    }
    placements = 0
    for technique in TECHNIQUES:
        out[f"placement.{technique}.calls"] = c(f"placement.{technique}")
        out[f"placement.{technique}.self_s"] = s(f"placement.{technique}")
        placements += c(f"placement.{technique}")
    for part in ("plan_segment", "rcg_build", "dijkstra"):
        out[f"placement.{part}.self_s"] = s(f"placement.{part}")
    out["placement.plan_segment.calls"] = c("placement.plan_segment")
    for key in ("atoms", "nodes", "edges_rejected_eb"):
        out[f"placement.rcg.{key}"] = counts.get(f"placement.rcg.{key}", 0)
    out["placement.checkpoints"] = counts.get("placement.checkpoints", 0)
    out["placement.feasible_ratio"] = (
        counts.get("placement.feasible", 0) / placements if placements else 0
    )
    out["profiling.calls"] = c("profiling")
    out["profiling.self_s"] = s("profiling")
    for kind in EMULATOR_KINDS:
        name = f"emulator.{kind}"
        out[f"{name}.calls"] = c(name)
        out[f"{name}.self_s"] = s(name)
        cycles = counts.get(f"{name}.cycles", 0)
        out[f"{name}.mcycles_per_s"] = (
            cycles / s(name) / 1e6 if s(name) > 0 else 0
        )
    cells = 0
    for key in ("synthesized", "forked", "cold"):
        out[f"diffemu.{key}"] = counts.get(f"diffemu.{key}", 0)
        cells += out[f"diffemu.{key}"]
    out["diffemu.tapes_recorded"] = counts.get("diffemu.tapes_recorded", 0)
    out["diffemu.reuse_ratio"] = (
        (out["diffemu.synthesized"] + out["diffemu.forked"]) / cells
        if cells else 0
    )
    out["transval.calls"] = c("transval")
    out["transval.self_s"] = s("transval")
    out["staticcheck.calls"] = c("staticcheck")
    out["staticcheck.self_s"] = s("staticcheck")
    out["staticcheck.findings"] = counts.get("staticcheck.findings", 0)
    gets = c("runner.cache.get")
    out["runner.cache.gets"] = gets
    out["runner.cache.hits"] = counts.get("runner.cache.hits", 0)
    out["runner.cache.misses"] = counts.get("runner.cache.misses", 0)
    out["runner.cache.puts"] = c("runner.cache.put")
    out["runner.cache.get_s"] = s("runner.cache.get")
    out["runner.cache.put_s"] = s("runner.cache.put")
    out["runner.cache.hit_ratio"] = (
        out["runner.cache.hits"] / gets if gets else 0
    )
    experiments_self = 0.0
    for key in SECTION_KEYS:
        name = f"experiments.{key}"
        out[f"{name}.s"] = total_s.get(name, 0.0)
        experiments_self += s(name)
    out["experiments.self_s"] = experiments_self
    out["other.self_s"] = wall_s - timed_self
    return out

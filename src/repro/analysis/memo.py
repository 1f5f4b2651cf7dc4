"""Per-process memo for the analyses that depend only on the source program.

Range analysis and execution-trace profiling (paper §III-A3) are pure
functions of a module's text and, for profiling, of the energy model,
the instruction cap and the input vectors. Several techniques and
budgets compile the same source module, so without a memo one process
repeats both analyses for every (technique, budget) pair. Each result is
stored under a key of exactly that content, whose first part is the
module's :func:`source_key` (the
:meth:`repro.runner.cache.ArtifactCache.key` of its printed text):

- ``ranges``: ``(source_key,)`` -> the ``(function, header) -> trips``
  map of :func:`repro.analysis.ranges.infer_module_bounds`, used by
  :func:`repro.analysis.ranges.apply_inferred_bounds`;
- ``profile``: ``(source_key, ArtifactCache.key(repr(model),
  max_instructions, materialised input vectors))`` -> the
  :class:`repro.core.tracing.Profile` of ``collect_profile``.

Keying on the printed text is sound because printing is exact: a module
parsed back from its text prints the same text and profiles and
range-analyses identically (``tests/test_analysis_memo.py``), so two
modules with equal text cannot behave differently. Callers never hold
a stored value: ``collect_profile`` returns a copy and
``apply_inferred_bounds`` only reads the stored map, so mutating a
result cannot change a later hit.

Like the transval memo (:mod:`repro.core.verify`) it is bounded, counts
its hits and misses per kind (mirrored in the ``run_all --json``
manifest and, when metrics are on, as ``placer.memo.<kind>.hits`` /
``.misses`` counters; misses are the analyses actually computed) and
can be reset, wholly or for one source module (:func:`forget`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.runner.cache import ArtifactCache
from repro.telemetry import metrics

KINDS = ("profile", "ranges")

_STATS: Dict[str, int] = {
    f"{kind}_{outcome}": 0 for kind in KINDS for outcome in ("hits", "misses")
}

#: (kind, content key) -> stored result, evicted oldest first.
_MEMO: Dict[Tuple[str, Tuple[str, ...]], Any] = {}
_MEMO_CAP = 256


def source_key(module: Module) -> str:
    """The first part of every key of results computed from ``module``."""
    return ArtifactCache.key(print_module(module))


def lookup(kind: str, key: Tuple[str, ...]) -> Optional[Any]:
    """The stored result for ``key``, or None; counts the outcome."""
    value = _MEMO.get((kind, key))
    outcome = "misses" if value is None else "hits"
    _STATS[f"{kind}_{outcome}"] += 1
    metrics.count(f"placer.memo.{kind}.{outcome}")
    return value


def store(kind: str, key: Tuple[str, ...], value: Any) -> None:
    if len(_MEMO) >= _MEMO_CAP:
        _MEMO.pop(next(iter(_MEMO)))
    _MEMO[(kind, key)] = value


def memo_stats() -> Dict[str, int]:
    """A snapshot of this process's hit and miss counters."""
    return dict(_STATS)


def forget(source: Optional[str] = None) -> None:
    """Drop every stored result, or only those computed from the module
    whose :func:`source_key` is ``source``; the counters keep counting."""
    if source is None:
        _MEMO.clear()
        return
    for entry in [entry for entry in _MEMO if entry[1][0] == source]:
        del _MEMO[entry]


def reset_memo() -> None:
    """Drop every stored result and zero the counters."""
    forget()
    for key in _STATS:
        _STATS[key] = 0

"""Deterministic process-pool fan-out for evaluation cells.

Every emulation cell is deterministic and returns picklable records
(:class:`~repro.experiments.common.RunOutcome`, reports, oracle verdicts)
— never live interpreters — so results merged in submission order are
byte-identical to a serial run regardless of worker scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.errors import ReproError

T = TypeVar("T")
R = TypeVar("R")


def available_cpus() -> int:
    """CPUs actually available to this process.

    ``os.cpu_count()`` reports the machine, not the process: under a
    cgroup CPU set or a restricted scheduler affinity mask (containerized
    CI, ``taskset``), it overcounts and ``--jobs auto`` would
    oversubscribe. ``os.sched_getaffinity(0)`` reflects both limits where
    the platform provides it (Linux); elsewhere fall back to
    ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


def resolve_jobs(jobs) -> int:
    """Parse a ``--jobs`` value: an int, a numeric string, ``"auto"``
    (one worker per *available* CPU) or None/"" (serial)."""
    if jobs is None or jobs == "":
        return 1
    if isinstance(jobs, str):
        if jobs.strip().lower() == "auto":
            return available_cpus()
        jobs = int(jobs)
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int = 1,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Iterable = (),
    chunksize: int = 1,
) -> List[R]:
    """Map ``fn`` over ``items``, preserving order.

    ``jobs <= 1`` (or a single item) runs everything in-process — the
    initializer, if any, is invoked once locally, so worker functions that
    read process globals behave identically. With ``jobs > 1`` the work is
    fanned across a process pool; ``fn``, the items and the results must
    be picklable and ``fn``/``initializer`` must be module-level. A
    worker that dies (killed, ``os._exit``) raises :class:`ReproError`
    naming the first item whose result never arrived.
    """
    items = list(items)
    workers = min(jobs, len(items)) if items else 0
    if workers <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(item) for item in items]
    results: List[R] = []
    with ProcessPoolExecutor(
        max_workers=workers, initializer=initializer, initargs=tuple(initargs)
    ) as pool:
        try:
            for result in pool.map(fn, items, chunksize=chunksize):
                results.append(result)
        except BrokenProcessPool as exc:
            index = len(results)
            raise ReproError(
                f"a worker process died before item {index} of "
                f"{len(items)} finished: {items[index]!r}"
            ) from exc
    return results

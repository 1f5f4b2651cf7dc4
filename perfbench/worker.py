"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --cache DIR
                                --out FILE [--traced] [--prepare]
                                [--spans FILE]

Writes a JSON document to ``--out``: set-up and timed-region seconds,
the calibration loop's time around the timed region, per-operation
latency and outcome digest, peak RSS and, with ``--traced``, the
per-layer metrics of :mod:`layers`. ``--prepare`` runs the workload's
once-per-run preparation instead (filling the private artifact cache)
and reports its duration and a calibration.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _import_program() -> None:
    """Load every module a layer wrapper rebinds, before wrapping."""
    import repro.experiments.run_all  # noqa: F401
    import repro.staticcheck.checker  # noqa: F401
    import repro.staticcheck.transval  # noqa: F401
    import repro.testkit.corpus  # noqa: F401


def calibrate() -> float:
    """The host's current speed: best of five runs of a fixed pure-Python
    loop that touches nothing of the program, so no change to the program
    can move it."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        table: dict = {}
        for i in range(30000):
            key = i % 977
            table[key] = table.get(key, 0) + i
        sorted(str(v) for v in table.values())
        best = min(best, time.perf_counter() - start)
    return best


def run_pass(name: str, seed: int, cache_dir: str, traced: bool,
             spans_path: str = "") -> dict:
    workload = WORKLOADS[name]
    _import_program()
    rec = None
    if traced:
        rec = layers.Recorder()
        rec.install()
    state = workload.setup(cache_dir)
    steps = workload.steps(state, seed)
    setup_s = time.perf_counter() - STARTED
    from repro.core.verify import transval_stats

    memo_hits = transval_stats()["memo_hits"]
    if rec is not None:
        rec.counts.clear()  # result counters cover the timed region only

    calibration_s = calibrate()
    ops = []
    t0 = time.perf_counter()
    for step in steps:
        start = time.perf_counter()
        try:
            if rec is not None and step.span:
                result = rec.span(step.span, step.fn)
            else:
                result = step.fn()
        except Exception as exc:  # an op's outcome; checked against goldens
            result = exc
        if step.op is not None:
            ops.append((step.op, time.perf_counter() - start, result))
    t1 = time.perf_counter()
    wall_s = t1 - t0

    doc = {
        "calibration_s": (calibration_s + calibrate()) / 2,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops": [
            [op, latency,
             f"raise:{type(result).__name__}"
             if isinstance(result, Exception)
             else workload.digest(op, result)]
            for op, latency, result in ops
        ],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rec is not None:
        doc["layers"] = layers.layer_metrics(rec, t0, t1, wall_s)
        doc["layers"]["transval.memo_hits"] = (
            transval_stats()["memo_hits"] - memo_hits)
        doc["spans"] = len(rec.spans)
        doc["min_self_s"] = min(
            ((s.end - s.start) - s.child_s for s in rec.spans), default=0.0)
        if spans_path:
            rec.write(spans_path)
    return doc


def prepare(name: str, cache_dir: str) -> dict:
    workload = WORKLOADS[name]
    _import_program()
    state = workload.setup(cache_dir)
    if workload.prepare == "pass":
        for step in workload.steps(state, 0):
            step.fn()
    return {"prepare_s": time.perf_counter() - STARTED,
            "calibration_s": calibrate()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--spans", default="")
    args = parser.parse_args()
    if args.prepare:
        doc = prepare(args.workload, args.cache)
    else:
        doc = run_pass(args.workload, args.seed, args.cache, args.traced,
                       args.spans)
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

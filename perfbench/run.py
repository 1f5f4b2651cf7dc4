"""The pipeline benchmark: four workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-goldens

Run from the repository root. Each run prepares its private artifact
cache under ``.bench_build/perfbench/`` and then repeats passes of the
workload, each in a fresh process, until ``--seconds`` have elapsed.
Every operation's outcome is checked against ``goldens.json``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones (medians over the passes in reference-host seconds,
scaled by a calibration loop; see README.md); with ``--trace 1`` the run
alternates untraced and traced passes and reports the per-layer metrics
of the traced ones (see README.md). Exit status 0 on success, 2 when the
program or the goldens are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

GOLDENS = os.path.join(HERE, "goldens.json")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

#: Environment switches that change what the program does; every run
#: starts without them (and with the private cache instead).
CLEARED_ENV = ("REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_TRANSVAL",
               "REPRO_BENCH_SLOWDOWN")

#: A run must end well inside 180 s even if a pass hangs.
RUN_DEADLINE_S = 170.0

#: The calibration loop's time (``worker.calibrate``) on the host this
#: benchmark was built on when uncontended: a shared 2-CPU Linux VM.
REFERENCE_CALIBRATION_S = 0.0032

#: Untraced passes per run at least, however long they take; with
#: ``--trace 1`` as many traced passes again.
MIN_PASSES = 3


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: List[str], out: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--out", out]
    proc = subprocess.run(
        cmd + args, env=_child_env(), cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} failed:\n{proc.stderr[-2000:]}")
    with open(out) as fh:
        return json.load(fh)


def tail_percentile(values: List[float]):
    """(percentile, value, samples): the highest whole percentile with at
    least ten samples beyond it; (0, 0, n) below eleven samples."""
    n = len(values)
    if n <= 10:
        return 0, 0.0, n
    pct = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, ordered[rank - 1], n


def count_failures(ops: List[list], goldens: Dict[str, str]) -> int:
    """Operations whose outcome differs from the golden one (an
    unexpected exception is an outcome too), plus goldens never run."""
    seen = {op: digest for op, _latency, digest in ops}
    failed = sum(1 for op, digest in seen.items()
                 if goldens.get(op) != digest)
    return failed + sum(1 for op in goldens if op not in seen)


def prepare(name: str, cache: str, run_dir: str, deadline: float) -> dict:
    """The workload's one-time preparation of an empty ``cache``."""
    shutil.rmtree(cache, ignore_errors=True)
    return _worker(["--workload", name, "--cache", cache, "--prepare"],
                   os.path.join(run_dir, "prepare.json"), deadline)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 goldens: Dict[str, str]) -> dict:
    """Prepare, then run passes until ``seconds`` elapse; returns
    the result object printed on the last stdout line."""
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    run_dir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    traces = os.path.join(WORK_DIR, "traces")
    os.makedirs(traces, exist_ok=True)
    try:
        cache = os.path.join(run_dir, "cache")
        prepares = []
        if workload.prepare:
            prepares.append(prepare(name, cache, run_dir, deadline))
        passes = []
        stop = time.monotonic() + seconds
        while True:
            traced = trace and len(passes) % 2 == 1
            if workload.fresh_cache:
                cache = os.path.join(run_dir, f"cache-{len(passes)}")
            args = ["--workload", name, "--seed", str(seed),
                    "--cache", cache]
            if traced:
                args += ["--traced", "--spans", os.path.join(
                    traces, f"{name}-seed{seed}.jsonl")]
            doc = _worker(args, os.path.join(run_dir, "pass.json"),
                          deadline)
            doc["traced"] = traced
            passes.append(doc)
            if workload.fresh_cache:
                shutil.rmtree(cache, ignore_errors=True)
            untraced = sum(1 for p in passes if not p["traced"])
            if time.monotonic() >= stop and untraced >= MIN_PASSES and (
                not trace or len(passes) % 2 == 0
            ):
                break
        if workload.prepare:
            # A second sample, --seconds after the first; setup_s takes
            # the faster, so one slow phase of the host cannot decide it.
            prepares.append(prepare(name, os.path.join(run_dir, "again"),
                                    run_dir, deadline))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return summarize(passes, prepares, trace, goldens)


def summarize(passes: List[dict], prepares: List[dict], trace: bool,
              goldens: Dict[str, str]) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(count_failures(p["ops"], goldens) for p in passes)
    correct = failed == 0
    med = statistics.median

    def scaled(seconds: float, doc: dict) -> float:
        """Seconds on the reference host: scaled by how much faster the
        calibration loop ran there than around this measurement."""
        return seconds * REFERENCE_CALIBRATION_S / doc["calibration_s"]

    if not trace:
        prepare_s = min((scaled(d["prepare_s"], d) for d in prepares),
                        default=0.0)
        metrics = {
            "setup_s": (prepare_s + med(scaled(p["setup_s"], p)
                                        for p in plain), "s"),
            "wall_s": (med(scaled(p["wall_s"], p) for p in plain), "s"),
            "peak_rss_mb": (med(p["peak_rss_mb"] for p in plain), "MB"),
        }
    else:
        # Harness self-checks: tracing changes no outcome, and self times
        # are non-negative and sum to at most the timed region.
        reference = {op: d for op, _l, d in plain[0]["ops"]}
        for p in traced:
            if {op: d for op, _l, d in p["ops"]} != reference:
                correct = False
            if p["min_self_s"] < -1e-6 or p["layers"]["other.self_s"] < -1e-6:
                correct = False
        metrics = {
            key: (med(p["layers"][key] for p in traced), unit_of(key))
            for key in traced[0]["layers"]
        }
        tails = [tail_percentile([l for _o, l, _d in p["ops"]])
                 for p in plain]
        metrics.update({
            "op.p50_ms": (med(med(l for _o, l, _d in p["ops"]) * 1e3
                              for p in plain), "ms"),
            "op.tail_ms": (med(t[1] for t in tails) * 1e3, "ms"),
            "op.tail_pct": (tails[0][0], "%"),
            "op.samples": (tails[0][2], "count"),
            "trace.overhead_s": (med(p["wall_s"] for p in traced)
                                 - med(p["wall_s"] for p in plain), "s"),
            "trace.spans": (med(p["spans"] for p in traced), "count"),
            "host.cpus": (_cpus(), "count"),
            "host.calibration_ms": (med(p["calibration_s"] for p in plain)
                                    * 1e3, "ms"),
            "host.raw_wall_s": (med(p["wall_s"] for p in plain), "s"),
        })
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def unit_of(key: str) -> str:
    if key.endswith("mcycles_per_s"):
        return "Mcycles/s"
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    return "count"


def _cpus() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.runner.pool import available_cpus

    return available_cpus()


def record_goldens() -> int:
    """Run one pass per golden group and store every outcome digest."""
    goldens = {}
    deadline = time.monotonic() + 600
    for name in ("paper-cold", "design-sweep", "check-matrix"):
        run_dir = os.path.join(WORK_DIR, f"goldens-{os.getpid()}")
        os.makedirs(run_dir, exist_ok=True)
        try:
            if WORKLOADS[name].prepare:
                prepare(name, os.path.join(run_dir, "cache"), run_dir,
                        deadline)
            doc = _worker(["--workload", name, "--cache",
                           os.path.join(run_dir, "cache")],
                          os.path.join(run_dir, "pass.json"), deadline)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        goldens[WORKLOADS[name].golden_key] = {
            op: digest for op, _latency, digest in doc["ops"]}
        print(f"{name}: {len(doc['ops'])} ops", file=sys.stderr)
    with open(GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found; run from a checkout of "
              "the repository root", file=sys.stderr)
        return 2
    if args.record_goldens:
        return record_goldens()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        with open(GOLDENS) as fh:
            goldens = json.load(fh)[WORKLOADS[args.workload].golden_key]
    except (OSError, KeyError, ValueError) as exc:
        print(f"perfbench: no goldens for {args.workload}: {exc}",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), goldens)
    print(f"perfbench: {args.workload} seed={args.seed} "
          f"cpus={_cpus()} python={platform.python_version()} "
          f"platform={platform.platform()}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

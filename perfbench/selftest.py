"""Self-tests of the benchmark harness; exits non-zero on the first failure.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (default: all four), one untraced and one traced pass:

- the layer wrappers change no outcome: both passes' digests equal the
  goldens;
- self times are non-negative and sum to at most the timed region, and
  the named layers leave at most ``MAX_OTHER`` of it unattributed;
- a perturbed golden result shows up as exactly one failed operation.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Largest share of ``wall_s`` left to ``other.self_s``.
MAX_OTHER = 0.05


def check(name: str, goldens: dict) -> None:
    workload = WORKLOADS[name]
    expected = goldens[workload.golden_key]
    run_dir = os.path.join(run.WORK_DIR, f"selftest-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    deadline = time.monotonic() + 600
    base = ["--workload", name, "--seed", "7",
            "--cache", os.path.join(run_dir, "cache")]
    try:
        if workload.prepare:
            run.prepare(name, os.path.join(run_dir, "cache"), run_dir,
                        deadline)
        plain = run._worker(base, os.path.join(run_dir, "plain.json"),
                            deadline)
        if workload.fresh_cache:
            shutil.rmtree(os.path.join(run_dir, "cache"))
        traced = run._worker(base + ["--traced"],
                             os.path.join(run_dir, "traced.json"), deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    assert run.count_failures(plain["ops"], expected) == 0, "untraced"
    assert run.count_failures(traced["ops"], expected) == 0, "traced"
    assert [o[2] for o in plain["ops"]] == [o[2] for o in traced["ops"]]
    other = traced["layers"]["other.self_s"]
    assert traced["min_self_s"] >= -1e-6, traced["min_self_s"]
    assert 0 <= other <= MAX_OTHER * traced["wall_s"], (
        f"{other:.3f}s of {traced['wall_s']:.3f}s unattributed")
    op = plain["ops"][0][0]
    perturbed = dict(expected, **{op: "perturbed"})
    assert run.count_failures(plain["ops"], perturbed) == 1
    print(f"ok  {name}: {len(plain['ops'])} ops, other.self_s "
          f"{other / traced['wall_s']:.1%} of wall_s, tracing "
          f"{traced['wall_s'] / plain['wall_s'] - 1:+.0%}")


def main(argv) -> int:
    assert run.tail_percentile([float(i) for i in range(153)]) == (
        93, 142.0, 153)
    assert run.tail_percentile([1.0] * 10) == (0, 0.0, 10)
    with open(run.GOLDENS) as fh:
        goldens = json.load(fh)
    for name in argv or list(WORKLOADS):
        check(name, goldens)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

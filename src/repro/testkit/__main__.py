"""CLI for the fault-injection testkit.

Examples::

    # Failure at every instruction boundary of the transformed module:
    python -m repro.testkit sweep --program crc --technique schematic

    # Exhaustive dynamic double-failure sweep of a small corpus program:
    python -m repro.testkit sweep --program warloop --technique ratchet \\
        --granularity all --failures 2

    # Prove the oracle catches a broken placement (expects a violation):
    python -m repro.testkit sweep --program crc --technique schematic \\
        --sabotage

    # Technique x power-mode x TBPF differential grid:
    python -m repro.testkit diff --programs crc,bitcount --tbpf 1000,10000

    # Seeded stochastic harvesting schedules:
    python -m repro.testkit fuzz --seeds 20 --mean 500,2000

Exit status is 0 when the oracles hold (for ``--sabotage``: when the
planted bug *is* caught) and 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from typing import List, Optional

from repro import telemetry
from repro.telemetry import flags as telemetry_flags
from repro.telemetry import rollup
from repro.testkit.corpus import available_programs
from repro.testkit.differential import (
    DEFAULT_MODES,
    DEFAULT_TBPF,
    DEFAULT_TECHNIQUES,
    run_differential,
)
from repro.testkit.fuzz import (
    DEFAULT_FUZZ_PROGRAMS,
    DEFAULT_FUZZ_TECHNIQUES,
    run_fuzz,
)
from repro.runner.pool import resolve_jobs
from repro.testkit.sweep import sweep_technique


def _csv(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _csv_int(text: str) -> List[int]:
    return [int(item) for item in _csv(text)]


def _csv_float(text: str) -> List[float]:
    return [float(item) for item in _csv(text)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testkit",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Telemetry options shared by every subcommand.
    tracing = telemetry_flags.flag_parser()

    sweep = sub.add_parser(
        "sweep", parents=[tracing],
        help="exhaustive failure injection at instruction boundaries",
    )
    sweep.add_argument(
        "--program", required=True,
        help=f"one of {', '.join(available_programs())}",
    )
    sweep.add_argument(
        "--technique", required=True,
        help="schematic, ratchet, mementos, rockclimb, alfred or allnvm",
    )
    sweep.add_argument("--eb", type=float, default=3000.0,
                       help="energy budget in nJ (default 3000)")
    sweep.add_argument(
        "--granularity", choices=("static", "all"), default="static",
        help="static: every instruction boundary of the transformed "
        "module (first dynamic occurrence); all: every dynamic step",
    )
    sweep.add_argument("--failures", type=int, choices=(1, 2), default=1,
                       help="failures injected per schedule")
    sweep.add_argument("--sabotage", action="store_true",
                       help="remove a checkpoint first; expect violations")
    sweep.add_argument("--vm-size", type=int, default=None)
    sweep.add_argument("--jobs", default="1", metavar="N|auto",
                       help="worker processes for the injection schedules")

    diff = sub.add_parser(
        "diff", parents=[tracing],
        help="technique x power-mode x TBPF differential grid",
    )
    diff.add_argument("--programs", type=_csv, default=None,
                      help="comma list (default: the eight benchmarks)")
    diff.add_argument("--techniques", type=_csv,
                      default=list(DEFAULT_TECHNIQUES))
    diff.add_argument("--tbpf", type=_csv_int, default=list(DEFAULT_TBPF))
    diff.add_argument("--modes", type=_csv, default=list(DEFAULT_MODES),
                      help="subset of energy,periodic,stochastic")
    diff.add_argument("--seed", type=int, default=0)
    diff.add_argument("--diff-emulation", action="store_true",
                      dest="diffemu_check",
                      help="run every cell twice — cold and via the "
                      "snapshot/fork path — and convict any report "
                      "divergence (doubles the grid)")
    diff.add_argument("--compiled", action="store_true",
                      dest="compiled_check",
                      help="re-run every non-crashed cell on the "
                      "pre-decoded interpreter loop and convict any "
                      "divergence from the compiled loop "
                      "(doubles the grid)")
    diff.add_argument("--transval", action="store_true",
                      dest="transval_check",
                      help="statically certify every feasible placement "
                      "in the grid as a refinement of its source "
                      "(translation validation) and convict any TV "
                      "finding")
    diff.add_argument("--no-shrink", action="store_true")
    diff.add_argument("--jobs", default="1", metavar="N|auto",
                      help="worker processes (one per program)")

    fuzz = sub.add_parser(
        "fuzz", parents=[tracing],
        help="seeded stochastic (RF-harvesting) schedules",
    )
    fuzz.add_argument("--programs", type=_csv,
                      default=list(DEFAULT_FUZZ_PROGRAMS))
    fuzz.add_argument("--techniques", type=_csv,
                      default=list(DEFAULT_FUZZ_TECHNIQUES))
    fuzz.add_argument("--seeds", type=int, default=10)
    fuzz.add_argument("--mean", type=_csv_float,
                      default=[500.0, 2000.0, 10000.0],
                      help="mean inter-failure windows in cycles")
    fuzz.add_argument("--eb", type=float, default=3000.0)
    fuzz.add_argument("--no-shrink", action="store_true")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.time()
    tm, mm = telemetry_flags.enable_from_args(args, meta={
        "tool": f"repro.testkit.{args.command}",
        "argv": list(argv) if argv is not None else sys.argv[1:],
    })
    try:
        return _run(args, started)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    finally:
        telemetry_flags.finish(tm, mm, args, prefix=f"testkit_{args.command}")
        if mm is not None and telemetry_flags.metrics_requested(args):
            sidecar = rollup.write_sidecar(mm, telemetry_flags.metrics_dir(args))
            print(f"metrics sidecar:      {sidecar}", file=sys.stderr)


def _run(args: argparse.Namespace, started: float) -> int:

    if args.command == "sweep":
        last = [0.0]

        def progress(i: int, total: int) -> None:
            now = time.time()
            if now - last[0] >= 5.0:
                last[0] = now
                print(f"  ... {i}/{total} injections", file=sys.stderr)

        tm = telemetry.get()
        scope = (
            tm.scope(benchmark=args.program, technique=args.technique,
                     eb=round(args.eb, 3))
            if tm is not None
            else nullcontext()
        )
        with scope:
            result = sweep_technique(
                args.program,
                args.technique,
                eb=args.eb,
                vm_size=args.vm_size,
                granularity=args.granularity,
                failures=args.failures,
                sabotage=args.sabotage,
                progress=progress,
                jobs=resolve_jobs(args.jobs),
            )
        print(result.render())
        print(f"({time.time() - started:.1f}s)")
        if args.sabotage:
            caught = not result.ok
            print(
                "sabotage caught: the oracle flagged the broken placement"
                if caught
                else "SABOTAGE MISSED: no violation reported for a "
                "deliberately broken placement"
            )
            return 0 if caught else 1
        return 0 if result.ok else 1

    if args.command == "diff":
        result = run_differential(
            programs=args.programs,
            techniques=args.techniques,
            tbpf_values=args.tbpf,
            modes=args.modes,
            seed=args.seed,
            shrink=not args.no_shrink,
            jobs=resolve_jobs(args.jobs),
            diffemu_check=args.diffemu_check,
            compiled_check=args.compiled_check,
            transval_check=args.transval_check,
        )
        print(result.render())
        print(f"({time.time() - started:.1f}s)")
        return 0 if result.ok else 1

    result = run_fuzz(
        programs=args.programs,
        techniques=args.techniques,
        seeds=args.seeds,
        mean_cycles=args.mean,
        eb=args.eb,
        shrink=not args.no_shrink,
    )
    print(result.render())
    print(f"({time.time() - started:.1f}s)")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""CLI for the compile-time intermittent-safety checker.

Examples::

    # Certify the eight MiBench2 benchmarks as transformed by SCHEMATIC:
    python -m repro.staticcheck

    # One program, every technique, machine-readable:
    python -m repro.staticcheck --programs crc --techniques all --json

    # Prove the checker has teeth: strip a checkpoint first and expect
    # at least one gating finding per program (exit 1 when one slips by):
    python -m repro.staticcheck --sabotage

    # Verify loop-bound annotations on the *source* modules only (no
    # placement pass; what `make check-bounds` runs):
    python -m repro.staticcheck --bounds --programs all

    # Add the remaining memory-consistency rules (CONS002-CONS004) and
    # the proof certificate, as SARIF:
    python -m repro.staticcheck --consistency --format sarif

    # Every rule family (idempotency, energy, bounds, consistency,
    # translation validation) in one invocation, one merged SARIF report:
    python -m repro.staticcheck --all --format sarif

    # Validate one transformed IR file as a refinement of its source
    # (the TV rule family only):
    python -m repro.staticcheck --transval src.ir placed.ir

    # Show the rule catalog:
    python -m repro.staticcheck --list-rules

Exit status: 0 when every compiled module is certified (no finding at or
above ``--fail-on``; with ``--sabotage``: when every broken module is
flagged), 1 otherwise, 2 on usage errors (unknown program, technique,
rule or severity — the message lists the valid choices).

Wait-mode techniques (``policy.wait_for_full_recharge``: schematic,
rockclimb, allnvm) get the replay-semantics rules CONS001
(WAR/idempotency, run in every configuration) and CONS002 (added by
``--consistency``) downgraded to *info*: under the compile-time budget
the runtime was built for, a wait-mode system never loses power
mid-segment (the §II-B guarantee — which is exactly what the energy
certifier proves here), so replay regions are never re-executed
in-contract and WAR exposure is informational. CONS003 and CONS004 keep
their severity even in wait mode: the wake-path restore runs on *every*
recharge, squarely inside the contract. Roll-back techniques replay as
their *normal* recovery path, so for them every replay rule keeps its
default severity — it is the contract RATCHET exists to discharge.

Reports are cached content-addressed (category ``staticcheck``, keyed
on the printed module, the rule-schema version, platform and rule
configuration); ``--no-cache`` disables it, ``--cache-dir`` relocates
it, and the hit/miss line lands on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import List, Optional, Tuple

from repro.baselines import COMPILERS
from repro.emulator.runtime import CheckpointPolicy
from repro.energy import msp430fr5969_platform
from repro.errors import ReproError
from repro.programs import BENCHMARK_NAMES
from repro.runner.cache import ArtifactCache, stats_line
from repro.staticcheck.checker import CheckReport, check_bounds, check_compiled
from repro.staticcheck.findings import (
    Finding,
    Severity,
    merge_findings,
    sarif_document,
)
from repro.staticcheck.rules import RuleConfig, render_catalog
from repro.staticcheck.transval import check_translation
from repro.testkit.corpus import (
    available_programs,
    compile_for,
    load_program,
)
from repro.testkit.sabotage import strip_checkpoint


def _csv(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _expand_programs(items: List[str]) -> List[str]:
    if items == ["all"]:
        return available_programs()
    return items


def _expand_techniques(items: List[str]) -> List[str]:
    if items == ["all"]:
        return sorted(COMPILERS)
    return items


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--programs", type=_csv, default=list(BENCHMARK_NAMES),
        help="comma list, or 'all' for corpus + benchmarks "
        "(default: the eight MiBench2 benchmarks)",
    )
    parser.add_argument(
        "--techniques", type=_csv, default=["schematic"],
        help=f"comma list, or 'all' for {', '.join(sorted(COMPILERS))} "
        "(default: schematic)",
    )
    parser.add_argument("--eb", type=float, default=3000.0,
                        help="energy budget in nJ (default 3000)")
    parser.add_argument("--vm-size", type=int, default=None,
                        help="override the platform's VM size in bytes")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default=None,
        help="output format (default text); 'sarif' emits one SARIF "
        "2.1.0 document over every checked cell",
    )
    parser.add_argument("--json", action="store_true",
                        help="alias for --format json")
    parser.add_argument("--consistency", action="store_true",
                        help="also machine-check the remaining "
                        "memory-consistency conditions (CONS002-CONS004) "
                        "under each technique's runtime policy and "
                        "attach the proof certificate (CONS001 always "
                        "runs)")
    parser.add_argument("--all", action="store_true", dest="all_families",
                        help="run every rule family (idempotency, energy, "
                        "bounds, consistency, translation validation) in "
                        "one invocation with one merged, stably-ordered "
                        "report")
    parser.add_argument("--transval", nargs=2, metavar=("SRC", "XFORMED"),
                        default=None,
                        help="validate the transformed IR file XFORMED as a "
                        "refinement of the source IR file SRC (TV rules "
                        "only); --programs/--techniques are ignored")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the content-addressed report cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache root (default: REPRO_CACHE_DIR or "
                        ".repro-cache)")
    parser.add_argument("--sabotage", action="store_true",
                        help="strip a checkpoint from each module first; "
                        "expect every module to be flagged")
    parser.add_argument("--suppress", type=_csv, default=[],
                        metavar="RULES", help="comma list of rule ids to drop")
    parser.add_argument(
        "--fail-on", default="error",
        help="gate severity: error, warning or info (default error)",
    )
    parser.add_argument("--bounds", action="store_true",
                        help="run only the loop-bound rules (BOUND/DEAD/OOB) "
                        "on the untransformed source modules; --techniques "
                        "is ignored")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    return parser


def _configure(
    policy: CheckpointPolicy, suppression: RuleConfig
) -> RuleConfig:
    if not policy.wait_for_full_recharge:
        return suppression
    # Only the replay-semantics rules are out of contract in wait mode;
    # the wake-path restore rules (CONS003/CONS004) are not — restores
    # run on every recharge, inside the contract.
    return replace(suppression, severity_overrides={
        "CONS001": Severity.INFO, "CONS002": Severity.INFO,
    })


def _check_pair(
    program: str,
    technique: str,
    args: argparse.Namespace,
    suppression: RuleConfig,
    cache: Optional[ArtifactCache] = None,
) -> Optional[CheckReport]:
    """Compile and certify one (program, technique) pair; None when the
    technique declares the program infeasible (Table I)."""
    bench = load_program(program)
    platform = msp430fr5969_platform(eb=args.eb)
    if args.vm_size is not None:
        platform = platform.with_vm_size(args.vm_size)
    compiled = compile_for(
        technique,
        bench.module,
        platform,
        input_generator=bench.input_generator(),
    )
    if not compiled.feasible:
        return None
    if args.sabotage:
        broken, site = strip_checkpoint(compiled.module)
        compiled.module = broken
        compiled.extra["sabotaged_checkpoint"] = site
    config = _configure(compiled.policy, suppression)
    report = check_compiled(
        compiled,
        platform,
        config=config,
        consistency=args.consistency,
        cache=cache,
    )
    if args.all_families:
        # One merged report across every family: the per-module rules
        # above plus translation validation of the placement itself.
        # merge_findings is the single normalization point (suppression
        # strictly before severity overrides), so the merge cannot
        # resurrect a suppressed finding.
        tv = check_translation(
            bench.module, compiled.module,
            config, technique=technique, cache=cache,
        )
        report = CheckReport(
            findings=merge_findings([report.findings, tv.findings]),
            stats=dict(report.stats),
        )
        report.stats["analyses"] = (
            list(report.stats["analyses"]) + ["transval"]
        )
        report.stats["transval"] = tv.stats["transval"]
        report.stats["transval_certificate"] = tv.stats["certificate"]
    report.stats["program"] = program
    if args.sabotage:
        report.stats["sabotaged_checkpoint"] = (
            f"ckpt{compiled.extra['sabotaged_checkpoint'].ckpt_id}"
        )
    return report


def _run_transval(
    args: argparse.Namespace,
    threshold: Severity,
    config: RuleConfig,
    cache: Optional[ArtifactCache],
) -> int:
    """--transval SRC XFORMED mode: certify one module pair from disk."""
    from repro.ir.textparser import parse_ir

    src_path, xformed_path = args.transval
    with open(src_path, "r", encoding="utf-8") as handle:
        source = parse_ir(handle.read())
    with open(xformed_path, "r", encoding="utf-8") as handle:
        transformed = parse_ir(handle.read())
    report = check_translation(source, transformed, config, cache=cache)
    gated = not report.ok(threshold)
    verdict = "FAILED" if gated else "certified"
    fmt = args.format or ("json" if args.json else "text")
    if fmt == "json":
        doc = report.to_json()
        doc["source"] = src_path
        doc["transformed"] = xformed_path
        doc["verdict"] = verdict
        json.dump(doc, sys.stdout, indent=2)
        print()
    elif fmt == "sarif":
        triples = [
            (src_path, "transval", finding) for finding in report.findings
        ]
        json.dump(sarif_document(triples), sys.stdout, indent=2)
        print()
    else:
        summary = report.stats["transval"]
        print(f"transval {src_path} ~ {xformed_path}: {verdict} "
              f"({summary['discharged']}/{summary['obligations']} "
              "obligations discharged)")
        body = report.render()
        print("  " + body.replace("\n", "\n  "))
    if cache is not None:
        print(stats_line(cache.stats_dict()), file=sys.stderr)
    return 1 if gated else 0


def _run_bounds(
    args: argparse.Namespace, threshold: Severity, config: RuleConfig
) -> int:
    """--bounds mode: annotation verification on untransformed modules."""
    failures = 0
    documents = []
    for program in _expand_programs(args.programs):
        report = check_bounds(load_program(program).module, config)
        report.stats["program"] = program
        gated = not report.ok(threshold)
        failures += 1 if gated else 0
        verdict = "FAILED" if gated else "verified"
        if args.json:
            doc = report.to_json()
            doc["program"] = program
            doc["verdict"] = verdict
            documents.append(doc)
        else:
            print(f"check-bounds {program}: {verdict} "
                  f"({report.stats['proven_bounds']}/{report.stats['loops']} "
                  "loop bounds proven)")
            body = report.render()
            print("  " + body.replace("\n", "\n  "))
    if args.json:
        json.dump({"reports": documents, "failures": failures},
                  sys.stdout, indent=2)
        print()
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        print(render_catalog())
        return 0
    fmt = args.format or ("json" if args.json else "text")
    args.json = fmt == "json"
    cache = None if args.no_cache else ArtifactCache.default(args.cache_dir)
    if args.all_families:
        args.consistency = True
    try:
        threshold = Severity.parse(args.fail_on)
        # Raises on an unknown id, listing the valid ones, before any
        # program is compiled.
        suppression = RuleConfig(suppressed=frozenset(args.suppress))
        if args.transval is not None:
            return _run_transval(args, threshold, suppression, cache)
        if args.bounds:
            return _run_bounds(args, threshold, suppression)
        programs = _expand_programs(args.programs)
        techniques = _expand_techniques(args.techniques)
        failures = 0
        documents = []
        triples: List[Tuple[str, str, Finding]] = []
        for program in programs:
            for technique in techniques:
                report = _check_pair(
                    program, technique, args, suppression, cache
                )
                header = f"check {program}/{technique} (eb={args.eb:g} nJ)"
                if report is None:
                    if args.json:
                        documents.append({
                            "program": program, "technique": technique,
                            "infeasible": True,
                        })
                    elif fmt == "text":
                        print(f"{header}: infeasible, skipped")
                    continue
                gated = not report.ok(threshold)
                if args.sabotage:
                    verdict = (
                        "sabotage caught" if gated else "SABOTAGE MISSED"
                    )
                    failures += 0 if gated else 1
                else:
                    verdict = "FAILED" if gated else "certified"
                    failures += 1 if gated else 0
                if args.json:
                    doc = report.to_json()
                    doc["program"] = program
                    doc["technique"] = technique
                    doc["verdict"] = verdict
                    documents.append(doc)
                elif fmt == "sarif":
                    triples.extend(
                        (program, technique, finding)
                        for finding in report.findings
                    )
                else:
                    print(f"{header}: {verdict}")
                    body = report.render()
                    print("  " + body.replace("\n", "\n  "))
        if args.json:
            json.dump({"reports": documents, "failures": failures},
                      sys.stdout, indent=2)
            print()
        elif fmt == "sarif":
            json.dump(sarif_document(triples), sys.stdout, indent=2)
            print()
        if cache is not None:
            print(stats_line(cache.stats_dict()), file=sys.stderr)
        return 1 if failures else 0
    except (KeyError, ValueError, OSError) as exc:
        if isinstance(exc, OSError):
            message: object = str(exc)
        else:
            message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Regenerate the known-violation corpus in ``tests/corpus_bad/``.

Each entry is a *transformed* module with one deliberately planted
memory-consistency bug, written as printed IR plus a ``manifest.json``
describing how it was made, which CONS rule must convict it and how the
dynamic oracle confirms the conviction. The regression test
(``tests/test_corpus_bad.py``) parses the checked-in files — it does not
re-run this generator — so the corpus stays stable under compiler
changes until someone regenerates it on purpose:

    PYTHONPATH=src python tools/gen_corpus_bad.py

The first four cells cover every generator in the memory-consistency
sabotage battery and both contract families:

- ``warloop_schematic_delete_restore`` — restore-set deletion on a
  wait-mode placement (CONS003 + CONS004; dynamically visible because
  the emulator's restore poisons what the restore set misses);
- ``warloop_ratchet_repeated_read`` — a pure input marked volatile on a
  roll-back placement (CONS002; boundary-sweep anomalies);
- ``warloop_ratchet_dirty_write`` — an injected read-increment-write on
  a roll-back placement (CONS001 definite; boundary-sweep anomalies);
- ``sumloop_schematic_repeated_read`` — the wait-mode contract split:
  CONS002 fires but is in-contract-informational, the guarantee run is
  clean, and only out-of-contract schedules convict dynamically.

Three more cover the translation-validation battery — transform bugs
that change continuous-power semantics, so the sabotaged placement
fails the static refinement proof (the TV rule in ``expect_rules``,
convicted against the entry's *source* module) AND diverges from the
reference on every schedule, guarantee run included:

- ``crc_schematic_reordered_store`` — an observable store moved past a
  dependent load and a later store (TV002);
- ``warloop_schematic_leaked_private`` — one block's accesses to a
  global privatized into an unsynchronized local copy (TV003);
- ``sumloop_ratchet_dropped_store`` — an observable store deleted
  outright, as checkpoint motion would (TV001).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.energy import msp430fr5969_platform  # noqa: E402
from repro.ir.printer import print_module  # noqa: E402
from repro.ir.textparser import parse_ir  # noqa: E402
from repro.testkit.corpus import compile_for, load_program  # noqa: E402
from repro.emulator.interpreter import run_continuous  # noqa: E402
from repro.testkit.sabotage import (  # noqa: E402
    delete_restore,
    dirty_nv_write,
    drop_store,
    inject_repeated_read,
    leak_privatized_local,
    reorder_observable_store,
)

EB = 3000.0
OUT = Path(__file__).resolve().parent.parent / "tests" / "corpus_bad"


def _compiled(program: str, technique: str):
    bench = load_program(program)
    platform = msp430fr5969_platform(eb=EB)
    return bench, compile_for(
        technique,
        bench.module,
        platform,
        input_generator=bench.input_generator(),
    )


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    entries = []

    bench, compiled = _compiled("warloop", "schematic")
    broken, site, removed = delete_restore(compiled.module)
    entries.append((
        "warloop_schematic_delete_restore",
        broken,
        {
            "program": "warloop",
            "technique": "schematic",
            "sabotage": "delete_restore",
            "expect_rules": ["CONS003", "CONS004"],
            "detail": {
                "checkpoint": site.ckpt_id,
                "deleted_restore_vars": sorted(removed),
            },
            "dynamic": "the guarantee run diverges: the restore poisons "
            "the VM variables the restore set misses",
        },
    ))

    bench, compiled = _compiled("warloop", "ratchet")
    marked, var = inject_repeated_read(compiled.module)
    entries.append((
        "warloop_ratchet_repeated_read",
        marked,
        {
            "program": "warloop",
            "technique": "ratchet",
            "sabotage": "inject_repeated_read",
            "expect_rules": ["CONS002"],
            "detail": {"volatile_input": var},
            "dynamic": "boundary-sweep schedules replay the sampling "
            "region and diverge from the marked reference",
        },
    ))

    bench, compiled = _compiled("warloop", "ratchet")
    dirty, where = dirty_nv_write(compiled.module)
    entries.append((
        "warloop_ratchet_dirty_write",
        dirty,
        {
            "program": "warloop",
            "technique": "ratchet",
            "sabotage": "dirty_nv_write",
            "expect_rules": ["CONS001"],
            "detail": {"injection_site": where},
            "dynamic": "boundary-sweep schedules double-increment; the "
            "module's own continuous run is the reference",
        },
    ))

    bench, compiled = _compiled("sumloop", "schematic")
    marked, var = inject_repeated_read(compiled.module)
    entries.append((
        "sumloop_schematic_repeated_read",
        marked,
        {
            "program": "sumloop",
            "technique": "schematic",
            "sabotage": "inject_repeated_read",
            "expect_rules": ["CONS002"],
            "detail": {"volatile_input": var},
            "in_contract_info": True,
            "dynamic": "wait-mode split: the guarantee run stays clean, "
            "out-of-contract schedules diverge",
        },
    ))

    # -- translation-validation battery: the sabotage must change the
    # continuous-power outputs (that is what makes it a *transform* bug,
    # and what lets the dynamic oracle convict on any schedule), so
    # candidates are validated against the source reference run.
    def _diverges_from(bench):
        platform = msp430fr5969_platform(eb=EB)
        reference = run_continuous(
            bench.module, platform.model, inputs=bench.default_inputs()
        )

        def validate(broken):
            try:
                run = run_continuous(
                    broken, platform.model, inputs=bench.default_inputs()
                )
            except Exception:
                return False
            return run.outputs != reference.outputs

        return validate

    bench, compiled = _compiled("crc", "schematic")
    broken, where = reorder_observable_store(
        compiled.module, validate=_diverges_from(bench)
    )
    entries.append((
        "crc_schematic_reordered_store",
        broken,
        {
            "program": "crc",
            "technique": "schematic",
            "sabotage": "reorder_observable_store",
            "expect_rules": ["TV002"],
            "detail": {"motion": where},
            "dynamic": "the intervening load observes the old value: "
            "continuous outputs change, every schedule diverges",
        },
    ))

    bench, compiled = _compiled("warloop", "schematic")
    broken, where = leak_privatized_local(
        compiled.module, validate=_diverges_from(bench)
    )
    entries.append((
        "warloop_schematic_leaked_private",
        broken,
        {
            "program": "warloop",
            "technique": "schematic",
            "sabotage": "leak_privatized_local",
            "expect_rules": ["TV003"],
            "detail": {"leak": where},
            "dynamic": "the private copy starts at zero and never writes "
            "back: continuous outputs change, every schedule diverges",
        },
    ))

    bench, compiled = _compiled("sumloop", "ratchet")
    broken, where = drop_store(
        compiled.module, validate=_diverges_from(bench)
    )
    entries.append((
        "sumloop_ratchet_dropped_store",
        broken,
        {
            "program": "sumloop",
            "technique": "ratchet",
            "sabotage": "drop_store",
            "expect_rules": ["TV001"],
            "detail": {"dropped": where},
            "dynamic": "the final NVM state misses the store: continuous "
            "outputs change, every completed schedule diverges",
        },
    ))

    manifest = {"eb": EB, "modules": []}
    for name, module, meta in entries:
        text = print_module(module)
        assert print_module(parse_ir(text)) == text, f"{name}: no round-trip"
        path = OUT / f"{name}.ir"
        path.write_text(text)
        manifest["modules"].append({"file": f"{name}.ir", **meta})
        print(f"wrote {path.relative_to(OUT.parent.parent)}")
    (OUT / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {(OUT / 'manifest.json').relative_to(OUT.parent.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""SCHEMATIC's placements on the eight MiBench2 kernels, pinned.

The placer is an exact optimization: a faster RCG build or range analysis
must reproduce every checkpoint and every VM/NVM allocation bit for bit.
This deep test (``pytest -m sweep``) compiles each kernel at the
evaluation's budgets — ``eb_for_tbpf`` for every TBPF of §IV-C plus
Table I's feasibility budget — and compares the printed module and the
checkpoint count against checked-in digests. A change to the digests is
a change to the placements and needs its own justification. Run it with
``REPRO_CACHE=0`` so every placement is recomputed.
"""

import hashlib

import pytest

from repro.experiments.common import TBPF_VALUES, EvaluationContext
from repro.experiments.table1_vm_feasibility import FEASIBILITY_EB
from repro.ir.printer import print_module
from repro.programs import BENCHMARK_NAMES

FEASIBILITY = "feasibility"

#: (kernel, TBPF or FEASIBILITY) -> (checkpoints inserted, digest of the
#: printed module and that count).
DIGESTS = {
    ("aes", 1_000): (32, "a140a8e6f569af5d"),
    ("aes", 10_000): (17, "a9140651268faa06"),
    ("aes", 100_000): (15, "03ea4dc4431d9e54"),
    ("aes", FEASIBILITY): (17, "ef4c268a966cdb69"),
    ("basicmath", 1_000): (18, "e5156607733fad04"),
    ("basicmath", 10_000): (7, "85a55fb1e4eae570"),
    ("basicmath", 100_000): (7, "207038c4889b4894"),
    ("basicmath", FEASIBILITY): (7, "5fea46f360384738"),
    ("bitcount", 1_000): (18, "0e5f52b43de87417"),
    ("bitcount", 10_000): (7, "00cf3e24e29d4e24"),
    ("bitcount", 100_000): (7, "6f51aa010dae9453"),
    ("bitcount", FEASIBILITY): (7, "565066ad5d7641ce"),
    ("crc", 1_000): (8, "918b40648bc562d0"),
    ("crc", 10_000): (8, "fb57f4451f56a391"),
    ("crc", 100_000): (2, "099b3142c1c4b0cd"),
    ("crc", FEASIBILITY): (8, "211cc23ecb6a9169"),
    ("dijkstra", 1_000): (21, "c0ff54802a73ecac"),
    ("dijkstra", 10_000): (12, "2b2beb79913450d2"),
    ("dijkstra", 100_000): (11, "fe1b8f4fa833e635"),
    ("dijkstra", FEASIBILITY): (11, "a106e1306f015923"),
    ("fft", 1_000): (17, "cb132f4d96f5e706"),
    ("fft", 10_000): (17, "782d54907653b423"),
    ("fft", 100_000): (12, "13089813e113e554"),
    ("fft", FEASIBILITY): (17, "8b4f3e2711527972"),
    ("randmath", 1_000): (15, "edfaa76e03f5d25e"),
    ("randmath", 10_000): (5, "63a586ecaddd399f"),
    ("randmath", 100_000): (5, "f56fa1bd68bd7634"),
    ("randmath", FEASIBILITY): (5, "7fa85623b3a1047f"),
    ("rc4", 1_000): (13, "0ced7f93198d6287"),
    ("rc4", 10_000): (10, "d2f369004c97a470"),
    ("rc4", 100_000): (8, "a0b4a31e45e802dc"),
    ("rc4", FEASIBILITY): (8, "cd29d430868ae4d8"),
}


def placement_digest(module_text: str, checkpoints: int) -> str:
    payload = f"{module_text}\n{checkpoints}".encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@pytest.fixture(scope="module")
def ctx():
    return EvaluationContext()


def test_digest_table_covers_every_kernel_and_budget():
    assert set(DIGESTS) == {
        (name, budget)
        for name in BENCHMARK_NAMES
        for budget in TBPF_VALUES + (FEASIBILITY,)
    }


@pytest.mark.sweep
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_kernel_placements_match_digests(ctx, name):
    for budget in TBPF_VALUES + (FEASIBILITY,):
        eb = (
            FEASIBILITY_EB if budget == FEASIBILITY
            else ctx.eb_for_tbpf(name, budget)
        )
        compiled = ctx.compile("schematic", name, eb)
        assert compiled.feasible, (name, budget, compiled.infeasible_reason)
        checkpoints, digest = DIGESTS[(name, budget)]
        assert compiled.checkpoints_inserted == checkpoints, (name, budget)
        assert placement_digest(
            print_module(compiled.module), compiled.checkpoints_inserted
        ) == digest, (name, budget)

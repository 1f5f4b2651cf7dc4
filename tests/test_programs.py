"""Benchmark-program correctness against independent Python oracles.

Each MiBench2-style kernel is executed in the emulator and checked against
a from-scratch Python implementation of the same algorithm (or the standard
library, where one exists).
"""

import binascii
import math
import random

import pytest

from repro.emulator import run_continuous
from repro.energy import msp430fr5969_model
from repro.programs import BENCHMARK_NAMES, all_benchmarks, get_benchmark

MODEL = msp430fr5969_model()


def run_benchmark(name: str, inputs=None):
    bench = get_benchmark(name)
    inputs = inputs if inputs is not None else bench.default_inputs()
    report = run_continuous(bench.module, MODEL, inputs=inputs)
    assert report.completed, report.failure_reason
    return inputs, report.outputs


class TestRegistry:
    def test_all_eight_present(self):
        assert BENCHMARK_NAMES == [
            "aes", "basicmath", "bitcount", "crc",
            "dijkstra", "fft", "randmath", "rc4",
        ]

    def test_footprint_classes_match_table1(self):
        # dijkstra/fft/rc4 exceed the 2 KB VM; the rest fit (paper Table I).
        for bench in all_benchmarks():
            footprint = bench.footprint_bytes()
            if bench.name in ("dijkstra", "fft", "rc4"):
                assert footprint > 2048, bench.name
            else:
                assert footprint <= 2048, bench.name

    def test_dijkstra_is_about_30kb(self):
        assert 28_000 <= get_benchmark("dijkstra").footprint_bytes() <= 32_000

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            get_benchmark("quicksort")

    def test_input_generators_are_deterministic(self):
        bench = get_benchmark("crc")
        gen = bench.input_generator()
        assert gen(3) == gen(3)
        assert gen(3) != gen(4)
        assert bench.default_inputs() == bench.default_inputs()

    def test_profile_and_eval_inputs_differ(self):
        bench = get_benchmark("crc")
        assert bench.input_generator()(0) != bench.default_inputs()


class TestAesOracle:
    def _python_aes_encrypt(self, key: bytes, block: bytes) -> bytes:
        """Independent AES-128 implementation (list-based, from FIPS-197)."""
        from repro.programs.aes import RCON, SBOX

        def xtime(x):
            x <<= 1
            return (x ^ 0x1B) & 0xFF if x & 0x100 else x

        xkey = list(key)
        for rnd in range(1, 11):
            base = rnd * 16
            prev = xkey[base - 16:base]
            word = xkey[base - 4:base]
            word = word[1:] + word[:1]
            word = [SBOX[b] for b in word]
            word[0] ^= RCON[rnd - 1]
            new = [p ^ w for p, w in zip(prev[:4], word)]
            for c in range(4, 16):
                new.append(xkey[base + c - 16] ^ new[c - 4])
            xkey.extend(new)

        state = [b ^ k for b, k in zip(block, xkey[:16])]
        for rnd in range(1, 11):
            state = [SBOX[b] for b in state]
            # shift rows (column-major state)
            s = state
            state = [
                s[0], s[5], s[10], s[15],
                s[4], s[9], s[14], s[3],
                s[8], s[13], s[2], s[7],
                s[12], s[1], s[6], s[11],
            ]
            if rnd < 10:
                mixed = []
                for c in range(4):
                    a = state[c * 4:c * 4 + 4]
                    alln = a[0] ^ a[1] ^ a[2] ^ a[3]
                    mixed.extend([
                        a[0] ^ alln ^ xtime(a[0] ^ a[1]),
                        a[1] ^ alln ^ xtime(a[1] ^ a[2]),
                        a[2] ^ alln ^ xtime(a[2] ^ a[3]),
                        a[3] ^ alln ^ xtime(a[3] ^ a[0]),
                    ])
                state = mixed
            state = [
                b ^ k for b, k in zip(state, xkey[rnd * 16:rnd * 16 + 16])
            ]
        return bytes(state)

    def test_sbox_is_the_real_aes_sbox(self):
        from repro.programs.aes import SBOX

        # Spot values from FIPS-197.
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_fips197_known_answer(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert self._python_aes_encrypt(key, pt) == expected

    def test_emulated_aes_matches_oracle(self):
        bench = get_benchmark("aes")
        inputs = bench.default_inputs()
        _, outputs = run_benchmark("aes", inputs)
        key = bytes(inputs["key"])
        for block_index in (0, 1, 7):
            pt = bytes(inputs["buf"][block_index * 16:(block_index + 1) * 16])
            expected = self._python_aes_encrypt(key, pt)
            got = bytes(outputs["buf"][block_index * 16:(block_index + 1) * 16])
            assert got == expected

    def test_checksum_consistent(self):
        _, outputs = run_benchmark("aes")
        assert outputs["checksum"][0] == sum(outputs["buf"]) & 0xFFFFFFFF


class TestCrcOracle:
    def test_first_pass_matches_binascii(self):
        bench = get_benchmark("crc")
        inputs = bench.default_inputs()
        _, outputs = run_benchmark("crc", inputs)
        expected = binascii.crc32(bytes(inputs["buffer"])) & 0xFFFFFFFF
        assert outputs["crc_out"][0] == expected

    def test_second_pass_mixes_first(self):
        bench = get_benchmark("crc")
        inputs = bench.default_inputs()
        _, outputs = run_benchmark("crc", inputs)
        mix = outputs["crc_out"][0] & 0xFF
        mixed = bytes(b ^ mix for b in inputs["buffer"])
        expected = binascii.crc32(mixed) & 0xFFFFFFFF
        assert outputs["crc_out2"][0] == expected


class TestRc4Oracle:
    @staticmethod
    def _python_rc4(key: bytes, n: int) -> bytes:
        s = list(range(256))
        j = 0
        for i in range(256):
            j = (j + s[i] + key[i % 16]) & 255
            s[i], s[j] = s[j], s[i]
        out = bytearray()
        i = j = 0
        for _ in range(n):
            i = (i + 1) & 255
            j = (j + s[i]) & 255
            s[i], s[j] = s[j], s[i]
            out.append(s[(s[i] + s[j]) & 255])
        return bytes(out)

    def test_keystream_matches(self):
        bench = get_benchmark("rc4")
        inputs = bench.default_inputs()
        _, outputs = run_benchmark("rc4", inputs)
        keystream = self._python_rc4(bytes(inputs["key"]), len(inputs["out"]))
        expected = bytes(
            p ^ k for p, k in zip(inputs["out"], keystream)
        )
        assert bytes(outputs["out"]) == expected
        assert outputs["keystream_sum"][0] == sum(keystream) & 0xFFFFFFFF

    def test_rfc6229_vector(self):
        # RC4 with key 0x0102...10: first keystream bytes per RFC 6229.
        key = bytes(range(1, 17))
        stream = self._python_rc4(key, 16)
        assert stream.hex() == "9ac7cc9a609d1ef7b2932899cde41b97"


class TestDijkstraOracle:
    def test_distances_match_reference_dijkstra(self):
        bench = get_benchmark("dijkstra")
        inputs = bench.default_inputs()
        _, outputs = run_benchmark("dijkstra", inputs)
        from repro.programs.dijkstra import INFINITY, SOURCES, V

        adj = inputs["adjmat"]
        # Recompute the final source's run (outputs hold the last dist[]).
        source = ((SOURCES - 1) * 13) % V
        import heapq

        dist = {i: None for i in range(V)}
        heap = [(0, source)]
        seen = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in seen:
                continue
            seen.add(node)
            dist[node] = d
            for j in range(V):
                w = adj[node * V + j]
                if w > 0 and j not in seen:
                    heapq.heappush(heap, (d + w, j))
        for i in range(V):
            expected = dist[i] if dist[i] is not None else INFINITY
            assert outputs["dist"][i] == expected


class TestFftOracle:
    def test_matches_naive_dft(self):
        from repro.programs.fft import N, Q

        bench = get_benchmark("fft")
        rng = random.Random(7)
        # Small-amplitude input keeps the fixed-point error tiny.
        inputs = {
            "input_re": [rng.randrange(0, 1024) for _ in range(N)],
            "input_im": [rng.randrange(0, 1024) for _ in range(N)],
        }
        _, outputs = run_benchmark("fft", inputs)

        # Float DFT with the same per-stage >>1 scaling => overall 1/N.
        xs = [
            complex(r, i)
            for r, i in zip(inputs["input_re"], inputs["input_im"])
        ]
        log2n = int(math.log2(N))
        for k in (0, 1, N // 2, N - 3):
            expected = sum(
                x * complex(math.cos(-2 * math.pi * k * n / N),
                            math.sin(-2 * math.pi * k * n / N))
                for n, x in enumerate(xs)
            ) / (2 ** log2n)
            got = complex(outputs["re"][k], outputs["im"][k])
            # Fixed-point truncation accumulates ~1 LSB per stage.
            assert abs(got - expected) < 16, (k, got, expected)


class TestBitcountOracle:
    def test_all_methods_agree_with_python(self):
        from repro.programs.bitcount import N, PASSES

        bench = get_benchmark("bitcount")
        inputs = bench.default_inputs()
        _, outputs = run_benchmark("bitcount", inputs)
        expected = 0
        for p in range(PASSES):
            for v in inputs["data"]:
                expected += bin((v + p) & 0xFFFFFFFF).count("1")
        for method in range(5):
            assert outputs["counts"][method] == expected
        assert outputs["total"][0] == expected * 5


class TestBasicmathOracle:
    def test_isqrt_matches_math(self):
        bench = get_benchmark("basicmath")
        inputs = bench.default_inputs()
        _, outputs = run_benchmark("basicmath", inputs)
        from repro.programs.basicmath import N, PASSES

        # The arrays hold the last pass's results.
        last = PASSES - 1
        for i in range(N):
            v = (inputs["values"][i] + last * 977) & 0xFFFFFFFF
            assert outputs["out_sqrt"][i] == math.isqrt(v)

    def test_icbrt_is_floor_cuberoot(self):
        bench = get_benchmark("basicmath")
        inputs = bench.default_inputs()
        _, outputs = run_benchmark("basicmath", inputs)
        from repro.programs.basicmath import N, PASSES

        last = PASSES - 1
        for i in range(N):
            v = (inputs["values"][i] + last * 977) & 0xFFFFFFFF
            c = outputs["out_cbrt"][i]
            assert c ** 3 <= v, (v, c)
            assert (c + 1) ** 3 > v, (v, c)


class TestRandmathOracle:
    def test_matches_python_reimplementation(self):
        bench = get_benchmark("randmath")
        inputs = bench.default_inputs()
        _, outputs = run_benchmark("randmath", inputs)
        from repro.programs.randmath import N

        mask = 0xFFFFFFFF

        def lcg(s):
            return (s * 1103515245 + 12345) & mask

        s = inputs["seed_in"][0] | 1
        total = 0
        for i in range(N):
            s = lcg(s)
            a = ((s >> 16) + 3) & mask
            s = lcg(s)
            b = ((s >> 20) + 7) & mask
            g = math.gcd(a, b)
            m = pow(a & 1023, b & 31, 40961)
            expected = (g + m) & mask
            assert outputs["out"][i] == expected
            total += expected
        assert outputs["total"][0] == total & mask


#: The staticcheck/testkit corpus plus two kernels: every technique and
#: certifier in the make-check path runs over these.
CHECK_PROGRAMS = ("sumloop", "warloop", "branchy", "calls", "crc", "randmath")


@pytest.mark.parametrize("program", CHECK_PROGRAMS)
def test_pipeline_never_mutates_the_shared_module(program):
    """``Benchmark.module`` is compiled once and shared process-wide
    (``get_benchmark`` caches benchmarks), so no pass may rewrite it in
    place: compile every technique, certify, validate, profile, run and
    bound it, and the module text must not change."""
    from repro.analysis.ranges import infer_module_bounds
    from repro.baselines import COMPILERS
    from repro.core.tracing import collect_profile
    from repro.core.verify import validate_placement
    from repro.energy import msp430fr5969_platform
    from repro.ir.printer import print_module
    from repro.staticcheck.checker import check_compiled
    from repro.staticcheck.transval import check_translation
    from repro.testkit.corpus import compile_for, load_program

    bench = load_program(program)
    assert bench.module is bench.module
    before = print_module(bench.module)
    platform = msp430fr5969_platform(eb=3000.0)
    for technique in sorted(COMPILERS):
        compiled = compile_for(technique, bench.module, platform,
                               input_generator=bench.input_generator())
        if not compiled.feasible:
            continue
        check_compiled(compiled, platform, consistency=True)
        check_translation(bench.module, compiled.module, technique=technique)
        validate_placement(bench.module, compiled.module)
    collect_profile(bench.module, platform.model,
                    input_generator=bench.input_generator(), runs=2)
    run_continuous(bench.module, MODEL, inputs=bench.default_inputs())
    infer_module_bounds(bench.module)
    assert print_module(bench.module) == before

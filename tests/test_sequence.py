"""The shared per-sequence derivations and sequence groups of the battery.

The window kernel, the walk and the grouped Berlekamp-Massey pass are each
checked against a slow reference, and every P-value must be the same,
float for float, whether a sequence runs alone or in a group of any size.
"""

import dataclasses

import numpy as np
import pytest

import oracles
import rtdrng.nist.sequence as sequence_module
from rtdrng.bits import BitStream, write_bits
from rtdrng.cli import main
from rtdrng.nist.battery import run_battery
from rtdrng.nist.sequence import as_sequence, battery_sequences, window_values
from rtdrng.nist.special import igamc
from rtdrng.nist.statistical_tests import (
    _MAX_WINDOW_BITS,
    TestParams,
    _overlapping_law,
    overlapping_template_test,
)

# every test applies at 120k bits: no default needs more than Serial's 2^18
SMALL = TestParams(n=120_000, universal_l=4, serial_m=8)
# windows wider than 32 bits, held as int64
WIDE = dataclasses.replace(SMALL, nonoverlapping_m=10, overlapping_m=40)

LENGTHS = (1, 2, 3, 7, 8, 9, 15, 17, 23, 24, 64, 100, 1001)


def random_bits(n, seed):
    return np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)


def hex_pvalues(results):
    return [[float(p).hex() for p in r.pvalues] for r in results]


class TestWindowValues:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_every_width_wrapped(self, n):
        bits = random_bits(n, n)
        for width in range(1, _MAX_WINDOW_BITS + 1):
            got = window_values(bits, width)
            assert got.tolist() == oracles.pattern_values(bits, width, wrap=True).tolist(), width

    @pytest.mark.parametrize("n", LENGTHS)
    def test_narrower_windows_are_top_bits(self, n):
        # wrapped at every position; plain wherever the window ends inside
        bits = random_bits(n, 100 + n)
        wide = window_values(bits, _MAX_WINDOW_BITS).astype(np.int64)
        for m in range(1, _MAX_WINDOW_BITS + 1):
            top = wide >> (_MAX_WINDOW_BITS - m)
            assert top.tolist() == oracles.pattern_values(bits, m, wrap=True).tolist(), m
            if m <= n:
                plain = oracles.pattern_values(bits, m)
                assert top[: n - m + 1].tolist() == plain.tolist(), m

    def test_universal_blocks_are_strided_top_bits(self):
        bits = random_bits(5003, 3)
        wide = window_values(bits, 16)
        for length in range(1, 17):
            n_blocks = bits.size // length
            want = [
                int("".join(map(str, bits[i * length : (i + 1) * length])), 2)
                for i in range(n_blocks)
            ]
            got = wide[: n_blocks * length : length] >> (16 - length)
            assert got.tolist() == want, length

    def test_width_range_checked(self):
        bits = random_bits(100, 4)
        for width in (0, 64):
            with pytest.raises(ValueError):
                window_values(bits, width)

    def test_counts_fold_from_the_widest_window(self, monkeypatch):
        # the holder keeps the widest windows and counts asked for so far and
        # serves narrower ones from them, whatever order the tests ask in;
        # it counts the windows a chunk at a time (2^width at least), here
        # in many chunks
        monkeypatch.setattr(sequence_module, "_COUNT_CHUNK", 64)
        bits = random_bits(4000, 35)
        bits[-7:] = 1  # windows that wrap round the end see the start
        seq = as_sequence(bits)

        def check_windows(m):
            values, width = seq.windows(m)
            top = values.astype(np.int64) >> (width - m)
            assert top.tolist() == oracles.pattern_values(bits, m, wrap=True).tolist(), m

        def check_counts(m):
            want = np.zeros(2**m, dtype=np.int64)
            for value, count in oracles.oracle_cyclic_counts(bits, m).items():
                want[value] = count
            assert np.array_equal(seq.cyclic_counts(m), want), m

        check_windows(9)
        check_windows(20)
        assert seq.windows(9)[1] == 20  # narrower after wider: the kept ones
        for m in (3, 4, 2, 11, 6, 1, 11, 5):  # narrow, wider, narrow again
            check_counts(m)
        check_windows(7)


def check_walk(bits):
    # the summary against the partial sums, one Python int at a time
    sums = oracles.oracle_walk(bits)
    walk = as_sequence(bits).walk()
    assert (walk.low, walk.high, walk.total) == (min(sums), max(sums), sums[-1])
    assert walk.cycles == oracles.oracle_walk_cycles(bits)[0]
    assert walk.near.dtype == np.int8
    assert walk.near.tolist() == [s for s in sums if abs(s) <= 9]


class TestWalk:
    @pytest.mark.parametrize("n", [1, 2, 17, 1000])
    def test_partial_sums_and_cycles(self, n):
        check_walk(random_bits(n, 40 + n))

    def test_returns_to_zero_at_the_end(self):
        bits = np.array([1, 0, 0, 1, 1, 0], dtype=np.uint8)
        assert as_sequence(bits).walk().cycles == oracles.oracle_walk_cycles(bits)[0] == 3

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunks_carry_the_walk(self, monkeypatch, chunk):
        # a biased stretch leaves [-9, 9] and a later one comes back across zero
        monkeypatch.setattr(sequence_module, "_WALK_CHUNK", chunk)
        rng = np.random.default_rng(41)
        bits = np.concatenate([rng.random(300) < 0.7, rng.random(700) < 0.35]).astype(np.uint8)
        check_walk(bits)
        assert max(map(abs, oracles.oracle_walk(bits))) > 20


class TestOverlappingBlocks:
    @pytest.mark.parametrize("m", [9, 3, 4])
    def test_pvalue_from_per_block_oracle_counts(self, m):
        block_len = 1032
        bits = random_bits(block_len * 60 + block_len // 2, m)
        bits[: block_len * 3] = 1  # some blocks past the top class
        params = dataclasses.replace(SMALL, overlapping_m=m)
        n_blocks = bits.size // block_len
        freq = [0] * 6
        for j in range(n_blocks):
            block = bits[j * block_len : (j + 1) * block_len]
            freq[min(oracles.oracle_overlapping_count(block, [1] * m), 5)] += 1
        pi = _overlapping_law(m)
        chi2 = sum((freq[i] - n_blocks * pi[i]) ** 2 / (n_blocks * pi[i]) for i in range(6))
        got = overlapping_template_test(bits, params).pvalues[0]
        assert got == pytest.approx(igamc(2.5, chi2 / 2.0), rel=1e-12, abs=1e-300)


class TestGroups:
    def test_group_complexities_match_scalar_reference(self, monkeypatch):
        n, count, m = 6_000, 5, 100
        monkeypatch.setattr(sequence_module, "_GROUP_BYTES", 2 * n)
        stream = BitStream.from_array(random_bits(count * n, 9))
        for s, seq in enumerate(battery_sequences(stream, count, n)):
            bits = stream.to_array()[s * n : (s + 1) * n]
            want = [oracles.int_berlekamp_massey(bits[i : i + m]) for i in range(0, n, m)]
            assert seq.linear_complexities(m).tolist() == want, s

    @pytest.mark.parametrize("params", [SMALL, WIDE], ids=["standard-windows", "wide-windows"])
    def test_pvalues_equal_alone_and_in_groups(self, monkeypatch, params):
        n, count = params.n, 5
        arrays = [random_bits(n, 50 + s) for s in range(count)]
        stream = BitStream.from_array(np.concatenate(arrays))
        alone = [hex_pvalues(run_battery(bits, params)) for bits in arrays]
        # groups of 1; of 2, which does not divide 5; of all five
        for size in (1, 2, count):
            monkeypatch.setattr(sequence_module, "_GROUP_BYTES", size * n)
            grouped = [
                hex_pvalues(run_battery(seq, params)) for seq in battery_sequences(stream, count, n)
            ]
            assert grouped == alone, size

    def test_cli_outputs_do_not_depend_on_the_group_size(self, tmp_path, monkeypatch):
        n, count = SMALL.n, 3
        raw = tmp_path / "raw.bits"
        write_bits(raw, BitStream.from_array(random_bits(count * n, 60)))
        cfg = tmp_path / "suite.ini"
        cfg.write_text(
            f"[suite]\nsequences = {count}\nsequence_length = {n}\n"
            f"universal_l = {SMALL.universal_l}\nserial_m = {SMALL.serial_m}\n"
        )
        outputs = []
        for budget in (sequence_module._GROUP_BYTES, n):
            monkeypatch.setattr(sequence_module, "_GROUP_BYTES", budget)
            out = tmp_path / f"out{budget}"
            argv = ["test", "--config", str(cfg), "--in", str(raw), "--out-dir", str(out)]
            assert main(argv) in (0, 1)
            outputs.append([(out / f).read_bytes() for f in ("report.tsv", "report.json", "test.meta")])
        assert outputs[0] == outputs[1]

    def test_holder_is_sized_like_its_sequence(self):
        bits = random_bits(1000, 7)
        seq = as_sequence(bits)
        assert len(seq) == 1000
        assert as_sequence(seq) is seq
        assert as_sequence(BitStream.from_array(bits)).bits.tolist() == bits.tolist()
        with pytest.raises(ValueError):
            as_sequence(np.zeros((2, 2), dtype=np.uint8))

    @pytest.mark.parametrize("bad", [256, -255, 0.5])
    def test_holder_rejects_values_the_uint8_cast_would_hide(self, bad):
        bits = random_bits(1000, 8).astype(type(bad))
        bits[500] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            as_sequence(bits)
        assert as_sequence(bits.astype(bool)).bits.dtype == np.uint8

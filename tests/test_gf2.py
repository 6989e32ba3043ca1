import numpy as np
import pytest

from oracles import (
    brute_force_lfsr_length,
    gf2_rank_oracle,
    int_berlekamp_massey,
    rank_class_probability,
    textbook_berlekamp_massey,
)
from rtdrng.nist.gf2 import berlekamp_massey, column_complexities, gf2_rank, gf2_ranks


def random_blocks(shape, seed):
    return (np.random.default_rng(seed).random(shape) < 0.5).astype(np.uint8)


def row_complexities(blocks):
    # the kernel reads blocks as columns
    return column_complexities(np.ascontiguousarray(blocks.T))


class TestBerlekampMassey:
    def test_all_zeros(self):
        assert berlekamp_massey([0, 0, 0, 0, 0]) == 0

    def test_impulse_at_end(self):
        assert berlekamp_massey([0, 0, 0, 0, 1]) == 5

    def test_alternating(self):
        assert berlekamp_massey([1, 0, 1, 0, 1, 0]) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            berlekamp_massey([])

    @pytest.mark.parametrize("length", range(1, 9))
    def test_exhaustive_against_brute_force(self, length):
        for value in range(2**length):
            seq = [(value >> k) & 1 for k in range(length)]
            assert berlekamp_massey(seq) == brute_force_lfsr_length(seq)

    def test_matches_textbook_formulation_on_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            seq = (rng.random(rng.integers(10, 300)) < 0.5).astype(np.uint8)
            assert berlekamp_massey(seq) == textbook_berlekamp_massey(seq)

    def test_expected_complexity_of_random_blocks(self):
        # random 500-bit blocks concentrate near length/2
        rng = np.random.default_rng(2)
        values = [berlekamp_massey((rng.random(500) < 0.5).astype(np.uint8)) for _ in range(50)]
        assert all(246 <= v <= 254 for v in values)


class TestLinearComplexities:
    def test_suite_geometry_against_scalar_references(self):
        # the 1M-bit geometry: 2000 blocks of 500 bits, in one lockstep call
        blocks = random_blocks((2000, 500), 6)
        got = row_complexities(blocks).tolist()
        assert got == [int_berlekamp_massey(b) for b in blocks]
        # the array formulation is slow in pure Python: a sample of the rows
        assert got[::20] == [textbook_berlekamp_massey(b) for b in blocks[::20]]

    def test_lengths_across_word_edges(self):
        # state words hold 64 bits: lengths 1..130 cross the 64- and 128-bit edges
        for length in range(1, 131):
            blocks = random_blocks((6, length), 100 + length)
            assert row_complexities(blocks).tolist() == [
                textbook_berlekamp_massey(b) for b in blocks
            ], length

    @pytest.mark.parametrize("length", [1, 2, 63, 64, 65, 127, 128, 129, 500])
    def test_degenerate_blocks(self, length):
        zeros = np.zeros(length, dtype=np.uint8)
        ones = np.ones(length, dtype=np.uint8)
        impulse = zeros.copy()
        impulse[-1] = 1  # only an LFSR of full length produces a late first 1
        got = row_complexities(np.stack([zeros, ones, impulse]))
        assert got.tolist() == [0, 1, length]

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            berlekamp_massey(np.zeros((3, 10), dtype=np.uint8))


class TestRanks:
    def test_every_rank_against_oracle(self):
        # random 32x32 matrices almost never fall below rank 30: build
        # products of random 32xk and kx32 factors for every k
        rng = np.random.default_rng(8)
        stacks = []
        for k in range(33):
            left = rng.integers(0, 2, (3, 32, k))
            right = rng.integers(0, 2, (3, k, 32))
            stacks.append((left @ right) % 2)
        stacks.append(np.zeros((1, 32, 32), dtype=np.int64))
        stacks.append(np.eye(32, dtype=np.int64)[None])
        matrices = np.concatenate(stacks).astype(np.uint8)
        got = gf2_ranks(matrices).tolist()
        assert got == [gf2_rank_oracle(m) for m in matrices]
        assert set(got) == set(range(33))

    def test_random_stack_against_oracle(self):
        matrices = random_blocks((300, 32, 32), 9)
        assert gf2_ranks(matrices).tolist() == [gf2_rank_oracle(m) for m in matrices]

    def test_wide_and_tall_rows_span_words(self):
        rng = np.random.default_rng(10)
        for shape in ((3, 130), (130, 3), (70, 70), (64, 65)):
            for rank in (1, min(shape) // 2, min(shape)):
                m = (rng.integers(0, 2, (shape[0], rank)) @ rng.integers(0, 2, (rank, shape[1]))) % 2
                assert gf2_rank(m) == gf2_rank_oracle(m), (shape, rank)


class TestRank:
    def test_identity(self):
        assert gf2_rank(np.eye(32, dtype=np.uint8)) == 32

    def test_zero_matrix(self):
        assert gf2_rank(np.zeros((32, 32), dtype=np.uint8)) == 0

    def test_duplicate_rows_collapse(self):
        m = np.zeros((4, 4), dtype=np.uint8)
        m[0] = [1, 0, 1, 0]
        m[1] = [1, 0, 1, 0]
        m[2] = [0, 1, 0, 0]
        assert gf2_rank(m) == 2

    def test_random_against_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = (rng.random((32, 32)) < 0.5).astype(np.uint8)
            assert gf2_rank(m) == gf2_rank_oracle(m)

    def test_rectangular(self):
        rng = np.random.default_rng(4)
        for shape in ((5, 9), (9, 5), (1, 7)):
            m = (rng.random(shape) < 0.5).astype(np.uint8)
            assert gf2_rank(m) == gf2_rank_oracle(m)

    def test_rank_class_frequencies(self):
        # empirical {32, 31, <=30} frequencies vs the exact distribution
        rng = np.random.default_rng(5)
        trials = 10_000
        # one batch draws the same stream as one (32, 32) draw per trial
        ranks = gf2_ranks((rng.random((trials, 32, 32)) < 0.5).astype(np.uint8))
        counts = {
            "full": int(np.count_nonzero(ranks == 32)),
            "minus1": int(np.count_nonzero(ranks == 31)),
            "rest": int(np.count_nonzero(ranks < 31)),
        }
        probs = {
            "full": rank_class_probability(32, 32),
            "minus1": rank_class_probability(32, 31),
        }
        probs["rest"] = 1.0 - probs["full"] - probs["minus1"]
        for key, p in probs.items():
            sigma = (p * (1 - p) / trials) ** 0.5
            assert abs(counts[key] / trials - p) < 3 * sigma

    def test_class_probabilities_sane(self):
        assert rank_class_probability(32, 32) == pytest.approx(0.2888, abs=2e-4)
        assert rank_class_probability(32, 31) == pytest.approx(0.5776, abs=2e-4)

import numpy as np
import pytest

from oracles import (
    brute_force_lfsr_length,
    gf2_rank_oracle,
    int_berlekamp_massey,
    rank_class_probability,
    textbook_berlekamp_massey,
)
import rtdrng.nist.gf2 as gf2
from rtdrng.nist.gf2 import column_complexities, gf2_ranks


def random_blocks(shape, seed):
    return (np.random.default_rng(seed).random(shape) < 0.5).astype(np.uint8)


def row_complexities(blocks):
    # the kernel reads blocks as columns
    return column_complexities(np.ascontiguousarray(blocks.T))


class TestBerlekampMassey:
    def test_all_zeros(self):
        assert row_complexities(np.array([[0, 0, 0, 0, 0]], dtype=np.uint8)).tolist() == [0]

    def test_impulse_at_end(self):
        assert row_complexities(np.array([[0, 0, 0, 0, 1]], dtype=np.uint8)).tolist() == [5]

    def test_alternating(self):
        assert row_complexities(np.array([[1, 0, 1, 0, 1, 0]], dtype=np.uint8)).tolist() == [2]

    @pytest.mark.parametrize("length", range(1, 9))
    def test_exhaustive_against_brute_force(self, length):
        # row v holds bits k = 0..length-1 of value v
        blocks = ((np.arange(2**length)[:, None] >> np.arange(length)) & 1).astype(np.uint8)
        want = [brute_force_lfsr_length(seq.tolist()) for seq in blocks]
        assert row_complexities(blocks).tolist() == want

    def test_matches_textbook_formulation_on_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            seq = (rng.random(rng.integers(10, 300)) < 0.5).astype(np.uint8)
            assert row_complexities(seq[None]).tolist() == [textbook_berlekamp_massey(seq)]

    def test_expected_complexity_of_random_blocks(self):
        # random 500-bit blocks concentrate near length/2
        rng = np.random.default_rng(2)
        values = row_complexities((rng.random((50, 500)) < 0.5).astype(np.uint8))
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

    @pytest.mark.parametrize("length", [64, 500])
    @pytest.mark.parametrize("count", [1, 63, 64, 65, 129, 1100])
    @pytest.mark.parametrize("degenerate", [True, False])
    def test_lanes_against_scalar_reference(self, count, length, degenerate):
        # 64 blocks share a word and the last word is padded, so the row
        # bounds (max L and min L over the real blocks) see every mix of
        # lengths; degenerate blocks pin min L at 0 and 1 and push max L
        # to the block length, random ones keep min L near t / 2
        blocks = random_blocks((count, length), 7 * count + length)
        if degenerate:
            impulse = np.zeros(length, dtype=np.uint8)
            impulse[-1] = 1
            lanes = [np.zeros(length), np.ones(length), impulse, np.arange(length) % 2]
            for j, lane in enumerate(lanes):
                blocks[(count - 1 - j * (count // 4 + 1)) % count] = lane
        got = row_complexities(blocks).tolist()
        assert got == [int_berlekamp_massey(b) for b in blocks]

    def test_padding_lanes_add_no_work(self, monkeypatch):
        # padding lanes stay at L = 0: counted in the row bounds they would
        # pin min L at 0 and widen every update, with exact results still
        class RowCountingNumpy:
            def __init__(self):
                self.rows = []

            def __getattr__(self, name):
                return getattr(np, name)

            def bitwise_and(self, *args, out, **kwargs):
                self.rows.append(out.shape[0])
                return np.bitwise_and(*args, out=out, **kwargs)

        def rows_touched(blocks):
            counting = RowCountingNumpy()
            monkeypatch.setattr(gf2, "np", counting)
            got = row_complexities(blocks)
            monkeypatch.undo()
            return got, counting.rows

        blocks = random_blocks((65, 500), 12)
        # 63 duplicates fill the second word: no padding, same min and max L
        padded, padded_rows = rows_touched(blocks)
        full, full_rows = rows_touched(np.concatenate((blocks, blocks[:63])))
        assert full.tolist() == padded.tolist() + padded.tolist()[:63]
        assert full_rows == padded_rows


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
            stack = np.stack([
                (rng.integers(0, 2, (shape[0], rank)) @ rng.integers(0, 2, (rank, shape[1]))) % 2
                for rank in (1, min(shape) // 2, min(shape))
            ])
            assert gf2_ranks(stack).tolist() == [gf2_rank_oracle(m) for m in stack], shape


class TestRank:
    def test_identity(self):
        assert gf2_ranks(np.eye(32, dtype=np.uint8)[None]).tolist() == [32]

    def test_zero_matrix(self):
        assert gf2_ranks(np.zeros((1, 32, 32), dtype=np.uint8)).tolist() == [0]

    def test_duplicate_rows_collapse(self):
        m = np.zeros((4, 4), dtype=np.uint8)
        m[0] = [1, 0, 1, 0]
        m[1] = [1, 0, 1, 0]
        m[2] = [0, 1, 0, 0]
        assert gf2_ranks(m[None]).tolist() == [2]

    def test_random_against_oracle(self):
        rng = np.random.default_rng(3)
        # one batch draws the same stream as one (32, 32) draw per matrix
        matrices = (rng.random((100, 32, 32)) < 0.5).astype(np.uint8)
        assert gf2_ranks(matrices).tolist() == [gf2_rank_oracle(m) for m in matrices]

    def test_rectangular(self):
        rng = np.random.default_rng(4)
        for shape in ((5, 9), (9, 5), (1, 7)):
            m = (rng.random(shape) < 0.5).astype(np.uint8)
            assert gf2_ranks(m[None]).tolist() == [gf2_rank_oracle(m)]

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

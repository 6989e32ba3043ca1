import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rtdrng.extractor as extractor
from oracles import seeded_hash_block, toeplitz_hash_oracle
from rtdrng.bits import BitStream
from rtdrng.extractor import (
    ExtractorConfig,
    InsufficientEntropyError,
    choose_block_params,
    derive_seed,
    extract,
    min_entropy_estimate,
)


def stream_of(bits):
    return BitStream.from_array(np.asarray(bits, dtype=np.uint8))


def random_bits(n, seed, p=0.5):
    rng = np.random.default_rng(seed)
    return (rng.random(n) < p).astype(np.uint8)


def chunk_bytes(n, l, rows):
    """A _CHUNK_BYTES under which extract hashes `rows` blocks a chunk.

    A block is budgeted its packed bytes, two ceil(l/8)-byte buffers and l
    unpacked output bits, and n + ceil(n/8) more to repack it where n is
    not a multiple of 8.
    """
    in_bytes, out_bytes = -(-n // 8), -(-l // 8)
    return rows * (in_bytes + 2 * out_bytes + l + (n + in_bytes if n % 8 else 0))


def oracle_geometries():
    for n in (2, 7, 8, 9, 13, 1000, 1001):
        for l in sorted({1, 7, 8, n - 1}):
            if l < n:
                yield n, l


class TestMinEntropy:
    def test_all_zeros(self):
        assert min_entropy_estimate(stream_of(np.zeros(1000))) == 0.0

    def test_balanced(self):
        bits = np.tile([0, 1], 500).astype(np.uint8)
        assert min_entropy_estimate(stream_of(bits)) == pytest.approx(1.0)

    def test_three_quarters(self):
        bits = np.tile([0, 0, 0, 1], 250).astype(np.uint8)
        assert min_entropy_estimate(stream_of(bits)) == pytest.approx(0.4150374992)

    def test_short_stream_rejected(self):
        with pytest.raises(ValueError):
            min_entropy_estimate(stream_of(np.zeros(999)))


class TestBlockSizing:
    def test_full_entropy(self):
        assert choose_block_params(1.0, 1000, 64) == 872

    def test_calibrated_output_ratio(self):
        # reproduces the 0.33 output/input ratio of the default geometry
        assert choose_block_params(0.394, 1000, 32) == 330

    def test_no_entropy(self):
        with pytest.raises(ValueError):
            choose_block_params(0.0, 1000, 32)

    def test_insufficient(self):
        with pytest.raises(InsufficientEntropyError):
            choose_block_params(0.05, 1000, 32)

    def test_penalty_scaling(self):
        assert choose_block_params(1.0, 1000, 32) == 936


class TestSeededHash:
    def test_explicit_small_case(self):
        seed = [1, 0, 1, 1, 0]
        block = [1, 1, 0, 1]
        assert seeded_hash_block(seed, block, 2).tolist() == toeplitz_hash_oracle(seed, block, 2)

    def test_zero_block_maps_to_zero(self):
        seed = random_bits(63, 3)
        out = seeded_hash_block(seed, np.zeros(32, dtype=np.uint8), 32)
        assert not out.any()

    def test_matches_oracle_on_random_cases(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            l = int(rng.integers(1, n))
            seed = (rng.random(n + l - 1) < 0.5).astype(np.uint8)
            block = (rng.random(n) < 0.5).astype(np.uint8)
            assert seeded_hash_block(seed, block, l).tolist() == toeplitz_hash_oracle(
                seed, block, l
            )

    def test_linearity(self):
        rng = np.random.default_rng(9)
        seed = (rng.random(96 + 24 - 1) < 0.5).astype(np.uint8)
        for _ in range(100):
            x = (rng.random(96) < 0.5).astype(np.uint8)
            y = (rng.random(96) < 0.5).astype(np.uint8)
            lhs = seeded_hash_block(seed, x ^ y, 24)
            rhs = seeded_hash_block(seed, x, 24) ^ seeded_hash_block(seed, y, 24)
            assert np.array_equal(lhs, rhs)

    def test_seed_length_enforced(self):
        with pytest.raises(ValueError):
            seeded_hash_block(np.zeros(10, dtype=np.uint8), np.zeros(8, dtype=np.uint8), 2)


class TestExtract:
    def make_cfg(self, n, l, seed_seed=1):
        seed = random_bits(n + l - 1, seed_seed)
        return ExtractorConfig(n=n, l=l, seed=seed)

    def test_single_block(self):
        cfg = self.make_cfg(64, 16)
        out = extract(stream_of(random_bits(64, 2)), cfg)
        assert len(out) == 16

    def test_floor_semantics(self):
        cfg = self.make_cfg(64, 16)
        out = extract(stream_of(random_bits(2 * 64 + 3, 3)), cfg)
        assert len(out) == 32

    def test_too_short_rejected(self):
        cfg = self.make_cfg(64, 16)
        with pytest.raises(ValueError):
            extract(stream_of(random_bits(63, 4)), cfg)

    def test_matches_per_block_hash(self):
        # the table kernel against the integer single-block path
        cfg = self.make_cfg(1000, 330)
        data = random_bits(5 * 1000 + 17, 5)
        out = extract(stream_of(data), cfg).to_array()
        for b in range(5):
            block = data[b * 1000 : (b + 1) * 1000]
            expected = seeded_hash_block(cfg.seed, block, 330)
            assert np.array_equal(out[b * 330 : (b + 1) * 330], expected)

    @pytest.mark.parametrize("rows", [1, 3, 8])
    @pytest.mark.parametrize("n, l", [(8, 3), (13, 5), (1000, 330), (1001, 913)])
    def test_chunk_geometry_matches_per_block_hash(self, monkeypatch, n, l, rows):
        # odd n puts block starts mid-byte, odd l puts chunk outputs mid-byte;
        # 17 blocks leave a short last chunk, and a partial block trails
        monkeypatch.setattr(extractor, "_CHUNK_BYTES", chunk_bytes(n, l, rows))
        chunks = []

        class CountingPacker(extractor.BitWriter):
            def append(self, bits):
                chunks.append(bits.size)
                super().append(bits)

        monkeypatch.setattr(extractor, "BitWriter", CountingPacker)
        cfg = self.make_cfg(n, l, seed_seed=n + rows)
        data = random_bits(17 * n + n // 2, n)
        out = extract(stream_of(data), cfg).to_array()
        assert out.size == 17 * l
        assert chunks == [rows * l] * (17 // rows) + [17 % rows * l] * (17 % rows > 0)
        for b in range(17):
            expected = seeded_hash_block(cfg.seed, data[b * n : (b + 1) * n], l)
            assert np.array_equal(out[b * l : (b + 1) * l], expected)

    @pytest.mark.parametrize("n, l", list(oracle_geometries()))
    def test_table_kernel_matches_oracles(self, monkeypatch, n, l):
        # the blocks' full bytes first run through all 256 values; three
        # blocks a chunk leave a short last chunk, and a partial block trails
        rng = np.random.default_rng(1009 * n + l)
        seed = rng.integers(0, 2, n + l - 1, dtype=np.uint8)
        seed[-1] = 1
        full = n // 8
        sweep = -(-256 // full) if full else 0
        blocks = sweep + 4
        data = rng.integers(0, 2, blocks * n + n // 2, dtype=np.uint8)
        values = np.resize(np.arange(256, dtype=np.uint8), (sweep, full))
        data[: sweep * n].reshape(sweep, n)[:, : 8 * full] = np.unpackbits(values, axis=1)
        monkeypatch.setattr(extractor, "_CHUNK_BYTES", chunk_bytes(n, l, 3))
        out = extract(stream_of(data), ExtractorConfig(n=n, l=l, seed=seed)).to_array()
        hashed, inputs = out.reshape(blocks, l), data[: blocks * n].reshape(blocks, n)
        for b in range(blocks):
            assert np.array_equal(hashed[b], seeded_hash_block(seed, inputs[b], l))
        for b in (0, blocks - 1):
            assert hashed[b].tolist() == toeplitz_hash_oracle(seed, inputs[b], l)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_table_kernel_property(self, data):
        n = data.draw(st.integers(2, 80))
        l = data.draw(st.integers(1, n - 1))
        blocks = data.draw(st.integers(1, 9))
        budget = data.draw(st.integers(1, chunk_bytes(n, l, 4)))
        seed = np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=n + l - 1, max_size=n + l - 1)),
            dtype=np.uint8,
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        bits = rng.integers(0, 2, blocks * n + data.draw(st.integers(0, n - 1)), dtype=np.uint8)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extractor, "_CHUNK_BYTES", budget)
            out = extract(stream_of(bits), ExtractorConfig(n=n, l=l, seed=seed)).to_array()
        expected = [seeded_hash_block(seed, bits[b * n : (b + 1) * n], l) for b in range(blocks)]
        assert np.array_equal(out, np.concatenate(expected))

    def test_linearity_over_xor(self):
        cfg = self.make_cfg(128, 40)
        x = random_bits(3 * 128, 6)
        y = random_bits(3 * 128, 7)
        lhs = extract(stream_of(x ^ y), cfg).to_array()
        rhs = extract(stream_of(x), cfg).to_array() ^ extract(stream_of(y), cfg).to_array()
        assert np.array_equal(lhs, rhs)

    def test_determinism(self):
        cfg = self.make_cfg(256, 80)
        data = stream_of(random_bits(10 * 256, 8))
        assert extract(data, cfg) == extract(data, cfg)

    def test_requires_seed(self):
        cfg = ExtractorConfig(n=64, l=16, seed=None)
        with pytest.raises(ValueError):
            extract(stream_of(random_bits(64, 9)), cfg)

    def test_requires_fixed_l(self):
        with pytest.raises(ValueError, match="fixed l"):
            extract(stream_of(random_bits(64, 9)), ExtractorConfig(n=64, l=None))
        with pytest.raises(ValueError, match="fixed l"):
            ExtractorConfig(n=64, l=None, seed=np.zeros(79, dtype=np.uint8))

    def test_two_universal_collision_bound_quick(self):
        # fraction of random seeds with hash(x) == hash(y) stays near 2^-l
        n, l, trials = 32, 8, 20_000
        rng = np.random.default_rng(10)
        x = (rng.random(n) < 0.5).astype(np.uint8)
        y = x.copy()
        y[:4] ^= 1
        z = x ^ y
        seeds = (rng.random((trials, n + l - 1)) < 0.5).astype(np.uint8)
        windows = np.lib.stride_tricks.sliding_window_view(seeds, n, axis=1)[:, :l, :]
        outputs = windows.astype(np.int64) @ z.astype(np.int64) & 1
        collisions = float(np.mean(~outputs.any(axis=1)))
        bound = 2.0**-l
        sigma = (bound * (1 - bound) / trials) ** 0.5
        assert collisions <= bound + 3 * sigma

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_linearity_property(self, data):
        n = data.draw(st.integers(2, 24))
        l = data.draw(st.integers(1, n - 1))
        seed = np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=n + l - 1, max_size=n + l - 1)),
            dtype=np.uint8,
        )
        x = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
        lhs = seeded_hash_block(seed, x ^ y, l)
        rhs = seeded_hash_block(seed, x, l) ^ seeded_hash_block(seed, y, l)
        assert np.array_equal(lhs, rhs)


class TestUniformization:
    def test_biased_source_passes_basic_tests_after_extraction(self):
        # end to end: Bernoulli(0.6) input, output length sized from the
        # measured min-entropy, then frequency and runs on 10 subsequences
        from rtdrng.nist.battery import pass_threshold
        from rtdrng.nist.statistical_tests import TestParams, frequency_test, runs_test

        rng = np.random.default_rng(606)
        raw = stream_of((rng.random(10**7) < 0.6).astype(np.uint8))
        h_min = min_entropy_estimate(raw)
        assert 0.7 < h_min < 0.8  # -log2(0.6) = 0.737 plus sampling noise
        n = 1000
        l = choose_block_params(h_min, n, 32)
        seed = derive_seed(raw, n, l)
        out = extract(raw, ExtractorConfig(n=n, l=l, seed=seed)).to_array()
        seq_len = out.size // 10
        params = TestParams(n=seq_len)
        threshold = pass_threshold(10, 0.05)
        for test in (frequency_test, runs_test):
            passing = sum(
                1
                for s in range(10)
                if test(out[s * seq_len : (s + 1) * seq_len], params).pvalues[0] >= 0.05
            )
            assert passing >= threshold


class TestSeedDerivation:
    def test_deterministic_and_sized(self):
        data = stream_of(random_bits(20000, 11))
        a = derive_seed(data, 1000, 330)
        b = derive_seed(data, 1000, 330)
        assert np.array_equal(a, b)
        assert a.size == 1000 + 330 - 1
        assert set(np.unique(a)) <= {0, 1}

    def test_needs_enough_material(self):
        data = stream_of(random_bits(1000, 12))
        with pytest.raises(ValueError):
            derive_seed(data, 1000, 330)

    def test_depends_on_material(self):
        a = derive_seed(stream_of(random_bits(20000, 13)), 1000, 330)
        b = derive_seed(stream_of(random_bits(20000, 14)), 1000, 330)
        assert not np.array_equal(a, b)


class TestConfig:
    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            ExtractorConfig(n=100, l=100)

    def test_block_length_within_float32_exactness(self):
        # n is capped at 2^24, and checking the cap allocates nothing of size n
        tracemalloc.start()
        try:
            assert ExtractorConfig(n=2**24, l=1).n == 2**24
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16  # validation allocates nothing of size n
        with pytest.raises(ValueError, match="2\\^24"):
            ExtractorConfig(n=2**24 + 1, l=1)

    @pytest.mark.parametrize("bad", [256, -255, 0.5])
    def test_seed_values_checked_before_the_cast(self, bad):
        # the uint8 cast would wrap 256 to 0 and -255 to 1, and truncate 0.5 to 0
        seed = random_bits(129, 16).astype(type(bad))
        seed[-1] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            ExtractorConfig(n=100, l=30, seed=seed)
        assert ExtractorConfig(n=100, l=30, seed=seed.astype(bool)).seed.dtype == np.uint8

    def test_seed_length_checked(self):
        with pytest.raises(ValueError):
            ExtractorConfig(n=100, l=30, seed=np.zeros(10, dtype=np.uint8))

    def test_fingerprint_stable(self):
        seed = random_bits(129, 15)
        a = ExtractorConfig(n=100, l=30, seed=seed)
        b = ExtractorConfig(n=100, l=30, seed=seed.copy())
        assert a.seed_fingerprint() == b.seed_fingerprint()
        assert len(a.seed_fingerprint()) == 16

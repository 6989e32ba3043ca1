import math
from math import erfc

import numpy as np
import pytest

import oracles
from rtdrng.nist.special import igamc
from rtdrng.nist.statistical_tests import (
    SequenceTooShortError,
    TEST_ORDER,
    TestId,
    TestParams,
    approximate_entropy_test,
    block_frequency_test,
    cumulative_sums_test,
    fft_test,
    frequency_test,
    linear_complexity_test,
    longest_run_test,
    non_overlapping_template_test,
    overlapping_template_test,
    random_excursions_test,
    random_excursions_variant_test,
    rank_test,
    run_test,
    runs_test,
    serial_test,
    universal_test,
)
from rtdrng.nist.templates import aperiodic_template_values

PARAMS = TestParams()


def random_bits(n, seed, p=0.5):
    return (np.random.default_rng(seed).random(n) < p).astype(np.uint8)


class TestParamResolution:
    def test_million_bit_defaults(self):
        p = TestParams()
        assert p.resolved_longest_run(1_000_000) == (10_000, 100)
        assert p.resolved_universal(1_000_000) == (7, 1280, 141_577)
        assert 1_000_000 // p.nonoverlapping_blocks == 125_000
        assert 1_000_000 // p.overlapping_block_len == 968
        assert 1_000_000 // p.linear_complexity_block == 2000
        assert p.serial_m == 16
        assert p.approx_entropy_m == 10
        assert p.alpha == 0.05

    def test_shorter_sequences_adapt(self):
        p = TestParams()
        assert p.resolved_longest_run(550_000) == (128, 4296)
        length, q, k = p.resolved_universal(550_000)
        assert (length, q) == (6, 640)
        assert k == 550_000 // 6 - 640

    def test_universal_too_short(self):
        with pytest.raises(SequenceTooShortError):
            TestParams().resolved_universal(100_000)


class TestFrequency:
    def test_spec_example_eight_bits(self):
        result = frequency_test(np.array([1, 1, 0, 1, 0, 0, 1, 1], dtype=np.uint8), PARAMS)
        assert result.pvalues[0] == pytest.approx(erfc(0.5), abs=1e-14)

    def test_all_zeros_fails(self):
        result = frequency_test(np.zeros(1000, dtype=np.uint8), PARAMS)
        assert result.pvalues[0] < 1e-10

    def test_alternation_is_perfect(self):
        result = frequency_test(np.tile([0, 1], 500).astype(np.uint8), PARAMS)
        assert result.pvalues[0] == 1.0

    def test_oracle_agreement(self):
        bits = random_bits(4000, 1)
        assert frequency_test(bits, PARAMS).pvalues[0] == pytest.approx(
            oracles.oracle_frequency_p(bits), abs=1e-12
        )


class TestBlockFrequency:
    def test_oracle_agreement(self):
        for seed, p in ((2, 0.5), (3, 0.55)):
            bits = random_bits(4096, seed, p)
            got = block_frequency_test(bits, PARAMS).pvalues[0]
            want = oracles.oracle_block_frequency_p(bits, PARAMS.block_frequency_m, igamc)
            assert got == pytest.approx(want, abs=1e-12)

    def test_biased_blocks_fail(self):
        bits = random_bits(128 * 100, 4, 0.7)
        assert block_frequency_test(bits, PARAMS).pvalues[0] < 1e-6


class TestCumulativeSums:
    def test_oracle_agreement(self):
        bits = random_bits(5000, 5)
        result = cumulative_sums_test(bits, PARAMS)
        n = bits.size
        z_f = oracles.oracle_cusum_z(bits, backward=False)
        z_b = oracles.oracle_cusum_z(bits, backward=True)
        assert result.pvalues[0] == pytest.approx(oracles.oracle_cusum_p(z_f, n), abs=1e-10)
        assert result.pvalues[1] == pytest.approx(oracles.oracle_cusum_p(z_b, n), abs=1e-10)
        assert result.labels == ("forward", "backward")

    def test_drifting_stream_fails_forward(self):
        bits = np.concatenate([random_bits(2000, 6, 0.7), random_bits(2000, 7, 0.5)])
        assert cumulative_sums_test(bits, PARAMS).pvalues[0] < 1e-6

    def test_null_calibration_monte_carlo(self):
        # independent check of the P-value formula: simulate the true null
        # and confirm the rejection rate at alpha = 0.05
        rng = np.random.default_rng(99)
        n, reps = 10_000, 6000
        from rtdrng.nist.statistical_tests import _cusum_pvalue

        below = 0
        for lo in range(0, reps, 1500):
            x = rng.integers(0, 2, (1500, n), dtype=np.int8).astype(np.int16) * 2 - 1
            z = np.abs(np.cumsum(x, axis=1)).max(axis=1)
            below += int(sum(_cusum_pvalue(float(v), n) < 0.05 for v in z))
        assert abs(below / reps - 0.05) < 0.015


class TestRuns:
    def test_oracle_agreement(self):
        for seed in (8, 9):
            bits = random_bits(3000, seed)
            assert runs_test(bits, PARAMS).pvalues[0] == pytest.approx(
                oracles.oracle_runs_p(bits), abs=1e-12
            )

    def test_monobit_pretest_short_circuits(self):
        bits = random_bits(1000, 10, 0.9)
        assert runs_test(bits, PARAMS).pvalues[0] == 0.0

    def test_constant_sequence_degenerate(self):
        assert runs_test(np.ones(8, dtype=np.uint8), PARAMS).pvalues[0] == 0.0


class TestLongestRun:
    def test_block_scanner_matches_oracle(self):
        bits = random_bits(12_800, 11)
        from rtdrng.nist.statistical_tests import _longest_runs

        expected = oracles.oracle_longest_runs(bits, 128)
        assert _longest_runs(bits.reshape(100, 128)).tolist() == expected

    @pytest.mark.parametrize("m", [8, 128, 10_000])
    def test_batched_runs_match_oracle(self, m):
        from rtdrng.nist.statistical_tests import _longest_runs

        n_blocks = 30
        bits = random_bits(n_blocks * m, m, p=0.8)  # long runs, many touching block edges
        blocks = bits.reshape(n_blocks, m)
        blocks[0] = 0
        blocks[1] = 1
        blocks[2, : m // 2] = 1  # a run that starts a block ...
        blocks[3, m // 2 :] = 1  # ... and one that ends it
        got = _longest_runs(blocks).tolist()
        assert got == oracles.oracle_longest_runs(blocks.ravel(), m)
        assert got[:2] == [0, m]

    def test_statistic_assembly(self):
        bits = random_bits(12_800, 12)
        runs = oracles.oracle_longest_runs(bits, 128)
        pi = (0.1174035788, 0.242955959, 0.249363483, 0.17517706, 0.102701071, 0.112398847)
        freq = [0] * 6
        for r in runs:
            freq[min(max(r, 4), 9) - 4] += 1
        chi2 = sum((freq[i] - 100 * pi[i]) ** 2 / (100 * pi[i]) for i in range(6))
        want = igamc(2.5, chi2 / 2.0)
        assert longest_run_test(bits, PARAMS).pvalues[0] == pytest.approx(want, abs=1e-12)

    def test_long_runs_fail(self):
        bits = np.zeros(12_800, dtype=np.uint8)
        bits[::2] = 1
        bits[:640] = 1  # a very long run in the first blocks
        assert longest_run_test(bits, PARAMS).pvalues[0] < 1e-6


class TestRank:
    def test_statistic_from_oracle_ranks(self):
        bits = random_bits(50 * 1024, 13)
        n_matrices = bits.size // 1024
        full = minus = 0
        for j in range(n_matrices):
            m = bits[j * 1024 : (j + 1) * 1024].reshape(32, 32)
            r = oracles.gf2_rank_oracle(m)
            full += r == 32
            minus += r == 31
        p_full = oracles.rank_class_probability(32, 32)
        p_minus = oracles.rank_class_probability(32, 31)
        p_rest = 1 - p_full - p_minus
        rest = n_matrices - full - minus
        chi2 = (
            (full - n_matrices * p_full) ** 2 / (n_matrices * p_full)
            + (minus - n_matrices * p_minus) ** 2 / (n_matrices * p_minus)
            + (rest - n_matrices * p_rest) ** 2 / (n_matrices * p_rest)
        )
        want = igamc(1.0, chi2 / 2.0)
        assert rank_test(bits, PARAMS).pvalues[0] == pytest.approx(want, abs=1e-12)

    def test_structured_matrices_fail(self):
        bits = np.tile(random_bits(32, 14), 48 * 32)  # identical rows everywhere
        assert rank_test(bits, PARAMS).pvalues[0] < 1e-10


class TestFFT:
    def test_moduli_match_direct_dft(self):
        bits = random_bits(512, 15)
        direct = oracles.oracle_dft_moduli(bits)
        x = 2.0 * bits - 1.0
        fast = np.abs(np.fft.fft(x)[: bits.size // 2])
        assert np.allclose(fast, direct, atol=1e-9)

    def test_statistic_assembly_against_direct_sum(self):
        bits = random_bits(1024, 16)
        n = bits.size
        moduli = oracles.oracle_dft_moduli(bits)
        threshold = math.sqrt(math.log(20.0) * n)
        n1 = sum(1 for m in moduli if m < threshold)
        d = (n1 - 0.95 * n / 2.0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
        want = erfc(abs(d) / math.sqrt(2.0))
        assert fft_test(bits, PARAMS).pvalues[0] == pytest.approx(want, abs=1e-9)

    def test_periodic_signal_fails(self):
        bits = np.tile([1, 1, 0, 0], 2048).astype(np.uint8)
        assert fft_test(bits, PARAMS).pvalues[0] < 1e-6

    @pytest.mark.parametrize("n", [550_000, 1_000_000])
    def test_peak_count_matches_direct_dft_at_suite_lengths(self, n):
        # Only moduli within rounding error of the threshold could be
        # miscounted.  The direct DFT decides the frequencies nearest it; every
        # other modulus must lie far beyond FFT rounding (~1e-9 here).
        threshold = math.sqrt(math.log(20.0) * n)
        for seed in (40, 41, 42):
            bits = random_bits(n, seed)
            fast = np.abs(np.fft.rfft(2.0 * bits - 1.0)[: n // 2])
            order = np.argsort(np.abs(fast - threshold))
            near, rest_gap = order[:4], abs(fast[order[4]] - threshold)
            assert rest_gap > 1e-6
            direct = np.asarray(oracles.oracle_dft_moduli(bits, near))
            assert np.allclose(direct, fast[near], atol=1e-8)
            n1 = int(np.count_nonzero(fast[order[4:]] < threshold))
            n1 += int(np.count_nonzero(direct < threshold))
            d = (n1 - 0.95 * n / 2.0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
            want = erfc(abs(d) / math.sqrt(2.0))
            assert fft_test(bits, PARAMS).pvalues[0] == want


class TestNonOverlappingTemplate:
    def test_counts_match_greedy_oracle(self):
        # aperiodic templates make plain counts equal the skip-on-match scan
        bits = random_bits(3000, 17)
        values = aperiodic_template_values(9)
        for value in (values[0], values[37], values[-1]):
            template = [(value >> (8 - k)) & 1 for k in range(9)]
            greedy = oracles.oracle_nonoverlapping_count(bits, template)
            sliding = oracles.oracle_overlapping_count(bits, template)
            assert greedy == sliding

    def test_emits_one_pvalue_per_template(self):
        bits = random_bits(8 * 2**9 * 4, 18)
        result = non_overlapping_template_test(bits, PARAMS)
        assert len(result.pvalues) == 148
        assert len(set(result.labels)) == 148
        assert all(0.0 <= p <= 1.0 for p in result.pvalues)

    def test_single_template_statistic(self):
        bits = random_bits(40_000, 19)
        params = PARAMS
        block_len = bits.size // 8
        values = aperiodic_template_values(9)
        target = values[5]
        template = [(target >> (8 - k)) & 1 for k in range(9)]
        mean = (block_len - 9 + 1) / 2.0**9
        var = block_len * (2.0**-9 - 17.0 / 2.0**18)
        chi2 = 0.0
        for j in range(8):
            block = bits[j * block_len : (j + 1) * block_len]
            w = oracles.oracle_nonoverlapping_count(block, template)
            chi2 += (w - mean) ** 2 / var
        want = igamc(4.0, chi2 / 2.0)
        result = non_overlapping_template_test(bits, params)
        idx = list(values).index(target)
        assert result.pvalues[idx] == pytest.approx(want, abs=1e-12)

    def test_planted_template_fails_its_row(self):
        rng = np.random.default_rng(20)
        bits = (rng.random(80_000) < 0.5).astype(np.uint8)
        values = aperiodic_template_values(9)
        target = values[0]
        template = np.array([(target >> (8 - k)) & 1 for k in range(9)], dtype=np.uint8)
        for start in range(0, 79_000, 400):
            bits[start : start + 9] = template
        result = non_overlapping_template_test(bits, PARAMS)
        assert result.pvalues[0] < 1e-6


class TestOverlappingTemplate:
    def test_count_matches_oracle(self):
        bits = random_bits(1032 * 6, 21)
        template = [1] * 9
        got = oracles.oracle_overlapping_count(bits[:1024], template)
        w = 0
        for i in range(1024 - 8):
            if np.all(bits[i : i + 9] == 1):
                w += 1
        assert got == w

    def test_standard_pi_values_consistent(self):
        from rtdrng.nist.statistical_tests import _OVERLAPPING_PI_STANDARD

        assert sum(_OVERLAPPING_PI_STANDARD) == pytest.approx(1.0, abs=2e-6)

    def test_formula_fallback_close_to_table(self):
        from rtdrng.nist.statistical_tests import _overlapping_probabilities

        pi = _overlapping_probabilities(1.0, 5)
        assert sum(pi) == pytest.approx(1.0, abs=1e-12)
        assert pi[0] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_all_ones_stream_fails(self):
        bits = np.ones(1032 * 40, dtype=np.uint8)
        assert overlapping_template_test(bits, PARAMS).pvalues[0] < 1e-10

    def test_random_stream_sane(self):
        bits = random_bits(1032 * 200, 22)
        assert overlapping_template_test(bits, PARAMS).pvalues[0] > 1e-4


class TestUniversal:
    def test_fn_matches_dict_oracle(self):
        bits = random_bits(387_840 + 6 * 100, 23)
        length, q, k = PARAMS.resolved_universal(bits.size)
        want_fn = oracles.oracle_universal_fn(bits, length, q, k)
        c = 0.7 - 0.8 / length + (4.0 + 32.0 / length) * k ** (-3.0 / length) / 15.0
        sigma = c * math.sqrt(2.954 / k)  # variance table entry for L = 6
        want = erfc(abs(want_fn - 5.2177052) / (math.sqrt(2.0) * sigma))
        got = universal_test(bits, PARAMS).pvalues[0]
        # summation order differs between the vectorized path and the oracle
        assert got == pytest.approx(want, abs=1e-8)

    def test_periodic_data_fails(self):
        bits = np.tile(random_bits(64, 24), 387_840 // 64 + 200)[:400_000]
        assert universal_test(bits, PARAMS).pvalues[0] < 1e-10


class TestApproximateEntropy:
    def test_phi_matches_oracle(self):
        from rtdrng.nist.statistical_tests import _cyclic_counts, _phi

        # counted once at m = 5, marginalised down to m = 1
        bits = random_bits(5000, 25)
        for m, counts in zip(range(5, 0, -1), _cyclic_counts(bits, 5, 5)):
            want = oracles.oracle_phi(bits, m)
            assert _phi(counts, bits.size) == pytest.approx(want, abs=1e-10)

    def test_statistic_assembly(self):
        bits = random_bits(40_000, 26)
        m = PARAMS.approx_entropy_m
        apen = oracles.oracle_phi(bits, m) - oracles.oracle_phi(bits, m + 1)
        chi2 = 2.0 * bits.size * (math.log(2.0) - apen)
        want = igamc(2.0 ** (m - 1), chi2 / 2.0)
        assert approximate_entropy_test(bits, PARAMS).pvalues[0] == pytest.approx(
            want, abs=1e-10
        )

    def test_periodic_fails(self):
        bits = np.tile([0, 1], 25_000).astype(np.uint8)
        assert approximate_entropy_test(bits, PARAMS).pvalues[0] < 1e-10


class TestSerial:
    def test_psi_matches_oracle(self):
        from rtdrng.nist.statistical_tests import _cyclic_counts, _psi_squared

        # counted once at m = 4, marginalised down to m = 1
        bits = random_bits(3000, 27)
        for m, counts in zip(range(4, 0, -1), _cyclic_counts(bits, 4, 4)):
            assert _psi_squared(counts, bits.size) == pytest.approx(
                oracles.oracle_psi_sq(bits, m), abs=1e-8
            )

    def test_marginalised_counts_are_exact(self):
        # each cyclic (k-1)-bit window is the prefix of one cyclic k-bit window
        from rtdrng.nist.statistical_tests import _cyclic_counts

        bits = random_bits(4000, 35)
        bits[-7:] = 1  # windows that wrap round the end see the start
        for m, counts in zip(range(8, 0, -1), _cyclic_counts(bits, 8, 8)):
            want = np.zeros(2**m, dtype=np.int64)
            for value, count in oracles.oracle_cyclic_counts(bits, m).items():
                want[value] = count
            assert np.array_equal(counts, want), m

    def test_statistic_assembly(self):
        bits = random_bits(300_000, 28)
        m = PARAMS.serial_m
        psi_m = oracles.oracle_psi_sq(bits, m)
        psi_1 = oracles.oracle_psi_sq(bits, m - 1)
        psi_2 = oracles.oracle_psi_sq(bits, m - 2)
        p1 = igamc(2.0 ** (m - 2), (psi_m - psi_1) / 2.0)
        p2 = igamc(2.0 ** (m - 3), (psi_m - 2.0 * psi_1 + psi_2) / 2.0)
        result = serial_test(bits, PARAMS)
        assert result.pvalues[0] == pytest.approx(p1, rel=1e-9, abs=1e-12)
        assert result.pvalues[1] == pytest.approx(p2, rel=1e-9, abs=1e-12)


class TestExcursions:
    def test_pvalues_match_cycle_oracle(self):
        bits = random_bits(1_000_000, 29)
        result = random_excursions_test(bits, PARAMS)
        j, want = oracles.oracle_excursion_pvalues(bits, igamc)
        if j < 500:
            assert not result.applicable
        else:
            assert result.applicable
            assert list(result.pvalues) == pytest.approx(want, abs=1e-10)

    def test_variant_matches_oracle(self):
        bits = random_bits(1_000_000, 30)
        result = random_excursions_variant_test(bits, PARAMS)
        j, want = oracles.oracle_variant_pvalues(bits)
        if j < 500:
            assert not result.applicable
        else:
            assert result.applicable
            assert list(result.pvalues) == pytest.approx(want, abs=1e-10)
            assert len(result.pvalues) == 18

    def test_biased_walk_inapplicable(self):
        bits = random_bits(100_000, 31, 0.6)
        result = random_excursions_test(bits, PARAMS)
        assert not result.applicable
        variant = random_excursions_variant_test(bits, PARAMS)
        assert not variant.applicable


class TestLinearComplexity:
    def test_statistic_assembly_small(self):
        bits = random_bits(200 * 500, 32)
        m = 500
        n_blocks = 200
        mean = m / 2.0 + (9.0 + (-1.0) ** (m + 1)) / 36.0 - (m / 3.0 + 2.0 / 9.0) / 2.0**m
        sign = (-1.0) ** m
        freq = [0] * 7
        bounds = (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5)
        for j in range(n_blocks):
            block = bits[j * m : (j + 1) * m]
            t = sign * (oracles.textbook_berlekamp_massey(block) - mean) + 2.0 / 9.0
            idx = 0
            while idx < 6 and t > bounds[idx]:
                idx += 1
            freq[idx] += 1
        pi = (1 / 96, 1 / 32, 1 / 8, 1 / 2, 1 / 4, 1 / 16, 1 / 48)
        chi2 = sum((freq[i] - n_blocks * pi[i]) ** 2 / (n_blocks * pi[i]) for i in range(7))
        want = igamc(3.0, chi2 / 2.0)
        assert linear_complexity_test(bits, PARAMS).pvalues[0] == pytest.approx(want, abs=1e-10)

    def test_lfsr_output_fails(self):
        # a short LFSR stream has constant low complexity
        state = [1, 0, 0, 1, 1, 0, 1, 0]
        out = []
        for _ in range(100_000):
            out.append(state[-1])
            state = [state[0] ^ state[-1]] + state[:-1]
        bits = np.array(out, dtype=np.uint8)
        assert linear_complexity_test(bits, PARAMS).pvalues[0] < 1e-10


class TestDispatch:
    def test_run_test_routes_all(self):
        bits = random_bits(1032 * 40, 33)
        for test in (TestId.Frequency, TestId.Runs, TestId.CumulativeSums):
            result = run_test(test, PARAMS, bits)
            assert result.test is test

    def test_order_is_canonical(self):
        names = [t.value for t in TEST_ORDER]
        assert names[0] == "Frequency"
        assert names[-1] == "LinearComplexity"
        assert len(names) == 15

    def test_nan_pvalue_rejected_only_when_applicable(self, monkeypatch):
        from rtdrng.nist import statistical_tests as st

        def nan_result(applicable):
            return lambda bits, params: st.TestResult(
                TestId.Frequency, (math.nan,), ("",), applicable=applicable
            )

        bits = random_bits(1000, 36)
        monkeypatch.setitem(st._DISPATCH, TestId.Frequency, nan_result(False))
        assert math.isnan(run_test(TestId.Frequency, PARAMS, bits).pvalues[0])
        monkeypatch.setitem(st._DISPATCH, TestId.Frequency, nan_result(True))
        with pytest.raises(st.PValueRangeError, match="P-value nan"):
            run_test(TestId.Frequency, PARAMS, bits)

    def test_widest_overlapping_window_allowed(self):
        # one bit wider is rejected at load (test_config_cli)
        TestParams(overlapping_m=62)
        TestParams(overlapping_m=20, overlapping_block_len=20)

    def test_too_short_raises(self):
        bits = random_bits(64, 34)
        with pytest.raises(SequenceTooShortError):
            run_test(TestId.Rank, PARAMS, bits)
        with pytest.raises(SequenceTooShortError):
            run_test(TestId.Universal, PARAMS, bits)

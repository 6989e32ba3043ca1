"""The fifteen SP 800-22 statistical tests.

Each test maps a 0/1 sequence to one or more P-values, computed from the
statistic definitions in NIST SP 800-22 rev. 1a.  Tests that partition the
sequence derive their block counts from the actual sequence length, so the
same parameter set serves both 550000- and 1000000-bit sequences; at one
million bits the resolved values match the classic defaults (longest-run
M=10000/N=100, non-overlapping M=125000/N=8, overlapping M=1032/N=968,
universal L=7/Q=1280/K=141577, linear complexity N=2000).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import erfc

import numpy as np

from .gf2 import gf2_ranks
from .sequence import as_sequence
from .special import igamc, normal_cdf

_LOG_ALPHA_SPECTRAL = math.log(20.0)  # the spectral test's fixed 95 % threshold

# Longest-run-of-ones class boundaries and probabilities per block size M.
_LONGEST_RUN_TABLES = {
    8: ((1, 4), (0.21484375, 0.3671875, 0.23046875, 0.1875)),
    128: (
        (4, 9),
        (0.1174035788, 0.242955959, 0.249363483, 0.17517706, 0.102701071, 0.112398847),
    ),
    10000: ((10, 16), (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
}

# Maurer's universal test: expected value and variance of a single-block
# log-distance, indexed by block length L.
_UNIVERSAL_EXPECTED = {
    1: 0.7326495, 2: 1.5374383, 3: 2.4016068, 4: 3.3112247,
    5: 4.2534266, 6: 5.2177052, 7: 6.1962507, 8: 7.1836656,
    9: 8.1764248, 10: 9.1723243, 11: 10.170032, 12: 11.168765,
    13: 12.168070, 14: 13.167693, 15: 14.167488, 16: 15.167379,
}
_UNIVERSAL_VARIANCE = {
    1: 0.690, 2: 1.338, 3: 1.901, 4: 2.358, 5: 2.705, 6: 2.954,
    7: 3.125, 8: 3.238, 9: 3.311, 10: 3.356, 11: 3.384, 12: 3.401,
    13: 3.410, 14: 3.416, 15: 3.419, 16: 3.421,
}
# (minimum n, L) selection thresholds for the universal test.
_UNIVERSAL_N_THRESHOLDS = (
    (1059061760, 16), (496435200, 15), (231669760, 14), (107560960, 13),
    (49643520, 12), (22753280, 11), (10342400, 10), (4654080, 9),
    (2068480, 8), (904960, 7), (387840, 6),
)

# SP 800-22's printed overlapping-template table at the standard geometry
# (m=9, M=1032): the exact law to six digits (within 4.5e-7), kept as data
# so the standard's P-values stay those of the NIST suite.
_OVERLAPPING_PI_STANDARD = (0.364091, 0.185659, 0.139381, 0.100571, 0.070432, 0.139865)

_LINEAR_COMPLEXITY_PI = (1 / 96, 1 / 32, 1 / 8, 1 / 2, 1 / 4, 1 / 16, 1 / 48)
_LINEAR_COMPLEXITY_BOUNDS = (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5)

_EXCURSION_MIN_CYCLES = 500

_MAX_WINDOW_BITS = 62  # widest overlapping-template window accepted


class SequenceTooShortError(ValueError):
    """Sequence below the test's practical minimum length."""


class PValueRangeError(ValueError):
    """A test produced a P-value outside [0, 1]: a defect in that test."""


class TestId(Enum):
    Frequency = "Frequency"
    BlockFrequency = "BlockFrequency"
    CumulativeSums = "CumulativeSums"
    Runs = "Runs"
    LongestRun = "LongestRun"
    Rank = "Rank"
    FFT = "FFT"
    NonOverlappingTemplate = "NonOverlappingTemplate"
    OverlappingTemplate = "OverlappingTemplate"
    Universal = "Universal"
    ApproximateEntropy = "ApproximateEntropy"
    RandomExcursions = "RandomExcursions"
    RandomExcursionsVariant = "RandomExcursionsVariant"
    Serial = "Serial"
    LinearComplexity = "LinearComplexity"


@dataclass(frozen=True)
class TestParams:
    """Suite geometry and per-test parameters; None selects the length-appropriate value."""

    n: int = 1_000_000
    sequences: int = 30
    alpha: float = 0.05
    block_frequency_m: int = 128
    longest_run_m: int | None = None
    nonoverlapping_m: int = 9
    nonoverlapping_blocks: int = 8
    overlapping_m: int = 9
    overlapping_block_len: int = 1032
    universal_l: int | None = None
    universal_q: int | None = None
    approx_entropy_m: int = 10
    serial_m: int = 16
    linear_complexity_block: int = 500

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        for name, least in (
            ("sequences", 1),
            ("block_frequency_m", 1),
            ("nonoverlapping_m", 1),
            ("nonoverlapping_blocks", 1),
            ("overlapping_m", 1),
            ("overlapping_block_len", 1),
            ("approx_entropy_m", 1),
            ("serial_m", 3),
            ("linear_complexity_block", 1),
        ):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")
        if self.overlapping_m > min(self.overlapping_block_len, _MAX_WINDOW_BITS):
            raise ValueError(
                f"overlapping_m must be at most overlapping_block_len and {_MAX_WINDOW_BITS}"
            )
        if min(_overlapping_law(self.overlapping_m, self.overlapping_block_len)) <= 0.0:
            raise ValueError(
                f"overlapping_m = {self.overlapping_m} in blocks of {self.overlapping_block_len}"
                " bits leaves an occurrence class of probability 0"
            )
        if self.longest_run_m not in (None, *_LONGEST_RUN_TABLES):
            raise ValueError(f"unsupported longest-run block size {self.longest_run_m}")
        if self.universal_l is not None and not 1 <= self.universal_l <= 16:
            raise ValueError("universal block length must be in [1, 16]")
        if self.universal_q is not None and self.universal_q < 1:
            raise ValueError("universal_q must be at least 1")

    def resolved_longest_run(self, n: int) -> tuple[int, int]:
        """(M, N) for the longest-run test at sequence length n."""
        m = self.longest_run_m
        if m is None:
            if n < 128:
                raise SequenceTooShortError("longest-run test needs at least 128 bits")
            m = 8 if n < 6272 else 128 if n < 750_000 else 10_000
        return m, n // m

    def resolved_universal(self, n: int) -> tuple[int, int, int]:
        """(L, Q, K) for the universal test at sequence length n."""
        length = self.universal_l
        if length is None:
            for threshold, candidate in _UNIVERSAL_N_THRESHOLDS:
                if n >= threshold:
                    length = candidate
                    break
            else:
                raise SequenceTooShortError("universal test needs at least 387840 bits")
        q = self.universal_q if self.universal_q is not None else 10 * 2**length
        k = n // length - q
        if k < 1:
            raise SequenceTooShortError("universal test has no bits left after initialisation")
        return length, q, k


@dataclass(frozen=True)
class TestResult:
    """P-values of one test on one sequence, labelled per statistic row."""

    test: TestId
    pvalues: tuple[float, ...]
    labels: tuple[str, ...]
    applicable: bool = True


def chi_square_p(observed, expected) -> float:
    """Pearson's goodness-of-fit P-value of counts over k classes: igamc((k - 1) / 2, chi2 / 2)."""
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    return igamc((len(expected) - 1) / 2.0, chi2 / 2.0)


def _require(n: int, minimum: int, test: str) -> None:
    if n < minimum:
        raise SequenceTooShortError(f"{test} needs at least {minimum} bits, got {n}")


def frequency_test(bits, params: TestParams) -> TestResult:
    """Monobit balance: P = erfc(|S_n| / sqrt(2n))."""
    seq = as_sequence(bits)
    arr = seq.bits
    n = arr.size
    _require(n, 2, "frequency test")
    s = 2.0 * int(arr.sum()) - n
    p = erfc(abs(s) / math.sqrt(n) / math.sqrt(2.0))
    return TestResult(TestId.Frequency, (p,), ("",))


def block_frequency_test(bits, params: TestParams) -> TestResult:
    seq = as_sequence(bits)
    arr = seq.bits
    n = arr.size
    _require(n, 100, "block frequency test")
    m = params.block_frequency_m
    n_blocks = n // m
    if n_blocks < 1:
        raise SequenceTooShortError("block frequency test needs at least one block")
    props = arr[: n_blocks * m].reshape(n_blocks, m).mean(axis=1)
    chi2 = 4.0 * m * float(np.sum((props - 0.5) ** 2))
    p = igamc(n_blocks / 2.0, chi2 / 2.0)
    return TestResult(TestId.BlockFrequency, (p,), ("",))


def _cusum_pvalue(z: float, n: int) -> float:
    if z == 0.0:
        return 1.0
    root = math.sqrt(n)
    total = 1.0
    for k in range(int(math.floor((-n / z + 1) / 4)), int(math.floor((n / z - 1) / 4)) + 1):
        total -= normal_cdf((4 * k + 1) * z / root) - normal_cdf((4 * k - 1) * z / root)
    for k in range(int(math.floor((-n / z - 3) / 4)), int(math.floor((n / z - 1) / 4)) + 1):
        total += normal_cdf((4 * k + 3) * z / root) - normal_cdf((4 * k + 1) * z / root)
    return min(max(total, 0.0), 1.0)


def cumulative_sums_test(bits, params: TestParams) -> TestResult:
    seq = as_sequence(bits)
    n = len(seq)
    _require(n, 2, "cumulative sums test")
    walk, _ = seq.walk()
    lo, hi, total = int(walk.min()), int(walk.max()), int(walk[-1])
    z_fwd = float(max(hi, -lo))
    # the backward sums are total - S_k for k = 0..n-1, with S_0 = 0
    z_bwd = float(max(abs(total), total - lo, hi - total))
    return TestResult(
        TestId.CumulativeSums,
        (_cusum_pvalue(z_fwd, n), _cusum_pvalue(z_bwd, n)),
        ("forward", "backward"),
    )


def runs_test(bits, params: TestParams) -> TestResult:
    """Oscillation count; degenerates to P = 0 when the monobit pre-test fails."""
    seq = as_sequence(bits)
    arr = seq.bits
    n = arr.size
    _require(n, 2, "runs test")
    pi = float(arr.mean())
    if pi in (0.0, 1.0) or abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return TestResult(TestId.Runs, (0.0,), ("",))
    v_obs = 1 + int(np.count_nonzero(np.diff(arr)))
    p = erfc(abs(v_obs - 2.0 * n * pi * (1 - pi)) / (2.0 * math.sqrt(2.0 * n) * pi * (1 - pi)))
    return TestResult(TestId.Runs, (p,), ("",))


def _longest_runs(blocks: np.ndarray) -> np.ndarray:
    """Longest run of ones in every row of an (N, M) 0/1 block matrix.

    Each row is zero-padded on both sides, so no run in the flattened
    array crosses a row boundary.
    """
    n_blocks, m = blocks.shape
    padded = np.zeros((n_blocks, m + 2), dtype=np.int8)
    padded[:, 1:-1] = blocks
    d = np.diff(padded.ravel())
    starts = np.flatnonzero(d == 1)
    ends = np.flatnonzero(d == -1)
    longest = np.zeros(n_blocks, dtype=np.int64)
    np.maximum.at(longest, starts // (m + 2), ends - starts)
    return longest


def longest_run_test(bits, params: TestParams) -> TestResult:
    seq = as_sequence(bits)
    arr = seq.bits
    n = arr.size
    _require(n, 128, "longest-run test")
    m, n_blocks = params.resolved_longest_run(n)
    (lo, hi), pi = _LONGEST_RUN_TABLES[m]
    runs = _longest_runs(arr[: n_blocks * m].reshape(n_blocks, m))
    counts = np.bincount(np.clip(runs, lo, hi) - lo, minlength=len(pi))
    p = chi_square_p(counts, n_blocks * np.asarray(pi))
    return TestResult(TestId.LongestRun, (p,), ("",))


def _rank_probability(size: int, r: int) -> float:
    log2_p = r * (2 * size - r) - size * size
    prod = 1.0
    for i in range(r):
        prod *= (1.0 - 2.0 ** (i - size)) ** 2 / (1.0 - 2.0 ** (i - r))
    return 2.0**log2_p * prod


def rank_test(bits, params: TestParams) -> TestResult:
    """Rank distribution of 32x32 submatrices over GF(2)."""
    seq = as_sequence(bits)
    arr = seq.bits
    n = arr.size
    _require(n, 38 * 1024, "rank test")
    size = 32
    n_matrices = n // (size * size)
    ranks = gf2_ranks(arr[: n_matrices * size * size].reshape(n_matrices, size, size))
    # classes: full rank, rank 31, and rank 30 or less
    counts = np.bincount(np.minimum(size - ranks, 2), minlength=3)
    p_full = _rank_probability(size, size)
    p_minus = _rank_probability(size, size - 1)
    p = chi_square_p(counts, n_matrices * np.array([p_full, p_minus, 1.0 - p_full - p_minus]))
    return TestResult(TestId.Rank, (p,), ("",))


def fft_test(bits, params: TestParams) -> TestResult:
    """Spectral peak count against the 95 % threshold sqrt(n*log(1/0.05))."""
    seq = as_sequence(bits)
    arr = seq.bits
    n = arr.size
    _require(n, 1000, "spectral test")
    x = 2.0 * arr - 1.0
    moduli = np.abs(np.fft.rfft(x)[: n // 2])
    threshold = math.sqrt(_LOG_ALPHA_SPECTRAL * n)
    n0 = 0.95 * n / 2.0
    n1 = int(np.count_nonzero(moduli < threshold))
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    p = erfc(abs(d) / math.sqrt(2.0))
    return TestResult(TestId.FFT, (p,), ("",))


@lru_cache(maxsize=None)
def aperiodic_template_values(m: int) -> tuple[int, ...]:
    """All m-bit patterns that cannot overlap a shifted copy of themselves.

    A pattern is kept when no proper shift aligns a suffix with a prefix,
    which also means raw occurrence counts in a scan equal non-overlapping
    counts.  For m = 9 there are 148 such patterns.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    values = []
    for value in range(2**m):
        bits = [(value >> (m - 1 - k)) & 1 for k in range(m)]
        if all(bits[s:] != bits[: m - s] for s in range(1, m)):
            values.append(value)
    return tuple(values)


def non_overlapping_template_test(bits, params: TestParams) -> TestResult:
    """Occurrence counts of every aperiodic m-bit template, one P-value each.

    Aperiodic templates cannot overlap themselves, so plain window-value
    counts equal the non-overlapping scan of the standard.
    """
    seq = as_sequence(bits)
    n = len(seq)
    m = params.nonoverlapping_m
    n_blocks = params.nonoverlapping_blocks
    _require(n, n_blocks * 2**m, "non-overlapping template test")
    block_len = n // n_blocks
    values, width = seq.windows(m)
    values = values >> (width - m)
    templates = np.asarray(aperiodic_template_values(m))
    counts = np.empty((n_blocks, 2**m), dtype=np.int64)
    for j in range(n_blocks):
        start = j * block_len
        counts[j] = np.bincount(values[start : start + block_len - m + 1], minlength=2**m)
    mean = (block_len - m + 1) / 2.0**m
    var = block_len * (2.0**-m - (2.0 * m - 1.0) / 2.0 ** (2 * m))
    chi2 = ((counts[:, templates] - mean) ** 2 / var).sum(axis=0)
    pvalues = tuple(igamc(n_blocks / 2.0, c / 2.0) for c in chi2)
    labels = tuple(format(v, f"0{m}b") for v in templates)
    return TestResult(TestId.NonOverlappingTemplate, pvalues, labels)


@lru_cache(maxsize=None)
def _exact_overlapping_law(m: int, block_len: int) -> tuple[float, ...]:
    """Probabilities of 0..4 and of 5 or more all-ones m-bit windows in an M-bit block.

    Exact: a chain over (run of ones, capped at m) x (occurrences, capped
    at 5) starts at (0, 0) and reads M fair bits, by the M-th power of its
    transition matrix.  Each class is its own mass, never 1 - sum.
    """
    hits = np.arange(6)
    step = np.zeros((m + 1, 6, m + 1, 6))
    for run in range(m + 1):
        step[run, hits, 0, hits] = 0.5  # a zero ends the run
        step[run, hits, min(run + 1, m), np.minimum(hits + (run + 1 >= m), 5)] = 0.5
    power = np.linalg.matrix_power(step.reshape((m + 1) * 6, -1), block_len)
    return tuple(power[0].reshape(m + 1, 6).sum(axis=0).tolist())


def _overlapping_law(m: int, block_len: int) -> tuple[float, ...]:
    """The printed table at the standard's geometry, else the exact law."""
    if m == 9 and block_len == 1032:
        return _OVERLAPPING_PI_STANDARD
    return _exact_overlapping_law(m, block_len)


def overlapping_template_test(bits, params: TestParams) -> TestResult:
    """Overlapping occurrences of the all-ones template in fixed blocks."""
    seq = as_sequence(bits)
    n = len(seq)
    m = params.overlapping_m
    block_len = params.overlapping_block_len
    _require(n, 5 * block_len, "overlapping template test")
    n_blocks = n // block_len
    pi = np.asarray(_overlapping_law(m, block_len))
    values, width = seq.windows(m)
    ones = values[: n_blocks * block_len] >= (2**m - 1) << (width - m)  # top m bits all ones
    hits = ones.reshape(n_blocks, block_len)[:, : block_len - m + 1].sum(axis=1)
    freq = np.bincount(np.minimum(hits, pi.size - 1), minlength=pi.size)
    p = chi_square_p(freq, n_blocks * pi)
    return TestResult(TestId.OverlappingTemplate, (p,), ("",))


def _previous_occurrence(values: np.ndarray) -> np.ndarray:
    """1-based position of the previous equal value, 0 when unseen."""
    order = np.argsort(values, kind="stable")
    prev = np.zeros(values.size, dtype=np.int64)
    same = values[order[1:]] == values[order[:-1]]
    prev[order[1:]] = np.where(same, order[:-1] + 1, 0)
    return prev


def universal_test(bits, params: TestParams) -> TestResult:
    """Maurer's statistic: mean log2 distance between equal L-bit blocks."""
    seq = as_sequence(bits)
    n = len(seq)
    length, q, k = params.resolved_universal(n)
    n_blocks = q + k
    values, width = seq.windows(length)
    prev = _previous_occurrence(values[: n_blocks * length : length] >> (width - length))
    positions = np.arange(q + 1, n_blocks + 1, dtype=np.int64)
    distances = positions - prev[q:]
    fn = float(np.sum(np.log2(distances))) / k
    c = 0.7 - 0.8 / length + (4.0 + 32.0 / length) * k ** (-3.0 / length) / 15.0
    sigma = c * math.sqrt(_UNIVERSAL_VARIANCE[length] / k)
    p = erfc(abs(fn - _UNIVERSAL_EXPECTED[length]) / (math.sqrt(2.0) * sigma))
    return TestResult(TestId.Universal, (p,), ("",))


def _phi(counts: np.ndarray, n: int) -> float:
    freq = counts[counts > 0] / n
    return float(np.sum(freq * np.log(freq)))


def approximate_entropy_test(bits, params: TestParams) -> TestResult:
    seq = as_sequence(bits)
    n = len(seq)
    m = params.approx_entropy_m
    _require(n, 2 ** (m + 5), "approximate entropy test")
    wide = seq.cyclic_counts(m + 1)  # first, so that the m-bit counts fold from it
    apen = _phi(seq.cyclic_counts(m), n) - _phi(wide, n)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    p = igamc(2.0 ** (m - 1), chi2 / 2.0)
    return TestResult(TestId.ApproximateEntropy, (p,), ("",))


def _psi_squared(counts: np.ndarray, n: int) -> float:
    """psi^2 of the m-bit window counts (2^m of them) of an n-bit sequence."""
    return float(counts.size / n * np.sum(counts.astype(np.float64) ** 2) - n)


def serial_test(bits, params: TestParams) -> TestResult:
    seq = as_sequence(bits)
    n = len(seq)
    m = params.serial_m
    _require(n, 2 ** (m + 2), "serial test")
    psi_m, psi_m1, psi_m2 = (_psi_squared(seq.cyclic_counts(k), n) for k in (m, m - 1, m - 2))
    del1 = psi_m - psi_m1
    del2 = psi_m - 2.0 * psi_m1 + psi_m2
    p1 = igamc(2.0 ** (m - 2), del1 / 2.0)
    p2 = igamc(2.0 ** (m - 3), del2 / 2.0)
    return TestResult(TestId.Serial, (p1, p2), ("first", "second"))


_EXCURSION_STATES = (-4, -3, -2, -1, 1, 2, 3, 4)


def random_excursions_test(bits, params: TestParams) -> TestResult:
    """Visit-count law per cycle for walk states -4..4; needs >= 500 cycles."""
    seq = as_sequence(bits)
    n = len(seq)
    _require(n, 10_000, "random excursions test")
    walk, j = seq.walk()
    labels = tuple(f"x={x:+d}" for x in _EXCURSION_STATES)
    if j < max(_EXCURSION_MIN_CYCLES, 0.005 * math.sqrt(n)):
        return TestResult(
            TestId.RandomExcursions, (math.nan,) * len(labels), labels, applicable=False
        )
    where = np.flatnonzero((walk >= -4) & (walk <= 4) & (walk != 0))
    states = walk[where]
    state_idx = np.where(states < 0, states + 4, states + 3)
    cycle_idx = np.searchsorted(np.flatnonzero(walk == 0), where)  # zeros before each visit
    flat = cycle_idx * 8 + state_idx
    visits = np.bincount(flat, minlength=j * 8).reshape(-1, 8)[:j]
    pvalues = []
    for col, x in enumerate(_EXCURSION_STATES):
        a = abs(x)
        pi0 = 1.0 - 1.0 / (2.0 * a)
        pi = [pi0] + [pi0 ** (k - 1) / (4.0 * a * a) for k in range(1, 5)]
        pi.append(pi0**4 / (2.0 * a))
        freq = np.bincount(np.minimum(visits[:, col], 5), minlength=6)
        pvalues.append(chi_square_p(freq, j * np.asarray(pi)))
    return TestResult(TestId.RandomExcursions, tuple(pvalues), labels)


_VARIANT_STATES = tuple(x for x in range(-9, 10) if x != 0)


def random_excursions_variant_test(bits, params: TestParams) -> TestResult:
    """Total visit counts for walk states -9..9 against the cycle count."""
    seq = as_sequence(bits)
    n = len(seq)
    _require(n, 10_000, "random excursions variant test")
    walk, j = seq.walk()
    labels = tuple(f"x={x:+d}" for x in _VARIANT_STATES)
    if j < max(_EXCURSION_MIN_CYCLES, 0.005 * math.sqrt(n)):
        return TestResult(
            TestId.RandomExcursionsVariant, (math.nan,) * len(labels), labels, applicable=False
        )
    clipped = walk[(walk >= -9) & (walk <= 9)]
    counts = np.bincount(clipped + 9, minlength=19)
    pvalues = []
    for x in _VARIANT_STATES:
        xi = int(counts[x + 9])
        p = erfc(abs(xi - j) / math.sqrt(2.0 * j * (4.0 * abs(x) - 2.0)))
        pvalues.append(p)
    return TestResult(TestId.RandomExcursionsVariant, tuple(pvalues), labels)


def linear_complexity_test(bits, params: TestParams) -> TestResult:
    """Berlekamp-Massey complexity of M-bit blocks against its exact law."""
    seq = as_sequence(bits)
    n = len(seq)
    m = params.linear_complexity_block
    _require(n, 200 * m, "linear complexity test")
    n_blocks = n // m
    sign = -1.0 if m % 2 else 1.0
    mean = m / 2.0 + (9.0 + (-1.0) ** (m + 1)) / 36.0 - (m / 3.0 + 2.0 / 9.0) / 2.0**m
    complexities = seq.linear_complexities(m)
    stats = sign * (complexities - mean) + 2.0 / 9.0
    freq = np.bincount(
        np.searchsorted(_LINEAR_COMPLEXITY_BOUNDS, stats, side="left"), minlength=7
    )
    p = chi_square_p(freq, n_blocks * np.asarray(_LINEAR_COMPLEXITY_PI))
    return TestResult(TestId.LinearComplexity, (p,), ("",))


_DISPATCH = {
    TestId.Frequency: frequency_test,
    TestId.BlockFrequency: block_frequency_test,
    TestId.CumulativeSums: cumulative_sums_test,
    TestId.Runs: runs_test,
    TestId.LongestRun: longest_run_test,
    TestId.Rank: rank_test,
    TestId.FFT: fft_test,
    TestId.NonOverlappingTemplate: non_overlapping_template_test,
    TestId.OverlappingTemplate: overlapping_template_test,
    TestId.Universal: universal_test,
    TestId.ApproximateEntropy: approximate_entropy_test,
    TestId.RandomExcursions: random_excursions_test,
    TestId.RandomExcursionsVariant: random_excursions_variant_test,
    TestId.Serial: serial_test,
    TestId.LinearComplexity: linear_complexity_test,
}

TEST_ORDER = tuple(_DISPATCH)


def run_test(test: TestId, params: TestParams, bits) -> TestResult:
    """Run one named test; P-values of an applicable result lie in [0, 1].

    Only an inapplicable result may carry NaN P-values.
    """
    result = _DISPATCH[test](bits, params)
    for p in result.pvalues:
        if not 0.0 <= p <= 1.0 and (result.applicable or not math.isnan(p)):
            raise PValueRangeError(f"{test.value} produced P-value {p} outside [0, 1]")
    return result


__all__ = [
    "SequenceTooShortError",
    "TestId",
    "TestParams",
    "TestResult",
    "TEST_ORDER",
    "run_test",
    "chi_square_p",
    "aperiodic_template_values",
    "frequency_test",
    "block_frequency_test",
    "cumulative_sums_test",
    "runs_test",
    "longest_run_test",
    "rank_test",
    "fft_test",
    "non_overlapping_template_test",
    "overlapping_template_test",
    "universal_test",
    "approximate_entropy_test",
    "random_excursions_test",
    "random_excursions_variant_test",
    "serial_test",
    "linear_complexity_test",
]

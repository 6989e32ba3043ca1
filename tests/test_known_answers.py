"""Known answers: SP 800-22's worked examples on the binary expansion of e.

The standard runs its tests on the first 1,000,000 binary digits of e,
integer part first (``10101101111110000101...``), and prints the results.
Every other battery test checks a kernel against an oracle written in this
repository, so a misreading of the standard could be shared by both; these
values come from the standard itself.  The digits are computed offline with
mpmath.

Known divergences from the printed values, where the counts still agree:

- OverlappingTemplate: the counts nu = (329, 164, 150, 111, 78, 136) are
  the standard's, but this code's P-value is 0.159027, from the corrected
  pi table.  The printed 0.110434 (chi^2 8.966) fits the older Poisson pi
  (0.367879, ...): with those, the same counts give 0.110431.  The exact
  law, which this code computes at every other geometry, gives 0.159037
  here; it differs from the six-digit table by up to 4.5e-7 a class.  So
  the table stays at the standard geometry, and with it agreement with
  the NIST suite's output.
- LinearComplexity at M = 1000: nu = (11, 31, 116, 501, 258, 57, 26) is the
  standard's.  This code's P-value is 0.844738 against a printed 0.845406.
  Rounding pi to the printed digits does not explain the gap: it gives
  0.844721.
- CumulativeSums reads 0.669886 and 0.724265 against a printed 0.669887 and
  0.724266; that last-digit gap is unexplained, so it is not asserted.
- RandomExcursions is left out: its printed values are not known with
  confidence here.
"""

import dataclasses

import mpmath
import numpy as np
import pytest

from rtdrng.nist.sequence import as_sequence
from rtdrng.nist.special import igamc
from rtdrng.nist.statistical_tests import TestId, TestParams, run_test

E_BITS = 1_000_000


@pytest.fixture(scope="module")
def e_bits():
    with mpmath.workprec(E_BITS + 164):  # guard bits beyond the digits kept
        mantissa = int((+mpmath.e).man)
    top = mantissa >> (mantissa.bit_length() - E_BITS)
    return np.unpackbits(np.frombuffer(top.to_bytes(E_BITS // 8, "big"), dtype=np.uint8))


def test_digits_start_as_printed(e_bits):
    assert "".join(map(str, e_bits[:20])) == "10101101111110000101"


@pytest.mark.parametrize(
    "test, label, expected",
    [
        (TestId.Frequency, "", 0.953749),
        (TestId.BlockFrequency, "", 0.211072),
        (TestId.Runs, "", 0.561917),
        (TestId.LongestRun, "", 0.718945),
        (TestId.Rank, "", 0.306156),
        (TestId.FFT, "", 0.847187),
        (TestId.NonOverlappingTemplate, "000000001", 0.078790),
        (TestId.Universal, "", 0.282568),
        (TestId.ApproximateEntropy, "", 0.700073),
        (TestId.RandomExcursionsVariant, "x=-1", 0.826009),
        (TestId.Serial, "first", 0.766182),
        (TestId.Serial, "second", 0.462921),
    ],
)
def test_printed_pvalue(e_bits, test, label, expected):
    result = run_test(test, TestParams(), e_bits)
    assert result.pvalues[result.labels.index(label)] == pytest.approx(expected, abs=5e-7)


def _chi2_pvalue(counts, pi, dof):
    expected = sum(counts) * np.asarray(pi)
    return igamc(dof / 2.0, float(np.sum((np.asarray(counts) - expected) ** 2 / expected)) / 2.0)


def test_linear_complexity_counts(e_bits):
    # T = (-1)^M (L - mu) + 2/9 for M = 1000, binned at the standard's edges
    m = 1000
    mu = m / 2 + (9 + (-1) ** (m + 1)) / 36 - (m / 3 + 2 / 9) / 2**m
    stats = (-1) ** m * (as_sequence(e_bits).linear_complexities(m) - mu) + 2 / 9
    edges = [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]
    counts = np.bincount(np.searchsorted(edges, stats, side="left"), minlength=7).tolist()
    assert counts == [11, 31, 116, 501, 258, 57, 26]
    # the test's own P-value is the one these counts give
    params = dataclasses.replace(TestParams(), linear_complexity_block=m)
    pi = (1 / 96, 1 / 32, 1 / 8, 1 / 2, 1 / 4, 1 / 16, 1 / 48)
    got = run_test(TestId.LinearComplexity, params, e_bits).pvalues[0]
    assert got == pytest.approx(_chi2_pvalue(counts, pi, 6), rel=1e-12)
    assert got == pytest.approx(0.844738, abs=5e-7)


def test_overlapping_template_counts(e_bits):
    # occurrences of nine ones at each of the 1024 offsets of 1032-bit blocks
    blocks = e_bits[: E_BITS // 1032 * 1032].reshape(-1, 1032).astype(np.int64)
    ones = np.cumsum(np.pad(blocks, ((0, 0), (1, 0))), axis=1)
    hits = np.count_nonzero(ones[:, 9:] - ones[:, :-9] == 9, axis=1)
    counts = np.bincount(np.minimum(hits, 5), minlength=6).tolist()
    assert counts == [329, 164, 150, 111, 78, 136]
    # the test's own P-value is the one these counts give with its pi table
    pi = (0.364091, 0.185659, 0.139381, 0.100571, 0.070432, 0.139865)
    got = run_test(TestId.OverlappingTemplate, TestParams(), e_bits).pvalues[0]
    assert got == pytest.approx(_chi2_pvalue(counts, pi, 5), rel=1e-12)
    assert got == pytest.approx(0.159027, abs=5e-7)

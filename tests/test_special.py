import math

import mpmath
import numpy as np
import pytest

from rtdrng.nist.special import igamc, normal_cdf

mpmath.mp.dps = 40

# relative bound against mpmath
REL = 1e-12


class TestIgamc:
    def test_at_zero(self):
        for a in (0.5, 1.0, 4.5, 512.0):
            assert igamc(a, 0.0) == 1.0

    def test_exponential_special_case(self):
        # Q(1, x) = exp(-x)
        for x in (1e-10, 0.1, 1.0, 1.9, 2.0, 5.0, 50.0, 700.0):
            assert abs(igamc(1.0, x) - math.exp(-x)) <= REL * math.exp(-x)

    def test_against_mpmath_grid(self):
        # the battery's exact shapes: Rank 1, LongestRun 1.5/2.5/3, Overlapping
        # and the excursions 2.5, LinearComplexity 3, NonOverlapping 8/2,
        # uniformity 9/2, BlockFrequency N/2 at 550k and 1M bits, ApEn and
        # Serial 2**(m-1..m-3) at m = 10 and 16; then both sides of the
        # Stirling switch at a = 16, each at x = a + k*sqrt(a), k in +-6
        shapes = [1.0, 1.5, 2.5, 3.0, 4.0, 4.5, 2148.0, 3906.0, 128.0, 256.0, 512.0]
        shapes += [2.0**15, 2.0**14, 2.0**13, 0.25, 0.5, 15.9, 16.0, 16.5, 600.5]
        cases = [
            (a, a + k * math.sqrt(a))
            for a in shapes
            for k in (-6, -4, -3, -2, -1, -0.5, -0.1, 0, 0.1, 0.5, 1, 1.5, 2, 3, 4, 6)
            if a + k * math.sqrt(a) > 0.0
        ]
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = float(rng.uniform(0.25, 600.0))
            cases.append((a, float(rng.uniform(0.0, 2.0 * a))))
        for a, x in cases:
            reference = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
            got = igamc(a, x)
            assert 0.0 <= got <= 1.0
            assert abs(got - reference) <= REL * reference, (a, x, got, reference)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            igamc(0.0, 1.0)
        with pytest.raises(ValueError):
            igamc(1.0, -0.5)


class TestNormalCdf:
    def test_symmetry(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)
        for x in (0.3, 1.0, 2.5):
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_known_quantile(self):
        assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)

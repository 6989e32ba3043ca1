import math

import mpmath
import numpy as np
import pytest

from rtdrng.nist.special import igamc, normal_cdf

mpmath.mp.dps = 40


class TestIgamc:
    def test_at_zero(self):
        for a in (0.5, 1.0, 4.5, 512.0):
            assert igamc(a, 0.0) == 1.0

    def test_exponential_special_case(self):
        # Q(1, x) = exp(-x)
        for x in (0.1, 1.0, 5.0):
            assert igamc(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)

    def test_against_mpmath_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = float(rng.uniform(0.25, 600.0))
            x = float(rng.uniform(0.0, 2.0 * a))
            reference = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
            assert igamc(a, x) == pytest.approx(reference, rel=1e-10, abs=1e-300)

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

"""Scalar special functions backing the test statistics."""

from __future__ import annotations

import math

from scipy.special import gammaincc


def igamc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a)."""
    if a <= 0.0:
        raise ValueError("igamc requires a > 0")
    if x < 0.0:
        raise ValueError("igamc requires x >= 0")
    return float(gammaincc(a, x))


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


__all__ = ["igamc", "normal_cdf"]

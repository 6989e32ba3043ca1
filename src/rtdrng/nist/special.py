"""Scalar special functions backing the test statistics."""

from __future__ import annotations

import math

# a series term or continued-fraction factor this close to its limit ends
# the evaluation: one rounding of the result
_EPS = 2.0**-53
# Lentz's stand-in for a zero numerator or denominator
_TINY = 1e-300
# from this a, the Stirling series gives log Gamma(a) to about 1e-16
_STIRLING_FROM = 16.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_prefactor(a: float, x: float) -> float:
    """log(x**a * exp(-x) / Gamma(a)) for a, x > 0.

    From a = _STIRLING_FROM it is a*(log1p(d) - d) + log(a)/2 - log(2 pi)/2
    - S(a) with d = (x - a)/a and S the Stirling series of log Gamma, so the
    terms of size a*log(a) that cancel in a*log(x) - x - lgamma(a) are never
    formed.
    """
    if a < _STIRLING_FROM:
        return a * math.log(x) - x - math.lgamma(a)
    d = (x - a) / a
    # far below a, d may round to -1, where log1p fails and log(x / a) does not
    log1pmx = math.log(x / a) - d if d < -0.5 else math.log1p(d) - d
    r = 1.0 / a
    r2 = r * r
    stirling = r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680 - r2 / 1188))))
    return a * log1pmx + 0.5 * math.log(a) - _HALF_LOG_2PI - stirling


def igamc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a).

    NIST SP 800-22's igamc.  Below x = a + 1, Q = 1 - P with P from its
    power series; from there, Q from its continued fraction, evaluated by
    the modified Lentz method.  Both scale the prefactor x**a e**-x / Gamma(a)
    of _log_prefactor.
    """
    if not a > 0.0:
        raise ValueError("igamc requires a > 0")
    if x < 0.0:
        raise ValueError("igamc requires x >= 0")
    if x == 0.0:
        return 1.0
    if not x < math.inf:
        return 0.0 if x == math.inf else math.nan
    if x < a + 1.0:
        # P = prefactor * sum_n x**n / (a (a + 1) ... (a + n))
        term = total = 1.0 / a
        n = a
        while term > _EPS * total:
            n += 1.0
            term *= x / n
            total += term
        return max(0.0, 1.0 - math.exp(_log_prefactor(a, x)) * total)
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    fraction = d
    i = 0.0
    while True:
        i += 1.0
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        factor = d * c
        fraction *= factor
        if abs(factor - 1.0) <= _EPS:
            return math.exp(_log_prefactor(a, x)) * fraction


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


__all__ = ["igamc", "normal_cdf"]

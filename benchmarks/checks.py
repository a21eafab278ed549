"""Acceptance tests for single outputs of `multpart`.

Each function returns True when the output passes. The thresholds are set
so that a correct program fails a statistical check with probability
below about 1e-6 per check, while a wrong law fails with certainty at the
workload's sample sizes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

# two-sided normal quantile for a false-alarm probability of about 6e-7
Z_MAX = 5.0
# lowest chi-square p-value a correct sampler is allowed to show
CHI2_FLOOR = 1e-6
MASS_RTOL = 1e-9
MEAN_RTOL = 1e-9
SHAPE_ATOL = 1e-7
OMEGA_TOL = 1e-8
SIGMA_TOL = 1e-7


def weight(counts: dict[int, int]) -> int:
    """Sum of the parts, recomputed from the multiplicities."""
    return sum(int(k) * int(r) for k, r in counts.items())


def weights_ok(parts, n: int) -> bool:
    """Every partition has weight exactly n, by its stated and its summed weight."""
    return all(p.weight == n and weight(p.counts) == n
               and all(k >= 1 and r >= 1 for k, r in p.counts.items())
               for p in parts)


def z_ok(sample_mean: float, mean: float, sd: float, count: int) -> bool:
    """Sample mean of `count` values against its expected value."""
    if count < 1 or not sd > 0:
        return False
    return abs(sample_mean - mean) <= Z_MAX * sd / math.sqrt(count)


def moments_ok(values, mean: float, var: float) -> bool:
    """Sample mean and sample variance against their exact values.

    The variance test uses the standard error sqrt((m4 - s^4)/m) with the
    sample's own fourth central moment.
    """
    v = np.asarray(values, dtype=float)
    m = v.size
    if not z_ok(float(v.mean()), mean, math.sqrt(var), m):
        return False
    centred = v - v.mean()
    s2 = float((centred ** 2).mean())
    m4 = float((centred ** 4).mean())
    se = math.sqrt(max(m4 - s2 * s2, 0.0) / m)
    return abs(s2 - var) <= Z_MAX * se + 1e-12 * var


def chi2_ok(observed, probs) -> bool:
    """Cell counts against the cell probabilities."""
    observed = np.asarray(observed, dtype=float)
    expected = observed.sum() * np.asarray(probs, dtype=float)
    return float(stats.chisquare(observed, expected).pvalue) > CHI2_FLOOR


def cdf_ok(values, cdf) -> bool:
    """Samples in 0, 1, 2, ... against a CDF tabulated there (K-S test).

    Both CDFs are step functions on the integers, so the largest gap over
    the integers is the statistic. Its continuous-law distribution makes
    the test conservative on a discrete law, so CHI2_FLOOR keeps bounding
    the false-alarm rate.
    """
    v = np.asarray(values, dtype=np.int64)
    size = max(len(cdf), int(v.max()) + 1)
    table = np.ones(size)
    table[:len(cdf)] = cdf
    ecdf = np.cumsum(np.bincount(v, minlength=size)) / v.size
    gap = float(np.abs(ecdf - table).max())
    return float(stats.kstwo.sf(gap, v.size)) > CHI2_FLOOR


def mass_ok(value: float, log_c: float, m: int, x: float,
            log_F: float) -> bool:
    """A point mass against c_m x^m / F(x), to relative MASS_RTOL."""
    ref = math.exp(log_c + m * math.log(x) - log_F)
    return ref > 0 and abs(value / ref - 1.0) <= MASS_RTOL


def mean_ok(mean: float, n: float) -> bool:
    """A recomputed mean weight equals its target to relative MEAN_RTOL."""
    return abs(mean - n) <= MEAN_RTOL * n


def shape_ok(values, refs) -> bool:
    """Limit-shape values against quadrature references."""
    return len(values) == len(refs) and all(
        abs(float(v) - r) <= SHAPE_ATOL for v, r in zip(values, refs))


def constants_ok(om: float, sig: float, beta: float, om_ref: float,
                 sig_ref: float) -> bool:
    """Omega and sigma^2 against quadrature, and sigma^2 = (beta + 1) Omega."""
    return (abs(om - om_ref) <= OMEGA_TOL * max(1.0, om_ref)
            and abs(sig - sig_ref) <= SIGMA_TOL * max(1.0, sig_ref)
            and abs(sig - (beta + 1.0) * om) <= SIGMA_TOL * max(1.0, sig))


def curve_integral_tol(ts, slope) -> float:
    """Error bound of the trapezoid rule the curve's integral check uses.

    The rule's leading error on a uniform grid of step h is
    h^2/12 * (phi'(t_max) - phi'(t_1)); twice that, plus the quadratures'
    own 1e-9, is the allowance.
    """
    h = float(ts[1] - ts[0])
    return 2.0 * h * h / 12.0 * abs(slope(float(ts[-1])) - slope(float(ts[0]))) + 1e-9


def curve_ok(phis, integral_check: float, tol: float) -> bool:
    """The curve is nonincreasing and integrates to 1 within tol."""
    return bool(np.all(np.diff(np.asarray(phis)) <= 1e-12)) and \
        abs(integral_check - 1.0) <= tol


def exact_equal(values, refs) -> bool:
    """Exact table entries equal the oracle's, entry for entry."""
    return len(values) == len(refs) and all(v == r for v, r in zip(values, refs))

"""Reference values the benchmark checks `multpart` against.

Nothing here imports `multpart`. Each reference is computed by a method
other than the package's own: the pentagonal recurrence and small dynamic
programmes over partition counts, Lah numbers, direct sums over part sizes
in float64, and mpmath quadratures of the defining integrals of Omega,
sigma^2 and the limit shape phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable

import mpmath
import numpy as np
from scipy import optimize

# mpmath working precision for the quadratures: five digits beyond float64
QUAD_DPS = 20


# ---------------------------------------------------------------------------
# exact partition counts


def partition_numbers(n_max: int) -> list[int]:
    """p(0..n_max) by Euler's pentagonal-number recurrence."""
    pent = []
    j = 1
    while j * (3 * j - 1) // 2 <= n_max:
        sign = 1 if j % 2 else -1
        pent.append((j * (3 * j - 1) // 2, sign))
        if j * (3 * j + 1) // 2 <= n_max:
            pent.append((j * (3 * j + 1) // 2, sign))
        j += 1
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = 0
        for g, sign in pent:
            if g > n:
                break
            total = total + p[n - g] if sign > 0 else total - p[n - g]
        p[n] = total
    return p


def odd_part_counts(n_max: int) -> list[int]:
    """Number of partitions of m into odd parts, m = 0..n_max."""
    q = [1] + [0] * n_max
    for k in range(1, n_max + 1, 2):
        for m in range(k, n_max + 1):
            q[m] += q[m - k]
    return q


def parts_weighted_counts(n_max: int, y: int) -> tuple[list[int], list[int]]:
    """(S, row): S[m] = sum_k y^k p(m, k) for m <= n_max, row[k] = p(n_max, k).

    p(m, k), the number of partitions of m into exactly k parts, equals the
    number of partitions of m - k into parts of size at most k, which the
    loop over k builds one size at a time.
    """
    at_most = [1] + [0] * n_max    # partitions of m into parts <= k
    total = [1] + [0] * n_max
    row = [0] * (n_max + 1)
    for k in range(1, n_max + 1):
        for m in range(k, n_max + 1):
            at_most[m] += at_most[m - k]
        yk = y ** k
        for m in range(k, n_max + 1):
            total[m] += yk * at_most[m - k]
        row[k] = at_most[n_max - k]
    return total, row


def parts_law_moments(row: list[int], y: float) -> tuple[float, float]:
    """Mean and variance of k under the law proportional to y^k row[k]."""
    ks = np.arange(len(row), dtype=float)
    logw = np.array([math.log(c) + k * math.log(y) if c else -math.inf
                     for k, c in enumerate(row)])
    w = np.exp(logw - logw.max())
    w /= w.sum()
    mean = float((ks * w).sum())
    return mean, float(((ks - mean) ** 2 * w).sum())


def lah_coefficient(n: int) -> Fraction:
    """[x^n] exp(x/(1-x)) = sum_k C(n-1, k-1)/k!, via Lah numbers.

    L(n, k) = C(n-1, k-1) n!/k! are integers, so the sum is one fraction
    over n!.
    """
    if n == 0:
        return Fraction(1)
    fact_n = math.factorial(n)
    lah = sum(math.comb(n - 1, k - 1) * (fact_n // math.factorial(k))
              for k in range(1, n + 1))
    return Fraction(lah, fact_n)


def lah_parts_moments(n: int) -> tuple[float, float]:
    """Mean and variance of the number of parts under gibbs(1,1) at weight n.

    The law of the number of parts k is proportional to C(n-1, k-1)/k!;
    the weights are summed in log space.
    """
    ks = np.arange(1, n + 1, dtype=float)
    logw = np.array([math.lgamma(n) - math.lgamma(k) - math.lgamma(n - k + 1)
                     - math.lgamma(k + 1) for k in ks])
    w = np.exp(logw - logw.max())
    w /= w.sum()
    mean = float((ks * w).sum())
    return mean, float(((ks - mean) ** 2 * w).sum())


def uniform_parts_mean(n: int, p: list[int]) -> float:
    """E[number of parts] over the partitions of n, all equally likely.

    Summed over partitions, R_k counts the j >= 1 with at least j parts of
    size k, so the total number of parts is sum_m d(m) p(n - m), d the
    divisor-counting function.
    """
    d = np.zeros(n + 1, dtype=np.int64)
    for k in range(1, n + 1):
        d[k::k] += 1
    total = sum(int(d[m]) * p[n - m] for m in range(1, n + 1))
    return float(Fraction(total, p[n]))


def partitions_of(n: int) -> list[dict[int, int]]:
    """Every partition of n as {part: multiplicity}, by enumeration."""
    out = []
    for k in range(1, n + 1):
        for parts in combinations_with_replacement(range(1, n + 1), k):
            if sum(parts) == n:
                counts: dict[int, int] = {}
                for part in parts:
                    counts[part] = counts.get(part, 0) + 1
                out.append(counts)
    return out


# ---------------------------------------------------------------------------
# ensembles described by closed forms


@dataclass(frozen=True)
class Family:
    """An ensemble by formula: f through h = f'/f, weights b_k, exponent beta.

    h_np(u) -> (h, h') on float arrays, for the direct sums; h_mp(u) ->
    (h, h', h'') in mpmath, for the quadratures; log_f(u) = log f(u) on
    float arrays; weights(k) -> b_k on integer arrays.
    """

    name: str
    beta: float
    h_np: Callable
    h_mp: Callable
    log_f: Callable
    weights: Callable


def _ones(ks):
    return np.ones(len(ks))


def geometric(name: str, y: float, weights=_ones) -> Family:
    """f(z) = 1/(1 - y z)."""
    def h_np(u):
        d = 1.0 - y * u
        return y / d, (y / d) ** 2

    def h_mp(u):
        d = 1 - y * u
        return y / d, (y / d) ** 2, 2 * (y / d) ** 3

    return Family(name, 1.0, h_np, h_mp, lambda u: -np.log1p(-y * u), weights)


def exponential(name: str, theta: float, beta: float) -> Family:
    """f(z) = exp(theta z) with b_k = k^(beta - 1), so b_1 = 1."""
    return Family(
        name, float(beta),
        lambda u: (np.full_like(u, theta), np.zeros_like(u)),
        lambda u: (mpmath.mpf(theta), mpmath.mpf(0), mpmath.mpf(0)),
        lambda u: theta * u,
        lambda ks: np.asarray(ks, dtype=float) ** (beta - 1.0))


def polynomial(name: str, coeffs: list[int]) -> Family:
    """f(z) = sum_j coeffs[j] z^j, constant weights."""
    c = [float(v) for v in coeffs]

    def derivs(u):
        f = sum(cj * u ** j for j, cj in enumerate(c))
        f1 = sum(j * cj * u ** (j - 1) for j, cj in enumerate(c) if j >= 1)
        f2 = sum(j * (j - 1) * cj * u ** (j - 2)
                 for j, cj in enumerate(c) if j >= 2)
        f3 = sum(j * (j - 1) * (j - 2) * cj * u ** (j - 3)
                 for j, cj in enumerate(c) if j >= 3)
        return f, f1, f2, f3

    def h_np(u):
        f, f1, f2, _ = derivs(u)
        h = f1 / f
        return h, f2 / f - h * h

    def h_mp(u):
        f, f1, f2, f3 = derivs(u)
        h = f1 / f
        return h, f2 / f - h * h, f3 / f - 3 * (f2 / f) * h + 2 * h ** 3

    def log_f(u):
        return np.log(derivs(u)[0])

    return Family(name, 1.0, h_np, h_mp, log_f, _ones)


def double_pole(name: str) -> Family:
    """f(z) = (1 - z)^-2 = sum_j (j + 1) z^j, constant weights."""
    return Family(
        name, 1.0,
        lambda u: (2.0 / (1.0 - u), 2.0 / (1.0 - u) ** 2),
        lambda u: (2 / (1 - u), 2 / (1 - u) ** 2, 4 / (1 - u) ** 3),
        lambda u: -2.0 * np.log1p(-u),
        _ones)


def odd_weights(ks):
    return (np.asarray(ks) % 2 == 1).astype(float)


# ---------------------------------------------------------------------------
# direct sums over part sizes


def _sizes(x: float) -> np.ndarray:
    """Part sizes 1..K with x^K below 1e-22."""
    return np.arange(1, math.ceil(51.0 / -math.log(x)) + 2)


def count_moments(fam: Family, x: float) -> dict[str, float]:
    """Independent-count moments at tilt x, summed size by size.

    Returns E N, Var N, E K, Var K and Cov(K, N), with K the number of
    parts and N the total weight.
    """
    ks = _sizes(x)
    kf = ks.astype(float)
    u = np.exp(kf * math.log(x))
    h, hp = fam.h_np(u)
    b = fam.weights(ks)
    mean_r = b * u * h
    var_r = b * (u * h + u * u * hp)
    return {
        "mean_N": math.fsum(kf * mean_r),
        "var_N": math.fsum(kf * kf * var_r),
        "mean_K": math.fsum(mean_r),
        "var_K": math.fsum(var_r),
        "cov_KN": math.fsum(kf * var_r),
    }


def log_partition(fam: Family, x: float) -> float:
    """log F(x) = sum_k b_k log f(x^k)."""
    ks = _sizes(x)
    u = np.exp(ks.astype(float) * math.log(x))
    b = fam.weights(ks)
    return math.fsum(b * fam.log_f(u))


def largest_part_cdf(fam: Family, x: float) -> np.ndarray:
    """P(largest part <= m) at tilt x, for m = 0..K.

    The counts are independent and P(R_k = 0) = f(x^k)^-b_k, so the CDF
    at m is exp(-sum_{k>m} b_k log f(x^k)).
    """
    ks = _sizes(x)
    u = np.exp(ks.astype(float) * math.log(x))
    terms = fam.weights(ks) * fam.log_f(u)
    above = np.concatenate((np.cumsum(terms[::-1])[::-1], [0.0]))
    return np.exp(-above)


def tilt(fam: Family, n: float) -> float:
    """The x in (0, 1) with E_x N = n, by Brent's method in -log x."""
    def gap(tau):
        return count_moments(fam, math.exp(-tau))["mean_N"] - n

    tau = 1.0
    while gap(tau) < 0.0:
        tau /= 2.0
    return math.exp(-optimize.brentq(gap, tau, 2.0 * tau, xtol=1e-15, rtol=1e-15))


def conditioned_parts_moments(fam: Family, n: int) -> tuple[float, float]:
    """Gaussian approximation of the number of parts given N = n.

    At the tilt where E N = n: mean E K, variance Var K - Cov(K,N)^2/Var N.
    """
    m = count_moments(fam, tilt(fam, n))
    return m["mean_K"], m["var_K"] - m["cov_KN"] ** 2 / m["var_N"]


# ---------------------------------------------------------------------------
# Omega, sigma^2 and phi by quadrature


class ShapeOracle:
    """Omega, sigma^2 and phi(t) of a family, from their defining integrals.

    With u = e^-v, g = u h, G = u (h + u h'), H = u (h + 3 u h' + u^2 h''):
      Omega   = int_0^inf (v^(beta+1) G - v^beta g) dv
      sigma^2 = int_0^inf (v^(beta+2) H - 2 v^(beta+1) G) dv
      phi(t)  = (int_t^inf v^beta G dv - t^beta g(t)) / Omega
      phi'(t) = -beta t^(beta-1) g(t) / Omega
    """

    def __init__(self, fam: Family):
        self.fam = fam
        self.beta = mpmath.mpf(fam.beta)
        self._phi: dict[float, float] = {}
        with mpmath.workdps(QUAD_DPS):
            self.omega = float(self._omega())
            self.sigma_sq = float(self._sigma_sq())

    def _gGH(self, v):
        u = mpmath.exp(-v)
        h, hp, hpp = self.fam.h_mp(u)
        return u * h, u * (h + u * hp), u * (h + 3 * u * hp + u * u * hpp)

    def _omega(self):
        b = self.beta

        def w(v):
            g, G, _ = self._gGH(v)
            return v ** (b + 1) * G - v ** b * g
        return mpmath.quad(w, [0, 1, 5, 20, mpmath.inf])

    def _sigma_sq(self):
        b = self.beta

        def w(v):
            _, G, H = self._gGH(v)
            return v ** (b + 2) * H - 2 * v ** (b + 1) * G
        return mpmath.quad(w, [0, 1, 5, 20, mpmath.inf])

    def phi(self, t: float) -> float:
        t = float(t)
        if t not in self._phi:
            with mpmath.workdps(QUAD_DPS):
                b, tm = self.beta, mpmath.mpf(t)
                tail = mpmath.quad(lambda v: v ** b * self._gGH(v)[1],
                                   [tm, tm + 1, tm + 5, tm + 20, mpmath.inf])
                self._phi[t] = float(
                    (tail - tm ** b * self._gGH(tm)[0]) / self.omega)
        return self._phi[t]

    def phi_slope(self, t: float) -> float:
        with mpmath.workdps(QUAD_DPS):
            tm = mpmath.mpf(float(t))
            return float(-self.beta * tm ** (self.beta - 1)
                         * self._gGH(tm)[0] / self.omega)

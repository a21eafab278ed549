"""Independent references the tests compare the library against.

Everything here is deliberately naive: enumeration, term-by-term series
arithmetic, and O(n^2) convolutions, written without touching the package
internals so a bug cannot hide in shared code. dense_rejection_draw and
dense_pdc_draw run the rejection and divide-and-conquer attempts with
count laws built from the ensemble's series and weights and drawn by
numpy's own samplers, and prefix_walk_draw walks exact prefix rows built
from geometric_factor and exp_factor; they take only the tilt from the
package, and the law given N = n does not depend on it. Three exceptions
replay a sampler's former method on the package's own data, so that the
method that replaced it can be checked against it: dense_geometric_row
inverts a uniform for every size up to the grand cutoff k*, and
recursive_vector_draw runs every step of the recursive method in numpy
vectors. A fourth, array_prediction, replays the concentration
prediction's former moment arrays, and scan_rows runs every table scan as
the numpy row loop it once was.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import count

import mpmath
import numpy as np


def partitions_into(n: int, allowed=None, max_part: int | None = None):
    """Yield all partitions of n as count dicts {part: multiplicity}.

    allowed: optional predicate on part sizes. Exponential in n; keep
    n <= 30 or so.
    """
    if max_part is None:
        max_part = n

    def ok(k: int) -> bool:
        return allowed is None or allowed(k)

    if n == 0:
        yield {}
        return
    for k in range(min(n, max_part), 0, -1):
        if not ok(k):
            continue
        for rest in partitions_into(n - k, allowed, k):
            d = dict(rest)
            d[k] = d.get(k, 0) + 1
            yield d


def partition_count(n: int, allowed=None) -> int:
    return sum(1 for _ in partitions_into(n, allowed))


def weighted_partition_sum(n: int, part_weight, allowed=None):
    """sum over partitions of prod_k part_weight(k, R_k).

    part_weight(k, r) is the series coefficient g_r for size k, so for a
    geometric series with weight y it is y**r and the sum is the exact
    coefficient a_n.
    """
    total = 0
    for p in partitions_into(n, allowed):
        term = 1
        for k, r in p.items():
            term *= part_weight(k, r)
        total += term
    return total


def poly_mul(a: list, b: list, n_max: int) -> list:
    out = [0] * (n_max + 1)
    b_nonzero = [(j, bj) for j, bj in enumerate(b[:n_max + 1]) if bj != 0]
    for i, ai in enumerate(a[:n_max + 1]):
        if ai == 0:
            continue
        for j, bj in b_nonzero:
            if i + j > n_max:
                break
            out[i + j] += ai * bj
    return out


def geometric_factor(k: int, y, n_max: int) -> list:
    """Coefficients of 1/(1 - y x^k) up to x^n_max."""
    out = [0] * (n_max + 1)
    power = 1
    for j in range(0, n_max // k + 1):
        out[k * j] = power
        power *= y
    return out


def exp_factor(k: int, c: Fraction, n_max: int) -> list:
    """Coefficients of exp(c x^k) up to x^n_max, exact in Fractions."""
    out = [Fraction(0)] * (n_max + 1)
    term = Fraction(1)
    for j in range(0, n_max // k + 1):
        out[k * j] = term
        term = term * c / (j + 1)
    return out


def exponential_dot_table(c, b, n_max: int) -> list:
    """a_0..a_n_max of exp(c sum_k b(k) z^k), exact in Fractions.

    The log-derivative recurrence m a_m = sum_{i<=m} d_i a_{m-i},
    d_i = i b(i) c, one full dot per m: the table builder's former route
    for every exponential series. Whole entries come back as ints.
    """
    d = [0] + [i * Fraction(b(i)) * c for i in range(1, n_max + 1)]
    a = [Fraction(1)]
    for m in range(1, n_max + 1):
        a.append(sum(d[i] * a[m - i] for i in range(1, m + 1)) / m)
    return [v.numerator if v.denominator == 1 else v for v in a]


def exponential_dot_longdouble(c: float, b, n_max: int) -> np.ndarray:
    """The same recurrence in long doubles, as the float tables run it:
    d_i = i b(i) c in float64, one contiguous dot per m."""
    d = [0.0] + [i * b(i) * c for i in range(1, n_max + 1)]
    a = np.zeros(n_max + 1, dtype=np.longdouble)
    a[0] = 1
    rev = np.array(d[:0:-1], dtype=np.longdouble)
    for m in range(1, n_max + 1):
        a[m] = np.dot(a[:m], rev[n_max - m:]) / m
    return a


def product_coefficients(factors, n_max: int) -> list:
    acc = [1] + [0] * n_max
    for f in factors:
        acc = poly_mul(acc, f, n_max)
    return acc


def partition_product(x: float) -> float:
    """F(x) = prod_{k>=1} 1/(1 - x^k) for the uniform ensemble, 0 <= x < 1.

    Multiplies factors until one rounds to exactly 1.0 in floating point.
    """
    total = 1.0
    for k in count(1):
        factor = 1.0 / (1.0 - x ** k)
        if factor == 1.0:
            return total
        total *= factor


def parts_above_laws(n: int, ms) -> dict:
    """Exact law of the number of parts above m in a uniform partition of n.

    Returns {m: probs} with probs[d] = P(d parts exceed m), d = 0..n. A
    partition with exactly d parts above m is a partition into parts <= m
    of some a, plus d parts of size m + j_i, j_i >= 1, whose excesses form
    a partition of n - a - d m into exactly d parts. Floats suffice: every
    term is a positive count.
    """
    # exact[d][s]: partitions of s into exactly d parts
    exact = [[0.0] * (n + 1) for _ in range(n + 1)]
    exact[0][0] = 1.0
    for d in range(1, n + 1):
        row = [0.0] + exact[d - 1][:n]
        for s in range(d, n + 1):
            row[s] += row[s - d]
        exact[d] = row
    total = sum(exact[d][n] for d in range(n + 1))
    out = {}
    for m in ms:
        small = [1.0] + [0.0] * n  # partitions into parts <= m
        for i in range(1, m + 1):
            for s in range(i, n + 1):
                small[s] += small[s - i]
        probs = []
        for d in range(n + 1):
            rest = n - d * m
            count = sum(small[a] * exact[d][rest - a]
                        for a in range(rest + 1)) if rest >= 0 else 0.0
            probs.append(count / total)
        out[m] = probs
    return out


def dilog_series(y: float, tol: float = 1e-15) -> float:
    total = 0.0
    for k in count(1):
        term = y ** k / k ** 2
        total += term
        if abs(term) < tol * max(abs(total), 1.0):
            return total
        if k > 10_000:
            raise RuntimeError("dilog series did not settle")


def mp_shape_constants(h_mp, beta: float, ts, dps: int = 30):
    """Omega, sigma^2 and phi(t) for t in ts by mpmath quadrature.

    h_mp(u) gives (h, h', h'') of h = f'/f in mpmath. The integrals are
    the defining ones, with u = e^-v, g = u h, G = u (h + u h') and
    H = u (h + 3 u h' + u^2 h''):
      Omega   = int_0^inf (v^(beta+1) G - v^beta g) dv,
      sigma^2 = int_0^inf (v^(beta+2) H - 2 v^(beta+1) G) dv,
      phi(t)  = (int_t^inf v^beta G dv - t^beta g(t)) / Omega.
    """
    with mpmath.workdps(dps):
        b = mpmath.mpf(beta)

        def gGH(v):
            u = mpmath.exp(-v)
            h, hp, hpp = h_mp(u)
            return u * h, u * (h + u * hp), u * (h + 3 * u * hp + u * u * hpp)

        def integral(fn, lo):
            return mpmath.quad(fn, [lo, lo + 1, lo + 5, lo + 20, mpmath.inf])

        om = integral(lambda v: v ** (b + 1) * gGH(v)[1]
                      - v ** b * gGH(v)[0], 0)
        sig = integral(lambda v: v ** (b + 2) * gGH(v)[2]
                       - 2 * v ** (b + 1) * gGH(v)[1], 0)
        phis = []
        for t in ts:
            t = mpmath.mpf(t)
            tail = integral(lambda v: v ** b * gGH(v)[1], t)
            phis.append(float((tail - t ** b * gGH(t)[0]) / om))
        return float(om), float(sig), phis


def central_diff(fn, x: float, h: float) -> float:
    return (fn(x + h) - fn(x - h)) / (2 * h)


def direct_mean_var(b_of_k, g_ratio, x: float, k_max: int):
    """Mean and variance of the total weight by direct summation.

    g_ratio(u) must return (h(u), h'(u)) with h = f'/f, so one slot at u
    has mean u h and variance u h + u^2 h'. Counts at distinct sizes are
    independent, so moments add. Truncation error is the caller's
    problem: pick k_max with x^k_max tiny.
    """
    mean = 0.0
    var = 0.0
    for k in range(1, k_max + 1):
        u = x ** k
        b = b_of_k(k)
        if b == 0:
            continue
        h, hp = g_ratio(u)
        mean += k * b * u * h
        var += k * k * b * (u * h + u * u * hp)
    return mean, var


def fsum_mean(b_of_k, h, x: float, k_max: int | None = None) -> float:
    """E N at tilt x: math.fsum of the per-size terms k b_k u h(u), u = x^k.

    The sizes run up to k_max, or else until x^k < 1e-30; h = f'/f. The
    sum is correctly rounded, so it checks a mean without sharing the
    package's summation order.
    """
    terms = []
    for k in count(1):
        u = x ** k
        if u < 1e-30 or (k_max is not None and k > k_max):
            break
        terms.append(k * b_of_k(k) * u * h(u))
    return math.fsum(terms)


def fsum_tail_moments(b_of_k, h, hp, x: float, cuts) -> list[tuple]:
    """(sum E R_k, sum Var R_k, sum k Var R_k) over k > c for each cut c, at
    tilt x, each a math.fsum of its per-size terms as in fsum_mean:
    E R_k = b_k u h(u) and Var R_k = b_k (u h(u) + u^2 h'(u)), u = x^k,
    over the sizes until x^k < 1e-30.
    """
    mean, var, cov = [], [], []
    for k in count(1):
        u = x ** k
        if u < 1e-30:
            break
        b = b_of_k(k)
        mean.append(b * u * h(u))
        var.append(b * (u * h(u) + u * u * hp(u)))
        cov.append(k * var[-1])
    return [(math.fsum(mean[c:]), math.fsum(var[c:]), math.fsum(cov[c:]))
            for c in cuts]


def term_loop_bundle(coefficient, u: float, n_terms: int | None = None):
    """(f, h, h', h'') of sum_j g_j u^j by a term-by-term loop.

    coefficient(j) gives g_j. A polynomial passes its length n_terms; a
    series is summed through the first j > 8 with g_j u^j < 1e-16 f.
    """
    f, d1, d2, d3 = 1.0, 0.0, 0.0, 0.0
    for j in count(1):
        if n_terms is not None and j >= n_terms:
            break
        g = coefficient(j)
        t = g * u ** j
        f += t
        d1 += j * g * u ** (j - 1)
        if j >= 2:
            d2 += j * (j - 1) * g * u ** (j - 2)
        if j >= 3:
            d3 += j * (j - 1) * (j - 2) * g * u ** (j - 3)
        if n_terms is None and j > 8 and t < 1e-16 * f:
            break
    h = d1 / f
    return f, h, d2 / f - h * h, d3 / f - 3.0 * (d2 / f) * h + 2.0 * h ** 3


def log_partition_loop(log_value, b_of_k, x: float, cutoff: int) -> float:
    """sum_{k <= cutoff} b_k log f(x^k), one scalar evaluation per size."""
    total = 0.0
    for k in range(1, cutoff + 1):
        b = b_of_k(k)
        if b != 0.0:
            total += b * log_value(x ** k)
    return total


@lru_cache(maxsize=16)
def _dense_counts(e, n: int):
    """(ks, draw, pmf_1) for the counts R_k of the sizes k <= n with b_k > 0
    at the tilt x_n, from e.series, e.weights and u = x_n^k alone.

    draw(gen, rows) gives rows independent rows of those counts, each
    column by numpy's geometric or negative_binomial (geometric series:
    shape b_k, success 1 - y u), poisson (exponential series: mean b_k c u)
    or by inverse CDF from the masses w_j u^j, w_j = [z^j] f(z)^{b_k}
    (any other series, integer b_k). pmf_1(j) is P(R_1 = j) by scipy, or
    from those masses. A partition of n has no part above n, so an
    attempt that draws only these sizes is accepted with the same law.
    """
    from multpart import ExponentialSeries, GeometricSeries, solve_tilt
    from scipy import stats

    x = solve_tilt(e, n).x_n
    ks = np.arange(1, n + 1)
    b = e.weights.values(ks)
    ks, b = ks[b > 0], b[b > 0]
    u = x ** ks.astype(float)
    if isinstance(e.series, GeometricSeries):
        p = 1.0 - e.series.coefficient(1) * u
        unit = b == 1.0

        def draw(gen, rows):
            out = np.empty((rows, p.size), dtype=np.int64)
            out[:, unit] = gen.geometric(p[unit],
                                         size=(rows, int(unit.sum()))) - 1
            out[:, ~unit] = gen.negative_binomial(
                b[~unit], p[~unit], size=(rows, int((~unit).sum())))
            return out
        return ks, draw, lambda j: stats.nbinom.pmf(j, b[0], p[0])
    if isinstance(e.series, ExponentialSeries):
        lam = b * e.series.coefficient(1) * u
        return (ks, lambda gen, rows: gen.poisson(lam, size=(rows, lam.size)),
                lambda j: stats.poisson.pmf(j, lam[0]))
    top = 64  # counts past this carry no mass for a polynomial f
    g = [e.series.coefficient(j) for j in range(top + 1)]
    masses = []
    for bk, uk in zip(b, u):
        if bk != round(bk):
            raise ValueError("tabulated counts need integer weights")
        w = [1.0] + [0.0] * top
        for _ in range(round(bk)):
            w = poly_mul(w, g, top)
        m = np.array(w) * uk ** np.arange(top + 1)
        masses.append(m / m.sum())
    cums = [np.cumsum(m) for m in masses]

    def draw(gen, rows):
        v = gen.random((rows, len(cums)))
        return np.array([np.searchsorted(cum, v[:, i] * cum[-1], side="right")
                         for i, cum in enumerate(cums)],
                        dtype=np.int64).reshape(len(cums), rows).T
    first = masses[0]
    return ks, draw, lambda j: np.where(
        (j >= 0) & (j <= top), first[np.clip(j, 0, top)], 0.0)


def dense_rejection_draw(e, n: int, gen, budget: int = 10 ** 6,
                         rows: int = 64) -> dict:
    """One rejection draw that draws every count of the sizes up to n.

    The counts come from _dense_counts. The first attempt of a batch of
    rows with total size n wins. Returns {k: R_k} over the nonzero counts.
    """
    ks, draw, _ = _dense_counts(e, n)
    for _ in range(0, budget, rows):
        counts = draw(gen, rows)
        hits = np.nonzero(counts @ ks == n)[0]
        if hits.size:
            return {int(k): int(r) for k, r in zip(ks, counts[hits[0]]) if r}
    raise RuntimeError(f"no draw of size {n} in {budget} attempts")


def dense_geometric_row(e, x: float, gen) -> dict:
    """One grand draw of a geometric series whose weights are 0 or 1.

    q_k = y x^k for every size k <= k* with b_k = 1, from e.series and
    e.weights; one uniform per such size, in size order, and
    R_k = floor(log1p(-U) / log q_k) for all of them. Returns {k: R_k}
    over the nonzero counts.
    """
    from multpart.partition_function import product_tail_cutoff
    from multpart.sampler import GRAND_TAIL_TOL

    ks = np.arange(1, product_tail_cutoff(e, x, GRAND_TAIL_TOL) + 1)
    b = e.weights.values(ks)
    if not np.all((b == 0.0) | (b == 1.0)):
        raise ValueError("dense_geometric_row needs weights 0 or 1")
    ks = ks[b == 1.0]
    q = e.series.coefficient(1) * np.power(x, ks.astype(np.float64))
    u = gen.random(ks.size)
    with np.errstate(divide="ignore"):
        r = np.floor(np.log1p(-u) / np.log(q)).astype(np.int64)
    return {int(k): int(c) for k, c in zip(ks, r) if c}


def dense_pdc_draw(e, n: int, gen, budget: int = 10 ** 6,
                   rows: int = 64) -> dict:
    """One divide-and-conquer draw that draws every count of an attempt.

    The counts come from _dense_counts, whose sizes begin at 1. Each
    attempt draws one dense row, replaces R_1 by n - W, W the weight of
    the sizes k >= 2, and is kept with probability P(R_1 = n - W) /
    max_j P(R_1 = j), the maximum over the j <= n that R_1 can take; the
    first kept attempt of a batch of rows wins. Returns {k: R_k} over the
    nonzero counts.
    """
    ks, draw, pmf_1 = _dense_counts(e, n)
    if ks[0] != 1:
        raise ValueError("dense_pdc_draw needs b_1 > 0")
    top = pmf_1(np.arange(n + 1)).max()
    for _ in range(0, budget, rows):
        counts = draw(gen, rows)[:, 1:]
        r_1 = n - counts @ ks[1:]
        keep = pmf_1(r_1) / top
        hits = np.nonzero(gen.random(rows) < keep)[0]
        if hits.size:
            row = np.concatenate(([r_1[hits[0]]], counts[hits[0]]))
            return {int(k): int(r) for k, r in zip(ks, row) if r}
    raise RuntimeError(f"no draw of size {n} in {budget} attempts")


def prefix_walk_draw(factors, n: int, gen) -> dict:
    """One exact draw of weight n by walking the prefix rows of a product.

    factors[k - 1] holds the coefficients of f(x^k)^{b_k} up to x^n, as
    geometric_factor or exp_factor give them; the prefix row T_k is
    product_coefficients(factors[:k], n), in exact arithmetic. Down the
    part sizes k, R_k = j has conditional mass proportional to
    [x^{k j}] factor_k * T_{k-1}(m - k j), m the weight left. Returns
    {k: R_k} over the nonzero counts.
    """
    rows = _prefix_rows(tuple(map(tuple, factors[:n])), n)
    counts = {}
    m = n
    for k in range(n, 0, -1):
        if m == 0:
            break
        if k > m:
            continue
        f = factors[k - 1]
        cum = np.cumsum([float(f[k * j] * rows[k - 1][m - k * j])
                         for j in range(m // k + 1)])
        j = int(np.searchsorted(cum, gen.random() * cum[-1], side="right"))
        if j:
            counts[k] = j
            m -= k * j
    if m:
        raise RuntimeError("prefix rows inconsistent: residual not exhausted")
    return counts


@lru_cache(maxsize=8)
def _prefix_rows(factors: tuple, n: int) -> list:
    """T_0..T_n: T_k = product_coefficients(factors[:k], n)."""
    return [product_coefficients(factors[:k], n) for k in range(n + 1)]


def array_prediction(e, n: int, grid, epsilon: float):
    """(centres, spreads, hit_fractions) of predict_concentration, by its
    former method: size-indexed arrays up to a product tail cutoff at
    log-tolerance 1e-12, and reversed cumulative sums of them for the
    counts above each grid cut. grid is a tuple of floats.
    """
    from multpart import limit_shape, product_tail_cutoff, solve_tilt
    from scipy import special

    sol = solve_tilt(e, n)
    x, alpha = sol.x_n, sol.alpha
    k_max = product_tail_cutoff(e, x, 1e-12)
    ks = np.arange(1, k_max + 1)
    kf = ks.astype(float)
    b = e.weights.values(ks)
    u = np.exp(kf * math.log(x))
    h, hp = e.series.h_vector(u)
    mean_r = b * u * h
    var_r = b * (u * h + u * u * hp)
    mean_n = float((kf * mean_r).sum())
    var_n = float((kf * kf * var_r).sum())

    def above(terms: np.ndarray) -> np.ndarray:
        # above(terms)[j] = sum over sizes k > j
        return np.concatenate((np.cumsum(terms[::-1])[::-1], [0.0]))

    mean_d, var_d, cov_dn = above(mean_r), above(var_r), above(kf * var_r)
    shape = tuple(limit_shape(e, np.array(grid)).tolist())
    scale = alpha / n
    centres, spreads, hits = [], [], []
    for t, phi in zip(grid, shape):
        # the same float threshold young_function compares part sizes with
        j = min(math.floor(alpha * t), k_max)
        mu = mean_d[j] + cov_dn[j] / var_n * (n - mean_n)
        sd = math.sqrt(max(var_d[j] - cov_dn[j] ** 2 / var_n, 0.0))
        lo = math.floor((phi - epsilon) / scale) + 1
        hi = math.ceil((phi + epsilon) / scale) - 1
        if sd > 0.0:
            p = float(special.ndtr((hi + 0.5 - mu) / sd)
                      - special.ndtr((lo - 0.5 - mu) / sd))
        else:
            p = float(lo - 0.5 < mu < hi + 0.5)
        centres.append(scale * float(mean_d[j]))
        spreads.append(scale * sd)
        hits.append(p)
    return centres, spreads, hits


def _pick_index(gen, w) -> int:
    cum = np.cumsum(w)
    t = int(np.searchsorted(cum, gen.random() * cum[-1], side="right"))
    if t == cum.size:
        raise RuntimeError("recursive method: every weight vanished")
    return t


def recursive_vector_draw(plan, gen) -> dict:
    """One draw of the recursive method, every step in numpy vectors.

    plan is the sampler's recursive plan for weight plan.n: its tilt x, its
    c_i, its masses p_m ~ v_m exp(shift_m), kb_k = k b_k and nu_j. From
    m = n, the size i is picked over the window c_i p_{m-i}, the masses
    at a lower shift being brought to that of m, and split as i = k j over
    a divisor mask with weights k b_k nu_j x^{(k-1) j}. Returns {k: R_k}
    over the nonzero counts.
    """
    counts = {}
    sizes = np.arange(1, plan.n + 1)
    m = plan.n
    while m:
        w = plan.c[1:m + 1] * plan.v[m - 1::-1]
        lo = int(np.searchsorted(plan.shift, plan.shift[m]))
        if lo:
            w[m - lo:] *= np.exp(plan.shift[lo - 1::-1] - plan.shift[m])
        i = _pick_index(gen, w) + 1
        ks = sizes[:i][i % sizes[:i] == 0]
        js = i // ks
        t = _pick_index(gen, plan.kb[ks - 1] * plan.nu[js] * np.power(
            plan.x, ((ks - 1) * js).astype(np.float64)))
        counts[int(ks[t])] = counts.get(int(ks[t]), 0) + int(js[t])
        m -= i
    return dict(sorted(counts.items()))


def scan_rows(a: np.ndarray, k: int, mult) -> None:
    """In place a[m] += mult * a[m-k] for ascending m, a row of k at a time.

    The table builder's former scan for every stride and multiplier: each
    step adds the finished row below it as one numpy slice update.
    """
    n1 = a.shape[0]
    for lo in range(k, n1, k):
        a[lo:lo + k] += mult * a[lo - k:min(lo, n1 - k)]

"""Taylor coefficients of the weighted-count product and their point masses.

The normalizing function F(x) = prod_k f(x^k)^{b_k} = sum_n a_n x^n is
summed, tabulated and turned into point masses:

* log F(x) is summed directly from the factors, with a certified
  truncation bound;
* coefficients tabulates a_0..a_N with one builder for both arithmetics:
  exact (integers, unscaled to ints/Fractions at the end) whenever the
  ensemble data are rational, extended-precision floats otherwise. An
  exponential series fills the table by the log-derivative recurrence
  m a_m = sum_i d_i a_{m-i}, which exact tables run with a few terms per
  step where k b_k is a polynomial in k (gibbs with integer beta, ewens);
  a geometric series with b_k = 1 for every k <= N (uniform and
  weighted(y)) is summed over Durfee squares,
  F = sum_d y^d z^{d^2} / prod_{i<=d} (1 - z^i)(1 - y z^i), in
  2 floor(sqrt(N)) scans; any other geometric series with integer
  b_k <= 64 takes b_k scans of 1/(1 - y x^k) per k; every other factor
  is a stride convolution with the power series of f^{b_k};
* point masses p_m = a_m x^m / F(x) come from the Euler-transform
  (log-derivative) recurrence m p_m = sum_{i<=m} c_i p_{m-i}, where
  c_i = x^i sum_{k|i} k b_k nu_{i/k} and nu_j = j [z^j] log f. It starts
  from p_0 = 1/F(x) off the product sum.

point_mass and local_limit_probe take their masses from the recurrence
alone, so no table bounds how far they reach. Only where some c_i < 0
(a series whose logarithm has negative coefficients) are the masses read
from a coefficient table that reaches the largest m asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .asymptotics import solve_tilt
from .ensemble import Ensemble
from .errors import ConvergenceError, ParamError, TableError
from .series import (ExponentialSeries, GeometricSeries, _maybe_int,
                     power_coefficients)

__all__ = [
    "CoefficientTable",
    "coefficients",
    "log_partition_value",
    "local_limit_probe",
    "partition_numbers",
    "point_mass",
    "product_tail_cutoff",
]

PREFIX_CAP = 5000
PRODUCT_TAIL_TOL = 1e-12
# product_tail_cutoff refuses a cut past this many part sizes: its callers
# allocate arrays of that length
MAX_PRODUCT_SIZES = 1 << 24
# the mass recurrence rescales its running values past this size
_RESCALE = 1e250
_EPS = float(np.finfo(np.float64).eps)
# factor coefficients below this relative size are dropped from the
# tilted prefix convolutions
FACTOR_WEIGHT_CUT = 1e-20
# _scan runs shorter strides in a Python list, longer ones as numpy rows;
# exact (object) and long-double scans cross over near 36 and 10
_LIST_STRIDE_EXACT = 32
_LIST_STRIDE_FLOAT = 10
# exact exponential tables try up to this many factors (1 - r z) in their
# short form: gibbs(theta, beta) with integer beta <= 3 needs beta + 1
_MAX_DIFFERENCES = 4


def partition_numbers(n_max: int) -> list[int]:
    """p(0..n_max) by the pentagonal-number recurrence, exact.

    Independent of the factor-convolution engine; used as its oracle.
    """
    if n_max < 0:
        raise ParamError("n_max must be >= 0")
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > n:
                break
            sign = 1 if j % 2 else -1
            total += sign * p[n - g1]
            g2 = j * (3 * j + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            j += 1
        p[n] = total
    return p


# ---------------------------------------------------------------------------
# product route: log F with certified truncation


def _weighted_geometric_tail(e: Ensemble, x: float, k_from: int) -> float:
    """Upper bound for sum_{k > k_from} b_k x^k, by doubling blocks.

    Each block takes the smaller of (block total)*x^(lo+1) and
    (block max)*sum of x^k over the block; the second wins when x is
    close to 1 and the in-block geometric decay matters.
    """
    w = e.weights
    total = 0.0
    lo = k_from
    while True:
        head = x ** (lo + 1)
        if head == 0.0 or lo > 1 << 50:
            return total
        hi = 2 * lo
        geo_sum = (head - x ** (hi + 1)) / (1.0 - x)
        total += min(w.block_sum_upper(lo, hi) * head,
                     w.block_max_upper(lo, hi) * geo_sum)
        lo = hi


def product_tail_cutoff(e: Ensemble, x: float, tol: float = PRODUCT_TAIL_TOL) -> int:
    """Smallest tested K with sum_{k>K} b_k log f(x^k) provably below tol.

    Uses f(u) - 1 <= u * (f(x^K) - 1) / x^K for u <= x^K (the coefficient
    series has nonnegative terms), so the neglected factors change log F
    by less than tol. Raises ConvergenceError when K would pass
    MAX_PRODUCT_SIZES.
    """
    e.check_tilt(x)
    if x == 0.0:
        return 1
    end = e.weights.support_end
    if end is not None:
        return end
    k = 16
    while True:
        u = x ** k
        if u == 0.0:
            return k
        f_u = e.series.eval_with_derivatives(u)[0]
        if (f_u - 1.0) / u * _weighted_geometric_tail(e, x, k) < tol:
            return k
        k *= 2
        if k > MAX_PRODUCT_SIZES:
            raise ConvergenceError(
                f"product truncation at x={x} needs more than "
                f"{MAX_PRODUCT_SIZES} part sizes")


def log_partition_value(e: Ensemble, x: float) -> float:
    """log F(x) from the product form, truncated with tail below
    PRODUCT_TAIL_TOL: absolute on the log, i.e. relative on F itself."""
    if x == 0.0:
        return 0.0
    cutoff = product_tail_cutoff(e, x)
    ks = np.arange(1, cutoff + 1)
    us = np.power(x, ks.astype(np.float64))
    return float(np.dot(e.weights.values(ks), e.series.log_values(us)))


# ---------------------------------------------------------------------------
# coefficient route


@dataclass(eq=False)
class CoefficientTable:
    """a_0..a_{n_max} plus, optionally, tilted per-prefix rows.

    values holds the coefficients themselves, from the one builder in
    either arithmetic: Python ints/Fractions in an object array when
    exact, extended-precision floats otherwise.

    prefix[k][m] = T_k(m) * x0**m where T_k collects the factors for part
    sizes <= k; rows for inert sizes (b_k = 0) share the previous row's
    array. The tilt x0 solves mean = n_max and keeps every entry in
    floating range even when the raw T_k(m) grow geometrically.
    """

    n_max: int
    values: np.ndarray
    exact: bool
    x0: float = 1.0
    prefix: list[np.ndarray] | None = None

    def coefficient(self, n: int):
        if not 0 <= n <= self.n_max:
            raise ParamError(f"n={n} outside table range 0..{self.n_max}")
        return self.values[n]

    def log_coefficient(self, n: int) -> float:
        """log a_n as a float; -inf when a_n = 0."""
        a = self.coefficient(n)
        if self.exact:
            if a == 0:
                return -math.inf
            if isinstance(a, Fraction):
                return math.log(a.numerator) - math.log(a.denominator)
            return math.log(a)
        if a <= 0.0:
            return -math.inf
        return float(np.log(a))


def _scan(a: np.ndarray, k: int, mult) -> None:
    """In place a[m] += mult * a[m-k] for ascending m: one 1/(1 - mult x^k)
    factor.

    With k >= len(a) there is no full row and a stays as it is. With
    mult == 1 the reshape view turns the per-residue running sums into one
    accumulate call, and the ragged tail is one add whose sources are final.
    Otherwise each step adds the finished row below it, k entries at once.
    Each row costs a numpy call, about as much as 30 Python big-int steps
    or 10 long-double scalar steps, so shorter strides run as one pass over
    a Python list. tolist() keeps ints and Fractions, and long doubles as
    numpy scalars, so every entry gets the same multiply and add as in the
    row loop.
    """
    n1 = a.shape[0]
    if k >= n1:
        return
    if mult == 1:
        rows = n1 // k
        if rows > 1:
            body = a[:rows * k].reshape(rows, k)
            np.add.accumulate(body, axis=0, out=body)
        lo = rows * k
        if lo < n1:
            a[lo:] += a[lo - k:n1 - k]
        return
    if k < (_LIST_STRIDE_EXACT if a.dtype == object else _LIST_STRIDE_FLOAT):
        v = a.tolist()
        for m in range(k, n1):
            v[m] += mult * v[m - k]
        a[:] = v
        return
    for lo in range(k, n1, k):
        a[lo:lo + k] += mult * a[lo - k:min(lo, n1 - k)]


def _convolve_stride(a: np.ndarray, k: int, w) -> None:
    """In place a <- a * (sum_j w_j x^{k j}) truncated to the table, w_0 = 1."""
    n1 = a.shape[0]
    prev = a.copy()
    for j in range(1, len(w)):
        off = k * j
        if off >= n1:
            break
        if w[j] != 0:
            a[off:] += w[j] * prev[:n1 - off]


def _durfee_sum(a: np.ndarray, p, r) -> None:
    """In place a += sum_{d>=1} y^d z^{d^2} / prod_{i<=d} (1 - z^i)(1 - y z^i).

    With a = 1 on entry this is prod_k 1/(1 - y z^k): a partition splits
    into its Durfee square d x d, at most d rows right of the square and
    parts <= d below it (Andrews, The Theory of Partitions, 1976, 2.2).
    Term d comes from term d-1 as T_d = T_{d-1} y z^{2d-1} / ((1 - z^d)
    (1 - y z^d)): one shift and two scans on the window m >= d^2, where
    T_d can be nonzero, so the table takes 2 floor(sqrt(n_max)) scans.
    Exact tables hold r^m-scaled integers, y = p/r: the shift multiplies
    by p r^{2d-2}, the scans by r^d and p r^{d-1}. Floats pass p = y, r = 1.
    """
    n1 = a.shape[0]
    t = a.copy()  # T_0 = 1 on the window m >= 0
    d = 1
    while d * d < n1:
        lo = d * d
        # T_{d-1} lives on m >= (d-1)^2, so T_{d-1}[m - 2d + 1] sits at
        # index m - d^2 of its window
        t = p * r ** (2 * d - 2) * t[:n1 - lo]
        _scan(t, d, r ** d)
        _scan(t, d, p * r ** (d - 1))
        a[lo:] += t
        d += 1


def _short_form(d: list, r: int) -> tuple[list, int]:
    """(p, t) with (1 - r z)^t D(z) = P(z) below degree len(d), where
    D(z) = sum_i d[i] z^i and P(z) = sum_j p[j] z^j.

    Up to _MAX_DIFFERENCES successive differences d[i] - r d[i-1] are
    taken, and the t whose P, cut after its last nonzero entry, is shortest
    is kept (the smallest such t). d[i] = poly(i) r^i with poly of degree
    beta gives at most beta + 1 entries at t = beta + 1; t = 0 keeps D
    itself, cut.
    """
    best, best_t = _cut(d), 0
    for t in range(1, _MAX_DIFFERENCES + 1):
        d = d[:1] + [d[i] - r * d[i - 1] for i in range(1, len(d))]
        p = _cut(d)
        if len(p) < len(best):
            best, best_t = p, t
    return best, best_t


def _cut(p: list) -> list:
    """p without its trailing zeros."""
    end = len(p)
    while end and not p[end - 1]:
        end -= 1
    return p[:end]


def _exponential_terms(bs: list, c):
    """(d', r) with d'_i = d_i r^i, d_i = i b_i c, for i = 1..len(bs), in ints.

    r is the least common denominator of the d_i, read from the numerators
    and denominators of the b_i and of c, so no Fraction is formed.
    """
    nums, dens = [], []
    for i, b in enumerate(bs, 1):
        num, den = i * b.numerator * c.numerator, b.denominator * c.denominator
        g = math.gcd(num, den)
        nums.append(num // g)
        dens.append(den // g)
    r = math.lcm(*dens)
    d, rp = [], 1
    for num, den in zip(nums, dens):
        rp *= r
        d.append(num * (rp // den))
    return d, r


def _build(e: Ensemble, n_max: int, exact: bool) -> np.ndarray:
    """a_0..a_{n_max}: Python ints/Fractions when exact, long doubles otherwise.

    An exponential series gives F = exp(sum_i d_i z^i / i), d_i = i c b_i,
    so F' = D F with D = sum_i d_i z^{i-1}: m a_m = sum_{i<=m} d_i a_{m-i}.
    Exact tables run it on A_m = n_max! r^m a_m with the integers
    d'_i = d_i r^i, r the common denominator of the d_i, and in its short
    form: with (1 - r z)^t D'(z) = P(z) below degree n_max (_short_form),
    m A_m = sum_j p_j A_{m-1-j} - sum_{j=1..t} q_j (m-j) A_{m-j},
    q_j = C(t, j) (-r)^j. That is O(n_max (deg P + t)) big-integer steps,
    deg P <= beta where k b_k is a polynomial of degree beta in k (gibbs
    with integer beta, ordered_lists, ewens, integer power laws). Float
    tables and weights with no short form keep t = 0, the full dot in
    O(n_max^2). A geometric series with b_k = 1 for every k <= n_max
    (uniform, weighted(y)) is summed over Durfee squares in
    O(n_max^{3/2}) operations (_durfee_sum). Other series go factor by
    factor: b_k scans of 1/(1 - y x^k) for a geometric series with integer
    b_k <= 64, a stride convolution with f(x^k)^{b_k} otherwise. Exact
    geometric tables run on r^m a_m, r the denominator q of y = p/q. The
    last step divides the scaling out.
    """
    series = e.series
    bs = (e.weights.exact_values(n_max) if exact
          else e.weights.values(np.arange(1, n_max + 1)).tolist())
    a = np.zeros(n_max + 1, dtype=object if exact else np.longdouble)
    a[0] = r = 1
    geometric = isinstance(series, GeometricSeries)
    exponential = isinstance(series, ExponentialSeries)
    if geometric:
        # y = p/r; floats keep y whole in p, with r = 1
        y = (series.exact_coefficient(1) if exact
             else np.longdouble(series.coefficient(1)))
        p, r = (y.numerator, y.denominator) if exact else (y, 1)
    if exponential:
        if exact:
            d, r = _exponential_terms(bs, series.exact_coefficient(1))
            p, t = _short_form(d, r)
            a[0] = math.factorial(n_max)
        else:
            rate = float(series.rate)
            p, t = [k * b * rate for k, b in enumerate(bs, 1)], 0
        q = [math.comb(t, j) * (-r) ** j for j in range(t + 1)]
        top = len(p)
        # rev[i] = p_{top-1-i}, so the P part of each step is one
        # contiguous dot
        rev = np.array(p[::-1], dtype=a.dtype)
        for m in range(1, n_max + 1):
            lo = m - top if m > top else 0
            acc = np.dot(a[lo:m], rev[top - m + lo:])
            for j in range(1, min(t, m - 1) + 1):
                acc -= q[j] * (m - j) * a[m - j]
            a[m] = acc // m if exact else acc / m
    elif geometric and all(b == 1 for b in bs):
        _durfee_sum(a, p, r)
    else:
        for k, b in enumerate(bs, 1):
            if not b:
                continue
            reps = b.numerator if exact else round(b)
            whole = b.denominator == 1 if exact else abs(b - reps) < 1e-12
            if geometric and whole and 1 <= b <= 64:
                # y r^k = p r^(k-1): an int multiplier keeps the scan fast
                for _ in range(reps):
                    _scan(a, k, p * r ** (k - 1))
                continue
            w = power_coefficients(series, b, n_max // k)
            if exact and any(isinstance(wj, float) for wj in w):
                raise TableError("series coefficients are not exactly "
                                 "representable; use float mode")
            _convolve_stride(a, k, np.array(
                [wj * r ** (k * j) for j, wj in enumerate(w)], dtype=a.dtype))
    if not exact:
        if not np.isfinite(a).all():
            raise TableError(
                "float coefficients overflowed extended precision; "
                "reduce n_max or use a rational ensemble for exact mode")
    elif exponential or r != 1:
        if exponential:
            # m! r^m a_m is an integer, the cycle-index sum over S_m of the
            # products of d'_i over the cycles, so n_max!/m! divides out
            # exactly before the one gcd per entry
            tail = 1
            for m in range(n_max, -1, -1):
                a[m] //= tail
                tail *= m
        s = 1
        for m in range(n_max + 1):
            a[m] = _maybe_int(Fraction(a[m], s))
            s *= r * (m + 1) if exponential else r
    return a


def _factor_weights_float(e: Ensemble, k: int, b: float, n_max: int,
                          x0: float) -> np.ndarray:
    """Tilted factor coefficients wtilde_j = [z^j] f(z)^b * x0^{k j}, b = b_k.

    Trailing entries below FACTOR_WEIGHT_CUT of the running maximum are
    dropped.
    """
    j_max = n_max // k
    tilt = x0 ** k
    if tilt == 0.0:
        # underflowed tilt: only the empty occupancy survives
        return np.array([1.0])
    series = e.series if tilt == 1.0 else e.series.tilted(tilt)
    w = np.asarray(power_coefficients(series, b, j_max), dtype=np.float64)
    keep = np.nonzero(w >= FACTOR_WEIGHT_CUT * max(np.max(w), 1.0))[0]
    if keep.size and keep[-1] + 1 < w.size:
        w = w[:keep[-1] + 1]
    return w


def _build_prefix(e: Ensemble, n_max: int, x0: float):
    rows: list[np.ndarray] = [np.zeros(n_max + 1)]
    rows[0][0] = 1.0
    cur = rows[0]
    bs = e.weights.values(np.arange(1, n_max + 1)).tolist()
    for k, b in enumerate(bs, 1):
        if b == 0.0:
            rows.append(cur)
            continue
        w = _factor_weights_float(e, k, b, n_max, x0)
        nxt = cur.copy()
        for j in range(1, len(w)):
            off = k * j
            if off > n_max:
                break
            nxt[off:] += w[j] * cur[:n_max + 1 - off]
        rows.append(nxt)
        cur = nxt
    if not np.isfinite(cur).all() or cur[n_max] == 0.0 and e.weights.b_1 > 0:
        raise TableError(f"prefix rows degenerate at tilt x0={x0}")
    return rows


def coefficients(e: Ensemble, n_max: int, *, mode: str = "auto",
                 keep_prefix: bool = False) -> CoefficientTable:
    """Build a_0..a_{n_max}.

    mode: "auto" picks exact arithmetic when the ensemble is rational,
    extended floats otherwise or when a coefficient read turns out inexact;
    "exact"/"float" force the arithmetic. Both run the same builder, whose
    cost counts operations on table entries: the log-derivative recurrence
    for an exponential series, O(n_max (deg P + t)) in its short form
    (exact tables whose (1 - r z)^t D(z) = P(z) is short, see _build) and
    O(n_max^2) as the full dot otherwise; the Durfee-square sum,
    O(n_max^{3/2}), for a geometric series with b_k = 1 at every
    k <= n_max (uniform, weighted(y)); otherwise b_k scans of O(n_max) each
    for geometric factors with integer b_k <= 64, and stride convolutions
    for every other factor, O(n_max^2 log n_max) in all. Only the array
    type, the integer scalings of the exact tables and the last step
    (unscale, or the overflow check) differ.

    keep_prefix also retains the rows tilted by the x solving mean = n_max
    (memory grows quadratically: capped at n_max = 5000).
    """
    if n_max < 0:
        raise ParamError("n_max must be >= 0")
    if mode not in ("auto", "exact", "float"):
        raise ParamError(f"unknown mode {mode!r}")
    exact = e.is_rational if mode == "auto" else mode == "exact"
    if exact and not e.is_rational:
        raise ParamError("exact mode needs rational series and weights")

    try:
        values = _build(e, n_max, exact)
    except TableError:  # a rule judged rational by g_1 turned inexact later
        if mode != "auto" or not exact:
            raise
        exact, values = False, _build(e, n_max, False)
    if values[0] != 1:
        raise TableError("a_0 != 1: factor normalization broken")
    # an exact entry has the sign of its numerator, read without a
    # Fraction compare
    if exact and e.weights.b_1 > 0 and any(
            v.numerator <= 0 for v in values[1:].tolist()):
        raise TableError("nonpositive coefficient in an ensemble with b_1 > 0")

    prefix = None
    tilt = 1.0
    if keep_prefix:
        if n_max > PREFIX_CAP:
            raise ParamError(
                f"prefix rows capped at n_max={PREFIX_CAP} (quadratic memory)")
        tilt = solve_tilt(e, max(n_max, 1)).x_n
        prefix = _build_prefix(e, n_max, tilt)

    return CoefficientTable(n_max=n_max, values=values, exact=exact,
                            x0=tilt, prefix=prefix)


# ---------------------------------------------------------------------------
# point masses


def _log_derivative_weights(e: Ensemble, x: float, m_max: int,
                            nu: np.ndarray | None = None):
    """(c, positive) with c_i = x^i sum_{k|i} k b_k mu_{i/k}, i <= m_max.

    mu_j = j [z^j] log f, taken tilted (nu_j = mu_j x^j, from
    series.log_coefficients(m_max, x) unless passed in) so that
    k b_k nu_j x^{(k-1) j} stays in range. Pairs (k, j) with k j <= m_max
    are visited as one vector per small k and one per small j. When some
    nu_j is negative, positive is False if a c_i is negative beyond its
    rounding error; c then cannot drive a positive recurrence.
    """
    if nu is None:
        nu = e.series.log_coefficients(m_max, x)
    ks = np.arange(1, m_max + 1)
    kb = ks * e.weights.values(ks)
    signed = bool((nu < 0.0).any())
    nus = (nu, np.abs(nu)) if signed else (nu,)
    out = [np.zeros(m_max + 1) for _ in nus]
    root = math.isqrt(m_max)
    for k in np.nonzero(kb[:root])[0] + 1:
        js = np.arange(1, m_max // k + 1)
        tilt = kb[k - 1] * np.power(x, ((k - 1) * js).astype(np.float64))
        for c, v in zip(out, nus):
            c[k * js] += tilt * v[js]
    for j in range(1, m_max // (root + 1) + 1):
        if nu[j] == 0.0:
            continue
        kk = ks[root:m_max // j]
        tilt = kb[kk - 1] * np.power(x, ((kk - 1) * j).astype(np.float64))
        for c, v in zip(out, nus):
            c[j * kk] += tilt * v[j]
    c = out[0]
    if not signed:
        return c, True
    if (c < -64 * _EPS * out[1]).any():
        return c, False
    return np.maximum(c, 0.0), True


def _mass_from_table(table: CoefficientTable, x: float, m: int,
                     log_F: float) -> float:
    log_a = table.log_coefficient(m)
    if log_a == -math.inf:
        return 0.0
    return math.exp(log_a + m * math.log(x) - log_F)


def _mass_recurrence(c: np.ndarray, m_max: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """(v, shift), p_m ~ v_m exp(shift_m) for m <= m_max, shift nondecreasing.

    Runs m p_m = sum_{i<=m} c_i p_{m-i} (one dot per m, c_i >= 0, forward
    stable) from v_0 = 1, dividing the run by _RESCALE whenever a value
    passes it. v_m keeps its own step's value: nothing overflows, and no
    mass underflows however far p_0 and p_m lie apart.
    """
    nz = np.nonzero(c)[0]
    top = int(nz[-1]) if nz.size else 0
    # rev[t] = c_{top-t}, so each step is one contiguous dot
    rev = c[top:0:-1].copy()
    r = np.zeros(m_max + 1)
    r[0] = 1.0
    v, shift = r.copy(), np.zeros(m_max + 1)
    start = 0  # v holds the values of steps before start
    for m in range(1, m_max + 1):
        lo = m - top if m > top else 0
        val = r[m] = float(np.dot(r[lo:m], rev[top - m + lo:])) / m
        if val > _RESCALE:
            v[start:m + 1] = r[start:m + 1]
            start = m + 1
            r[:m + 1] /= _RESCALE
            shift[start:] += math.log(_RESCALE)
    v[start:] = r[start:]
    return v, shift


def _tilted_masses(e: Ensemble, x: float, m_max: int) -> np.ndarray:
    """p_m = a_m x^m / F(x) for m = 0..m_max, without a coefficient table.

    Runs the recurrence of _mass_recurrence from p_0 = 1/F(x); masses
    below the float range come out as zero. Where a c_i is negative (a
    series whose logarithm has negative coefficients, e.g. 1 + z + z^2 on
    parts not divisible by 3), the masses come from coefficients(e, m_max)
    instead, which raises the typed error when a factor is not an
    admissible count law.
    """
    log_F = log_partition_value(e, x)
    c, positive = _log_derivative_weights(e, x, m_max)
    if not positive:
        table = coefficients(e, m_max)
        return np.array([_mass_from_table(table, x, m, log_F)
                         for m in range(m_max + 1)])
    v, shift = _mass_recurrence(c, m_max)
    half = np.exp(0.5 * (shift - log_F))
    return v * half * half


def point_mass(e: Ensemble, x: float, m: int) -> float:
    """mu_x(total size = m) = a_m x^m / F(x).

    Runs the tilted Euler-transform recurrence up to m; no table is built
    and no truncation can occur.
    """
    e.check_tilt(x)
    if x == 0.0:  # the table fallback takes log x
        raise ParamError("point_mass needs x > 0")
    if m < 0:
        raise ParamError("m must be >= 0")
    return float(_tilted_masses(e, x, m)[m])


def local_limit_probe(e: Ensemble, x: float, u_grid) -> list[tuple[float, float]]:
    """(u, sqrt(Var) * mu_x(m(u))) at m(u) = round(mean + u * sd).

    The values approach the Gaussian density exp(-u^2/2)/sqrt(2 pi) as
    x -> rho in the ergodic regimes. The tilted recurrence runs once, up
    to the largest probed m.
    """
    e.require("local_limit_probe")
    us = [float(u) for u in u_grid]
    if not us:
        return []
    mean, var = e.mean_var(x)
    sd = math.sqrt(var)
    ms = [max(int(round(mean + u * sd)), 0) for u in us]
    masses = _tilted_masses(e, x, max(ms))
    return [(u, sd * float(masses[m])) for u, m in zip(us, ms)]

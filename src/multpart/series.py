"""Single-part generating functions and their powers.

A multiplicative partition measure is assembled from one power series

    f(z) = sum_{j>=0} g_j z^j,   g_0 = 1,  g_j >= 0,

whose value at z = x^k controls how many parts of size k appear. Everything
downstream needs three views of f:

* coefficients g_j (exact rationals whenever the inputs are rational),
* the logarithmic derivative h = f'/f with its first two derivatives,
  evaluated inside the disc of convergence,
* coefficients of powers f**b, which give the count law for one part size
  when the weight attached to that size is b,
* coefficients of the logarithm, j [z^j] log f(s z), which drive the
  Euler-transform recurrence for the coefficients of the whole product.

The radius of convergence rho_1 and a descriptor of the singularity on the
positive axis (a pole of known order, an essential singularity, or nothing
within reach) are part of the type: the regime classification and the
tail integrals read them directly.

Truncated evaluation of user-supplied coefficient series is only trusted up
to 0.999*rho_1; nearer the singularity the closed-form kinds must be used.

A CustomSeries keeps g_0, g_1, ... in one cached float array. A polynomial
stores its sequence once. A coefficient rule fills the array by doubling,
calls the rule at most once per index, and stops at 10^6 + 1 entries or
where the rule leaves the float range. A rule is summed at u through the
first j > 8 with g_j u^j < 1e-16 f, f being the sum of the terms up to j;
when no cached j qualifies, evaluation raises DomainError. The sums f, f',
f'' and f''' at many points are one matrix product: the powers
u^0..u^{m-1}, one row per point, times the rows (g_j, (j+1) g_{j+1},
(j+1)(j+2) g_{j+2}, (j+1)(j+2)(j+3) g_{j+3}), so nothing is divided by u.
Points are taken largest first: every point in (u_m^2, u_m] takes the term
count of the largest one, u_m, and the power rows are built in chunks of
about 2^20 entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DomainError, NegativeCoefficientError, ParamError

Number = Union[int, float, Fraction]

# Evaluation of a truncated coefficient series is refused beyond this
# fraction of the radius: the geometric tail bound degenerates there.
EVAL_RADIUS_FRACTION = 0.999
_REL_TOL = 1e-16
_EPS_LONG = float(np.finfo(np.longdouble).eps)
_MAX_TERMS = 10 ** 6
# largest power matrix built at once, in entries
_CHUNK_ENTRIES = 1 << 20


def _as_exact(value: Number) -> Fraction | None:
    """Return value as a Fraction when it is exactly representable."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float) and value == int(value):
        return Fraction(int(value))
    return None


def _maybe_int(q: Fraction) -> int | Fraction:
    return q.numerator if q.denominator == 1 else q


@dataclass(frozen=True)
class Singularity:
    """Nature of f on the positive axis at rho_1.

    kind is "pole" (order may be any positive real: powers of a simple pole
    produce non-integer orders), "essential", or "none" (entire functions,
    or polynomials whose radius is infinite).
    """

    kind: str
    order: float | None = None

    def __post_init__(self):
        if self.kind not in ("pole", "essential", "none"):
            raise ParamError(f"unknown singularity kind {self.kind!r}")
        if self.kind == "pole":
            if self.order is None or self.order <= 0:
                raise ParamError("pole singularity needs a positive order")
        elif self.order is not None:
            raise ParamError(f"{self.kind} singularity takes no order")

    @property
    def is_pole(self) -> bool:
        return self.kind == "pole"


class SeriesFunction:
    """Base class: a power series with nonnegative coefficients, g_0 = 1."""

    kind = "abstract"
    radius: float = math.inf
    singularity: Singularity = Singularity("none")

    # True when evaluation is by truncated summation and therefore refused
    # near the radius; quadrature code switches to a series-free treatment
    # of the affected integration range.
    truncated_eval = False

    # -- coefficients ------------------------------------------------------

    def coefficient(self, j: int) -> float:
        raise NotImplementedError

    def exact_coefficient(self, j: int) -> Fraction | None:
        """g_j as an exact rational, or None when not representable."""
        return None

    @property
    def is_rational(self) -> bool:
        return self.exact_coefficient(1) is not None

    # -- evaluation --------------------------------------------------------

    def eval_with_derivatives(self, u: float) -> tuple[float, float, float, float]:
        """Return (f(u), h(u), h'(u), h''(u)) with h = f'/f.

        u must lie in [0, rho_1); truncated kinds additionally require
        u < 0.999*rho_1.
        """
        raise NotImplementedError

    def log_eval_bundles(self, v: np.ndarray) -> tuple[np.ndarray, ...]:
        """(h, h', h'') at u = exp(-v) for every point of the array v.

        The closed-form kinds keep full relative precision as u -> 1, so
        quadrature integrands stay accurate down to v = 0.
        """
        raise NotImplementedError

    def h_vector(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (h(u), h'(u)) for moment sums.

        Default: from the power sums f, f', f'' at all points at once.
        """
        s = self._power_sums(u)
        h = s[:, 1] / s[:, 0]
        return h, s[:, 2] / s[:, 0] - h * h

    def _power_sums(self, u: np.ndarray) -> np.ndarray:
        """Rows (f, f', f'', f''') at the points of u, domain checked."""
        raise NotImplementedError

    def log_value(self, u: float) -> float:
        """ln f(u), stable when f(u) is near 1 or very large."""
        return math.log(self.eval_with_derivatives(u)[0])

    def log_values(self, u: np.ndarray) -> np.ndarray:
        """ln f at every point of u, domain checked."""
        raise NotImplementedError

    def log_coefficients(self, j_max: int, scale: float = 1.0) -> np.ndarray:
        """nu_j = j [z^j] log f(scale z) for j = 0..j_max, nu_0 = 0."""
        raise NotImplementedError

    def _check_domain(self, u: float, truncated: bool) -> None:
        if u < 0:
            raise DomainError(f"series evaluated at negative point u={u}")
        if u >= self.radius:
            raise DomainError(
                f"series evaluated at u={u} outside its disc (radius {self.radius})")
        if truncated and u > EVAL_RADIUS_FRACTION * self.radius:
            raise DomainError(
                f"truncated series evaluation refused at u={u}: beyond "
                f"{EVAL_RADIUS_FRACTION} of the radius {self.radius}; use a "
                "closed-form kind near the singularity")

    # -- powers and rescaling ----------------------------------------------

    def __pow__(self, exponent: Number) -> "SeriesFunction":
        if _as_exact(exponent) == 1:
            return self
        return PowerSeriesFunction(self, exponent)

    def tilted(self, scale: float) -> "SeriesFunction":
        """The series z -> f(scale * z).

        Folding a tilt into the series before extracting coefficients keeps
        every intermediate bounded; extracting raw g_j first and scaling
        afterwards overflows as soon as the g_j grow geometrically.
        """
        raise NotImplementedError


class GeometricSeries(SeriesFunction):
    """f(z) = 1/(1 - y z): each extra copy of a part multiplies mass by y.

    Simple pole at rho_1 = 1/y; g_j = y^j.
    """

    kind = "geometric"

    def __init__(self, weight: Number = 1):
        if not (weight > 0):
            raise ParamError(f"geometric weight must be positive, got {weight}")
        self.weight = weight
        self._y = float(weight)
        self._exact_y = _as_exact(weight)
        self.radius = 1.0 / self._y
        self.singularity = Singularity("pole", 1.0)

    def __repr__(self):
        return f"GeometricSeries(weight={self.weight})"

    def coefficient(self, j: int) -> float:
        return self._y ** j

    def exact_coefficient(self, j: int) -> Fraction | None:
        if self._exact_y is None:
            return None
        return self._exact_y ** j

    def eval_with_derivatives(self, u):
        self._check_domain(u, truncated=False)
        y = self._y
        d = 1.0 - y * u
        f = 1.0 / d
        h = y / d
        return f, h, y * h / d, 2.0 * y * y * h / (d * d)

    def log_eval_bundles(self, v):
        y = self._y
        if y == 1.0:
            d = -np.expm1(-v)          # 1 - e^{-v} at full relative precision
        else:
            d = 1.0 - y * np.exp(-v)
        if np.any(d <= 0.0):
            raise DomainError(
                f"log-scale evaluation at v={np.min(v)} outside the disc")
        h = y / d
        return h, y * h / d, 2.0 * y * y * h / (d * d)

    def h_vector(self, u):
        d = 1.0 - self._y * u
        h = self._y / d
        return h, self._y * h / d

    def log_value(self, u):
        self._check_domain(u, truncated=False)
        return -math.log1p(-self._y * u)

    def log_values(self, u):
        u = np.asarray(u, dtype=np.float64)
        if u.size:
            self._check_domain(float(u.min()), truncated=False)
            self._check_domain(float(u.max()), truncated=False)
        return -np.log1p(-self._y * u)

    def log_coefficients(self, j_max, scale=1.0):
        # log 1/(1 - y z) = sum_j (y z)^j / j
        nu = np.power(self._y * scale, np.arange(j_max + 1, dtype=np.float64))
        nu[0] = 0.0
        return nu

    def tilted(self, scale: float) -> "GeometricSeries":
        if not (scale > 0):
            raise ParamError(f"tilt scale must be positive, got {scale}")
        return GeometricSeries(self.weight * scale)


class ExponentialSeries(SeriesFunction):
    """f(z) = exp(c z): entire, h identically c. g_j = c^j / j!."""

    kind = "exponential"

    def __init__(self, rate: Number = 1):
        if not (rate > 0):
            raise ParamError(f"exponential rate must be positive, got {rate}")
        self.rate = rate
        self._c = float(rate)
        self._exact_c = _as_exact(rate)
        self.radius = math.inf
        self.singularity = Singularity("none")

    def __repr__(self):
        return f"ExponentialSeries(rate={self.rate})"

    def coefficient(self, j: int) -> float:
        try:
            return self._c ** j / math.factorial(j)
        except OverflowError:
            # c^j or j! leaves the float range (j! from j = 171); the
            # ratio need not
            return math.exp(j * math.log(self._c) - math.lgamma(j + 1))

    def exact_coefficient(self, j: int) -> Fraction | None:
        if self._exact_c is None:
            return None
        return self._exact_c ** j / Fraction(math.factorial(j))

    def eval_with_derivatives(self, u):
        self._check_domain(u, truncated=False)
        return math.exp(self._c * u), self._c, 0.0, 0.0

    def log_eval_bundles(self, v):
        return np.full_like(v, self._c), np.zeros_like(v), np.zeros_like(v)

    def h_vector(self, u):
        return np.full_like(u, self._c), np.zeros_like(u)

    def log_value(self, u):
        self._check_domain(u, truncated=False)
        return self._c * u

    def log_values(self, u):
        u = np.asarray(u, dtype=np.float64)
        if u.size:
            self._check_domain(float(u.min()), truncated=False)
        return self._c * u

    def log_coefficients(self, j_max, scale=1.0):
        nu = np.zeros(j_max + 1)
        if j_max >= 1:
            nu[1] = self._c * scale
        return nu

    def __pow__(self, exponent: Number) -> "SeriesFunction":
        # exp(cz)^b = exp(cb z): stay in closed form so downstream fast
        # paths (Poisson sampling, constant h) survive normalization trades.
        if _as_exact(exponent) == 1:
            return self
        if not (exponent > 0):
            raise ParamError(f"series exponent must be positive, got {exponent}")
        return ExponentialSeries(self.rate * exponent)

    def tilted(self, scale: float) -> "ExponentialSeries":
        if not (scale > 0):
            raise ParamError(f"tilt scale must be positive, got {scale}")
        return ExponentialSeries(self.rate * scale)


def _term_rows(g: np.ndarray, m: int) -> np.ndarray:
    """Rows j < m of (g_j, (j+1) g_{j+1}, (j+1)(j+2) g_{j+2}, (j+1)(j+2)(j+3) g_{j+3}).

    u^j times row j is the j-th term of (f, f', f'', f'''); g is zero past
    its end.
    """
    rows = np.zeros((m + 3, 4))
    n = min(g.size, m + 3)
    rows[:n, 0] = g[:n]
    a = np.arange(1.0, m + 3)
    for k in (1, 2, 3):
        rows[:-1, k] = a * rows[1:, k - 1]
    return rows[:m]


def _log_derivatives(f, d1, d2, d3):
    """(h, h', h'') of h = f'/f from f and its first three derivatives."""
    h = d1 / f
    return h, d2 / f - h * h, d3 / f - 3.0 * (d2 / f) * h + 2.0 * h ** 3


def _powers(u: np.ndarray, m: int) -> np.ndarray:
    """u^0..u^{m-1} along the last axis, with 0^0 = 1."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = np.multiply.outer(np.log(u), np.arange(m, dtype=np.float64))
        np.exp(p, out=p)
    p[..., 0] = 1.0
    return p


class CustomSeries(SeriesFunction):
    """A series given by its coefficients, with declared radius/singularity.

    coefficients may be a finite sequence (a polynomial: zero beyond the end)
    or a callable j -> g_j. The declared radius and singularity are trusted;
    they are how downstream code classifies the ensemble.
    """

    kind = "custom"

    def __init__(self, coefficients: Sequence[Number] | Callable[[int], Number],
                 radius: float = math.inf,
                 singularity: Singularity = Singularity("none")):
        if callable(coefficients):
            self._fn = coefficients
            self._seq = None
            if not (radius > 0):
                raise ParamError("callable coefficients need a positive radius")
            # the cached coefficients; _full once the rule can add no more
            self._g = np.zeros(0)
            self._full = False
        else:
            self._seq = list(coefficients)
            self._fn = None
            if not self._seq or self._seq[0] != 1:
                raise ParamError("coefficient sequence must start with g_0 = 1")
            if any(g < 0 for g in self._seq):
                raise ParamError("coefficients must be nonnegative")
            self._g = np.array(self._seq, dtype=np.float64)
            self._full = True
        if self._fn is not None and self.coefficient(0) != 1:
            raise ParamError("coefficient rule must give g_0 = 1")
        # g_1 > 0 keeps single-part partitions in the support (a_1 > 0).
        if not (self.coefficient(1) > 0):
            raise ParamError("coefficient g_1 must be positive")
        self.radius = float(radius)
        self.singularity = singularity

    def __repr__(self):
        src = "rule" if self._fn is not None else f"{len(self._seq)} coefficients"
        return f"CustomSeries({src}, radius={self.radius})"

    @property
    def _is_polynomial(self) -> bool:
        return self._seq is not None

    @property
    def truncated_eval(self) -> bool:
        return not self._is_polynomial

    def _grow(self, m: int) -> None:
        """Cache at least m coefficients of the rule, if it can give them."""
        have = self._g.size
        if self._full or m <= have:
            return
        g = []
        for j in range(have, min(max(m, 2 * have), _MAX_TERMS + 1)):
            try:
                v = float(self._fn(j))
            except OverflowError:
                v = math.inf
            if not math.isfinite(v):
                self._full = True
                break
            if v < 0.0:
                raise ParamError("coefficients must be nonnegative")
            g.append(v)
        self._g = np.concatenate((self._g, g))
        self._full = self._full or self._g.size > _MAX_TERMS

    def _rule(self, j: int) -> Number:
        """g_j straight from the rule, refused when negative as _grow does."""
        g = self._fn(j)
        if g < 0:
            raise ParamError("coefficients must be nonnegative")
        return g

    def coefficient(self, j: int) -> float:
        self._grow(j + 1)
        if j < self._g.size:
            return float(self._g[j])
        return 0.0 if self._is_polynomial else float(self._rule(j))

    def exact_coefficient(self, j: int) -> Fraction | None:
        if self._seq is not None:
            g = self._seq[j] if j < len(self._seq) else 0
        else:
            g = self._rule(j)
        return _as_exact(g)

    @property
    def is_rational(self) -> bool:
        # a listed polynomial is judged by every coefficient; a rule only
        # by g_1, and power_coefficients checks the coefficients it reads
        if self._seq is not None:
            return all(_as_exact(g) is not None for g in self._seq)
        return super().is_rational

    def _term_count(self, u: float) -> int:
        """Number of terms summed at u and at every smaller point."""
        if self._is_polynomial:
            return self._g.size
        # bounded coefficients reach the stop near j = 37/|ln u|: search
        # there first, the window doubling only for growing coefficients
        m = 16
        if 0.0 < u < 1.0:
            m = min(max(m, int(-40.0 / math.log(u))), _MAX_TERMS + 1)
        while True:
            self._grow(m)
            g = self._g[:m]
            with np.errstate(invalid="ignore"):   # 0 * inf past the float range
                t = g * _powers(u, g.size)
            f = np.cumsum(t)
            hit = np.flatnonzero(t[9:] < _REL_TOL * f[9:])
            if hit.size:
                return int(hit[0]) + 10
            # no more terms to try, or the partial sums left the float range
            if g.size < m or not math.isfinite(f[-1]):
                raise DomainError(
                    f"coefficient series did not converge numerically at u={u}")
            m *= 2

    def _power_sums(self, u, drop_constant: bool = False):
        # Polynomials are exact anywhere; genuine series are truncated and
        # refuse evaluation too close to the declared radius. drop_constant
        # leaves out g_0, so the first column is f - 1 at full precision.
        u = np.asarray(u, dtype=np.float64)
        out = np.empty((u.size, 4))
        if not u.size:
            return out
        order = np.argsort(-u)
        neg = -u[order]
        truncated = self.truncated_eval
        self._check_domain(-float(neg[-1]), truncated)
        self._check_domain(-float(neg[0]), truncated)
        start = 0
        while start < u.size:
            top = -float(neg[start])
            if not truncated:
                end = u.size
            else:
                end = max(int(np.searchsorted(neg, -top * top, side="right")),
                          start + 1)
            m = self._term_count(top)
            # the derivative weights of the last rows read g_m..g_{m+2}; with
            # them cached, a point's sums do not depend on the cache's history
            self._grow(m + 3)
            rows = _term_rows(self._g, m)
            if drop_constant:
                rows[0, 0] = 0.0
            step = max(1, _CHUNK_ENTRIES // m)
            for lo in range(start, end, step):
                hi = min(lo + step, end)
                out[order[lo:hi]] = _powers(-neg[lo:hi], m) @ rows
            start = end
        return out

    def eval_with_derivatives(self, u):
        f, d1, d2, d3 = self._power_sums(np.array([u]))[0].tolist()
        return (f,) + _log_derivatives(f, d1, d2, d3)

    def log_eval_bundles(self, v):
        return _log_derivatives(*self._power_sums(np.exp(-v)).T)

    def log_values(self, u):
        return np.log1p(self._power_sums(u, drop_constant=True)[:, 0])

    def log_coefficients(self, j_max, scale=1.0):
        """The log-series recurrence j g_j = sum_{i<=j} nu_i g_{j-i}.

        It runs on the tilted coefficients g_j scale^j in extended precision:
        nu_j is a difference of terms about j^2 times larger. Values within
        rounding of zero are set to zero, so a sign that survives is a real
        one. Tilted coefficients below the float64 range are dropped.
        """
        self._grow(j_max + 1)
        g = np.zeros(j_max + 1, dtype=np.longdouble)
        have = min(self._g.size, j_max + 1)
        g[:have] = self._g[:have]
        if not self._is_polynomial:
            g[have:] = [float(self._fn(j)) for j in range(have, j_max + 1)]
        g *= np.power(np.longdouble(scale), np.arange(j_max + 1))
        nz = np.nonzero(g[1:].astype(np.float64))[0]
        top = int(nz[-1]) + 1 if nz.size else 0
        # grev[t] = g_{top-t}, so each step is one contiguous product with
        # the rows nu and |nu|
        grev = g[top:0:-1].copy()
        nu = np.zeros((2, j_max + 1), dtype=np.longdouble)
        for j in range(1, j_max + 1):
            lo = max(1, j - top)
            head = j * g[j] if j <= top else 0.0
            d, size = np.dot(nu[:, lo:j], grev[top - j + lo:top])
            v = head - d
            if abs(v) > 4 * j * _EPS_LONG * (head + size):
                nu[:, j] = v, abs(v)
        return nu[0].astype(np.float64)

    def tilted(self, scale: float) -> "CustomSeries":
        if not (scale > 0):
            raise ParamError(f"tilt scale must be positive, got {scale}")
        if self._seq is not None:
            scaled = []
            p = 1.0
            for g in self._seq:
                scaled.append(g * p)
                p *= scale
            return CustomSeries(scaled, radius=self.radius / scale,
                                singularity=self.singularity)
        fn = self._fn
        return CustomSeries(lambda j: fn(j) * scale ** j,
                            radius=self.radius / scale,
                            singularity=self.singularity)


class PowerSeriesFunction(SeriesFunction):
    """f**b for a positive real exponent b.

    The logarithmic derivative scales linearly (h_{f^b} = b*h_f), the radius
    is unchanged, and a pole of order m becomes one of order b*m. Coefficients
    come from the power-of-series recurrence on demand.
    """

    kind = "power"

    def __init__(self, base: SeriesFunction, exponent: Number):
        if not (exponent > 0):
            raise ParamError(f"series exponent must be positive, got {exponent}")
        self.base = base
        self.exponent = exponent
        self._b = float(exponent)
        self.radius = base.radius
        s = base.singularity
        if s.is_pole:
            self.singularity = Singularity("pole", s.order * self._b)
        else:
            self.singularity = s
        self._cache: list = []

    def __repr__(self):
        return f"({self.base!r}) ** {self.exponent}"

    @property
    def truncated_eval(self) -> bool:
        return self.base.truncated_eval

    def _extend(self, j: int) -> None:
        if len(self._cache) > j:
            return
        need = max(j, 2 * len(self._cache), 16)
        self._cache = power_coefficients(self.base, self.exponent, need)

    def coefficient(self, j: int) -> float:
        self._extend(j)
        return float(self._cache[j])

    def exact_coefficient(self, j: int) -> Fraction | None:
        if _as_exact(self.exponent) is None or not self.base.is_rational:
            return None
        self._extend(j)
        c = self._cache[j]
        return None if isinstance(c, float) else Fraction(c)

    def eval_with_derivatives(self, u):
        f, h, hp, hpp = self.base.eval_with_derivatives(u)
        return f ** self._b, self._b * h, self._b * hp, self._b * hpp

    def log_eval_bundles(self, v):
        h, hp, hpp = self.base.log_eval_bundles(v)
        return self._b * h, self._b * hp, self._b * hpp

    def h_vector(self, u):
        h, hp = self.base.h_vector(u)
        return self._b * h, self._b * hp

    def log_value(self, u):
        return self._b * self.base.log_value(u)

    def log_values(self, u):
        return self._b * self.base.log_values(u)

    def log_coefficients(self, j_max, scale=1.0):
        return self._b * self.base.log_coefficients(j_max, scale)

    def tilted(self, scale: float) -> "SeriesFunction":
        return PowerSeriesFunction(self.base.tilted(scale), self.exponent)


def power_coefficients(f: SeriesFunction, b: Number, j_max: int) -> list:
    """First j_max+1 coefficients of f(z)**b via the power-of-series recurrence.

    With f = sum g_i z^i, g_0 = 1, the coefficients c_j of f**b satisfy

        j*c_j = sum_{i=1..j} (i*(b+1) - j) * g_i * c_{j-i},  c_0 = 1,

    which needs one pass and no polynomial products. Arithmetic is exact
    (Fraction/int) when b and every g_i read are rational, double precision
    otherwise.

    Raises NegativeCoefficientError when a genuinely negative coefficient
    appears: f**b is then not an admissible count generating function. In
    exact arithmetic that is any negative one; in floats one below -1e-9
    of the largest so far, and smaller negatives are rounding, clamped to 0.
    """
    if j_max < 0:
        raise ParamError("j_max must be >= 0")
    if not (b >= 0):
        raise ParamError(f"power exponent must be nonnegative, got {b}")
    if b == 0:
        # f**0 = 1 regardless of f
        return [1] + [0] * j_max

    b_exact = _as_exact(b)
    g = None
    if b_exact is not None and f.is_rational:
        g = [f.exact_coefficient(i) for i in range(j_max + 1)]
        if any(gi is None for gi in g):
            g = None  # a rule that turns inexact past the coefficients judged
    exact = g is not None
    if not exact:
        g = [f.coefficient(i) for i in range(j_max + 1)]
    if b_exact == 1:
        return [_maybe_int(gi) for gi in g] if exact else g
    bp = b_exact + 1 if exact else float(b) + 1.0
    zero = Fraction(0) if exact else 0.0
    c: list = [zero + 1]
    scale = 1.0
    for j in range(1, j_max + 1):
        acc = zero
        for i in range(1, j + 1):
            gi = g[i]
            if gi:
                acc += (i * bp - j) * gi * c[j - i]
        cj = acc / j
        scale = max(scale, abs(cj))
        if cj < (0 if exact else -1e-9 * scale):
            raise NegativeCoefficientError(
                f"coefficient {j} of f**{b} is negative: {cj}")
        c.append(cj if exact else max(cj, 0.0))
    return [_maybe_int(q) for q in c] if exact else c

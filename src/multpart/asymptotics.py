"""Normalization and variance constants, limit shape, and the tilt solver.

Everything here lives in the v = -log u variable: with u = e^{-v} and
h = f'/f, define

    g(v) = u h(u),   G(v) = u (h + u h'),   H(v) = u (h + 3u h' + u^2 h''),

so that G = -g' and H = -G'. For cumulative weights B_k ~ theta * k^beta the
mean and variance of the total weight satisfy, as the tilt x approaches 1,

    mean_N(x) ~ theta * Omega   * (1-x)^-(beta+1)
    var_N(x)  ~ theta * sigma^2 * (1-x)^-(beta+2)

with the theta-free constants

    Omega   = int_0^inf (v^{beta+1} G - v^beta g) dv  ( = beta int v^beta g )
    sigma^2 = int_0^inf (v^{beta+2} H - 2 v^{beta+1} G) dv  ( = (beta+1) Omega )

and the scaled Young diagram of a conditioned sample concentrates on

    phi(t) = (1/Omega) ( int_t^inf v^beta G dv - t^beta g(t) ).

The combined integrands are the point: for a pole of f at 1 the separate
pieces diverge like v^{beta-1} but their difference stays O(v^beta), and the
closed-form series kinds evaluate the difference at full relative precision
down to v = 0.

Every integral is taken by one adaptive 21-point Gauss-Kronrod routine
(QUADPACK's qk21 rule) that works on arrays. The pieces it integrates
start cut at powers of 2, so most integrals finish in one round. Each round
evaluates the integrand once, on the nodes of every new interval. An
interval's error estimate is |K21 - G10|. Until a piece's summed estimate
meets the tolerance, its intervals above an equal share of it are
bisected. A piece that reaches _QUAD_LIMIT intervals, or an integrand that
raises DomainError or is not finite, raises QuadratureError.

The tilt x_n solves mean_N(x) = n; monotonicity of the mean makes the
solution unique, and var_N/x is its derivative, which Newton steps use
inside a hard bracket, starting from the scaling guess 1 - tau0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .ensemble import Ensemble, Regime
from .errors import ConvergenceError, DomainError, ParamError, QuadratureError
from .series import EVAL_RADIUS_FRACTION

_V_BASE = 40.0
# most intervals one piece of an integral may be split into
_QUAD_LIMIT = 300
# a tilt solve meets |mean - n| <= _TILT_REL_TOL n within _TILT_MAX_ITER steps
_TILT_REL_TOL = 1e-10
_TILT_MAX_ITER = 200

# QUADPACK's qk21 on [-1, 1]: Kronrod nodes x_1 > ... > x_10 > x_11 = 0
# and weights; the 10-point Gauss rule uses x_2, x_4, ..., x_10
_XK = np.array([
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
    0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
    0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
    0.14887433898163122, 0.0])
_WK = np.array([
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
    0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
    0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
    0.14773910490133849, 0.1494455540029169])
_WG = np.array([0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
                0.26926671930999635, 0.29552422471475287])
_GK_NODES = np.concatenate((-_XK[:-1], _XK[::-1]))
_GK_KRONROD = np.concatenate((_WK[:-1], _WK[::-1]))
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1::2] = np.concatenate((_WG, _WG[::-1]))
# starting cuts: halving toward the endpoint singularities at v = 0, doubling
# over the exponentially decaying tail
_CUTS = 2.0 ** np.arange(-30, 7)


def _upper_cutoff(beta: float, t: float = 0.0) -> float:
    # e^{-v} has exhausted v^{beta+2}-weighted mass to ~1e-14 by here
    return max(_V_BASE + 25.0 * max(0.0, beta - 1.0), t + 45.0 + 5.0 * beta)


# the integrands and the boundary term of phi, in v, beta, g, G and H
_INTEGRANDS = {
    "omega": lambda v, b, g, G, H: v ** (b + 1) * G - v ** b * g,
    "sigma_sq": lambda v, b, g, G, H: v ** (b + 2) * H - 2.0 * v ** (b + 1) * G,
    "shape": lambda v, b, g, G, H: v ** b * G,
    "boundary": lambda v, b, g, G, H: v ** b * g,
}


def _integrand(e: Ensemble, beta: float, name: str):
    """An integrand of _INTEGRANDS on arrays of v, stable for small v."""
    combine = _INTEGRANDS[name]

    def w(v):
        h, hp, hpp = e.series.log_eval_bundles(v)
        u = np.exp(-v)
        return combine(v, beta, u * h, u * (h + u * hp),
                       u * (h + 3.0 * u * hp + u * u * hpp))
    return w


def _eval_floor(e: Ensemble) -> float:
    """Smallest v at which the series may be evaluated (0 for closed forms)."""
    s = e.series
    if s.truncated_eval and math.isfinite(s.radius):
        bar = EVAL_RADIUS_FRACTION * s.radius
        if bar < 1.0:
            return -math.log(bar)
    return 0.0


def _front_piece(w, beta: float, v_bar: float) -> float:
    """Integral of w over [0, v_bar] for a combined integrand ~ c0*v^beta.

    Used only when evaluation below v_bar is barred (truncated series with
    the singularity at 1): fit the first three powers just above the barrier
    and integrate the fit; the neglected remainder is O(v_bar^{beta+4}).
    """
    vs = v_bar * np.array([1.0, 1.4, 1.8, 2.3, 2.9, 3.6])
    A = np.vstack([vs ** beta, vs ** (beta + 1), vs ** (beta + 2)]).T
    c, *_ = np.linalg.lstsq(A, w(vs), rcond=None)
    return float(sum(c[i] * v_bar ** (beta + 1 + i) / (beta + 1 + i)
                     for i in range(3)))


def _integrate(w, edges, abs_tol: float, what: str):
    """Integrals of the array function w over the pieces between the
    increasing edges, and their error estimates (see the module notes)."""
    edges = np.asarray(edges, dtype=float)
    k = edges.size - 1
    a = np.union1d(edges, _CUTS[(_CUTS > edges[0]) & (_CUTS < edges[-1])])
    a, b = a[:-1], a[1:]
    own = np.searchsorted(edges, a, side="right") - 1
    val = est = np.empty(0)
    while True:
        # the intervals from index val.size on are new
        half = 0.5 * (b[val.size:] - a[val.size:])
        x = (a[val.size:] + half)[:, None] + half[:, None] * _GK_NODES
        try:
            f = w(x.ravel()).reshape(x.shape)
        except DomainError as exc:
            raise QuadratureError(
                f"{what}: integrand evaluation failed: {exc}") from exc
        if not np.all(np.isfinite(f)):
            raise QuadratureError(f"{what}: integrand is not finite")
        kron = half * (f @ _GK_KRONROD)
        val = np.append(val, kron)
        est = np.append(est, np.abs(kron - half * (f @ _GK_GAUSS)))
        errs, count = np.bincount(own, est, k), np.bincount(own, minlength=k)
        open_ = errs > abs_tol
        if not open_.any():
            return np.bincount(own, val, k), errs
        if (count[open_] >= _QUAD_LIMIT).any():
            i = int(np.argmax(open_ & (count >= _QUAD_LIMIT)))
            raise QuadratureError(
                f"{what}: error estimate {errs[i]:.2e} above the tolerance "
                f"{abs_tol:.2e} at {count[i]} intervals")
        split = open_[own] & (est > abs_tol / count[own])
        keep, cut = ~split, 0.5 * (a[split] + b[split])
        a = np.concatenate((a[keep], a[split], cut))
        b = np.concatenate((b[keep], cut, b[split]))
        own = np.concatenate((own[keep], own[split], own[split]))
        val, est = val[keep], est[keep]


# ---------------------------------------------------------------------------
# the three constants


def _growth_constant(e: Ensemble, name: str, tol: float,
                     shift: float) -> float:
    """Integral over (0, V) of the integrand `name`, ~ v^(beta+shift) at 0,
    to absolute accuracy tol; computed once per ensemble (Ensemble.cached,
    keyed by name)."""
    def build() -> float:
        e.require(name)
        beta = float(e.beta)
        w = _integrand(e, beta, name)
        v0 = _eval_floor(e)
        front = _front_piece(w, beta + shift, v0) if v0 > 0.0 else 0.0
        (val,), _ = _integrate(w, [v0, _upper_cutoff(beta)], tol, name)
        val = float(front + val)
        if val <= 0.0:
            raise QuadratureError(f"{name} evaluated nonpositive ({val})")
        return val
    return e.cached(name, build)


def omega(e: Ensemble) -> float:
    """Mean-growth constant: mean_N(x) ~ theta * Omega * (1-x)^-(beta+1).

    Absolute accuracy 1e-9. The theta factor is deliberately not included.
    """
    return _growth_constant(e, "omega", 1e-9, 0.0)


def sigma_sq(e: Ensemble) -> float:
    """Variance-growth constant: var_N(x) ~ theta * sigma^2 * (1-x)^-(beta+2).

    Equals (beta+1)*Omega analytically; evaluated by its own quadrature to
    absolute accuracy 1e-8 so the identity stays a genuine cross-check.
    """
    return _growth_constant(e, "sigma_sq", 1e-8, 1.0)


# ---------------------------------------------------------------------------
# limit shape


def phi_at_zero_divergent(e: Ensemble) -> bool:
    """True when the shape diverges at t = 0 (pole at 1 with beta <= 1)."""
    e.require("phi_at_zero_divergent")
    return e.series.radius == 1.0 and e.beta <= 1.0


def _shape_values(e: Ensemble, beta: float, om: float, ts: np.ndarray,
                  tol: float, what: str):
    """phi, the integrals int_{t_i}^inf v^beta G dv, and their summed
    error estimate at the increasing points ts: one quadrature call
    integrates each piece between the ts and the tail to tol, and suffix
    sums give the integrals."""
    vals, errs = _integrate(_integrand(e, beta, "shape"),
                            np.append(ts, _upper_cutoff(beta, ts[-1])),
                            tol, what)
    suffix = np.cumsum(vals[::-1])[::-1]
    boundary = np.zeros_like(ts)
    pos = ts > 0.0
    boundary[pos] = _integrand(e, beta, "boundary")(ts[pos])
    return np.maximum((suffix - boundary) / om, 0.0), suffix, float(errs.sum())


def limit_shape(e: Ensemble, t):
    """Value of the normalized limit shape phi at t, a float or an array.

    Accuracy 1e-10 * max(1, Omega) / Omega. phi is nonincreasing,
    integrates to 1 over (0, inf), and may diverge at t = 0 (see
    phi_at_zero_divergent); t = 0 is accepted only in the finite case. All
    points of an array share one quadrature call.
    """
    e.require("limit_shape")
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):
        raise DomainError(f"limit shape evaluated at t={t.min()}, not >= 0")
    beta = float(e.beta)
    if np.any(t == 0.0) and phi_at_zero_divergent(e):
        raise DomainError(
            "limit shape diverges at t=0 for this ensemble (singularity at 1 "
            f"with growth exponent {beta} <= 1)")
    if t.size == 0:
        return t
    om = omega(e)
    ts, back = np.unique(t, return_inverse=True)
    # each suffix sums up to ts.size integrals
    tol = 1e-10 * max(1.0, om) / ts.size
    phis = _shape_values(e, beta, om, ts, tol, "limit_shape")[0][back]
    return float(phis) if t.ndim == 0 else phis.reshape(t.shape)


@dataclass
class ShapeCurve:
    """A limit shape sampled on a uniform grid, plus its own audit numbers.

    integral_check is head + trapezoid + tail for int_0^inf phi dt and
    should be 1 to about the grid's discretization error; phi_at_zero is
    the t=0 value, inf when the shape diverges there. error_estimate is the
    summed error estimate of the curve's quadratures.
    """

    ts: np.ndarray
    phis: np.ndarray
    omega: float
    beta: float
    phi_at_zero: float
    integral_check: float
    error_estimate: float

    @property
    def nonincreasing(self) -> bool:
        return bool(np.all(np.diff(self.phis) <= 1e-12))

    def rows(self):
        for t, p in zip(self.ts, self.phis):
            yield float(t), float(p)


def shape_curve(e: Ensemble, t_max: float = 5.0,
                grid_size: int = 200) -> ShapeCurve:
    """Evaluate the limit shape on grid_size uniform points of (0, t_max].

    One quadrature call integrates v^beta G over every grid interval and
    the tail at once, and suffix sums give phi; two more integrate
    v^{beta+1} G - v^beta g over the head and the tail of the integral
    check.
    """
    e.require("shape_curve")
    if not (t_max > 0.0) or grid_size < 2:
        raise ParamError("shape_curve needs t_max > 0 and grid_size >= 2")
    beta = float(e.beta)
    om = omega(e)
    ts = np.linspace(t_max / grid_size, t_max, grid_size)
    v0 = _eval_floor(e)
    if v0 >= float(ts[0]):
        raise ParamError(
            "grid too fine near 0 for a truncated series; lower grid_size "
            "or raise t_max")
    tol = 1e-11 * max(1.0, om)
    phis, suffix, err = _shape_values(e, beta, om, ts, tol, "shape_curve")

    # int_0^t1 phi = (1/om)(int_0^t1 w_om dv + t1 * int_t1^inf v^beta G dv)
    # int_{t_max}^inf phi = (1/om)(int_{t_max}^inf w_om dv
    #                              - t_max * int_{t_max}^inf v^beta G dv)
    w_om = _integrand(e, beta, "omega")
    t1, upper = float(ts[0]), _upper_cutoff(beta, t_max)
    (head,), (head_err,) = _integrate(w_om, [v0, t1], tol, "shape_curve")
    (tail,), (tail_err,) = _integrate(w_om, [t_max, upper], tol, "shape_curve")
    if v0 > 0.0:
        head += _front_piece(w_om, beta, v0)
    check = ((head + t1 * suffix[0]) + (tail - t_max * suffix[-1])) / om
    check += float(np.trapezoid(phis, ts))

    if phi_at_zero_divergent(e):
        phi0 = math.inf
    else:
        try:
            phi0 = limit_shape(e, 0.0)
        except QuadratureError:
            # an integrable endpoint singularity can defeat the tight
            # tolerance at t = 0 without affecting the rest of the curve
            phi0 = math.nan
    return ShapeCurve(ts=ts, phis=phis, omega=om, beta=beta,
                      phi_at_zero=phi0, integral_check=float(check),
                      error_estimate=float(err + head_err + tail_err))


def symmetric_rescale(phi, omega_value: float):
    """Self-dual rescaling of a shape: t and phi trade places symmetrically.

    Returns t -> sqrt(Omega) * phi(sqrt(Omega) * t). Under it the
    Geometric(1)/constant-weights shape satisfies the classical symmetric
    identity e^{-c phi(t)} + e^{-c t} = 1 with c = pi/sqrt(6).
    """
    root = math.sqrt(omega_value)
    return lambda t: root * phi(root * t)


# ---------------------------------------------------------------------------
# tilt solving


@dataclass(frozen=True)
class TiltSolution:
    """Solution of mean_N(x) = n with its audit values."""

    n: int
    x_n: float
    tau_n: float
    residual: float
    mean: float
    variance: float
    iterations: int
    walks: int  # walks over the size blocks: bracket probes and evaluations

    @property
    def alpha(self) -> float:
        """Scaling factor 1/(1 - x_n)."""
        return 1.0 / self.tau_n


def _bracket(e: Ensemble, n: int, probe) -> tuple[float, float, float]:
    """An (lo, hi) with mean_N(lo) < n < mean_N(hi), from regime asymptotics,
    and the point inside it where Newton starts. probe(x) is the mean at x
    walked with stop_above=n.

    An ergodic ensemble has the scaling guess 1 - tau0, where tau0 =
    (theta Omega / n)^(1/(beta+1)) is the leading saddle-point term and has
    relative error O(n^(-1/(beta+1))). A nonergodic pole of order m has
    rho (1 - delta0), with delta0 = min(1/4, m b_1 / n). The bracket
    starts at four times and a quarter of the guess's distance below the
    right end and widens geometrically only as far as needed; Newton starts
    at the guess itself, or at the midpoint should rounding put the guess
    outside. Near 1 a full mean costs O(1/(1-x)) terms, so every probe
    stops once its running total passes n: the upper probe, at 1 - tau0/4,
    walks about as many sizes as one Newton step. A probe only compares the
    mean with n, and the partial sum compares as the full one would
    (Ensemble.mean_N), so lo and hi do not depend on the stop.

    Without a guess (out-of-scope regimes such as finite support, or tau0 of
    1/2 or more) probes approach rho by halving the distance to it, and
    Newton starts at the midpoint of the last two.
    """
    rho = e.rho
    regime = e.regime
    guess = None  # (right end, distance of the guess below it)
    theta = e.theta
    if regime.ergodic and theta is not None and theta > 0:
        try:
            tau0 = (omega(e) * theta / n) ** (1.0 / (float(e.beta) + 1.0))
            if 0.0 < tau0 < 0.5:
                guess = (1.0, tau0)
        except QuadratureError:
            pass
    elif regime is Regime.NONERGODIC_GRAND_CANONICAL:
        m = e.series.singularity.order or 1.0
        b1 = max(e.weights.b_1, 1e-6)
        delta0 = min(0.25, b1 * m / n)
        guess = (rho, rho * delta0)

    if guess is not None:
        end, d0 = guess
        lo_d, hi_d = 4.0 * d0, d0 / 4.0  # distances below the end
        for _ in range(80):
            lo = end - lo_d
            if lo <= 0.0 or probe(lo) < n:
                break
            lo_d *= 4.0
        else:
            raise ConvergenceError("could not bracket the tilt from below")
        lo = max(lo, 0.0)
        for _ in range(80):
            hi = end - hi_d
            if hi >= rho:
                hi = rho - (rho - lo) * 1e-12
            if probe(hi) > n:
                start = end - d0
                return lo, hi, (start if lo < start < hi else 0.5 * (lo + hi))
            hi_d /= 4.0
        raise ConvergenceError("could not bracket the tilt from above")

    # generic expanding probe toward rho
    lo = 0.0
    for i in range(1, 60):
        hi = rho * (1.0 - 0.5 ** i)
        if hi >= rho:  # 1 - 0.5**i rounds to 1 from i = 54 on
            break
        if probe(hi) > n:
            return lo, hi, 0.5 * (lo + hi)
        lo = hi
    raise ConvergenceError(
        f"mean weight stays below n={n} arbitrarily close to the domain "
        f"boundary {rho}; the target is unreachable for this ensemble")


def solve_tilt(e: Ensemble, n: int) -> TiltSolution:
    """Solve mean_N(x_n) = n to |residual| <= 1e-10 n (_TILT_REL_TOL), once
    per n: every caller reads the solution the ensemble caches at ("tilt", n).

    Bracketed Newton: the derivative of the mean in log x is the variance,
    so a Newton step is x -> x + (n - mean) * x / var. Steps leaving the
    bracket, or failing to shrink the residual, fall back to bisection; the
    bracket endpoints update by the sign of mean - n each iteration, which
    monotonicity of the mean makes valid.

    Newton starts at the regime's scaling guess (see _bracket), a few steps
    from the root: 3-5 on the catalog families at n from 1e2 to 1e6. Where
    the mean is convex in x, as it is for the catalog families, a tangent
    never lands below the root, so a start below it overshoots once and
    every later step descends monotonically. Without a guess, Newton starts
    at the bracket midpoint.

    Float resolution sets a floor. Near a pole, one ulp of x can move the
    mean by more than 1e-10 n (weighted(y=2) from n of about 3e6 on).
    Once no float lies strictly between the bracket endpoints, the solve
    stops and returns the endpoint whose mean lies closer to n; its
    residual then exceeds 1e-10 n and says by how much. A Newton step
    under half an ulp moves to the neighbouring float toward the root.

    Each step takes mean and variance from one pass over the size blocks
    (Ensemble.mean_var); the blocks' k-only arrays are kept for this solve
    only. The solution counts its walks over the blocks: bracket probes,
    Newton evaluations and the float-floor re-evaluations.
    """
    if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
        raise ParamError(f"tilt target must be a positive integer, got {n!r}")
    n = int(n)  # a numpy integer shares the memo entry of the equal int
    return e.cached(("tilt", n), lambda: _newton_tilt(e, n))


def _newton_tilt(e: Ensemble, n: int) -> TiltSolution:
    blocks: dict = {}
    walks = 0

    def walk(moments, x, **kw):
        nonlocal walks
        walks += 1
        return moments(x, blocks, **kw)

    lo, hi, x = _bracket(e, n, lambda x: walk(e.mean_N, x, stop_above=n))
    lo_at = hi_at = None  # (mean, var) at lo and hi, once evaluated there
    tol = _TILT_REL_TOL * n
    prev_res = math.inf
    newton_last = False
    for it in range(1, _TILT_MAX_ITER + 1):
        mean, var = walk(e.mean_var, x)
        res = mean - n
        if abs(res) <= tol:
            return TiltSolution(n=n, x_n=x, tau_n=1.0 - x, residual=abs(res),
                                mean=mean, variance=var, iterations=it,
                                walks=walks)
        if res > 0.0:
            hi, hi_at = x, (mean, var)
        else:
            lo, lo_at = x, (mean, var)
        if hi <= math.nextafter(lo, math.inf):
            # no float lies between lo and hi: take the closer endpoint
            ends = [(lo, lo_at or walk(e.mean_var, lo)),
                    (hi, hi_at or walk(e.mean_var, hi))]
            x, (mean, var) = min(ends, key=lambda end: abs(end[1][0] - n))
            return TiltSolution(n=n, x_n=x, tau_n=1.0 - x,
                                residual=abs(mean - n), mean=mean,
                                variance=var, iterations=it, walks=walks)
        if newton_last and abs(res) >= prev_res:
            # safeguard: the Newton step failed to contract, bisect instead
            x = 0.5 * (lo + hi)
            newton_last = False
            prev_res = abs(res)
            continue
        prev_res = abs(res)
        step = -res * x / var if var > 0.0 else 0.0
        cand = x + step
        if cand == x:  # a step under half an ulp: the neighbour toward root
            cand = math.nextafter(x, -math.inf if res > 0.0 else math.inf)
        if lo < cand < hi and step != 0.0:
            x = cand
            newton_last = True
        else:
            x = 0.5 * (lo + hi)
            newton_last = False
    raise ConvergenceError(
        f"tilt solve for n={n} did not reach |mean - n| <= {tol} within "
        f"{_TILT_MAX_ITER} iterations")


def scaling_alpha(e: Ensemble, n: int) -> float:
    """Diagram scaling factor 1/(1 - x_n) for conditioned samples.

    Defined for ergodic ensembles; elsewhere there is no nondegenerate
    scaling (the natural choice degenerates to a constant) and RegimeError
    is raised.
    """
    e.require("scaling_alpha")
    return solve_tilt(e, n).alpha

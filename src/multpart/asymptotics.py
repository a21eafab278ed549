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

The tilt x_n solves mean_N(x) = n; monotonicity of the mean makes the
solution unique, and var_N/x is its derivative, which Newton steps use
inside a hard bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .ensemble import Ensemble, Regime
from .errors import (ConvergenceError, DomainError, ParamError,
                     QuadratureError, RegimeError)
from .series import EVAL_RADIUS_FRACTION

_V_BASE = 40.0
_QUAD_LIMIT = 300
_TILT_MAX_ITER = 200


def _require_ergodic(e: Ensemble, what: str) -> None:
    r = e.regime
    if not r.ergodic:
        raise RegimeError(
            f"{what} needs an ergodic ensemble (ErgodicSupercritical or "
            f"ErgodicPoleAtOne); {e.label or 'ensemble'} is {r}")


def _growth_beta(e: Ensemble) -> float:
    beta = e.beta
    if beta is None or beta <= 0:
        raise RegimeError(
            f"cumulative weight exponent unavailable or nonpositive for "
            f"{e.label or 'ensemble'}")
    return float(beta)


def _upper_cutoff(beta: float, t: float = 0.0) -> float:
    # e^{-v} has exhausted v^{beta+2}-weighted mass to ~1e-14 by here
    return max(_V_BASE + 25.0 * max(0.0, beta - 1.0), t + 45.0 + 5.0 * beta)


def _integrands(e: Ensemble):
    """Scalar callables g, G, H of v, stable for small v."""
    bundle = e.series.log_eval_bundle

    def g(v: float) -> float:
        h, _, _ = bundle(v)
        return math.exp(-v) * h

    def G(v: float) -> float:
        h, hp, _ = bundle(v)
        u = math.exp(-v)
        return u * (h + u * hp)

    def H(v: float) -> float:
        h, hp, hpp = bundle(v)
        u = math.exp(-v)
        return u * (h + 3.0 * u * hp + u * u * hpp)

    return g, G, H


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
    ys = np.array([w(float(v)) for v in vs])
    A = np.vstack([vs ** beta, vs ** (beta + 1), vs ** (beta + 2)]).T
    c, *_ = np.linalg.lstsq(A, ys, rcond=None)
    return float(sum(c[i] * v_bar ** (beta + 1 + i) / (beta + 1 + i)
                     for i in range(3)))


def _quad(fn, lo: float, hi: float, abs_tol: float, what: str,
          points=None) -> float:
    if points is not None:
        points = tuple(p for p in points if lo < p < hi) or None
    try:
        val, err = integrate.quad(fn, lo, hi, epsabs=abs_tol * 1e-2,
                                  epsrel=1e-11, limit=_QUAD_LIMIT,
                                  points=points)
    except Exception as exc:  # quad propagates integrand failures
        raise QuadratureError(f"{what}: integrand evaluation failed: {exc}")
    if not math.isfinite(val) or err > abs_tol:
        raise QuadratureError(
            f"{what}: adaptive quadrature did not reach |error| <= {abs_tol} "
            f"(estimate {err:.2e})")
    return val


# ---------------------------------------------------------------------------
# the three constants


def omega(e: Ensemble) -> float:
    """Mean-growth constant: mean_N(x) ~ theta * Omega * (1-x)^-(beta+1).

    Absolute accuracy 1e-9. The theta factor is deliberately not included.
    """
    if "omega" in e._memo:
        return e._memo["omega"]
    _require_ergodic(e, "omega")
    beta = _growth_beta(e)
    g, G, _ = _integrands(e)

    def w(v: float) -> float:
        return v ** (beta + 1) * G(v) - v ** beta * g(v)

    v0 = _eval_floor(e)
    front = _front_piece(w, beta, v0) if v0 > 0.0 else 0.0
    V = _upper_cutoff(beta)
    val = front + _quad(w, v0, V, 1e-9, "omega",
                        points=(max(v0, 1e-3), 1.0, 5.0))
    if val <= 0.0:
        raise QuadratureError(f"omega evaluated nonpositive ({val})")
    e._memo["omega"] = val
    return val


def sigma_sq(e: Ensemble) -> float:
    """Variance-growth constant: var_N(x) ~ theta * sigma^2 * (1-x)^-(beta+2).

    Equals (beta+1)*Omega analytically; evaluated by its own quadrature to
    absolute accuracy 1e-8 so the identity stays a genuine cross-check.
    """
    if "sigma_sq" in e._memo:
        return e._memo["sigma_sq"]
    _require_ergodic(e, "sigma_sq")
    beta = _growth_beta(e)
    _, G, H = _integrands(e)

    def w(v: float) -> float:
        return v ** (beta + 2) * H(v) - 2.0 * v ** (beta + 1) * G(v)

    v0 = _eval_floor(e)
    front = _front_piece(w, beta + 1.0, v0) if v0 > 0.0 else 0.0
    V = _upper_cutoff(beta)
    val = front + _quad(w, v0, V, 1e-8, "sigma_sq",
                        points=(max(v0, 1e-3), 1.0, 5.0))
    if val <= 0.0:
        raise QuadratureError(f"sigma_sq evaluated nonpositive ({val})")
    e._memo["sigma_sq"] = val
    return val


# ---------------------------------------------------------------------------
# limit shape


def phi_at_zero_divergent(e: Ensemble) -> bool:
    """True when the shape diverges at t = 0 (pole at 1 with beta <= 1)."""
    beta = _growth_beta(e)
    return e.series.radius == 1.0 and 0.0 < beta <= 1.0


def limit_shape(e: Ensemble, t: float) -> float:
    """Value of the normalized limit shape phi at t. Accuracy 1e-8.

    phi is nonincreasing, integrates to 1 over (0, inf), and may diverge at
    t = 0 (see phi_at_zero_divergent); t = 0 is accepted only in the finite
    case.
    """
    _require_ergodic(e, "limit_shape")
    if t < 0.0:
        raise DomainError(f"limit shape evaluated at negative t={t}")
    beta = _growth_beta(e)
    if t == 0.0 and phi_at_zero_divergent(e):
        raise DomainError(
            "limit shape diverges at t=0 for this ensemble (singularity at 1 "
            f"with growth exponent {beta} <= 1)")
    om = omega(e)
    g, G, _ = _integrands(e)

    def w(v: float) -> float:
        return v ** beta * G(v)

    upper = _upper_cutoff(beta, t)
    integral = _quad(w, t, upper, 1e-10 * max(1.0, om), "limit_shape")
    boundary = t ** beta * g(t) if t > 0.0 else 0.0
    return max((integral - boundary) / om, 0.0)


@dataclass
class ShapeCurve:
    """A limit shape sampled on a uniform grid, plus its own audit numbers.

    integral_check is head + trapezoid + tail for int_0^inf phi dt and
    should be 1 to about the grid's discretization error; phi_at_zero is
    the t=0 value, inf when the shape diverges there.
    """

    ts: np.ndarray
    phis: np.ndarray
    omega: float
    beta: float
    phi_at_zero: float
    integral_check: float

    @property
    def nonincreasing(self) -> bool:
        return bool(np.all(np.diff(self.phis) <= 1e-12))

    def rows(self):
        for t, p in zip(self.ts, self.phis):
            yield float(t), float(p)


def shape_curve(e: Ensemble, t_max: float = 5.0,
                grid_size: int = 200) -> ShapeCurve:
    """Evaluate the limit shape on grid_size uniform points of (0, t_max].

    One pass: per-interval integrals of v^beta G are suffix-summed, so the
    whole curve costs about one adaptive quadrature per grid point.
    """
    _require_ergodic(e, "shape_curve")
    if not (t_max > 0.0) or grid_size < 2:
        raise ParamError("shape_curve needs t_max > 0 and grid_size >= 2")
    beta = _growth_beta(e)
    om = omega(e)
    g, G, _ = _integrands(e)

    def wG(v: float) -> float:
        return v ** beta * G(v)

    ts = np.linspace(t_max / grid_size, t_max, grid_size)
    v0 = _eval_floor(e)
    if v0 >= float(ts[0]):
        raise ParamError(
            "grid too fine near 0 for a truncated series; lower grid_size "
            "or raise t_max")
    upper = _upper_cutoff(beta, t_max)
    tol = 1e-11 * max(1.0, om)
    pieces = [_quad(wG, float(a), float(b), tol, "shape_curve")
              for a, b in zip(ts[:-1], ts[1:])]
    tail_G = _quad(wG, float(ts[-1]), upper, tol, "shape_curve")
    suffix = np.concatenate((np.cumsum(pieces[::-1])[::-1] + tail_G,
                             [tail_G]))
    boundary = np.array([t ** beta * g(float(t)) for t in ts])
    phis = np.maximum((suffix - boundary) / om, 0.0)

    t1 = float(ts[0])
    # int_0^t1 phi = (1/om)(int_0^t1 (v^{beta+1}G - v^beta g) dv
    #                       + t1 * int_t1^inf v^beta G dv)
    def w_om(v: float) -> float:
        return v ** (beta + 1) * G(v) - v ** beta * g(v)

    head_front = _front_piece(w_om, beta, v0) if v0 > 0.0 else 0.0
    head = (head_front + _quad(w_om, v0, t1, tol, "shape_curve")
            + t1 * float(suffix[0])) / om

    # int_{t_max}^inf phi = (1/om) int_{t_max}^inf ((v - t_max) v^beta G
    #                                               - v^beta g) dv
    def w_tail(v: float) -> float:
        return (v - t_max) * v ** beta * G(v) - v ** beta * g(v)

    tail = _quad(w_tail, float(ts[-1]), upper, tol, "shape_curve") / om
    check = head + float(np.trapezoid(phis, ts)) + tail

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
                      phi_at_zero=phi0, integral_check=check)


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

    @property
    def alpha(self) -> float:
        """Scaling factor 1/(1 - x_n)."""
        return 1.0 / self.tau_n


def _bracket(e: Ensemble, n: int, blocks: dict) -> tuple[float, float]:
    """An (lo, hi) with mean_N(lo) < n < mean_N(hi), from regime asymptotics.

    The guesses keep evaluation points away from the expensive extremes:
    near 1 the mean costs O(1/(1-x)) terms, so the ergodic guess starts at
    the predicted tau and widens geometrically only as far as needed.
    """
    rho = e.rho
    regime = e.regime
    guess = None
    if regime.ergodic:
        try:
            beta = _growth_beta(e)
            theta = e.theta
            if theta is not None and theta > 0:
                tau0 = (omega(e) * theta / n) ** (1.0 / (beta + 1.0))
                if 0.0 < tau0 < 0.5:
                    guess = ("tau", tau0)
        except (RegimeError, QuadratureError):
            guess = None
    elif regime is Regime.NONERGODIC_GRAND_CANONICAL:
        m = e.series.singularity.order or 1.0
        b1 = max(e.weights.b_1, 1e-6)
        delta0 = min(0.25, b1 * m / n)
        guess = ("delta", rho * delta0)

    if guess is not None:
        kind, d0 = guess
        lo_d, hi_d = 4.0 * d0, d0 / 4.0  # distances below the right end
        for _ in range(80):
            lo = rho - lo_d if kind == "delta" else 1.0 - lo_d
            if lo <= 0.0 or e.mean_N(lo, blocks) < n:
                break
            lo_d *= 4.0
        else:
            raise ConvergenceError("could not bracket the tilt from below")
        lo = max(rho - lo_d if kind == "delta" else 1.0 - lo_d, 0.0)
        for _ in range(80):
            hi = rho - hi_d if kind == "delta" else 1.0 - hi_d
            if hi >= rho:
                hi = rho - (rho - lo) * 1e-12
            if e.mean_N(hi, blocks) > n:
                return lo, hi
            hi_d /= 4.0
        raise ConvergenceError("could not bracket the tilt from above")

    # generic expanding probe toward rho
    lo = 0.0
    for i in range(1, 60):
        hi = rho * (1.0 - 0.5 ** i)
        if e.mean_N(hi, blocks) > n:
            return lo, hi
        lo = hi
    raise ConvergenceError(
        f"mean weight stays below n={n} arbitrarily close to the domain "
        f"boundary {rho}; the target is unreachable for this ensemble")


def solve_tilt(e: Ensemble, n: int, rel_tol: float = 1e-10,
               max_iter: int = _TILT_MAX_ITER) -> TiltSolution:
    """Solve mean_N(x_n) = n to |residual| <= rel_tol * n.

    Bracketed Newton: the derivative of the mean in log x is the variance,
    so a Newton step is x -> x + (n - mean) * x / var. Steps leaving the
    bracket, or failing to shrink the residual, fall back to bisection; the
    bracket endpoints update by the sign of mean - n each iteration, which
    monotonicity of the mean makes valid.

    Each step takes mean and variance from one pass over the size blocks
    (Ensemble.mean_var); the blocks' k-only arrays are kept for this solve only.
    """
    if n < 1:
        raise ParamError(f"tilt target must be a positive integer, got {n}")
    key = ("tilt", n, rel_tol)
    if key in e._memo:
        return e._memo[key]

    blocks: dict = {}
    lo, hi = _bracket(e, n, blocks)
    x = 0.5 * (lo + hi)
    tol = rel_tol * n
    prev_res = math.inf
    newton_last = False
    for it in range(1, max_iter + 1):
        mean, var = e.mean_var(x, blocks)
        res = mean - n
        if abs(res) <= tol:
            sol = TiltSolution(n=n, x_n=x, tau_n=1.0 - x, residual=abs(res),
                               mean=mean, variance=var, iterations=it)
            e._memo[key] = sol
            return sol
        if res > 0.0:
            hi = x
        else:
            lo = x
        if newton_last and abs(res) >= prev_res:
            # safeguard: the Newton step failed to contract, bisect instead
            x = 0.5 * (lo + hi)
            newton_last = False
            prev_res = abs(res)
            continue
        prev_res = abs(res)
        step = -res * x / var if var > 0.0 else 0.0
        cand = x + step
        if lo < cand < hi and step != 0.0:
            x = cand
            newton_last = True
        else:
            x = 0.5 * (lo + hi)
            newton_last = False
    raise ConvergenceError(
        f"tilt solve for n={n} did not reach |mean - n| <= {tol} within "
        f"{max_iter} iterations")


def scaling_alpha(e: Ensemble, n: int) -> float:
    """Diagram scaling factor 1/(1 - x_n) for conditioned samples.

    Defined for ergodic ensembles; elsewhere there is no nondegenerate
    scaling (the natural choice degenerates to a constant) and RegimeError
    is raised.
    """
    _require_ergodic(e, "scaling_alpha")
    return solve_tilt(e, n).alpha

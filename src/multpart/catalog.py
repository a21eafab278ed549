"""Built-in ensemble families with closed-form reference data.

Each family couples a single-part series with a weight rule. Where the
literature-standard closed forms exist (growth constant, limit shape,
scaling factor) the entry carries them, so tests and the verification
suite can compare computed values against independent expressions rather
than against the code under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .ensemble import (
    Ensemble,
    PartSet,
    Regime,
    constant_weights,
    indicator_weights,
    monomial_weights,
)
from .errors import ParamError, UnknownNameError
from .series import ExponentialSeries, GeometricSeries

__all__ = [
    "CatalogEntry",
    "dilogarithm",
    "entry",
    "make",
    "names",
    "reference_shape",
]


def dilogarithm(y: float) -> float:
    """Li2(y) = sum y^j / j^2 for y <= 1."""
    if y > 1.0:
        raise ParamError(f"dilogarithm reference needs y <= 1, got {y}")
    from scipy.special import spence  # slow to import; loaded on first use
    return float(spence(1.0 - y))


def _no_extra(name: str, params: dict) -> None:
    if params:
        raise ParamError(
            f"{name} does not accept parameters {sorted(params)}")


def _build_uniform(**params) -> Ensemble:
    _no_extra("uniform", params)
    return Ensemble(GeometricSeries(1), constant_weights(), label="uniform")


def _build_weighted(y=None, **params) -> Ensemble:
    _no_extra("weighted", params)
    if y is None:
        raise ParamError("weighted needs parameter y")
    if not (y > 0):
        raise ParamError(f"weighted needs y > 0, got {y}")
    return Ensemble(GeometricSeries(y), constant_weights(),
                    label=f"weighted(y={y})")


def _build_restricted(parts=None, **params) -> Ensemble:
    _no_extra("restricted", params)
    if parts is None:
        raise ParamError("restricted needs a part set (parts=...)")
    ps = PartSet.from_spec(parts)
    return Ensemble(GeometricSeries(1), indicator_weights(ps),
                    label=f"restricted({ps.label})")


def _gibbs(theta, beta, label: str) -> Ensemble:
    # per-part mass c_k = theta * k^beta spread over k slots: b_k =
    # theta * k^(beta-1), then traded to b_1 = 1 (f becomes f^theta)
    e = Ensemble(ExponentialSeries(1),
                 monomial_weights(theta, beta - 1)).normalized()
    return Ensemble(e.series, e.weights, label=label)


def _build_gibbs(theta=1, beta=1, **params) -> Ensemble:
    _no_extra("gibbs", params)
    if not (theta > 0):
        raise ParamError(f"gibbs needs theta > 0, got {theta}")
    if not (beta > 0):
        raise ParamError(f"gibbs needs beta > 0, got {beta}")
    return _gibbs(theta, beta, f"gibbs(theta={theta}, beta={beta})")


def _build_ordered_lists(**params) -> Ensemble:
    _no_extra("ordered_lists", params)
    return _gibbs(1, 1, "ordered_lists")


def _build_ewens(theta=1, **params) -> Ensemble:
    _no_extra("ewens", params)
    if not (theta > 0):
        raise ParamError(f"ewens needs theta > 0, got {theta}")
    # b_k = theta/k: cumulative weight grows only logarithmically, so the
    # growth hypotheses fail and every asymptotic operation declines it
    return Ensemble(ExponentialSeries(1), monomial_weights(theta, -1),
                    label=f"ewens(theta={theta})")


_BUILDERS: dict[str, Callable[..., Ensemble]] = {
    "uniform": _build_uniform,
    "weighted": _build_weighted,
    "restricted": _build_restricted,
    "gibbs": _build_gibbs,
    "ordered_lists": _build_ordered_lists,
    "ewens": _build_ewens,
}


def names() -> list[str]:
    return sorted(_BUILDERS)


def make(name: str, **params) -> Ensemble:
    """Build a catalog ensemble by name.

    uniform; weighted(y); restricted(parts); gibbs(theta, beta);
    ordered_lists; ewens(theta). Unknown names raise UnknownNameError,
    bad parameters ParamError.
    """
    builder = _BUILDERS.get(name)
    if builder is None:
        raise UnknownNameError(
            f"unknown catalog name {name!r}; choose from {names()}")
    return builder(**params)


def reference_shape(name: str, t: float, **params) -> float | None:
    """Closed-form limit shape value, or None where no closed form exists.

    All shapes are in the normalized scaling (curve integrates to 1);
    they therefore depend only on the series and the growth exponent,
    never on the weight prefactor.
    """
    if name not in _BUILDERS:
        raise UnknownNameError(f"unknown catalog name {name!r}")
    t = float(t)
    if t < 0:
        raise ParamError(f"shape argument must be >= 0, got {t}")
    if name == "uniform":
        if t == 0.0:
            return math.inf
        return -(6.0 / math.pi ** 2) * math.log1p(-math.exp(-t))
    if name == "weighted":
        y = params.get("y")
        if y is None:
            raise ParamError("weighted needs parameter y")
        if y >= 1:
            return reference_shape("uniform", t) if y == 1 else None
        return -math.log1p(-y * math.exp(-t)) / dilogarithm(y)
    if name in ("gibbs", "ordered_lists"):
        beta = float(params.get("beta", 1))
        # theta cancels from the normalized curve; value at 0 is 1/beta
        from scipy.special import gammaincc  # slow to import
        return float(gammaincc(beta, t)) / beta
    return None  # restricted and ewens: no closed form


@dataclass(frozen=True)
class CatalogEntry:
    """A built ensemble next to its independent reference data.

    omega/theta/beta are the growth description (mean weight at tilt x
    behaves like theta*omega*(1-x)^-(beta+1)); shape and alpha are
    closed-form callables where available. Values of None mean "no
    reference known", not zero.
    """

    name: str
    params: dict = field(compare=False)
    ensemble: Ensemble = field(compare=False)
    regime: Regime
    omega: float | None
    theta: float | None
    beta: float | None
    scaling_exponent: float | None
    shape: Callable[[float], float] | None = field(compare=False)
    alpha: Callable[[float], float] | None = field(compare=False)


def _alpha_closure(theta: float, omega: float, beta: float):
    expo = 1.0 / (beta + 1.0)

    def alpha_ref(n: float) -> float:
        return (float(n) / (theta * omega)) ** expo
    return alpha_ref


def entry(name: str, **params) -> CatalogEntry:
    """Resolved catalog entry: ensemble plus reference data for params."""
    e = make(name, **params)
    omega_ref: float | None = None
    theta_ref: float | None = None
    beta_ref: float | None = None
    shape_fn = None

    if name == "uniform":
        omega_ref, theta_ref, beta_ref = math.pi ** 2 / 6.0, 1.0, 1.0
    elif name == "weighted":
        y = float(params["y"])
        if y < 1:
            omega_ref, theta_ref, beta_ref = dilogarithm(y), 1.0, 1.0
        elif y == 1:
            omega_ref, theta_ref, beta_ref = math.pi ** 2 / 6.0, 1.0, 1.0
    elif name == "restricted":
        density = e.weights.part_set.estimated_density()
        if e.regime.ergodic and density and density > 0:
            omega_ref, theta_ref, beta_ref = math.pi ** 2 / 6.0, density, 1.0
    elif name in ("gibbs", "ordered_lists"):
        th = float(params.get("theta", 1))
        be = float(params.get("beta", 1))
        omega_ref = th * be * math.gamma(be + 1.0)
        theta_ref = 1.0 / be
        beta_ref = be

    if reference_shape(name, 1.0, **params) is not None:
        def shape_fn(t, _n=name, _p=dict(params)):
            return reference_shape(_n, t, **_p)

    alpha_fn = None
    if omega_ref is not None and e.regime.ergodic:
        alpha_fn = _alpha_closure(theta_ref, omega_ref, beta_ref)

    return CatalogEntry(
        name=name, params=dict(params), ensemble=e, regime=e.regime,
        omega=omega_ref, theta=theta_ref, beta=beta_ref,
        scaling_exponent=(1.0 / (beta_ref + 1.0)
                          if beta_ref is not None else None),
        shape=shape_fn, alpha=alpha_fn)

"""The named-ensemble catalog and its closed-form reference data."""

import math

import pytest

from multpart import (
    ParamError,
    Regime,
    UnknownNameError,
    dilogarithm,
    entry,
    limit_shape,
    make,
    names,
    omega,
    reference_shape,
    scaling_alpha,
)

from oracles import dilog_series


def test_names_sorted():
    got = names()
    assert got == sorted(got)
    assert set(got) == {"uniform", "weighted", "restricted", "gibbs",
                        "ordered_lists", "ewens"}


@pytest.mark.parametrize("name,params,label", [
    ("uniform", {}, "uniform"),
    ("weighted", {"y": 0.5}, "weighted(y=0.5)"),
    ("restricted", {"parts": "odds"}, "restricted(odds)"),
    ("restricted", {"parts": {"modulus": 3, "residues": [1, 2]}},
     "restricted(mod 3 residues [1, 2])"),
    ("gibbs", {}, "gibbs(theta=1, beta=1)"),
    ("gibbs", {"theta": 2, "beta": 0.5}, "gibbs(theta=2, beta=0.5)"),
    ("ordered_lists", {}, "ordered_lists"),
    ("ewens", {"theta": 2}, "ewens(theta=2)"),
])
def test_catalog_labels(name, params, label):
    e = make(name, **params)
    assert e.label == label
    if name in ("gibbs", "ordered_lists"):
        # the f**b_1 trade is made before the label is set
        assert e.weights.b_1 == 1.0
        assert e.series.rate == params.get("theta", 1)


def test_dilogarithm_matches_series():
    for y in (0.1, 0.5, 0.9):
        assert dilogarithm(y) == pytest.approx(dilog_series(y), abs=1e-12)
    assert dilogarithm(1.0) == pytest.approx(math.pi ** 2 / 6, abs=1e-10)


def test_make_unknown_name():
    with pytest.raises(UnknownNameError):
        make("zeta")


@pytest.mark.parametrize("name,params", [
    ("uniform", {"y": 2}),           # no parameters allowed
    ("weighted", {}),                # y required
    ("weighted", {"y": 0}),
    ("weighted", {"y": -1}),
    ("restricted", {}),              # parts required
    ("gibbs", {"theta": 0}),
    ("gibbs", {"beta": -1}),
    ("gibbs", {"gamma": 2}),         # unknown extra
    ("ordered_lists", {"theta": 2}),
    ("ewens", {"theta": 0}),
])
def test_make_bad_params(name, params):
    with pytest.raises(ParamError):
        make(name, **params)


@pytest.mark.parametrize("name,params,regime", [
    ("uniform", {}, Regime.ERGODIC_POLE_AT_ONE),
    ("weighted", {"y": 0.5}, Regime.ERGODIC_SUPERCRITICAL),
    ("weighted", {"y": 2}, Regime.NONERGODIC_GRAND_CANONICAL),
    ("restricted", {"parts": "odds"}, Regime.ERGODIC_POLE_AT_ONE),
    ("restricted", {"parts": "evens"}, Regime.OUT_OF_SCOPE),
    ("gibbs", {"theta": 1, "beta": 2}, Regime.ERGODIC_SUPERCRITICAL),
    ("ordered_lists", {}, Regime.ERGODIC_SUPERCRITICAL),
    ("ewens", {"theta": 2}, Regime.OUT_OF_SCOPE),
])
def test_catalog_regimes(name, params, regime):
    assert make(name, **params).regime is regime
    assert entry(name, **params).regime is regime


def test_entry_reference_values():
    u = entry("uniform")
    assert u.omega == pytest.approx(math.pi ** 2 / 6)
    assert u.theta == 1.0 and u.beta == 1.0
    assert u.scaling_exponent == 0.5

    w = entry("weighted", y=0.5)
    assert w.omega == pytest.approx(dilog_series(0.5), abs=1e-12)

    odds = entry("restricted", parts="odds")
    assert odds.theta == pytest.approx(0.5)
    assert odds.omega == pytest.approx(math.pi ** 2 / 6)

    g = entry("gibbs", theta=1, beta=2)
    assert g.omega == pytest.approx(2 * math.gamma(3))
    assert g.theta == pytest.approx(0.5)
    assert g.scaling_exponent == pytest.approx(1 / 3)

    ew = entry("ewens", theta=1)
    assert ew.omega is None and ew.shape is None and ew.alpha is None

    w2 = entry("weighted", y=2)
    assert w2.alpha is None  # nonergodic: no diagram scaling


def test_reference_shape_values():
    assert reference_shape("uniform", math.log(2)) == pytest.approx(
        0.421383, abs=1e-6)
    assert reference_shape("gibbs", 1.0, theta=1, beta=1) == pytest.approx(
        math.exp(-1), abs=1e-12)
    assert reference_shape("weighted", 0.0, y=0.5) == pytest.approx(
        1.19048, abs=1e-5)
    assert reference_shape("restricted", 1.0, parts="odds") is None
    assert reference_shape("ewens", 1.0) is None
    assert reference_shape("weighted", 1.0, y=2) is None
    assert math.isinf(reference_shape("uniform", 0.0))
    with pytest.raises(UnknownNameError):
        reference_shape("zeta", 1.0)
    with pytest.raises(ParamError):
        reference_shape("uniform", -1.0)
    with pytest.raises(ParamError):
        reference_shape("weighted", 1.0)


def test_weighted_y_one_is_uniform():
    # the y=1 geometric series is the uniform one
    assert reference_shape("weighted", 0.7, y=1) == reference_shape(
        "uniform", 0.7)
    e = entry("weighted", y=1)
    assert e.omega == pytest.approx(math.pi ** 2 / 6)


@pytest.mark.parametrize("name,params", [
    ("uniform", {}),
    ("weighted", {"y": 0.5}),
    ("gibbs", {"theta": 1, "beta": 1}),
    ("gibbs", {"theta": 1, "beta": 2}),
    ("ordered_lists", {}),
])
def test_reference_shape_matches_quadrature(name, params):
    ent = entry(name, **params)
    for t in (0.1, 0.5, 1.0, 2.0, 4.0):
        assert abs(limit_shape(ent.ensemble, t) - ent.shape(t)) < 1e-6


@pytest.mark.parametrize("name,params", [
    ("uniform", {}),
    ("weighted", {"y": 0.5}),
    ("gibbs", {"theta": 1, "beta": 1}),
])
def test_alpha_reference_matches_solver(name, params):
    ent = entry(name, **params)
    n = 10 ** 6
    assert scaling_alpha(ent.ensemble, n) == pytest.approx(ent.alpha(n),
                                                           rel=0.05)


def test_entry_omega_matches_quadrature():
    for name, params in (("uniform", {}), ("weighted", {"y": 0.5}),
                         ("gibbs", {"theta": 2, "beta": 1})):
        ent = entry(name, **params)
        assert omega(ent.ensemble) == pytest.approx(ent.omega, rel=1e-8)

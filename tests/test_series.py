import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multpart.errors import DomainError, NegativeCoefficientError, ParamError
from multpart.series import (_MAX_TERMS, CustomSeries, ExponentialSeries,
                             GeometricSeries, PowerSeriesFunction, Singularity,
                             power_coefficients)

from oracles import central_diff, poly_mul, term_loop_bundle


def test_geometric_bundle_at_half():
    f, h, hp, hpp = GeometricSeries(1).eval_with_derivatives(0.5)
    assert (f, h, hp, hpp) == (2.0, 2.0, 4.0, 16.0)


def test_exponential_bundle():
    f, h, hp, hpp = ExponentialSeries(1).eval_with_derivatives(0.7)
    assert math.isclose(f, math.exp(0.7), rel_tol=1e-15)
    assert (h, hp, hpp) == (1.0, 0.0, 0.0)


@pytest.mark.parametrize("sf", [
    GeometricSeries(1), GeometricSeries(0.3), ExponentialSeries(2),
    GeometricSeries(1) ** 0.5, CustomSeries([1, 1]),
    CustomSeries(lambda j: j + 1, radius=1)], ids=repr)
def test_log_eval_bundles_match_scalar_evaluation(sf):
    v = np.array([2.0, 0.01, 0.5, 5.0])
    got = np.column_stack(sf.log_eval_bundles(v))
    want = np.array([sf.eval_with_derivatives(math.exp(-x))[1:] for x in v])
    assert np.allclose(got, want, rtol=1e-10, atol=0.0)


def test_log_eval_bundles_refuse_points_outside_the_disc():
    with pytest.raises(DomainError):
        GeometricSeries(2).log_eval_bundles(np.array([1.0, 0.1]))
    with pytest.raises(DomainError):
        CustomSeries(lambda j: j + 1, radius=1).log_eval_bundles(
            np.array([1.0, 1e-4]))


@pytest.mark.parametrize("sf", [GeometricSeries(1), GeometricSeries(0.3),
                                ExponentialSeries(2),
                                CustomSeries([1, 3, 1])])
def test_bundle_at_zero(sf):
    f, h, _, _ = sf.eval_with_derivatives(0.0)
    assert f == 1.0
    assert h == sf.coefficient(1)


@pytest.mark.parametrize("sf,u", [
    (GeometricSeries(1), 0.4),
    (GeometricSeries(0.5), 0.9),
    (ExponentialSeries(1.7), 0.8),
    (CustomSeries([1, 2, 1, 0.3]), 0.6),
])
def test_derivatives_match_finite_differences(sf, u):
    step = 1e-5

    def f_of(v):
        return sf.eval_with_derivatives(v)[0]

    def h_of(v):
        return sf.eval_with_derivatives(v)[1]

    f, h, hp, hpp = sf.eval_with_derivatives(u)
    assert math.isclose(f * h, central_diff(f_of, u, step), rel_tol=1e-6)
    assert math.isclose(hp, central_diff(h_of, u, step), rel_tol=1e-6)

    def hp_of(v):
        return sf.eval_with_derivatives(v)[2]

    assert math.isclose(hpp, central_diff(hp_of, u, step), rel_tol=1e-5)


def test_domain_errors():
    with pytest.raises(DomainError):
        GeometricSeries(1).eval_with_derivatives(1.0)
    with pytest.raises(DomainError):
        GeometricSeries(2).eval_with_derivatives(0.5)
    with pytest.raises(DomainError):
        ExponentialSeries(1).eval_with_derivatives(-0.1)


def test_power_coefficients_examples():
    assert power_coefficients(GeometricSeries(1), 2, 3) == [1, 2, 3, 4]
    theta = Fraction(3, 2)
    assert power_coefficients(ExponentialSeries(1), theta, 3) == [
        1, theta, theta ** 2 / 2, theta ** 3 / 6]
    assert power_coefficients(GeometricSeries(1), 0, 4) == [1, 0, 0, 0, 0]


def test_power_coefficients_match_polynomial_multiplication():
    # (1 + 2z + z^2 + z^3/2)^3 against the naive product
    coeffs = [1, 2, 1, Fraction(1, 2)]
    sf = CustomSeries(coeffs)
    direct = poly_mul(poly_mul(coeffs, coeffs, 6), coeffs, 6)
    assert power_coefficients(sf, 3, 6) == direct


def test_negative_coefficient_detected():
    # sqrt(1 + z) turns negative at z^2
    with pytest.raises(NegativeCoefficientError):
        power_coefficients(CustomSeries([1, 1]), 0.5, 4)


@given(a=st.integers(1, 4), b=st.integers(1, 4),
       num=st.integers(1, 3), den=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_exponent_additivity_exact(a, b, num, den):
    sf = GeometricSeries(Fraction(num, den))
    j_max = 8
    ca = power_coefficients(sf, a, j_max)
    cb = power_coefficients(sf, b, j_max)
    cab = power_coefficients(sf, a + b, j_max)
    assert poly_mul(ca, cb, j_max) == cab


def test_exponent_additivity_float():
    sf = GeometricSeries(0.7)
    j_max = 12
    ca = power_coefficients(sf, 0.6, j_max)
    cb = power_coefficients(sf, 1.9, j_max)
    conv = poly_mul(ca, cb, j_max)
    cab = power_coefficients(sf, 2.5, j_max)
    for x, y in zip(conv, cab):
        assert math.isclose(x, y, rel_tol=1e-12)


@pytest.mark.parametrize("c", [0.5, 2, 3])
def test_normalization_trade(c):
    # f^(b*c) against (f^c repackaged as plain coefficients)^b
    sf = GeometricSeries(1)
    b, j_max = 1.25, 10
    fc = CustomSeries(power_coefficients(sf, c, j_max),
                      radius=sf.radius, singularity=sf.singularity)
    lhs = power_coefficients(sf, b * c, j_max)
    rhs = power_coefficients(fc, b, j_max)
    for x, y in zip(lhs, rhs):
        assert math.isclose(float(x), float(y), rel_tol=1e-10)


def test_pow_returns_usable_series():
    sq = GeometricSeries(1) ** 2
    assert isinstance(sq, PowerSeriesFunction)
    assert [sq.coefficient(j) for j in range(4)] == [1, 2, 3, 4]
    assert (ExponentialSeries(2) ** 3).rate == 6


@pytest.mark.parametrize("sf", [GeometricSeries(2), ExponentialSeries(1.5),
                                CustomSeries([1, 2, 4, 8]),
                                GeometricSeries(1) ** 2])
def test_tilted_scales_coefficients(sf):
    s = 0.25
    tilted = sf.tilted(s)
    for j in range(6):
        assert math.isclose(float(tilted.coefficient(j)),
                            float(sf.coefficient(j)) * s ** j,
                            rel_tol=1e-12, abs_tol=1e-300)
    assert math.isclose(tilted.radius, sf.radius / s) or math.isinf(sf.radius)


def test_tilted_keeps_large_powers_bounded():
    # raw coefficients overflow float64 near j = 1024; the tilted series
    # stays finite because the scale is folded in before extraction
    sf = GeometricSeries(2).tilted(0.25)
    assert sf.coefficient(1100) == 0.5 ** 1100


def test_singularity_validation():
    with pytest.raises(ParamError):
        Singularity("pole")
    with pytest.raises(ParamError):
        Singularity("essential", order=2)
    with pytest.raises(ParamError):
        Singularity("cliff")
    assert Singularity("pole", 1.5).is_pole


def test_custom_series_validation():
    with pytest.raises(ParamError):
        CustomSeries([2, 1])
    with pytest.raises(ParamError):
        CustomSeries([1, 0, 1])
    with pytest.raises(ParamError):
        CustomSeries([1, -1])
    with pytest.raises(ParamError):
        CustomSeries(lambda j: j + 1, radius=0.0)
    # a rule is checked as its coefficients are first read: a negative g_2
    # would give h(2) < 0 and a mean weight that is not monotone in x
    rule = CustomSeries(lambda j: (1, 1, -0.4)[j] if j < 3 else 0.0, radius=10)
    for evaluate in (lambda: rule.eval_with_derivatives(2.0),
                     lambda: rule.h_vector(np.array([0.5, 2.0]))):
        with pytest.raises(ParamError, match="nonnegative"):
            evaluate()
    # exact reads are checked too
    rule = CustomSeries(lambda j: (1, 1, -1)[j] if j < 3 else 0, radius=10)
    with pytest.raises(ParamError, match="nonnegative"):
        power_coefficients(rule, 1, 4)
    with pytest.raises(ParamError, match="nonnegative"):
        rule.exact_coefficient(2)
    # and so are reads past the cached coefficients, which end where the
    # rule leaves the float range
    rule = CustomSeries(lambda j: (1, 1, 1, math.inf, -1)[j] if j < 5 else 0,
                        radius=10)
    with pytest.raises(ParamError, match="nonnegative"):
        rule.coefficient(4)


def test_exact_coefficients_flag():
    assert GeometricSeries(Fraction(1, 2)).is_rational
    assert GeometricSeries(1).is_rational
    assert not GeometricSeries(0.3).is_rational
    assert ExponentialSeries(2).is_rational
    # a listed polynomial is judged by every coefficient, not g_1 alone
    assert CustomSeries([1, 2, Fraction(1, 2)]).is_rational
    assert not CustomSeries([1, 1, 0.5]).is_rational


def test_power_coefficients_exact_only_when_every_coefficient_is():
    half = CustomSeries([1, 1, 0.5])
    assert power_coefficients(half, 1, 3) == [1.0, 1.0, 0.5, 0.0]
    assert power_coefficients(half, 2, 4) == [1.0, 2.0, 2.0, 1.0, 0.25]
    # a rule is judged by g_1; the coefficients read past it decide the route
    rule = CustomSeries(lambda j: (1, 1, 0.5)[j] if j < 3 else 0, radius=10)
    assert rule.is_rational
    got = power_coefficients(rule, 2, 4)
    assert got == [1.0, 2.0, 2.0, 1.0, 0.25]
    assert all(isinstance(c, float) for c in got)
    assert rule.exact_coefficient(2) is None
    assert (rule ** 2).exact_coefficient(2) is None
    assert power_coefficients(rule, 2, 1) == [1, 2]


# -- custom-series evaluation against closed forms ---------------------------

_EPS = float(np.finfo(np.float64).eps)
# zero, the smallest subnormal, then 0.998^k for k = 4096, 2048, ..., 1
EVAL_GRID = [0.0, 5e-324] + [0.998 ** (2 ** i) for i in range(12, -1, -1)]


def _polynomial_bundle(gs):
    """Exact (h, h', h'') of the polynomial sum_j gs[j] u^j at a float u."""
    def bundle(u):
        q = Fraction(u)
        d = [sum(Fraction(math.perm(j, r)) * g * q ** (j - r)
                 for j, g in enumerate(gs) if j >= r) for r in range(4)]
        h = d[1] / d[0]
        return (float(h), float(d[2] / d[0] - h * h),
                float(d[3] / d[0] - 3 * (d[2] / d[0]) * h + 2 * h ** 3))
    return bundle


def _double_pole_bundle(u):
    # f = 1/(1-u)^2: h = 2/(1-u), h' = 2/(1-u)^2, h'' = 4/(1-u)^3
    d = 1 - Fraction(u)
    return float(2 / d), float(2 / d ** 2), float(4 / d ** 3)


CLOSED_FORMS = [
    ("strict", lambda: CustomSeries([1, 1]), _polynomial_bundle([1, 1]), 2),
    ("multiplicity<=3", lambda: CustomSeries([1, 1, 1, 1]),
     _polynomial_bundle([1, 1, 1, 1]), 4),
    ("geometric", lambda: CustomSeries(lambda j: 1.0, radius=1),
     lambda u: GeometricSeries(1).eval_with_derivatives(u)[1:], None),
    ("double pole", lambda: CustomSeries(lambda j: j + 1, radius=1),
     _double_pole_bundle, None),
]


def _max_rel_err(values, exact):
    values, exact = np.asarray(values), np.asarray(exact)
    return np.max(np.abs(values - exact) / np.abs(exact), axis=0)


@pytest.mark.parametrize("name,make,closed,n_terms", CLOSED_FORMS,
                         ids=[c[0] for c in CLOSED_FORMS])
def test_custom_evaluation_matches_closed_form(name, make, closed, n_terms):
    # The sums stop where the term-by-term loop stops, so both carry the
    # same truncation error; the new sums may differ from it by rounding.
    sf = make()
    exact = np.array([closed(u) for u in EVAL_GRID])
    loop = np.array([term_loop_bundle(sf.coefficient, u, n_terms)[1:]
                     for u in EVAL_GRID])
    scalar = np.array([sf.eval_with_derivatives(u)[1:] for u in EVAL_GRID])
    vector = np.column_stack(sf.h_vector(np.array(EVAL_GRID)))
    bound = 1.01 * _max_rel_err(loop, exact) + 4 * _EPS
    assert (_max_rel_err(scalar, exact) <= bound).all()
    assert (_max_rel_err(vector, exact[:, :2]) <= bound[:2]).all()
    assert _max_rel_err(vector, exact[:, :2])[0] < 2e-12


@pytest.mark.parametrize("name,make,closed,n_terms", CLOSED_FORMS,
                         ids=[c[0] for c in CLOSED_FORMS])
def test_unsorted_vector_matches_scalar_calls(name, make, closed, n_terms):
    sf = make()
    u = np.array(EVAL_GRID)
    perm = np.random.default_rng(5).permutation(u.size)
    h, hp = sf.h_vector(u[perm])
    sorted_h, sorted_hp = sf.h_vector(u)
    assert np.array_equal(h, sorted_h[perm])
    assert np.array_equal(hp, sorted_hp[perm])
    scalar = np.array([sf.eval_with_derivatives(float(v))[1:3] for v in u[perm]])
    # a point summed beside a larger one takes that point's term count, so it
    # keeps terms below 1e-16 f that its own count drops
    tol = (4 * _EPS, 8 * _EPS) if n_terms else (1e-12, 5e-11)
    assert _max_rel_err(h, scalar[:, 0]) <= tol[0]
    assert _max_rel_err(hp, scalar[:, 1]) <= tol[1]


def test_h_vector_accepts_empty_input():
    for sf in (CustomSeries([1, 1]), CustomSeries(lambda j: j + 1, radius=1)):
        h, hp = sf.h_vector(np.array([]))
        assert h.shape == hp.shape == (0,)


@pytest.mark.parametrize("sf,bad", [
    (CustomSeries(lambda j: j + 1, radius=1), -1e-3),
    (CustomSeries(lambda j: j + 1, radius=1), 0.9995),
    (CustomSeries(lambda j: j + 1, radius=1), 1.0),
    (CustomSeries([1, 1], radius=2.0), 2.0),
    (CustomSeries([1, 1]), -0.5),
])
def test_h_vector_refuses_any_point_out_of_range(sf, bad):
    for pos in (0, 3, 6):
        u = np.linspace(0.1, 0.5, 7)
        u[pos] = bad
        with pytest.raises(DomainError):
            sf.h_vector(u)
    with pytest.raises(DomainError):
        sf.eval_with_derivatives(bad)


def test_divergent_declaration_raises_domain_error():
    # g_j = 2^j really has radius 1/2: at u = 0.9 the terms never fall
    sf = CustomSeries(lambda j: 2.0 ** j, radius=1)
    with pytest.raises(DomainError):
        sf.eval_with_derivatives(0.9)
    with pytest.raises(DomainError):
        sf.h_vector(np.array([0.1, 0.9]))
    assert sf.eval_with_derivatives(0.1)[0] == pytest.approx(1 / 0.8)
    # (j + 1) 4^-j: the float coefficients underflow where 3.9^j overflows
    tilted = CustomSeries(lambda j: j + 1, radius=1).tilted(0.25)
    assert tilted.eval_with_derivatives(2.0)[1] == pytest.approx(1.0)
    with pytest.raises(DomainError):
        tilted.eval_with_derivatives(3.9)


def test_rule_called_once_per_index():
    calls = Counter()

    def rule(j):
        calls[j] += 1
        return j + 1

    sf = CustomSeries(rule, radius=1)
    u = np.array(EVAL_GRID)
    for _ in range(2):
        sf.h_vector(u)
        sf.h_vector(u[::-1])
        for v in EVAL_GRID:
            sf.eval_with_derivatives(v)
        sf.log_coefficients(300, 0.9)
        assert [sf.coefficient(j) for j in range(5)] == [1, 2, 3, 4, 5]
    assert max(calls.values()) == 1
    assert sorted(calls) == list(range(len(calls)))


def test_rule_cache_stops_at_max_terms():
    # bounded terms need about 37/|ln u| = 3.7e6 of them at u = 1 - 1e-5
    calls = Counter()

    def rule(j):
        calls[j] += 1
        return 1.0

    sf = CustomSeries(rule, radius=10.0)
    for _ in range(2):
        with pytest.raises(DomainError, match="did not converge"):
            sf.eval_with_derivatives(1 - 1e-5)
    assert len(calls) == _MAX_TERMS + 1
    assert max(calls.values()) == 1


def test_log_coefficients_of_double_pole_keep_their_digits():
    # log 1/(1-z)^2 = sum_j 2 z^j / j, so nu_j = 2 x^j exactly; the
    # recurrence cancels terms about j^2 times larger than nu_j
    x, j_max = 0.97, 2000
    sf = CustomSeries(lambda j: j + 1, radius=1.0,
                      singularity=Singularity("pole", 2.0))
    nu = sf.log_coefficients(j_max, x)
    js = np.arange(1, j_max + 1)
    assert nu[0] == 0.0
    assert np.max(np.abs(nu[1:] / (2.0 * x ** js) - 1.0)) <= 5e-11

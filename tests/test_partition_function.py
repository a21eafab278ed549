"""Coefficient tables, point masses, and the product-form evaluation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multpart import (
    ConvergenceError,
    CustomSeries,
    DomainError,
    Ensemble,
    ExponentialSeries,
    GeometricSeries,
    Singularity,
    RngStream,
    constant_weights,
    explicit_weights,
    indicator_weights,
    NegativeCoefficientError,
    ParamError,
    TableError,
    coefficients,
    local_limit_probe,
    log_partition_value,
    make,
    monomial_weights,
    partition_numbers,
    point_mass,
    power_law_weights,
    product_tail_cutoff,
    sample_grand,
    solve_tilt,
)
from multpart import partition_function
from multpart.partition_function import (MAX_PRODUCT_SIZES, _BLOCK,
                                        _factor_weights_float,
                                        _log_derivative_weights,
                                        _mass_recurrence, _scan,
                                        _tilted_masses)

from oracles import (exp_factor, exponential_dot_longdouble,
                     exponential_dot_table, geometric_factor,
                     log_partition_loop, mass_recurrence_loop,
                     partition_count, partition_product,
                     product_coefficients, scan_rows, weighted_partition_sum)


# ---------------------------------------------------------------------------
# partition numbers


def test_partition_numbers_match_enumeration():
    ps = partition_numbers(30)
    for n in range(31):
        assert ps[n] == partition_count(n)


def test_partition_numbers_known_values():
    ps = partition_numbers(500)
    assert ps[100] == 190569292
    assert ps[500] == 2300165032574323995027
    assert partition_numbers(0) == [1]


# ---------------------------------------------------------------------------
# coefficient tables


def test_uniform_table_equals_partition_numbers():
    table = coefficients(make("uniform"), 300)
    assert table.exact
    ps = partition_numbers(300)
    assert [int(v) for v in table.values] == ps


def test_restricted_tables_match_enumeration():
    evens = coefficients(make("restricted", parts="evens"), 24)
    odds = coefficients(make("restricted", parts="odds"), 24)
    for n in range(25):
        assert int(evens.values[n]) == partition_count(
            n, allowed=lambda k: k % 2 == 0)
        assert int(odds.values[n]) == partition_count(
            n, allowed=lambda k: k % 2 == 1)


def test_weighted_table_counts_parts():
    # enumeration stays at n <= 30; the naive product checks up to 50
    table = coefficients(make("weighted", y=2), 50)
    assert [int(v) for v in table.values[:6]] == [1, 2, 6, 14, 34, 74]
    for n in range(31):
        want = weighted_partition_sum(n, lambda k, r: 2 ** r)
        assert int(table.values[n]) == want
    assert list(table.values) == _product_table(2, 50)


def test_ordered_lists_table_exact_rationals():
    table = coefficients(make("ordered_lists"), 4)
    assert list(table.values) == [1, 1, Fraction(3, 2), Fraction(13, 6),
                                  Fraction(73, 24)]
    # n! a_n is the integer count of ordered set partitions into lists
    facts = [1, 1, 2, 6, 24]
    assert [int(v * f) for v, f in zip(table.values, facts)] == [1, 1, 3, 13, 73]


def test_table_trivial_and_range():
    table = coefficients(make("uniform"), 0)
    assert list(table.values) == [1]
    with pytest.raises(ParamError):
        table.coefficient(1)
    with pytest.raises(ParamError):
        table.coefficient(-1)
    with pytest.raises(ParamError):
        coefficients(make("uniform"), -1)


def test_tables_match_product_oracle():
    # the same sizes the scans were once checked at, now entry for entry
    # against naive products of the factors
    u = coefficients(make("uniform"), 80)
    assert list(u.values) == partition_numbers(80)
    assert list(u.values) == product_coefficients(
        [geometric_factor(k, 1, 80) for k in range(1, 81)], 80)

    w = coefficients(make("weighted", y=2), 60)
    assert list(w.values) == product_coefficients(
        [geometric_factor(k, 2, 60) for k in range(1, 61)], 60)

    want = product_coefficients(
        [exp_factor(k, Fraction(1), 40) for k in range(1, 41)], 40)
    ol = make("ordered_lists")
    assert list(coefficients(ol, 40, mode="exact").values) == want
    for a, b in zip(coefficients(ol, 40, mode="float").values, want):
        assert float(a) == pytest.approx(float(b), rel=1e-12)


def _power_factor(k: int, b: int, n_max: int) -> list:
    """Coefficients of 1/(1 - x^k)^b up to x^n_max."""
    out = [0] * (n_max + 1)
    for j in range(0, n_max // k + 1):
        out[k * j] = math.comb(b + j - 1, j)
    return out


# one case per branch of the table builder but the Durfee sum, which has
# its own tests below: the unit scan, the weighted scan (integer y and
# y = p/q with q > 1; odd parts keep these out of the Durfee sum),
# repeated scans for b_k <= 64 followed by convolution past 64,
# convolution on a custom series, and the exponential recurrence with a
# non-integer rate
BUILDER_CASES = {
    "unit scan": (make("restricted", parts="odds"), 60,
                  lambda k, n: geometric_factor(k, k % 2, n)),
    "weighted scan y=2": (
        Ensemble(GeometricSeries(2), indicator_weights("odds")), 60,
        lambda k, n: geometric_factor(k, 2 * (k % 2), n)),
    "weighted scan y=2/3": (
        Ensemble(GeometricSeries(Fraction(2, 3)), indicator_weights("odds")), 40,
        lambda k, n: geometric_factor(k, Fraction(2, 3) * (k % 2), n)),
    "repeated scans then convolve": (
        Ensemble(GeometricSeries(1), monomial_weights(1, 1)), 72,
        lambda k, n: _power_factor(k, k, n)),
    "convolve custom": (Ensemble(CustomSeries([1, 1]), constant_weights()), 60,
                        lambda k, n: [1 if m in (0, k) else 0
                                      for m in range(n + 1)]),
    "exponential recurrence": (
        Ensemble(ExponentialSeries(Fraction(3, 2)), constant_weights()), 40,
        lambda k, n: exp_factor(k, Fraction(3, 2), n)),
}


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", sorted(BUILDER_CASES))
def test_builder_branches_match_product_oracle(name, mode):
    e, n, factor = BUILDER_CASES[name]
    want = product_coefficients([factor(k, n) for k in range(1, n + 1)], n)
    table = coefficients(e, n, mode=mode)
    assert table.exact == (mode == "exact")
    if mode == "exact":
        assert list(table.values) == want
    else:
        for a, b in zip(table.values, want):
            assert float(a) == pytest.approx(float(b), rel=1e-12)


def _family(y):
    return make("uniform") if y == 1 else make("weighted", y=y)


def _product_table(y, n):
    return product_coefficients([geometric_factor(k, y, n)
                                 for k in range(1, n + 1)], n)


@pytest.mark.parametrize("y", [1, 2, Fraction(1, 2), Fraction(3, 7),
                               Fraction(5, 3)], ids=str)
def test_durfee_sum_matches_product_oracle(y):
    want = _product_table(y, 200)
    for n in (0, 1, 2, 3, 4, 8, 9, 15, 16, 17, 200):
        got = list(coefficients(_family(y), n).values)
        assert got == want[:n + 1]
        assert [type(v) for v in got] == [type(v) for v in want[:n + 1]]


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 9), q=st.integers(1, 9), n=st.integers(0, 60))
def test_durfee_sum_matches_product_oracle_property(p, q, n):
    y = Fraction(p, q)
    y = y.numerator if y.denominator == 1 else y  # an integer y gives ints
    want = _product_table(y, n)
    got = list(coefficients(make("weighted", y=y), n).values)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("y,n", [(1, 2000), (2, 2000), (Fraction(1, 2), 1000),
                                 (Fraction(3, 7), 300), (Fraction(5, 3), 300)],
                         ids=str)
def test_durfee_float_table_within_1e15_of_exact(y, n):
    # float mode sums with y rounded to a double; the exact table of that
    # double isolates the error of the float arithmetic
    y_read = Fraction(float(y))
    exact = coefficients(_family(y_read), n, mode="exact").values
    flt = coefficients(_family(y), n, mode="float").values
    for a, b in zip(flt, exact):
        assert abs(Fraction(*a.as_integer_ratio()) - b) <= Fraction(1, 10 ** 15) * b


def _count_scans(monkeypatch):
    calls = []

    def counting(a, k, mult):
        calls.append(k)
        _scan(a, k, mult)
    monkeypatch.setattr(partition_function, "_scan", counting)
    return calls


def test_durfee_sum_scan_count(monkeypatch):
    # 2 floor(sqrt(n)) scans where the factor loop made n
    calls = _count_scans(monkeypatch)
    coefficients(make("weighted", y=2), 2000)
    assert 0 < len(calls) <= 2 * math.isqrt(2000)


@pytest.mark.parametrize("e,scans", [
    (make("restricted", parts="odds"), 15),
    (Ensemble(GeometricSeries(1), explicit_weights([1] * 5)), 5),
], ids=["odds", "explicit"])
def test_partial_weights_take_the_factor_loop(monkeypatch, e, scans):
    # b_k = 0 for some k <= n: one scan per part size with b_k = 1
    calls = _count_scans(monkeypatch)
    assert coefficients(e, 30).values[30] > 0
    assert sorted(calls) == sorted(k for k in range(1, 31)
                                   if e.weights.value(k) == 1)
    assert len(calls) == scans


@pytest.mark.parametrize("n1,k", [(2, 3), (3, 3), (3, 4), (1, 1), (1, 5)])
@pytest.mark.parametrize("mult", [1, 2])
def test_scan_with_no_full_row_is_a_no_op(n1, k, mult):
    # with mult = 1, (2, 3) once broadcast a one-entry source into a wrong
    # table, and (3, 4) and (1, 5) raised a shape error
    for dtype in (object, np.longdouble):
        a = np.arange(1, n1 + 1).astype(dtype)
        _scan(a, k, mult)
        assert a.tolist() == list(range(1, n1 + 1))


_SCAN_MULTS = {"int": (1, 2, 3, np.longdouble(7) / 10),
               "fraction": (1, 2, 3),  # a Fraction takes no long double
               "float": (1, 2, 3, np.longdouble(7) / 10)}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_SCAN_MULTS)), data=st.data(),
       entries=st.lists(st.integers(0, 10 ** 30), max_size=300),
       k=st.one_of(st.integers(1, 40), st.integers(1, 320)))
def test_scan_matches_row_oracle(kind, data, entries, k):
    # strides on both sides of the list cut-offs, k >= len(a) included;
    # long doubles carry all 64 mantissa bits and must match bit for bit
    mult = data.draw(st.sampled_from(_SCAN_MULTS[kind]))
    if kind == "float":
        a = np.array(entries, dtype=np.longdouble) / 3
    else:
        a = np.array([Fraction(v, 7) if kind == "fraction" else v
                      for v in entries], dtype=object)
    want = a.copy()
    scan_rows(want, k, mult)
    _scan(a, k, mult)
    assert a.dtype == want.dtype
    if kind == "float":
        assert np.array_equal(a, want)
    else:
        assert a.tolist() == want.tolist()
        assert [type(v) for v in a] == [type(v) for v in want]


ODD_PARTS_Y2 = Ensemble(GeometricSeries(2), indicator_weights("odds"))


def test_factor_route_with_multiplier_matches_product_oracle():
    # y = 2 on odd parts: every odd stride up to n scans with mult 2,
    # on both sides of the list cut-off
    want = product_coefficients(
        [geometric_factor(k, 2 * (k % 2), 120) for k in range(1, 121)], 120)
    got = list(coefficients(ODD_PARTS_Y2, 120, mode="exact").values)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("e,n", [(ODD_PARTS_Y2, 120),
                                 (make("weighted", y=2), 2000)],
                         ids=["odd parts y=2", "weighted(2)"])
def test_float_table_matches_row_scans(monkeypatch, e, n):
    # the factor route and the Durfee sum in long doubles, bit for bit
    # against the same builder running every scan as numpy rows
    got = coefficients(e, n, mode="float").values
    monkeypatch.setattr(partition_function, "_scan", scan_rows)
    want = coefficients(e, n, mode="float").values
    assert np.array_equal(got, want)


def test_float_route_matches_exact():
    u = make("uniform")
    exact = coefficients(u, 200)
    flt = coefficients(u, 200, mode="float")
    assert not flt.exact
    for n in range(201):
        assert float(flt.values[n]) == pytest.approx(int(exact.values[n]),
                                                     rel=1e-10)


# exponential ensembles as (ensemble, rate c, weight rule b, n): the oracle
# runs exp(c sum_k b(k) z^k) by its full dot. gibbs(theta, beta) is
# exp(theta sum_k k^(beta-1) z^k) however it is normalized.
def _gibbs_case(theta, beta, n):
    return (lambda: make("gibbs", theta=theta, beta=beta), Fraction(theta),
            lambda k: k ** (beta - 1), n)


EXPONENTIAL_CASES = {
    **{f"gibbs({theta},{beta})": _gibbs_case(theta, beta, 120)
       for theta in (1, 3, Fraction(1, 2)) for beta in (1, 2, 3)},
    "gibbs(1,1) n=300": _gibbs_case(1, 1, 300),
    **{f"ewens({theta})": (lambda theta=theta: make("ewens", theta=theta),
                           Fraction(1), lambda k, theta=theta: theta / Fraction(k),
                           200)
       for theta in (Fraction(1, 2), 1, 2)},
    "ordered_lists": (lambda: make("ordered_lists"), Fraction(1),
                      lambda k: 1, 120),
    "power_law(1,2)": (
        lambda: Ensemble(ExponentialSeries(1), power_law_weights(1, 2)),
        Fraction(1), lambda k: 2 * k - 1, 120),
    # no short form: k b_k on odd k only, so the full dot runs (t = 0)
    "odd parts, rate 3/2": (
        lambda: Ensemble(ExponentialSeries(Fraction(3, 2)),
                         indicator_weights("odds")),
        Fraction(3, 2), lambda k: k % 2, 120),
}


@pytest.mark.parametrize("name", sorted(EXPONENTIAL_CASES))
def test_exponential_tables_match_dot_oracle(name):
    make_e, c, b, n = EXPONENTIAL_CASES[name]
    got = list(coefficients(make_e(), n, mode="exact").values)
    want = exponential_dot_table(c, b, n)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("theta", [Fraction(1, 2), 1, 2], ids=str)
def test_ewens_table_is_rising_binomial(theta):
    # F = (1 - z)^-theta, so a_m = C(m + theta - 1, m)
    want, term = [1], Fraction(1)
    for m in range(1, 501):
        term = term * (m + theta - 1) / m
        want.append(term.numerator if term.denominator == 1 else term)
    got = list(coefficients(make("ewens", theta=theta), 500).values)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


@settings(max_examples=60, deadline=None)
@given(poly=st.lists(st.integers(0, 3), min_size=1, max_size=3),
       k0=st.integers(1, 30), jump=st.integers(1, 5),
       rest=st.lists(st.integers(0, 4), max_size=6),
       c=st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2),
                          Fraction(2, 3)]),
       past=st.integers(-3, 4))
def test_exponential_short_form_edge(poly, k0, jump, rest, c, past):
    # b_k is a polynomial in k up to k0 and breaks at k0 + 1 (then a few
    # free values, zero past the list): the short form reads d_i only for
    # i <= n_max, so it holds for n_max <= k0 and sees the break beyond
    bk = [sum(p * k ** j for j, p in enumerate(poly)) for k in range(1, k0 + 2)]
    bk[-1] += jump
    bs = bk + rest
    n = min(max(k0 + past, 0), 40)
    e = Ensemble(ExponentialSeries(c), explicit_weights(bs))
    got = list(coefficients(e, n, mode="exact").values)
    want = [Fraction(v) for v in product_coefficients(
        [exp_factor(k, c * (bs[k - 1] if k <= len(bs) else 0), n)
         for k in range(1, n + 1)], n)]
    want = [v.numerator if v.denominator == 1 else v for v in want]
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    if n <= k0 and any(poly) and n > len(poly) + 2:
        # k b_k of degree < len(poly) + 1 is killed by len(poly) + 1 factors
        terms = partition_function._exponential_terms(
            e.weights.exact_values(n), c)
        assert 0 < partition_function._short_form(*terms)[1] <= len(poly) + 1


@pytest.mark.parametrize("e,c,b", [
    (make("gibbs", theta=1, beta=1), 1.0, lambda k: 1.0),
    (make("ewens", theta=2), 1.0, lambda k: 2 / k)],
    ids=["gibbs(1,1)", "ewens(2)"])
def test_exponential_float_tables_keep_the_full_dot(e, c, b):
    # float tables run the full dot (t = 0) bit for bit: the short
    # recurrence drifts on tilted float masses
    got = coefficients(e, 300, mode="float").values
    assert got.dtype == np.longdouble
    assert np.array_equal(got, exponential_dot_longdouble(c, b, 300))


@pytest.mark.parametrize("e", [make("weighted", y=2), make("uniform"),
                               make("ewens", theta=Fraction(1, 2)),
                               make("gibbs", theta=3, beta=2)],
                         ids=["weighted(2)", "uniform", "ewens(1/2)",
                              "gibbs(3,2)"])
def test_exact_builds_compare_no_fractions(monkeypatch, e):
    # whole b_k are read as ints and the exponential route forms its terms
    # from numerators and denominators, so a build makes no Fraction compare
    calls = []
    eq = Fraction.__eq__

    def counted(self, other):
        calls.append(other)
        return eq(self, other)
    monkeypatch.setattr(Fraction, "__eq__", counted)
    partition_function._build(e, 300, True)
    assert calls == []


def test_exact_mode_requires_rational():
    e = Ensemble(CustomSeries([1, 1]), power_law_weights(1.0, 0.5))
    with pytest.raises(ParamError):
        coefficients(e, 5, mode="exact")


def test_rationality_judged_from_every_listed_value():
    # g_2 = 0.5 and b_3 = 0.5 are no exact rationals: the default route is
    # the float one, and exact mode refuses them
    half = [1, 1, 1.5, 2, 3, 4, 5.25]
    cases = [(Ensemble(CustomSeries([1, 1, 0.5]), constant_weights()), half),
             (Ensemble(GeometricSeries(1), explicit_weights([1, 1, 0.5])),
              [1, 1, 2, 2.5, 3.5, 4, 5.375])]
    for e, want in cases:
        assert not e.is_rational
        for mode in ("auto", "float"):
            table = coefficients(e, 6, mode=mode)
            assert not table.exact
            assert [float(a) for a in table.values] == want
        with pytest.raises(ParamError):
            coefficients(e, 6, mode="exact")
    draw = sample_grand(cases[0][0], 0.5, RngStream(1))
    assert draw.weight == sum(k * r for k, r in draw.counts.items())
    # a rule is judged by g_1; at the inexact g_2 the default route falls
    # back to floats, and the exact table refuses it
    rule = Ensemble(CustomSeries(lambda j: (1, 1, 0.5)[j] if j < 3 else 0,
                                 radius=10), constant_weights())
    for mode in ("auto", "float"):
        table = coefficients(rule, 6, mode=mode)
        assert not table.exact
        assert [float(a) for a in table.values] == half
    with pytest.raises(TableError):
        coefficients(rule, 6, mode="exact")


def test_negative_coefficient_propagates():
    # (1+z)^b has a negative z^2 coefficient for 0 < b < 1
    e = Ensemble(CustomSeries([1, 1]), power_law_weights(1.0, 0.5))
    with pytest.raises(NegativeCoefficientError):
        coefficients(e, 10)


def test_zero_coefficient_log():
    evens = coefficients(make("restricted", parts="evens"), 4)
    assert evens.log_coefficient(1) == -math.inf
    assert evens.log_coefficient(0) == 0.0


# ---------------------------------------------------------------------------
# prefix rows


def test_keep_prefix_rows_and_factor_weights():
    u = make("uniform")
    table = coefficients(u, 40, keep_prefix=True)
    assert table.prefix is not None
    assert len(table.prefix) == 41
    assert 0.0 < table.x0 < 1.0
    w1 = _factor_weights_float(u, 1, 1.0, 40, table.x0)
    assert w1[0] == 1.0 and w1[1] > 0.0
    # the last row is the whole product: a_m x0^m
    want = np.array([float(a) for a in table.values]) * table.x0 ** np.arange(41)
    assert np.allclose(table.prefix[-1], want, rtol=1e-12, atol=0.0)


def test_factor_weights_missing_row():
    # b_1 = 0: no factor row is built for size one, so row 1 is row 0
    evens = coefficients(make("restricted", parts="evens"), 20,
                         keep_prefix=True)
    assert evens.prefix[1] is evens.prefix[0]
    assert evens.prefix[2] is not evens.prefix[1]


def test_keep_prefix_cap():
    with pytest.raises(ParamError):
        coefficients(make("uniform"), 5001, keep_prefix=True)


# ---------------------------------------------------------------------------
# product form


def test_log_partition_value_uniform():
    got = log_partition_value(make("uniform"), 0.5)
    want = -sum(math.log1p(-0.5 ** k) for k in range(1, 400))
    assert got == pytest.approx(want, abs=1e-12)
    assert log_partition_value(make("uniform"), 0.0) == 0.0


# one ensemble per series kind; the custom rule is summed to about 40/(1 - x)
# terms a point, so it stops at n = 1000
LOG_F_CASES = {
    "geometric": (lambda: make("uniform"), [10, 1000, 100_000]),
    "exponential": (lambda: make("gibbs", theta=1, beta=1),
                    [10, 1000, 100_000]),
    "custom": (lambda: Ensemble(CustomSeries([1, 1]), constant_weights()),
               [10, 1000, 100_000]),
    "custom-rule": (lambda: Ensemble(
        CustomSeries(lambda j: j + 1.0, radius=1.0,
                     singularity=Singularity("pole", 2.0)),
        constant_weights()), [10, 1000]),
    "power": (lambda: Ensemble(GeometricSeries(1) ** 0.5, constant_weights()),
              [10, 1000, 100_000]),
}


@pytest.mark.parametrize("name,n", [(name, n) for name, (_, ns) in
                                    LOG_F_CASES.items() for n in ns])
def test_log_partition_value_matches_scalar_loop(name, n):
    e = LOG_F_CASES[name][0]()
    x = solve_tilt(e, n).x_n
    want = log_partition_loop(e.series.log_value, e.weights.value, x,
                              product_tail_cutoff(e, x))
    assert log_partition_value(e, x) == pytest.approx(want, rel=1e-13)


def test_log_partition_value_matches_coefficients():
    u = make("uniform")
    table = coefficients(u, 200)
    direct = sum(int(a) * Fraction(1, 2) ** n
                 for n, a in enumerate(table.values))
    assert log_partition_value(u, 0.5) == pytest.approx(
        math.log(float(direct)), abs=1e-10)


def test_product_tail_cutoff_certificate():
    u = make("uniform")
    K = product_tail_cutoff(u, 0.5, tol=1e-12)
    dropped = -sum(math.log1p(-0.5 ** k) for k in range(K + 1, 4 * K))
    assert dropped < 1e-12
    assert product_tail_cutoff(u, 0.0) == 1
    with pytest.raises(DomainError):
        product_tail_cutoff(u, 1.0)
    # finite support: the cutoff is the support end itself
    from multpart import explicit_weights, GeometricSeries
    fin = Ensemble(GeometricSeries(1), explicit_weights([1, 1, 1]))
    assert product_tail_cutoff(fin, 0.9) == 3


def test_product_tail_cutoff_refuses_sizes_it_cannot_hold():
    # uniform at x = 1 - 1e-7 needs K = 2^29 sizes; the doubling stops at
    # the bound before any caller allocates K entries
    with pytest.raises(ConvergenceError, match="16777216 part sizes") as err:
        product_tail_cutoff(make("uniform"), 1 - 1e-7)
    assert "x=0.9999999" in str(err.value)
    assert partition_function.MAX_PRODUCT_SIZES == 1 << 24


def test_grand_and_log_f_refuse_sizes_they_cannot_hold():
    u = make("uniform")
    with pytest.raises(ConvergenceError, match="part sizes"):
        sample_grand(u, 1 - 1e-7, RngStream(1))
    with pytest.raises(ConvergenceError, match="part sizes"):
        log_partition_value(u, 1 - 1e-6)


def test_finite_indicator_stops_at_its_largest_member():
    # an indicator on a finite set ends where the matching explicit list
    # ends, not where the tail bound of an infinite rule would stop
    squares = [1, 4, 9, 16]
    ind = Ensemble(GeometricSeries(1), indicator_weights(squares))
    exp = Ensemble(GeometricSeries(1), explicit_weights(
        [float(k in squares) for k in range(1, 17)]))
    assert ind.weights.support_end == 16
    assert product_tail_cutoff(ind, 0.999) == 16
    assert product_tail_cutoff(exp, 0.999) == 16
    assert log_partition_value(ind, 0.999) == log_partition_value(exp, 0.999)


# ---------------------------------------------------------------------------
# point masses


def test_point_mass_at_zero_weight():
    u = make("uniform")
    assert point_mass(u, 0.5, 0) == pytest.approx(0.2887880951, abs=1e-6)
    assert point_mass(u, 1e-6, 0) == pytest.approx(1.0, abs=1e-5)


def test_point_mass_normalization_and_mean():
    u = make("uniform")
    masses = [point_mass(u, 0.5, m) for m in range(61)]
    assert sum(masses) == pytest.approx(1.0, abs=1e-9)
    mean = sum(m * p for m, p in enumerate(masses))
    assert mean == pytest.approx(u.mean_N(0.5), rel=1e-6)


@pytest.mark.parametrize("n", [100, 500, 1000])
def test_point_mass_matches_partition_number_oracle(n):
    # p(n) x^n / F(x) from the pentagonal recurrence and a naive product:
    # the masses acceptance criterion 11 measures at x_n are exact
    u = make("uniform")
    x_n = solve_tilt(u, n).x_n
    oracle = partition_numbers(n)[n] * x_n ** n / partition_product(x_n)
    assert point_mass(u, x_n, n) == pytest.approx(oracle, rel=1e-10)


# the tilted recurrence against masses read from exact tables: one ensemble
# per series kind and weight rule, every m <= 2000
ENGINE_CASES = {
    "uniform": lambda: make("uniform"),
    "weighted(y=1/2)": lambda: make("weighted", y=Fraction(1, 2)),
    "restricted(odds)": lambda: make("restricted", parts="odds"),
    "gibbs(1,1)": lambda: make("gibbs", theta=1, beta=1),
    "ewens(2)": lambda: make("ewens", theta=2),
    "double pole": lambda: Ensemble(
        CustomSeries(lambda j: j + 1, radius=1.0,
                     singularity=Singularity("pole", 2.0)),
        constant_weights()),
}


@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_tilted_masses_match_exact_tables(name):
    e = ENGINE_CASES[name]()
    x, m_max = 0.97, 2000
    table = coefficients(e, m_max)
    assert table.exact
    got = _tilted_masses(e, x, m_max)
    log_F = log_partition_value(e, x)
    for m in range(m_max + 1):
        want = math.exp(table.log_coefficient(m) + m * math.log(x) - log_F)
        assert want > 0.0
        assert got[m] == pytest.approx(want, rel=1e-10)
    assert point_mass(e, x, m_max) == got[m_max]


def test_tilted_masses_rescale_when_log_partition_is_large():
    # gibbs(theta, 1): F(x) = exp(theta x/(1-x)), a_n = sum_k C(n-1,k-1)
    # theta^k/k!. At theta = 5000, n = 1000, 1/F(x_n) underflows.
    theta, n = 5000, 1000
    e = make("gibbs", theta=theta, beta=1)
    x = solve_tilt(e, n).x_n
    log_F = theta * x / (1.0 - x)
    assert log_F > 800.0
    assert log_partition_value(e, x) == pytest.approx(log_F, rel=1e-13)
    a_n = sum(Fraction(math.comb(n - 1, k - 1) * theta ** k, math.factorial(k))
              for k in range(1, n + 1))
    log_a = math.log(a_n.numerator) - math.log(a_n.denominator)
    want = math.exp(log_a + n * math.log(x) - log_F)
    assert point_mass(e, x, n) == pytest.approx(want, rel=1e-10)


def assert_masses_match_table(e, x, got, m_max):
    # a_m x^m / F(x) with a_m read from the exact table
    table = coefficients(e, m_max)
    assert table.exact
    log_F = log_partition_value(e, x)
    for m in range(m_max + 1):
        want = math.exp(table.log_coefficient(m) + m * math.log(x) - log_F)
        assert got[m] == pytest.approx(want, rel=1e-12)


def test_tilted_masses_fall_back_to_tables_on_negative_weights():
    # f = 1 + z + z^2 has mu_3 = 3 [z^3] log f = -2. Parts not divisible by
    # 3 give c_3 = -2 x^3: the recurrence cannot run, and the masses come
    # from the exact table
    e = Ensemble(CustomSeries([1, 1, 1]),
                 indicator_weights({"modulus": 3, "residues": [1, 2]}))
    x, m_max = 0.8, 60
    assert not _log_derivative_weights(e, x, m_max)[1]
    assert_masses_match_table(e, x, _tilted_masses(e, x, m_max), m_max)
    # (1 + z)^b with b fractional is no count law, and the table says so
    frac = Ensemble(CustomSeries([1, 1]), power_law_weights(1.0, 0.5))
    with pytest.raises(NegativeCoefficientError):
        point_mass(frac, 0.5, 10)
    # distinct parts: log(1 + z) alternates, but every c_i is an odd
    # divisor sum, so the recurrence runs and matches the table
    strict = Ensemble(CustomSeries([1, 1]), constant_weights())
    c, positive = _log_derivative_weights(strict, 0.9, m_max)
    assert positive and (c[1:] > 0).all()
    assert_masses_match_table(strict, 0.9, _tilted_masses(strict, 0.9, m_max),
                              m_max)


def test_point_mass_at_1e5_matches_rademacher_and_clears_floor():
    # p(n) from the Hardy-Ramanujan-Rademacher series, F from a naive
    # product; the unit-constant floor n^-0.85 holds from n* = 90,884
    from sympy.functions.combinatorial.numbers import partition

    n = 100_000
    u = make("uniform")
    x = solve_tilt(u, n).x_n
    want = math.exp(math.log(int(partition(n))) + n * math.log(x)
                    - math.log(partition_product(x)))
    got = point_mass(u, x, n)
    assert got == pytest.approx(want, rel=1e-10)
    assert got > n ** -0.85


def test_point_mass_validation():
    u = make("uniform")
    with pytest.raises(ParamError):
        point_mass(u, 0.0, 3)
    with pytest.raises(ParamError):
        point_mass(u, 0.5, -1)


def test_point_mass_at_2e5_matches_exact_partition_number():
    # p(n) exact from the Hardy-Ramanujan-Rademacher series, F from a naive
    # product: about 1.3e4 factors 1/(1 - x^k), whose roundings keep log F
    # within 4e-13 of its value at this tilt, far inside the tolerance
    from sympy.functions.combinatorial.numbers import partition

    n = 200_000
    u = make("uniform")
    x = solve_tilt(u, n).x_n
    want = math.exp(math.log(int(partition(n))) + n * math.log(x)
                    - math.log(partition_product(x)))
    assert point_mass(u, x, n) == pytest.approx(want, rel=1e-10)


def test_mass_sizes_are_integers():
    u = make("uniform")
    for m in (2.5, 3.0, True, "3"):
        with pytest.raises(ParamError):
            point_mass(u, 0.5, m)
    assert point_mass(u, 0.5, np.int64(3)) == point_mass(u, 0.5, 3)


def test_mass_sizes_past_the_bound_are_refused():
    # refused before any array over 0..m is allocated: the probe at
    # x = 1 - 1e-4 would ask for m near 1.6e8
    u = make("uniform")
    with pytest.raises(ConvergenceError, match=f"m={MAX_PRODUCT_SIZES + 1} "):
        point_mass(u, 0.5, MAX_PRODUCT_SIZES + 1)
    with pytest.raises(ConvergenceError, match=str(MAX_PRODUCT_SIZES)):
        local_limit_probe(u, 1.0 - 1e-4, (0.0,))


# the mass engine against the dot-per-m loop it replaced: (ensemble, x, or
# None for the tilt x_n of m_max, m_max)
MASS_ENGINE_CASES = {
    **{f"{name} x=0.97": (make_e, 0.97, 2000)
       for name, make_e in ENGINE_CASES.items()},
    # deep tails, where an unscaled FFT product loses every digit
    "uniform x=0.9": (lambda: make("uniform"), 0.9, 4000),
    "gibbs(1,1) x=0.9": (lambda: make("gibbs", theta=1, beta=1), 0.9, 3000),
    "weighted(2) x=0.45": (lambda: make("weighted", y=2), 0.45, 3000),
    "uniform x_n": (lambda: make("uniform"), None, 30_000),
    # c_i = i^3 x^i grows along each segment: scaling by the rate of c
    # alone leaves 2e-11
    "gibbs(1,3) x_n": (lambda: make("gibbs", theta=1, beta=3), None, 3000),
    # log F(x_n) > 800: the run rescales
    "gibbs(5000,1) x_n": (lambda: make("gibbs", theta=5000, beta=1), None,
                          1000),
    # c_i = 0 off a lattice: masses off it are exact zeros, and an m_max
    # off it ends past the last lattice point. Radix-2 FFTs of even
    # sequences leave odd terms at exactly 0; a stride of 3 needs the
    # lattice run
    "restricted(evens)": (lambda: make("restricted", parts="evens"), 0.97,
                          2001),
    "multiples of 3": (lambda: Ensemble(GeometricSeries(1), indicator_weights(
        {"modulus": 3, "residues": [0]})), 0.97, 3001),
    **{f"uniform m_max={m}": (lambda: make("uniform"), 0.9, m)
       for m in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1)},
}


def assert_engine_matches_loop(c, m_max):
    v, shift = _mass_recurrence(c, m_max)
    want_v, want_shift = mass_recurrence_loop(c, m_max)
    assert np.array_equal(shift, want_shift)
    assert np.array_equal(v == 0.0, want_v == 0.0)
    # every mass within 1e-200 of the peak, to 1e-12 relative
    log_p = np.log(np.where(want_v > 0.0, want_v, np.nan)) + want_shift
    keep = log_p >= np.nanmax(log_p) - 200 * math.log(10)
    assert np.abs(v[keep] / want_v[keep] - 1.0).max() <= 1e-12
    return shift


@pytest.mark.parametrize("name", list(MASS_ENGINE_CASES))
def test_mass_engine_matches_loop(name):
    make_e, x, m_max = MASS_ENGINE_CASES[name]
    e = make_e()
    x = solve_tilt(e, m_max).x_n if x is None else x
    c, positive = _log_derivative_weights(e, x, m_max)
    assert positive
    assert_engine_matches_loop(c, m_max)


def test_mass_engine_matches_loop_across_rescales_within_a_block(monkeypatch):
    # at _RESCALE = 1e20 gibbs(5000, 1) passes the threshold seven times in
    # its first block, so one block is solved in several pieces
    monkeypatch.setattr(partition_function, "_RESCALE", 1e20)
    e = make("gibbs", theta=5000, beta=1)
    c, _ = _log_derivative_weights(e, solve_tilt(e, 1000).x_n, 1000)
    shift = assert_engine_matches_loop(c, 1000)
    rises = np.flatnonzero(np.diff(shift)) + 1
    assert np.bincount(rises // _BLOCK).max() >= 3


# ---------------------------------------------------------------------------
# local limit probe


def test_local_limit_gaussian_values():
    got = dict(local_limit_probe(make("uniform"), 0.99, (-1.0, 0.0, 1.0)))
    gauss = 1.0 / math.sqrt(2 * math.pi)
    assert got[0.0] == pytest.approx(gauss, rel=0.10)
    assert got[1.0] == pytest.approx(gauss * math.exp(-0.5), rel=0.10)
    assert got[-1.0] == pytest.approx(gauss * math.exp(-0.5), rel=0.10)


def test_local_limit_symmetry():
    # skew decays like sqrt(1-x): at x=0.99 symmetry holds tightly only
    # close to the center
    got = dict(local_limit_probe(make("uniform"), 0.99, (-0.25, 0.25)))
    assert abs(got[0.25] - got[-0.25]) / got[0.25] < 0.05


def test_local_limit_gates():
    from multpart import RegimeError
    with pytest.raises(RegimeError):
        local_limit_probe(make("weighted", y=2), 0.4, (0.0,))
    assert local_limit_probe(make("uniform"), 0.5, ()) == []

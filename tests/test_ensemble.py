import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multpart.asymptotics import solve_tilt
from multpart.catalog import make
from multpart.ensemble import (Ensemble, PartSet, Regime, WeightSequence,
                               check_condition_10, check_condition_11,
                               classify_regime, constant_weights,
                               explicit_weights, indicator_weights,
                               monomial_weights, power_law_weights,
                               resonant_mask)
from multpart.errors import (ConvergenceError, DomainError, ParamError,
                             RegimeError)
from multpart.partition_function import (local_limit_probe,
                                         log_partition_value, point_mass,
                                         product_tail_cutoff)
from multpart.sampler import RngStream, sample_count, sample_grand
from multpart.series import CustomSeries, ExponentialSeries, GeometricSeries, Singularity

from oracles import central_diff, direct_mean_var, fsum_tail_moments


# -- part sets ---------------------------------------------------------------


def test_part_set_forms():
    evens = PartSet.from_spec("evens")
    odds = PartSet.from_spec("odds")
    assert [k for k in range(1, 8) if k in evens] == [2, 4, 6]
    assert [k for k in range(1, 8) if k in odds] == [1, 3, 5, 7]
    mod = PartSet.from_spec({"modulus": 3, "residues": [1]})
    assert [k for k in range(1, 10) if k in mod] == [1, 4, 7]
    pred = PartSet.from_spec(lambda k: k % 5 == 0)
    assert 10 in pred and 11 not in pred
    finite = PartSet.from_spec([1, 4, 9])
    assert finite.end == 9 and 9 in finite and 2 not in finite


def test_part_set_density():
    assert PartSet.from_spec("evens").estimated_density() == pytest.approx(0.5)
    assert PartSet.from_spec({"modulus": 4, "residues": [1, 3]}
                             ).estimated_density() == pytest.approx(0.5)
    # predicate sets fall back to counting a long prefix
    pred = PartSet.from_spec(lambda k: k % 5 == 0)
    assert pred.estimated_density() == pytest.approx(0.2, abs=1e-3)


# -- weight sequences --------------------------------------------------------


def test_prefix_sum_examples():
    assert constant_weights().prefix_sums([10]).tolist() == [10]
    assert power_law_weights(1, 2).prefix_sums([4]).tolist() == [16]
    assert indicator_weights("evens").prefix_sums([7]).tolist() == [3]


def test_power_law_prefix_exact_for_fractional_beta():
    w = power_law_weights(2.0, 1.5)
    ks = np.array([1, 7, 100])
    assert w.prefix_sums(ks) == pytest.approx(2.0 * ks ** 1.5, rel=1e-14)


def test_weight_values():
    w = power_law_weights(1, 2)
    assert [w.value(k) for k in (1, 2, 3)] == [1, 3, 5]
    m = monomial_weights(2, 1)
    assert [m.value(k) for k in (1, 2, 3)] == [2, 4, 6]
    ex = explicit_weights([1, 0, 2])
    assert [ex.value(k) for k in (1, 2, 3, 4)] == [1, 0, 2, 0]
    assert ex.support_end == 3


def test_monomial_negative_power_rounds_once():
    # b_k = c / k^-p is the correctly rounded value of the Fraction
    assert monomial_weights(3, -1).value(5) == 0.6
    ks = np.arange(1, 2001)
    for c in (3, 7, Fraction(7, 2)):
        for p in (-1, -2, -3):
            w = monomial_weights(c, p)
            assert w.values(ks).tolist() == [float(b) for b in
                                             w.exact_values(ks.size)]


def test_weight_validation():
    with pytest.raises(ParamError):
        power_law_weights(0, 1)
    with pytest.raises(ParamError):
        explicit_weights([])
    with pytest.raises(ParamError):
        explicit_weights([1, -2])
    # each rule takes only its own parameters and the declared growth
    with pytest.raises(TypeError):
        constant_weights(theta=2)
    with pytest.raises(TypeError):
        power_law_weights(1, 2, coeff=3)


def test_explicit_rationality_reads_every_value():
    assert explicit_weights([1, 1, Fraction(1, 2)]).is_rational
    assert not explicit_weights([1, 1, 0.5]).is_rational
    assert not explicit_weights([1, 1, 0.5]).scaled(2).is_rational
    assert explicit_weights([1, 1, 2.0]).is_rational


@pytest.mark.parametrize("w,bounded", [
    (constant_weights(), True),
    (indicator_weights("evens"), False),
    (power_law_weights(1, 1), True),
    (power_law_weights(2, 1.5), True),
    (power_law_weights(1, 0.5), False),
    (monomial_weights(2, 0), True),
    (monomial_weights(1, 1), True),
    (monomial_weights(1, -1), False),
    (explicit_weights([1, 2, 3]), False),
])
def test_bounded_below_per_rule(w, bounded):
    assert w.bounded_below is bounded
    if bounded:  # the rule's infimum is b_1 > 0
        ks = np.arange(1, 2000)
        assert w.values(ks).min() == pytest.approx(w.b_1)


def test_declared_fields_stored():
    w = explicit_weights([1.5, 1.0, 0.5], declared_beta=1.0,
                         declared_theta=1.0)
    assert (w.declared_beta, w.declared_theta) == (1.0, 1.0)
    assert w.beta == 1.0 and w.theta == 1.0


def test_scaled_weights():
    w = power_law_weights(1, 2).scaled(0.5)
    assert w.value(2) == pytest.approx(1.5)
    assert w.prefix_sums([4])[0] == pytest.approx(8.0)


# every rule, power laws on both sides of beta = 1, monomials with p < 0,
# explicit lists that end inside or before the block, and scaled copies
weight_sequences = st.builds(
    lambda w, factor: w if factor == 1 else w.scaled(factor),
    st.one_of(
        st.just(constant_weights()),
        st.builds(lambda m, r: indicator_weights(
            {"modulus": m, "residues": [r]}), st.integers(1, 7),
            st.integers(0, 6)),
        st.builds(power_law_weights, st.floats(0.1, 5),
                  st.one_of(st.floats(0.1, 0.95), st.floats(1.05, 3))),
        st.builds(monomial_weights, st.floats(0.1, 5), st.floats(-3, 2)),
        st.builds(explicit_weights, st.lists(st.floats(0, 5), min_size=1,
                                             max_size=60)),
    ),
    st.sampled_from([1, 0.5, 3.0, Fraction(1, 3)]))


block_ends = st.one_of(st.integers(0, 80), st.integers(0, 10 ** 4))


@given(weight_sequences, block_ends, block_ends)
@settings(max_examples=200, deadline=None)
def test_block_bounds_cover_direct_sums(w, lo, hi):
    # the tail certificate of product_tail_cutoff rests on these bounds;
    # the slack only absorbs rounding in the directly summed terms
    lo, hi = min(lo, hi), max(lo, hi)
    b = w.values(np.arange(lo + 1, hi + 1))
    total = math.fsum(b.tolist())
    top = float(b.max()) if b.size else 0.0
    assert w.block_sum_upper(lo, hi) >= total * (1 - 1e-9)
    assert w.block_max_upper(lo, hi) >= top * (1 - 1e-9)


@given(weight_sequences, st.lists(st.integers(1, 300), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_vector_reads_agree(w, picks):
    ks = np.array(sorted(set(picks)))
    n = int(ks.max())
    b = w.values(np.arange(1, n + 1))
    B = np.cumsum(b)[ks - 1]
    if w.rule in ("constant", "power_law"):  # closed forms
        assert w.prefix_sums(ks) == pytest.approx(B, rel=1e-9)
    else:
        assert w.prefix_sums(ks).tolist() == B.tolist()
    exact = w.exact_values(n)
    assert (exact is None) == (not w.is_rational)
    if exact is None:
        return
    # whole values come back as ints, the rest as Fractions
    assert len(exact) == n and all(
        type(v) is int or type(v) is Fraction and v.denominator > 1
        for v in exact)
    # a monomial of whole power rounds b_k once, c k^p or c / k^-p, and a
    # power-of-two scale adds no rounding
    once = (w.rule == "monomial" and float(w.power).is_integer()
            and math.frexp(float(w.scale))[0] == 0.5)
    for k in ks.tolist():
        v, f = exact[k - 1], w.values([k])[0]
        if once or (v.denominator == 1 and float(w.scale).is_integer()):
            assert float(v) == f
        else:  # a float path rounds at each of its few steps
            assert abs(Fraction(f) - v) <= v * Fraction(1, 2 ** 50)


# -- moments -----------------------------------------------------------------


def uniform() -> Ensemble:
    return Ensemble(GeometricSeries(1), constant_weights(), label="uniform")


def test_mean_trivials():
    e = uniform()
    assert e.mean_N(0.0) == 0.0
    assert e.var_N(0.0) == 0.0


def test_mean_against_direct_sum():
    e = uniform()
    got = e.mean_N(0.5)
    # sum k 0.5^k / (1 - 0.5^k), summed far past the tolerance
    want = sum(k * 0.5 ** k / (1 - 0.5 ** k) for k in range(1, 200))
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(2.744, abs=5e-4)


def test_mean_against_coefficient_route():
    from multpart.partition_function import coefficients

    e = uniform()
    x = 0.9
    table = coefficients(e, 2000, mode="exact")
    num = sum(n * int(table.coefficient(n)) * x ** n for n in range(2001))
    den = sum(int(table.coefficient(n)) * x ** n for n in range(2001))
    assert e.mean_N(x) == pytest.approx(num / den, rel=1e-8)


def test_var_matches_finite_difference():
    e = uniform()
    got = e.var_N(0.5)
    want = 0.5 * central_diff(e.mean_N, 0.5, 1e-6)
    assert got == pytest.approx(want, rel=1e-5)


def test_var_exponential_constant_closed_form():
    # sum k^2 q^k = q(1+q)/(1-q)^3 = 6.0 at q = 1/2
    e = Ensemble(ExponentialSeries(1), constant_weights())
    assert e.var_N(0.5) == pytest.approx(6.0, rel=1e-12)
    mean, var = direct_mean_var(lambda k: 1, lambda u: (1.0, 0.0), 0.5, 200)
    assert e.mean_N(0.5) == pytest.approx(mean, rel=1e-12)
    assert e.var_N(0.5) == pytest.approx(var, rel=1e-12)


def test_moments_against_oracle_weighted():
    y = 0.5
    e = make("weighted", y=y)

    def ratio(u):
        d = 1 - y * u
        return y / d, (y / d) ** 2

    mean, var = direct_mean_var(lambda k: 1, ratio, 0.8, 400)
    assert e.mean_N(0.8) == pytest.approx(mean, rel=1e-11)
    assert e.var_N(0.8) == pytest.approx(var, rel=1e-11)


@pytest.mark.parametrize("name,params,x", [
    ("uniform", {}, 0.999),
    ("restricted", {"parts": "odds"}, 0.9995),  # blocks end on b_k = 0
    ("gibbs", {"theta": 2, "beta": 0.5}, 0.9995),
])
def test_mean_var_is_both_moments_exactly(name, params, x):
    e = make(name, **params)
    blocks: dict = {}
    mean = e.mean_N(x, blocks)
    mean_blocks = len(blocks)
    # the variance terms decay more slowly: its stop test ends in a later
    # block, and the walk goes on for it alone
    assert e.mean_var(x, blocks) == (mean, e.var_N(x))
    assert len(blocks) > mean_blocks
    for y in (0.3, x, 0.9999):
        # a store filled at other tilts leaves every sum unchanged
        assert e.mean_var(y) == e.mean_var(y, blocks) == (e.mean_N(y), e.var_N(y))
    assert e.mean_var(0.0) == (0.0, 0.0)


def test_tail_moments_counts_against_direct_sum():
    # E_x R_k = b_k x^k / (1 - x^k) for geometric f; the walk stops once a
    # term is below 1e-14 of the total, leaving a tail of about that over
    # 1 - x, so 1e-11 relative at x = 0.999
    x = 0.999
    for parts, step in ((None, 1), ("odds", 2)):
        e = make("uniform") if parts is None else make("restricted", parts=parts)
        for k_min in (2, 1501, 9000):
            k0 = k_min if step == 1 or k_min % 2 else k_min + 1
            want = math.fsum(x ** k / (1 - x ** k)
                             for k in range(k0, 80_000, step))
            got = e.tail_moments(x, (k_min - 1,))[0][0]
            assert got == pytest.approx(want, rel=5e-11)


TAIL_FAMILIES = {
    # ensemble, b_k, h = f'/f and h'
    "uniform": (lambda: make("uniform"), lambda k: 1,
                lambda u: 1.0 / (1.0 - u), lambda u: 1.0 / (1.0 - u) ** 2),
    "gibbs(2,0.5)": (lambda: make("gibbs", theta=2, beta=0.5),
                     lambda k: 1.0 / math.sqrt(k), lambda u: 2.0,
                     lambda u: 0.0),
    "restricted(odds)": (lambda: make("restricted", parts="odds"),
                         lambda k: k % 2, lambda u: 1.0 / (1.0 - u),
                         lambda u: 1.0 / (1.0 - u) ** 2),
}


@pytest.mark.parametrize("name", sorted(TAIL_FAMILIES))
@pytest.mark.parametrize("tau", [1e-2, 1e-3])
def test_tail_moments_match_fsum_at_shape_cuts(name, tau):
    # the cuts floor(alpha t) of a concentration prediction, alpha = 1/tau:
    # every suffix of the one walk against a correctly rounded sum
    make_e, b_of_k, h, hp = TAIL_FAMILIES[name]
    x = 1.0 - tau
    cuts = [math.floor(t / tau) for t in (0.25, 1.0, 3.0)]
    got = make_e().tail_moments(x, cuts)
    want = fsum_tail_moments(b_of_k, h, hp, x, cuts)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-10, abs=0.0)


def test_tail_moments_cuts_past_the_stop_read_zero():
    # at x = 0.99 the walk from size 11 stops after its first block, where
    # x^k is about e^-41; the sizes above 5000 still hold about 1e-20
    # expected parts, but the walk never reaches them
    e = make("uniform")
    near, far = e.tail_moments(0.99, (10, 5000))
    assert all(v > 0.0 for v in near)
    assert far == (0.0, 0.0, 0.0)
    assert e.tail_moments(0.99, (10,))[0] == near
    # cuts in any order, repeats included, read as the sorted walk does
    assert e.tail_moments(0.99, (5000, 10, 5000)) == [far, near, far]
    assert e.tail_moments(0.0, (0, 3)) == [(0.0, 0.0, 0.0)] * 2
    for bad in ((), (3, -1)):
        with pytest.raises(ParamError):
            e.tail_moments(0.5, bad)
    with pytest.raises(DomainError):
        e.tail_moments(1.0, (3,))


def test_domain_checks():
    e = uniform()
    with pytest.raises(DomainError):
        e.mean_N(1.0)
    with pytest.raises(DomainError):
        e.mean_N(-0.2)
    w2 = make("weighted", y=2)
    with pytest.raises(DomainError):
        w2.mean_N(0.5)  # rho = 1/2 itself is outside


@given(st.floats(0.05, 0.93))
@settings(max_examples=30, deadline=None)
def test_mean_strictly_increasing(x):
    e = uniform()
    assert e.mean_N(x + 0.05) > e.mean_N(x)


STOP_FAMILIES = {
    "uniform": lambda: make("uniform"),
    "gibbs205": lambda: make("gibbs", theta=2, beta=0.5),
    "weighted2": lambda: make("weighted", y=2),
    "strict": lambda: Ensemble(CustomSeries([1, 1]), constant_weights()),
}


@given(st.sampled_from(sorted(STOP_FAMILIES)), st.floats(0.01, 0.9995),
       st.one_of(st.integers(1, 10 ** 7), st.floats(0.5, 2.0)))
@settings(max_examples=60, deadline=None)
def test_mean_stop_above_compares_as_the_full_mean(name, u, target):
    # an int is n itself; a float places n at that multiple of the mean
    e = STOP_FAMILIES[name]()
    x = u * e.rho
    full = e.mean_N(x)
    n = target if isinstance(target, int) else max(1, round(target * full))
    early = e.mean_N(x, stop_above=n)
    assert (early < n) == (full < n)
    assert (early > n) == (full > n)
    if full <= n:
        assert early == full


def test_tilt_bracket_stops_its_probes_past_n(monkeypatch):
    # the upper probe sits at 1 - tau0/4 and would walk about four times
    # the sizes of a Newton step; stopped past n it walks about as many
    calls = []
    values = WeightSequence.values

    def counted(self, ks):
        calls.append(len(ks))
        return values(self, ks)

    monkeypatch.setattr(WeightSequence, "values", counted)
    solve_tilt(make("gibbs", theta=2, beta=0.5), 10 ** 6)
    assert len(calls) <= 60


def test_var_increasing_on_grid():
    e = uniform()
    xs = np.linspace(0.05, 0.95, 19)
    vals = [e.var_N(float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# -- normalization -----------------------------------------------------------


def test_normalized_preserves_moments():
    e = Ensemble(ExponentialSeries(1), monomial_weights(2, 0.5))
    ne = e.normalized()
    assert ne.weights.b_1 == pytest.approx(1.0)
    for x in (0.2, 0.5, 0.8):
        assert ne.mean_N(x) == pytest.approx(e.mean_N(x), rel=1e-12)
        assert ne.var_N(x) == pytest.approx(e.var_N(x), rel=1e-12)


def test_normalized_noop_and_failure():
    e = uniform()
    assert e.normalized() is e
    evens = Ensemble(GeometricSeries(1), indicator_weights("evens"))
    with pytest.raises(RegimeError):
        evens.normalized()


# -- what an ensemble remembers ----------------------------------------------


def test_memo_stays_bounded_and_evicted_entries_rebuild_identically():
    e = make("uniform")
    rng = RngStream(11, 2)
    xs = [float(x) for x in np.linspace(0.5, 0.95, 100)]
    first = solve_tilt(e, 100)
    draw = sample_grand(e, xs[0], rng)
    for n in range(101, 300):
        solve_tilt(e, n)
        assert len(e._memo) <= 64
    for x in xs[1:]:
        sample_grand(e, x, rng)
        assert len(e._memo) <= 64
    assert ("tilt", 100) not in e._memo
    assert ("grand_table", xs[0]) not in e._memo
    again = solve_tilt(e, 100)
    assert again is not first and again == first
    assert again.x_n.hex() == first.x_n.hex()
    assert sample_grand(e, xs[0], rng) == draw


def test_memo_stores_nothing_when_the_build_raises():
    # mean N < 1/2 for f = 1 + z with parts of size 1 only: n = 1 fails,
    # and fails again when asked again
    one = Ensemble(CustomSeries([1, 1]), explicit_weights([1]))
    for _ in range(2):
        with pytest.raises(ConvergenceError, match="unreachable"):
            solve_tilt(one, 1)
        assert ("tilt", 1) not in one._memo
    e = make("uniform")

    def fail():
        raise ParamError("no value")

    with pytest.raises(ParamError):
        e.cached("key", fail)
    assert "key" not in e._memo
    assert solve_tilt(e, 1000).residual <= 1e-10 * 1000


# -- the tilt domain ---------------------------------------------------------


_TILT_ENTRIES = {
    "mean_N": lambda e, x: e.mean_N(x),
    "tail_moments": lambda e, x: e.tail_moments(x, (0, 5)),
    "product_tail_cutoff": product_tail_cutoff,
    "log_partition_value": log_partition_value,
    "sample_grand": lambda e, x: sample_grand(e, x, RngStream(1)),
    "sample_count": lambda e, x: sample_count(e, 2, x, RngStream(1)),
    "point_mass": lambda e, x: point_mass(e, x, 3),
    "local_limit_probe": lambda e, x: local_limit_probe(e, x, (0.0,)),
}


@pytest.mark.parametrize("where", ["rho", "negative"])
@pytest.mark.parametrize("entry", list(_TILT_ENTRIES))
def test_tilt_outside_domain_is_domain_error(entry, where):
    e = make("uniform")
    x = e.rho if where == "rho" else -0.1
    with pytest.raises(DomainError, match="outside"):
        _TILT_ENTRIES[entry](e, x)


# -- regimes -----------------------------------------------------------------


@pytest.mark.parametrize("build,expect", [
    (lambda: make("weighted", y=0.5), Regime.ERGODIC_SUPERCRITICAL),
    (lambda: make("uniform"), Regime.ERGODIC_POLE_AT_ONE),
    (lambda: make("weighted", y=2), Regime.NONERGODIC_GRAND_CANONICAL),
    (lambda: make("gibbs", theta=1, beta=2), Regime.ERGODIC_SUPERCRITICAL),
    (lambda: make("restricted", parts="odds"), Regime.ERGODIC_POLE_AT_ONE),
    (lambda: make("restricted", parts="evens"), Regime.OUT_OF_SCOPE),
    (lambda: make("ewens", theta=1), Regime.OUT_OF_SCOPE),
    (lambda: Ensemble(GeometricSeries(1), explicit_weights([1, 1])),
     Regime.OUT_OF_SCOPE),
    (lambda: Ensemble(CustomSeries(lambda j: 1 / math.factorial(j) ** 0.5,
                                   radius=0.5,
                                   singularity=Singularity("essential")),
                      constant_weights()),
     Regime.ESSENTIAL_SUBCRITICAL),
])
def test_regime_classification(build, expect):
    e = build()
    assert classify_regime(e) is expect
    assert e.regime is expect


def test_regime_strings():
    assert str(Regime.NONERGODIC_GRAND_CANONICAL) == "NonergodicGrandCanonical"
    assert Regime.ERGODIC_POLE_AT_ONE.ergodic
    assert not Regime.OUT_OF_SCOPE.ergodic


# -- resonance diagnostics ---------------------------------------------------


def test_resonant_mask_s3():
    ks = np.arange(1, 13)
    hits = ks[resonant_mask(3.0, ks)]
    assert hits.tolist() == [3, 6, 9, 12]


def test_condition_10_constant():
    rep = check_condition_10(constant_weights())
    assert rep.worst_ratio <= 0.51
    assert rep.per_s[2.0]["worst_ratio"] == pytest.approx(0.5, abs=0.01)
    assert rep.satisfied(0.51)


def test_condition_10_evens_lattice():
    rep = check_condition_10(indicator_weights("evens"))
    assert rep.worst_s == 2.0
    assert rep.per_s[2.0]["worst_ratio"] == pytest.approx(1.0)
    assert not rep.satisfied(0.99)
    with pytest.raises(ParamError):
        rep.satisfied(1.0)


def test_condition_11_power_law_exact():
    rep = check_condition_11(power_law_weights(1, 1))
    assert rep.exact_compliance
    assert rep.remainder_exponent is None
    assert not rep.out_of_scope


def test_condition_11_alternating_explicit():
    # b_k = 1 + (-1)^k / 2 gives B_k = k + O(1): compliant for zeta < 1
    values = [1 + (-1) ** k / 2 for k in range(1, 5001)]
    w = explicit_weights(values, declared_beta=1.0, declared_theta=1.0)
    rep = check_condition_11(w)
    assert not rep.exact_compliance
    assert rep.remainder_exponent is not None
    assert rep.remainder_exponent < 0.2
    assert not rep.out_of_scope


def test_condition_11_bounded_prefix_out_of_scope():
    # B_k = sum 1/j^2 is bounded: no positive beta fits its growth
    values = [1.0 / k ** 2 for k in range(1, 5001)]
    w = explicit_weights(values)
    rep = check_condition_11(w)
    assert rep.out_of_scope


@pytest.mark.parametrize("n", [10 ** 5, 10 ** 6])
def test_odds_mean_at_tilt_counts_every_block(n):
    # every block of sizes ends on an even size with b_k = 0; the stop
    # rule must still read the odd sizes, or sizes beyond the first
    # block are dropped and the tilt overshoots
    e = make("restricted", parts="odds")
    x = solve_tilt(e, n).x_n
    k_max = math.ceil(60.0 / -math.log(x))
    mean, _ = direct_mean_var(lambda k: k % 2, lambda u: (1.0 / (1.0 - u),
                                                          1.0 / (1.0 - u) ** 2),
                              x, k_max)
    assert abs(e.mean_N(x) - mean) <= 1e-9 * n
    assert abs(mean - n) <= 1e-9 * n

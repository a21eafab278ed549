"""Quadrature constants, limit shapes, and the tilt solver."""

import math

import mpmath
import numpy as np
import pytest

from multpart import (
    ConvergenceError,
    CustomSeries,
    DomainError,
    Ensemble,
    GeometricSeries,
    ParamError,
    QuadratureError,
    RegimeError,
    RngStream,
    Singularity,
    constant_weights,
    explicit_weights,
    limit_shape,
    make,
    omega,
    phi_at_zero_divergent,
    predict_concentration,
    sample_small_rejection,
    scaling_alpha,
    shape_curve,
    sigma_sq,
    solve_tilt,
    symmetric_rescale,
    variance_ratio_probe,
)

from multpart import asymptotics

from oracles import dilog_series, fsum_mean, mp_shape_constants


# ---------------------------------------------------------------------------
# the growth constants


def test_omega_uniform():
    assert omega(make("uniform")) == pytest.approx(math.pi ** 2 / 6, abs=1e-8)


def test_omega_weighted_half_is_dilogarithm():
    got = omega(make("weighted", y=0.5))
    assert got == pytest.approx(dilog_series(0.5), abs=1e-8)


def test_omega_odds_matches_uniform():
    # the integral never sees the indicator: only theta = density changes
    odds = make("restricted", parts="odds")
    assert omega(odds) == pytest.approx(math.pi ** 2 / 6, abs=1e-8)
    assert odds.theta == pytest.approx(0.5)


@pytest.mark.parametrize("theta,beta", [(1, 1), (1, 2), (2, 1)])
def test_omega_gibbs_closed_form(theta, beta):
    # theta is folded into the series by normalization, so it scales the
    # integral; the growth prefactor 1/beta is reported separately
    e = make("gibbs", theta=theta, beta=beta)
    assert omega(e) == pytest.approx(theta * beta * math.gamma(beta + 1),
                                     rel=1e-9)
    assert e.theta == pytest.approx(1.0 / beta)


def test_omega_memoized():
    e = make("uniform")
    assert omega(e) is omega(e) or omega(e) == omega(e)
    assert "omega" in e._memo


def test_sigma_sq_is_beta_plus_one_omega():
    u = make("uniform")
    assert sigma_sq(u) == pytest.approx(math.pi ** 2 / 3, abs=1e-6)
    g12 = make("gibbs", theta=1, beta=2)
    assert sigma_sq(g12) == pytest.approx(3 * omega(g12), rel=1e-6)
    g11 = make("gibbs", theta=1, beta=1)
    assert sigma_sq(g11) == pytest.approx(2.0, rel=1e-9)


def test_variance_growth_matches_sigma_sq():
    # var_N(x) ~ sigma^2 (1-x)^-(beta+2): beta=1 here
    e = make("ordered_lists")
    scaled = 0.001 ** 3 * e.var_N(0.999)
    assert scaled == pytest.approx(sigma_sq(e), rel=0.02)


def test_omega_consistency_ladder():
    # mean_N(1-tau) tau^(beta+1)/theta approaches Omega linearly in tau
    u = make("uniform")
    om = omega(u)
    gaps = []
    for tau, tol in ((1e-2, 2e-2), (1e-3, 2e-3), (1e-4, 2e-4)):
        val = u.mean_N(1.0 - tau) * tau ** 2
        gap = abs(val - om) / om
        assert gap < tol
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.01


# ---------------------------------------------------------------------------
# limit shapes


def test_shape_uniform_closed_form():
    u = make("uniform")
    t = math.log(2)
    want = (6 / math.pi ** 2) * math.log(2)
    assert limit_shape(u, t) == pytest.approx(want, abs=1e-6)
    assert limit_shape(u, 1.0) == pytest.approx(
        -(6 / math.pi ** 2) * math.log1p(-math.exp(-1)), abs=1e-6)


def test_shape_weighted_closed_form():
    e = make("weighted", y=0.5)
    want = -math.log1p(-0.5 * math.exp(-1)) / dilog_series(0.5)
    assert limit_shape(e, 1.0) == pytest.approx(want, abs=1e-6)
    # value at 0 is finite: the series is supercritical
    want0 = math.log(2) / dilog_series(0.5)
    assert limit_shape(e, 0.0) == pytest.approx(want0, abs=1e-6)


def test_shape_gibbs_exponential():
    g11 = make("gibbs", theta=1, beta=1)
    for t in (0.25, 1.0, 2.0):
        assert limit_shape(g11, t) == pytest.approx(math.exp(-t), abs=1e-6)
    # finite at zero with value 1/beta
    g12 = make("gibbs", theta=1, beta=2)
    assert limit_shape(g12, 0.0) == pytest.approx(0.5, abs=1e-6)


def test_shape_divergence_at_zero():
    u = make("uniform")
    assert phi_at_zero_divergent(u)
    with pytest.raises(DomainError):
        limit_shape(u, 0.0)
    with pytest.raises(DomainError):
        limit_shape(u, -0.5)
    assert not phi_at_zero_divergent(make("weighted", y=0.5))
    assert not phi_at_zero_divergent(make("gibbs", theta=1, beta=1))


def test_shape_curve_uniform_audit():
    sc = shape_curve(make("uniform"), t_max=5.0, grid_size=200)
    assert len(sc.ts) == len(sc.phis) == 200
    assert sc.nonincreasing
    assert sc.integral_check == pytest.approx(1.0, abs=5e-3)
    assert math.isinf(sc.phi_at_zero)
    assert sc.omega == pytest.approx(math.pi ** 2 / 6, abs=1e-8)
    assert sc.beta == 1.0
    # 199 pieces, the shape's tail and the check's head and tail
    assert 0.0 < sc.error_estimate <= 202 * 1e-11 * sc.omega
    rows = list(sc.rows())
    assert len(rows) == 200
    assert all(isinstance(t, float) and isinstance(p, float) for t, p in rows)


def test_shape_curve_weighted_finite_at_zero():
    sc = shape_curve(make("weighted", y=0.5), t_max=5.0, grid_size=120)
    assert sc.nonincreasing
    assert sc.integral_check == pytest.approx(1.0, abs=5e-3)
    assert sc.phi_at_zero == pytest.approx(
        math.log(2) / dilog_series(0.5), abs=1e-6)


def test_shape_curve_rejects_bad_grid():
    u = make("uniform")
    with pytest.raises(ParamError):
        shape_curve(u, t_max=0.0)
    with pytest.raises(ParamError):
        shape_curve(u, t_max=2.0, grid_size=1)


def test_shape_matches_tilted_mean_counts():
    # tau * E_x[#parts >= t/tau] -> theta * Omega * phi(t) as tau -> 0
    for name, params in (("uniform", {}), ("gibbs", {"theta": 1, "beta": 1})):
        e = make(name, **params)
        om, th = omega(e), e.theta
        tau = 1e-3
        for t in (0.5, 1.0, 2.0):
            k0 = math.ceil(t / tau)
            got = tau * e.tail_moments(1.0 - tau, (k0 - 1,))[0][0]
            assert got == pytest.approx(th * om * limit_shape(e, t), rel=0.02)


def test_symmetric_rescale_self_duality():
    u = make("uniform")
    om = omega(u)
    tilde = symmetric_rescale(lambda t: limit_shape(u, t), om)
    c = math.pi / math.sqrt(6)
    for t in (0.3, 0.8, 1.5, 2.5):
        assert math.exp(-c * tilde(t)) + math.exp(-c * t) == pytest.approx(
            1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# against mpmath quadratures of the defining integrals


def _mp_geometric(y):
    return lambda u: (y / (1 - y * u), (y / (1 - y * u)) ** 2,
                      2 * (y / (1 - y * u)) ** 3)


def _mp_exponential(c):
    return lambda u: (mpmath.mpf(c), 0, 0)


def _mp_polynomial(coeffs):
    def h_mp(u):
        f, f1, f2, f3 = (sum(math.perm(j, d) * c * u ** (j - d)
                             for j, c in enumerate(coeffs) if j >= d)
                         for d in range(4))
        h = f1 / f
        return h, f2 / f - h * h, f3 / f - 3 * (f2 / f) * h + 2 * h ** 3
    return h_mp


def _double_pole():
    return Ensemble(CustomSeries(lambda j: j + 1, radius=1.0,
                                 singularity=Singularity("pole", 2.0)),
                    constant_weights())


# every ergodic catalog family (ewens is not) and the custom series of the
# benchmark: (ensemble, h of f in mpmath, beta)
MP_FAMILIES = {
    "uniform": (lambda: make("uniform"), _mp_geometric(1), 1.0),
    "weighted(0.5)": (lambda: make("weighted", y=0.5),
                      _mp_geometric(mpmath.mpf("0.5")), 1.0),
    "restricted(odds)": (lambda: make("restricted", parts="odds"),
                         _mp_geometric(1), 1.0),
    "gibbs(1,1)": (lambda: make("gibbs", theta=1, beta=1),
                   _mp_exponential(1), 1.0),
    "gibbs(2,0.5)": (lambda: make("gibbs", theta=2, beta=0.5),
                     _mp_exponential(2), 0.5),
    "gibbs(1,2)": (lambda: make("gibbs", theta=1, beta=2),
                   _mp_exponential(1), 2.0),
    "ordered_lists": (lambda: make("ordered_lists"), _mp_exponential(1), 1.0),
    "strict": (lambda: Ensemble(CustomSeries([1, 1]), constant_weights()),
               _mp_polynomial([1, 1]), 1.0),
    "multiplicity<=3": (lambda: Ensemble(CustomSeries([1, 1, 1, 1]),
                                         constant_weights()),
                        _mp_polynomial([1, 1, 1, 1]), 1.0),
    "double pole": (_double_pole,
                    lambda u: (2 / (1 - u), 2 / (1 - u) ** 2, 4 / (1 - u) ** 3),
                    1.0),
}
MP_GRID = (0.3, 1.0, 2.5)


@pytest.mark.parametrize("name", sorted(MP_FAMILIES))
def test_constants_and_shape_match_mpmath(name):
    make_e, h_mp, beta = MP_FAMILIES[name]
    om, sig, phis = mp_shape_constants(h_mp, beta, MP_GRID)
    e = make_e()
    assert abs(omega(e) - om) <= 1e-9
    assert abs(sigma_sq(e) - sig) <= 1e-8
    got = limit_shape(e, np.array(MP_GRID))
    assert np.max(np.abs(got - phis)) <= 1e-10 * max(1.0, om) / om


@pytest.mark.parametrize("name", ["uniform", "gibbs(2,0.5)", "gibbs(1,2)",
                                  "strict", "double pole"])
def test_limit_shape_array_matches_scalar_calls(name):
    e = MP_FAMILIES[name][0]()
    ts = np.array([[2.5, 0.05, 1.0], [0.3, 1.0, 7.0]])
    got = limit_shape(e, ts)
    assert got.shape == ts.shape
    scalar = np.array([[limit_shape(e, float(t)) for t in row] for row in ts])
    assert np.max(np.abs(got - scalar)) <= 1e-12
    assert isinstance(limit_shape(e, 1.0), float)
    assert limit_shape(e, np.array([])).shape == (0,)


def test_limit_shape_array_domain_errors():
    u = make("uniform")
    with pytest.raises(DomainError):
        limit_shape(u, np.array([0.5, -0.1, 1.0]))
    with pytest.raises(DomainError):
        limit_shape(u, np.array([0.5, 0.0, 1.0]))
    with pytest.raises(DomainError):
        limit_shape(u, np.array([0.5, math.nan]))
    # phi(0) is finite here, so t = 0 is accepted inside an array too
    got = limit_shape(make("gibbs", theta=1, beta=1), np.array([0.0, 1.0]))
    assert got == pytest.approx([1.0, math.exp(-1.0)], abs=1e-10)


def test_power_sums_calls_per_curve(monkeypatch):
    calls = []
    power_sums = CustomSeries._power_sums

    def counted(self, *args, **kwargs):
        calls.append(1)
        return power_sums(self, *args, **kwargs)

    monkeypatch.setattr(CustomSeries, "_power_sums", counted)
    e = Ensemble(CustomSeries([1, 1]), constant_weights())
    omega(e), sigma_sq(e), shape_curve(e)
    # one call per quadrature round, not per node
    assert len(calls) <= 60


def test_quadrature_raises_at_the_interval_cap():
    with pytest.raises(QuadratureError,
                       match=r"estimate .* above the tolerance 1\.00e-09 "
                             r"at 300 intervals"):
        asymptotics._integrate(lambda v: 1.0 / v, [0.0, 1.0], 1e-9, "test")


def test_quadrature_raises_when_the_integrand_fails():
    # the truncated series refuses evaluation below v of about 1e-3
    with pytest.raises(QuadratureError, match="integrand evaluation failed"):
        limit_shape(_double_pole(), 1e-4)
    with pytest.raises(QuadratureError, match="not finite"):
        asymptotics._integrate(lambda v: np.where(v < 0.5, 1.0, np.inf),
                               [0.0, 1.0], 1e-9, "test")


# ---------------------------------------------------------------------------
# truncated-series ensembles


@pytest.fixture(scope="module")
def custom_geometric():
    cs = CustomSeries(lambda j: 1.0, radius=1.0,
                      singularity=Singularity("pole", 1))
    return Ensemble(cs, constant_weights(), label="custom-geom")


def test_truncated_series_omega(custom_geometric):
    assert omega(custom_geometric) == pytest.approx(math.pi ** 2 / 6,
                                                    abs=1e-9)


def test_truncated_series_grid_guard(custom_geometric):
    # evaluation is barred within 1e-3 of the singularity, so a grid whose
    # first point sits below that is refused up front
    with pytest.raises(ParamError, match="grid too fine"):
        shape_curve(custom_geometric, t_max=1.0, grid_size=2000)
    sc = shape_curve(custom_geometric, t_max=4.0, grid_size=60)
    assert sc.integral_check == pytest.approx(1.0, abs=5e-3)


# ---------------------------------------------------------------------------
# tilt solving


def test_tilt_uniform_small_n():
    sol = solve_tilt(make("uniform"), 100)
    assert 0.85 < sol.x_n < 0.90
    assert sol.residual <= 1e-10 * 100
    assert sol.mean == pytest.approx(100, abs=1e-6)
    assert sol.tau_n == pytest.approx(1.0 - sol.x_n)
    assert sol.alpha == pytest.approx(1.0 / sol.tau_n)
    assert sol.variance > 0


def test_tilt_scaling_at_large_n():
    # tau_n (n / (Omega theta))^(1/(beta+1)) -> 1
    for name, params in (("uniform", {}), ("gibbs", {"theta": 1, "beta": 1})):
        e = make(name, **params)
        sol = solve_tilt(e, 10 ** 6)
        ratio = sol.tau_n * (10 ** 6 / (omega(e) * e.theta)) ** 0.5
        assert 0.95 < ratio < 1.05


def test_tilt_memoized():
    e = make("uniform")
    assert solve_tilt(e, 500) is solve_tilt(e, 500)


def test_tilt_unreachable_target_raises_convergence_error():
    # f = 1 + z with parts of size 1 only: mean N(x) = x / (1 + x) < 1/2.
    # The generic bracket stops its probes before they round onto rho,
    # where the mean would raise DomainError instead
    e = Ensemble(CustomSeries([1, 1]), explicit_weights([1]))
    with pytest.raises(ConvergenceError, match="unreachable"):
        solve_tilt(e, 1)


def test_tilt_nonergodic_pole_gap():
    # near the finite radius the gap behaves like m rho / n
    e = make("weighted", y=2)
    sol = solve_tilt(e, 10 ** 4)
    assert (0.5 - sol.x_n) * 10 ** 4 == pytest.approx(0.5, rel=0.10)
    assert sol.residual <= 1e-10 * 10 ** 4


# x_n, mean, variance (float.hex), iterations and walks of solve_tilt: any
# change to the order of a moment term, to a stop test or to where Newton
# starts shows as a changed bit or count
TILT_GOLDEN = {
    ("uniform", 100): ("0x1.c3798d171a7a5p-1", "0x1.9000000000064p+6",
        "0x1.952c345d1ebc2p+10", 5, 7),
    ("uniform", 10000): ("0x1.f97ce6298dacap-1", "0x1.388000000002fp+13",
        "0x1.7e325f00065e7p+20", 4, 6),
    ("uniform", 1000000): ("0x1.ff5808bb0f505p-1", "0x1.e848000006e76p+19",
        "0x1.73eef0b0e94c4p+30", 3, 5),
    ("weighted", 100): ("0x1.da667f8d1ae9bp-1", "0x1.8fffffffffffap+6",
        "0x1.480ad540a3437p+11", 5, 7),
    ("weighted", 10000): ("0x1.fc1bab5f82490p-1", "0x1.387fffffffff9p+13",
        "0x1.3ff57dd9f8238p+21", 4, 6),
    ("weighted", 1000000): ("0x1.ff9c0629a2273p-1", "0x1.e848000000850p+19",
        "0x1.3874bf8110796p+31", 3, 5),
    ("restricted", 100): ("0x1.d39e6d10c3888p-1", "0x1.8fffffffffffap+6",
        "0x1.13d635a31574cp+11", 5, 7),
    ("restricted", 10000): ("0x1.fb60af4cc6309p-1", "0x1.3880000000019p+13",
        "0x1.0d348aeb5d335p+21", 4, 6),
    ("restricted", 1000000): ("0x1.ff892f4a9cd6fp-1", "0x1.e8480000005cbp+19",
        "0x1.06e4e50f0ceaap+31", 3, 5),
    ("gibbs11", 100): ("0x1.cf4bc9462fe50p-1", "0x1.9000000000007p+6",
        "0x1.f49fe66e9448ep+10", 5, 7),
    ("gibbs11", 10000): ("0x1.fae7d13513119p-1", "0x1.387fffffffff6p+13",
        "0x1.e8498fff5c275p+20", 4, 6),
    ("gibbs11", 1000000): ("0x1.ff7cfe574d32dp-1", "0x1.e848000000badp+19",
        "0x1.dcd653e7facc8p+30", 3, 5),
    ("gibbs205", 100): ("0x1.de709a001c414p-1", "0x1.900000003173bp+6",
        "0x1.15b4d43549f07p+11", 4, 6),
    ("gibbs205", 10000): ("0x1.fe631538ccf68p-1", "0x1.388000001a46bp+13",
        "0x1.222b5646533c3p+22", 3, 5),
    ("gibbs205", 1000000): ("0x1.ffecce019ee72p-1", "0x1.e848000000a0cp+19",
        "0x1.313a7d37149e4p+33", 3, 5),
    ("strict", 100): ("0x1.d39e6d10c3888p-1", "0x1.8fffffffffffap+6",
        "0x1.13d635a31574bp+11", 5, 7),
    ("strict", 10000): ("0x1.fb60af4cc6309p-1", "0x1.388000000000ep+13",
        "0x1.0d348aeb5d29bp+21", 4, 6),
    ("strict", 1000000): ("0x1.ff892f4a9cd79p-1", "0x1.e848000000a4bp+19",
        "0x1.06e4e50f0fd60p+31", 3, 5),
    # the nonergodic "delta" guess and the generic probe of _bracket
    ("weighted2", 100): ("0x1.fab69d24e9177p-2", "0x1.90000000019b7p+6",
        "0x1.22a8c835f383fp+13", 4, 6),
    ("weighted2", 10000): ("0x1.fff2e36ec9c31p-2", "0x1.3880000000530p+13",
        "0x1.7d2d1cc247b4fp+26", 3, 5),
    ("weighted2", 1000000): ("0x1.ffffde7209605p-2", "0x1.e8480000513cbp+19",
        "0x1.d1a85f198a0fbp+39", 2, 4),
    ("explicit5", 100): ("0x1.e8afa73c13cc7p-1", "0x1.9000000001130p+6",
        "0x1.1f302e1fd4af0p+11", 4, 9),
    ("explicit5", 10000): ("0x1.ffbe878a7d00ap-1", "0x1.388000000021cp+13",
        "0x1.31a22d80004cep+24", 7, 18),
    ("explicit5", 1000000): ("0x1.ffff583ac1ac1p-1", "0x1.e84800000392cp+19",
        "0x1.7488dcb5f173cp+37", 5, 23),
}

TILT_FAMILIES = {
    "uniform": lambda: make("uniform"),
    "weighted": lambda: make("weighted", y=0.5),
    "restricted": lambda: make("restricted", parts="odds"),
    "gibbs11": lambda: make("gibbs", theta=1, beta=1),
    "gibbs205": lambda: make("gibbs", theta=2, beta=0.5),
    "strict": lambda: Ensemble(CustomSeries([1, 1]), constant_weights()),
    "weighted2": lambda: make("weighted", y=2),
    "explicit5": lambda: Ensemble(GeometricSeries(1), explicit_weights([1] * 5)),
}


@pytest.mark.parametrize("name,n", sorted(TILT_GOLDEN))
def test_tilt_solve_bit_identical(name, n):
    sol = solve_tilt(TILT_FAMILIES[name](), n)
    assert (sol.x_n.hex(), sol.mean.hex(), sol.variance.hex(), sol.iterations,
            sol.walks) == TILT_GOLDEN[name, n]


# per family: b_k, h = f'/f and the last size, in closed form
TILT_ORACLE = {
    "uniform": (lambda k: 1, lambda u: 1.0 / (1.0 - u), None),
    "weighted": (lambda k: 1, lambda u: 0.5 / (1.0 - 0.5 * u), None),
    "restricted": (lambda k: k % 2, lambda u: 1.0 / (1.0 - u), None),
    "gibbs11": (lambda k: 1, lambda u: 1.0, None),
    "gibbs205": (lambda k: 2.0 / math.sqrt(k), lambda u: 1.0, None),
    "strict": (lambda k: 1, lambda u: 1.0 / (1.0 + u), None),
    "weighted2": (lambda k: 1, lambda u: 2.0 / (1.0 - 2.0 * u), None),
    "explicit5": (lambda k: 1, lambda u: 1.0 / (1.0 - u), 5),
}


@pytest.mark.parametrize("name,n", sorted(TILT_GOLDEN))
def test_tilt_golden_meets_its_contract_by_fsum(name, n):
    # the recorded x_n solves mean_N = n by a correctly rounded sum
    b_of_k, h, k_max = TILT_ORACLE[name]
    x_n = float.fromhex(TILT_GOLDEN[name, n][0])
    assert abs(fsum_mean(b_of_k, h, x_n, k_max) - n) <= 1e-10 * n


@pytest.mark.parametrize("name", ["uniform", "weighted", "restricted",
                                  "gibbs11", "gibbs205", "strict",
                                  "weighted2"])
@pytest.mark.parametrize("n", [10 ** 2, 10 ** 4, 10 ** 6])
def test_tilt_newton_starts_at_the_regime_guess(name, n):
    # from the scaling guess Newton needs a few steps; a start at the
    # bracket midpoint takes 7 (6 on weighted2)
    sol = solve_tilt(TILT_FAMILIES[name](), n)
    assert sol.iterations <= (4 if name == "weighted2" else 5)


# walks of the float-floor solves; explicit5 takes 22 generic bracket
# probes toward rho, then 6 Newton steps
FLOOR_WALKS = {("weighted2", 3_160_000): 5, ("weighted2", 24_000_000): 5,
               ("explicit5", 17_438_575): 28}


@pytest.mark.parametrize("name,n", sorted(FLOOR_WALKS))
def test_tilt_stops_at_the_float_resolution_floor(name, n):
    # one ulp of x moves the mean by more than 1e-10 n here: the solve
    # returns the closer of two adjacent floats around the root, and a
    # Newton step below half an ulp moves to the neighbour toward the root
    # instead of bisecting from the far end of the bracket
    e = TILT_FAMILIES[name]()
    sol = solve_tilt(e, n)
    assert sol.residual == abs(sol.mean - n) > 1e-10 * n
    assert sol.walks <= FLOOR_WALKS[name, n]
    assert (sol.mean, sol.variance) == e.mean_var(sol.x_n)
    above = sol.mean > n
    other = math.nextafter(sol.x_n, -math.inf if above else math.inf)
    other_mean = e.mean_N(other)
    assert (other_mean < n) if above else (other_mean > n)
    assert abs(other_mean - n) >= sol.residual


def test_tilt_rejects_bad_n():
    with pytest.raises(ParamError):
        solve_tilt(make("uniform"), 0)
    with pytest.raises(ParamError):
        solve_tilt(make("uniform"), -3)


def test_tilt_target_is_an_integer():
    u = make("uniform")
    for n in (2.5, True):
        with pytest.raises(ParamError, match="positive integer"):
            solve_tilt(u, n)
    # refused as a bad size, not as an unreachable one after the budget
    with pytest.raises(ParamError, match="positive integer"):
        sample_small_rejection(u, 2.5, RngStream(1))
    sol = solve_tilt(u, 100)
    assert solve_tilt(u, np.int64(100)) is sol
    assert type(sol.n) is int


def test_scaling_alpha_values():
    got = scaling_alpha(make("uniform"), 10 ** 6)
    assert got == pytest.approx(math.sqrt(6e6) / math.pi, rel=0.05)
    got = scaling_alpha(make("gibbs", theta=1, beta=1), 10 ** 4)
    assert got == pytest.approx(100.0, rel=0.05)


# ---------------------------------------------------------------------------
# regime gates


def test_asymptotics_refuse_nonergodic():
    w2 = make("weighted", y=2)
    for op in (omega, sigma_sq, shape_curve):
        with pytest.raises(RegimeError):
            op(w2)
    with pytest.raises(RegimeError):
        limit_shape(w2, 1.0)
    with pytest.raises(RegimeError):
        scaling_alpha(w2, 100)


def test_shape_divergence_refuses_nonergodic():
    # limit_shape refuses weighted(2), so the question of its divergence
    # at t = 0 is refused too
    with pytest.raises(RegimeError):
        phi_at_zero_divergent(make("weighted", y=2))


_ESSENTIAL = Ensemble(CustomSeries(lambda j: 1 / math.factorial(j) ** 0.5,
                                   radius=0.5,
                                   singularity=Singularity("essential")),
                      constant_weights(), label="essential(0.5)")


@pytest.mark.parametrize("e,op,needle", [
    (make("restricted", parts="evens"),
     lambda e: predict_concentration(e, 1000), "b_1 = 0"),
    (make("ewens", theta=1), omega, "beta"),
    (Ensemble(GeometricSeries(1), explicit_weights([1, 1]), label="two"),
     lambda e: limit_shape(e, 1.0), "finite support"),
    (make("weighted", y=2), shape_curve, "rho_1"),
    (_ESSENTIAL, lambda e: scaling_alpha(e, 100), "EssentialSubcritical"),
    # the reverse gate: a probe defined only in the nonergodic regime
    (make("uniform"), lambda e: variance_ratio_probe(e, [0.5]), "rho_1"),
], ids=["evens", "ewens", "finite", "weighted2", "essential", "reverse"])
def test_regime_refusal_names_its_hypothesis(e, op, needle):
    with pytest.raises(RegimeError) as err:
        op(e)
    msg = str(err.value)
    assert needle in msg
    assert f"{e.label} is {e.regime}: " in msg


def test_asymptotics_refuse_out_of_scope():
    ew = make("ewens", theta=1)
    with pytest.raises(RegimeError):
        omega(ew)
    with pytest.raises(RegimeError):
        limit_shape(ew, 1.0)

"""Acceptance suite: twelve numbered checks with pinned tolerances.

Each criterion function runs a self-contained experiment against an
independent reference (closed form, recurrence oracle, or statistical
bound) and returns a CriterionResult with a measured detail string, so a
failure is directly actionable. run_suite() groups them under short names
for the command-line runner.

Seeds are fixed so every run draws the same randomness. The paper's
limit theorems are asymptotic and give no rate, so where a criterion is
statistical it compares the measurement with its finite-n prediction and
prints both: a margin is reported, never assumed. Criteria 8 and 11
check asymptotic claims at sizes where finite-n effects are still as
large as their thresholds, so they test the predicted finite-n
behaviour, not the n -> infinity value.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .asymptotics import limit_shape, omega, solve_tilt, symmetric_rescale
from .catalog import make
from .diagnostics import (concentration_experiment, degenerate_shape_probe,
                          variance_ratio_probe)
from .ensemble import (check_condition_10, constant_weights,
                       indicator_weights)
from .errors import ParamError
from .partition_function import (coefficients, local_limit_probe,
                                 partition_numbers, point_mass)
from .sampler import sample_grand, sample_small_many, RngStream


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.number:2d} [{mark}] {self.title}: "
                f"{self.detail} ({self.seconds:.1f}s)")

    def to_json(self) -> dict:
        return {"number": self.number, "title": self.title,
                "passed": self.passed, "detail": self.detail,
                "seconds": round(self.seconds, 3)}


def _result(number: int, title: str, passed: bool, detail: str,
            t0: float) -> CriterionResult:
    return CriterionResult(number=number, title=title, passed=bool(passed),
                           detail=detail, seconds=time.perf_counter() - t0)


# -- 1 ----------------------------------------------------------------------


def criterion_coefficients(seed: int | None = None) -> CriterionResult:
    """Exact a_n against the pentagonal recurrence for n <= 500."""
    t0 = time.perf_counter()
    e = make("uniform")
    table = coefficients(e, 500, mode="exact")
    oracle = partition_numbers(500)
    bad = [n for n in range(501) if table.coefficient(n) != oracle[n]]
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 5.0
    detail = (f"{501 - len(bad)}/501 coefficients match p(n); "
              f"first mismatch at n={bad[0]}" if bad else
              f"all 501 coefficients equal p(n), a_500={oracle[500]}")
    return _result(1, "coefficient exactness", ok, detail, t0)


# -- 2 ----------------------------------------------------------------------


def _dilog_series(y: float, terms: int = 64) -> float:
    # direct series oracle, independent of scipy
    return sum(y ** k / k ** 2 for k in range(1, terms + 1))


def criterion_omega(seed: int | None = None) -> CriterionResult:
    t0 = time.perf_counter()
    tol = 1e-8
    err_u = abs(omega(make("uniform")) - math.pi ** 2 / 6)
    err_w = abs(omega(make("weighted", y=0.5)) - _dilog_series(0.5))
    ok = err_u <= tol and err_w <= tol
    return _result(2, "omega closed forms", ok,
                   f"|err| uniform {err_u:.2e}, weighted(0.5) {err_w:.2e} "
                   f"(tol {tol:.0e})", t0)


# -- 3 ----------------------------------------------------------------------


def criterion_shapes(seed: int | None = None) -> CriterionResult:
    t0 = time.perf_counter()
    tol = 1e-6
    grid = (0.5, 1.0, 1.5, 2.0, 3.0)
    uni = make("uniform")
    gib = make("gibbs", theta=1, beta=1)
    err_u = max(abs(limit_shape(uni, t)
                    - (-(6 / math.pi ** 2) * math.log1p(-math.exp(-t))))
                for t in grid)
    err_g = max(abs(limit_shape(gib, t) - math.exp(-t)) for t in grid)
    c = math.pi / math.sqrt(6)
    rescaled = symmetric_rescale(lambda t: limit_shape(uni, t), omega(uni))
    err_s = max(abs(math.exp(-c * rescaled(t)) + math.exp(-c * t) - 1.0)
                for t in grid)
    ok = max(err_u, err_g, err_s) <= tol
    return _result(3, "shape closed forms", ok,
                   f"|err| uniform {err_u:.2e}, gibbs(1,1) {err_g:.2e}, "
                   f"self-dual identity {err_s:.2e} (tol {tol:.0e})", t0)


# -- 4 ----------------------------------------------------------------------

_TILT_ENTRIES = (
    ("uniform", {}),
    ("weighted", {"y": 0.5}),
    ("restricted", {"parts": "odds"}),
    ("gibbs", {"theta": 1, "beta": 1}),
    ("ordered_lists", {}),
)


def criterion_tilt(seed: int | None = None) -> CriterionResult:
    t0 = time.perf_counter()
    worst_res = 0.0
    lines = []
    ok = True
    for name, params in _TILT_ENTRIES:
        e = make(name, **params)
        om, th, be = omega(e), e.theta, e.beta
        for n in (100, 10_000, 1_000_000):
            t1 = time.perf_counter()
            sol = solve_tilt(e, n)
            dt = time.perf_counter() - t1
            rel = abs(sol.residual) / n
            worst_res = max(worst_res, rel)
            ok &= rel <= 1e-10 and dt < 1.0
            if n == 1_000_000:
                ratio = sol.tau_n * (n / (om * th)) ** (1 / (be + 1))
                ok &= 0.95 <= ratio <= 1.05
                lines.append(f"{e.label} ratio {ratio:.4f}")
    # the solve times stay out of the detail line, so that a rerun prints
    # the same line; the result's seconds field records the time
    detail = f"max |residual|/n {worst_res:.1e}, " + "; ".join(lines)
    return _result(4, "tilt solver", ok, detail, t0)


# -- 5 ----------------------------------------------------------------------


def criterion_sampler_moments(seed: int | None = None) -> CriterionResult:
    t0 = time.perf_counter()
    seed = 12 if seed is None else seed
    e = make("uniform")
    x, m_draws = 0.9, 10_000
    mean_ref, var_ref = e.mean_var(x)
    ns = np.array([sample_grand(e, x, RngStream(seed, i)).weight
                   for i in range(m_draws)], dtype=np.float64)
    mean_emp = float(ns.mean())
    var_emp = float(ns.var(ddof=1))
    se_mean = math.sqrt(var_emp / m_draws)
    m4 = float(((ns - mean_emp) ** 4).mean())
    se_var = math.sqrt(max(m4 - var_emp ** 2, 0.0) / m_draws)
    z_mean = abs(mean_emp - mean_ref) / se_mean
    z_var = abs(var_emp - var_ref) / se_var
    ok = z_mean <= 3.0 and z_var <= 3.0 and (time.perf_counter() - t0) < 10.0
    return _result(5, "grand sampler moments", ok,
                   f"mean {mean_emp:.2f} vs {mean_ref:.2f} (z={z_mean:.2f}), "
                   f"var {var_emp:.1f} vs {var_ref:.1f} (z={z_var:.2f}), "
                   f"M={m_draws}", t0)


# -- 6 ----------------------------------------------------------------------


def _cell_counts(parts, cells) -> np.ndarray:
    counted = Counter(parts)
    extra = set(counted) - set(cells)
    if extra:
        raise ParamError(f"draw outside the enumerated support: {extra}")
    return np.array([counted[c] for c in cells], dtype=np.float64)


def _partitions_of(n: int) -> list:
    from .sampler import Partition
    out = []

    def rec(rest: int, biggest: int, acc: dict):
        if rest == 0:
            out.append(Partition.make(dict(acc)))
            return
        for k in range(min(rest, biggest), 0, -1):
            acc[k] = acc.get(k, 0) + 1
            rec(rest - k, k, acc)
            acc[k] -= 1

    rec(n, n, {})
    return out


def criterion_small_canonical(seed: int | None = None) -> CriterionResult:
    from scipy import stats  # slow to import; only this criterion needs it
    t0 = time.perf_counter()
    seed = 12 if seed is None else seed
    uni = make("uniform")
    cells = _partitions_of(5)

    draws = sample_small_many(uni, 5, 70_000, seed, mode="rejection",
                              budget=5000)
    p_uni = stats.chisquare(_cell_counts(draws, cells)).pvalue

    wei = make("weighted", y=2)
    probs = np.array([2.0 ** p.num_parts for p in cells])
    probs /= probs.sum()
    draws_w = sample_small_many(wei, 5, 30_000, seed + 1, mode="exact")
    p_wei = stats.chisquare(_cell_counts(draws_w, cells),
                            f_exp=30_000 * probs).pvalue

    rej = sample_small_many(uni, 5, 20_000, seed + 2, mode="rejection",
                            budget=5000)
    exa = sample_small_many(uni, 5, 20_000, seed + 3, mode="exact")
    table2 = np.vstack([_cell_counts(rej, cells), _cell_counts(exa, cells)])
    p_two = stats.chi2_contingency(table2).pvalue

    ok = min(p_uni, p_wei, p_two) > 0.01
    return _result(6, "small-canonical laws", ok,
                   f"chi2 p-values: uniform {p_uni:.3f}, weighted(2) "
                   f"{p_wei:.3f}, rejection-vs-exact {p_two:.3f} "
                   f"(floor 0.01)", t0)


# -- 7 ----------------------------------------------------------------------


def criterion_local_limit(seed: int | None = None) -> CriterionResult:
    t0 = time.perf_counter()
    e = make("uniform")
    pts = local_limit_probe(e, 0.99, (-1.0, 0.0, 1.0))
    ratios = [val / (math.exp(-u * u / 2) / math.sqrt(2 * math.pi))
              for u, val in pts]
    elapsed_ok = (time.perf_counter() - t0) < 60.0
    ok = all(0.9 <= r <= 1.1 for r in ratios) and elapsed_ok
    return _result(7, "local limit at x=0.99", ok,
                   "density ratios " + ", ".join(f"{r:.3f}" for r in ratios)
                   + " (band [0.9, 1.1])", t0)


# -- 8 ----------------------------------------------------------------------


# family-wise false-alarm level of the binomial comparisons, split evenly
# (Bonferroni) over every grid point of every leg
CONCENTRATION_LEVEL = 0.01


def concentration_verdict(legs) -> tuple[bool, bool]:
    """(centred, agree) for (prediction, hit fractions, replicas) legs.

    centred: every predicted centre (alpha/n) E D_t lies within epsilon/4
    of phi(t). agree: no measured hit fraction is rejected by a two-sided
    binomial test against its predicted value at CONCENTRATION_LEVEL,
    family-wise over all grid points.
    """
    legs = list(legs)
    points = sum(len(pred.grid) for pred, _, _ in legs)
    centred = all(max(pred.centring_offsets()) <= pred.epsilon / 4.0
                  for pred, _, _ in legs)
    worst = min(min(pred.hit_pvalues(hits, reps)) for pred, hits, reps in legs)
    return centred, worst >= CONCENTRATION_LEVEL / points


def criterion_concentration(seed: int | None = None,
                            n: int | None = None) -> CriterionResult:
    """Rescaled fixed-weight diagrams concentrate on the limit shape.

    The paper's claim is convergence in probability as n -> infinity,
    with fluctuations of order n^(-1/(2 beta + 2)); at the pinned n they
    are still comparable to epsilon. So the check is that the mean
    diagram is centred on phi within epsilon/4 and that the measured hit
    fractions agree with the conditioned-Gaussian prediction of
    diagnostics.predict_concentration.
    """
    t0 = time.perf_counter()
    seed = 12 if seed is None else seed
    legs = ((make("uniform"), 40_000 if n is None else n, seed),
            (make("gibbs", theta=1, beta=1), 10_000, seed + 1))
    details, reports = [], []
    for e, leg_n, leg_seed in legs:
        rep = concentration_experiment(e, leg_n, 100, epsilon=0.05,
                                       seed=leg_seed)
        reports.append(rep)
        pred = rep.prediction
        zs = [abs(z) for z in rep.hit_z_scores]
        worst = max(range(len(zs)), key=zs.__getitem__)
        pairs = " ".join(f"{h:.2f}/{p:.2f}" for h, p in
                         zip(rep.hit_fractions, pred.hit_fractions))
        details.append(
            f"{e.label} n={leg_n}: hit measured/predicted at t="
            f"{rep.grid[0]:g}..{rep.grid[-1]:g} {pairs}; max |z| "
            f"{zs[worst]:.2f} at t={rep.grid[worst]:g}; max centring "
            f"offset {max(pred.centring_offsets()):.4f}")
    centred, agree = concentration_verdict(
        (r.prediction, r.hit_fractions, r.replicas) for r in reports)
    elapsed_ok = (time.perf_counter() - t0) < 300.0
    return _result(8, "fixed-weight concentration",
                   centred and agree and elapsed_ok,
                   "; ".join(details) + f" (need centring <= eps/4 = "
                   f"{reports[0].epsilon / 4:g}, binomial agreement at "
                   f"family-wise level {CONCENTRATION_LEVEL:g})", t0)


# -- 9 ----------------------------------------------------------------------


def criterion_nonergodic_ratio(seed: int | None = None) -> CriterionResult:
    t0 = time.perf_counter()
    e = make("weighted", y=2)
    x = e.rho * (1.0 - 1e-4)
    mean, var = e.mean_var(x)
    ratio = (var + mean * mean) / (mean * mean)
    probe = variance_ratio_probe(e, [e.rho * (1 - 10.0 ** -j)
                                     for j in (2, 3, 4)])
    ok = abs(ratio - 2.0) <= 0.05 * 2.0
    return _result(9, "second-moment ratio stays split", ok,
                   f"E N^2/(E N)^2 = {ratio:.5f} at rho-x=1e-4 rho "
                   f"(target 2 +- 5%), probe flagged={probe.flagged}", t0)


# -- 10 ---------------------------------------------------------------------


def criterion_degenerate_shape(seed: int | None = None) -> CriterionResult:
    t0 = time.perf_counter()
    seed = 12 if seed is None else seed
    e = make("weighted", y=2)
    small = degenerate_shape_probe(e, 200, 200, seed=seed)
    big = degenerate_shape_probe(e, 2000, 200, seed=seed)
    ok = big.mean < 0.05 and big.mean < small.mean
    return _result(10, "degenerate limit shape", ok,
                   f"mean large-part mass {small.mean:.4f} (n=200) -> "
                   f"{big.mean:.4f} (n=2000); need < 0.05 and decreasing",
                   t0)


# -- 11 ---------------------------------------------------------------------


def _local_limit_mass(e, n: int) -> float:
    """Gaussian local-limit value 1/sqrt(2 pi Var_{x_n} N) of mu(N = n)."""
    return 1.0 / math.sqrt(2.0 * math.pi * solve_tilt(e, n).variance)


def _floor_crossing(e, gamma: float, n_from: int) -> int | None:
    """Smallest n >= n_from whose local-limit value reaches n^-gamma.

    None when it does not below 1e9. The ratio to the floor grows like
    n^(gamma - (beta+2)/(2 beta+2)), so a geometric bisection finds it.
    """
    def clears(n: int) -> bool:
        return _local_limit_mass(e, n) >= n ** -gamma

    if clears(n_from):
        return n_from
    lo, hi = n_from, 10 * n_from
    while not clears(hi):
        if hi >= 10 ** 9:
            return None
        lo, hi = hi, 10 * hi
    while hi - lo > 1:
        mid = math.isqrt(lo * hi)
        mid = min(max(mid, lo + 1), hi - 1)
        if clears(mid):
            hi = mid
        else:
            lo = mid
    return hi


def criterion_mass_floor(seed: int | None = None) -> CriterionResult:
    """The point mass mu_{x_n}(N = n) decays only polynomially in n.

    Transferring grand-ensemble deviation bounds to fixed weight divides
    them by mu_{x_n}(N = n), and the argument needs that mass to decay
    no faster than n^-gamma, gamma = (beta+2)/(2beta+2) + 0.1: the
    local-limit exponent plus slack, a for-large-n statement. The check:
    at each pinned n the exact mass lies within 3% of the local-limit
    value 1/sqrt(2 pi Var N), and between successive pinned n it decays
    with exponent at least -gamma. n^-gamma itself is printed with the
    size n* from which the local-limit value exceeds it; with a unit
    constant the floor is out of reach below n*.
    """
    t0 = time.perf_counter()
    e = make("uniform")
    gamma = (e.beta + 2) / (2 * e.beta + 2) + 0.1
    ns = (100, 500, 1000)
    rows, masses, ok = [], [], True
    for n in ns:
        pm = point_mass(e, solve_tilt(e, n).x_n, n)
        ll = _local_limit_mass(e, n)
        ok &= abs(pm / ll - 1.0) <= 0.03
        masses.append(pm)
        rows.append(f"n={n}: mass {pm:.3e}, local limit {ll:.3e}, "
                    f"floor {n ** -gamma:.3e}")
    slopes = [math.log(masses[i + 1] / masses[i]) / math.log(ns[i + 1] / ns[i])
              for i in range(len(ns) - 1)]
    ok &= all(s >= -gamma for s in slopes)
    n_star = _floor_crossing(e, gamma, ns[-1])
    return _result(11, "point-mass floor", ok,
                   f"gamma={gamma:.2f}; " + "; ".join(rows)
                   + "; decay exponents "
                   + ", ".join(f"{s:.3f}" for s in slopes)
                   + f" (need >= {-gamma:.2f}, mass within 3% of local "
                   f"limit); local limit clears the floor from n*="
                   + (f"{n_star}" if n_star else "beyond 1e9"), t0)


# -- 12 ---------------------------------------------------------------------


def criterion_condition_10(seed: int | None = None) -> CriterionResult:
    t0 = time.perf_counter()
    flat = check_condition_10(constant_weights())
    evens = check_condition_10(indicator_weights("evens"))
    ratio_even = evens.per_s[2.0]["worst_ratio"]
    ok = (flat.worst_ratio <= 0.51
          and evens.worst_s == 2.0 and ratio_even > 0.999
          and not evens.satisfied(0.51))
    return _result(12, "off-lattice mass diagnostics", ok,
                   f"constant worst ratio {flat.worst_ratio:.3f} (cap 0.51); "
                   f"evens ratio {ratio_even:.3f} at s=2 (lattice failure "
                   f"detected)", t0)


# -- runner -----------------------------------------------------------------

SUITES = {
    "coefficients": criterion_coefficients,
    "omega": criterion_omega,
    "shapes": criterion_shapes,
    "tilt": criterion_tilt,
    "sampler-moments": criterion_sampler_moments,
    "small-canonical": criterion_small_canonical,
    "local-limit": criterion_local_limit,
    "concentration": criterion_concentration,
    "nonergodic-ratio": criterion_nonergodic_ratio,
    "degenerate-shape": criterion_degenerate_shape,
    "mass-floor": criterion_mass_floor,
    "condition-10": criterion_condition_10,
}


def run_suite(name: str = "all", seed: int | None = None,
              n: int | None = None) -> list[CriterionResult]:
    """Run one named suite, or all twelve in numbered order."""
    if name == "all":
        return [fn(seed=seed) if fn is not criterion_concentration
                else fn(seed=seed, n=n) for fn in SUITES.values()]
    if name not in SUITES:
        raise ParamError(f"unknown suite {name!r}; choose from "
                         f"{['all'] + sorted(SUITES)}")
    fn = SUITES[name]
    if fn is criterion_concentration:
        return [fn(seed=seed, n=n)]
    return [fn(seed=seed)]

"""Tests of the benchmark's oracles and checks.

    python3 -m pytest benchmarks/test_benchmark.py -q

The oracles must reproduce known values, and every check must accept the
program's real output and reject the same output made slightly wrong.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import multpart as mp  # noqa: E402


# -- oracles -----------------------------------------------------------------


def test_partition_numbers_known_values():
    p = oracles.partition_numbers(200)
    assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert p[100] == 190_569_292
    assert p[200] == 3_972_999_029_388


def test_counts_agree_with_enumeration():
    for n in range(1, 12):
        parts = oracles.partitions_of(n)
        assert len(parts) == oracles.partition_numbers(n)[n]
        odd = [c for c in parts if all(k % 2 for k in c)]
        assert len(odd) == oracles.odd_part_counts(n)[n]
        total, row = oracles.parts_weighted_counts(n, 2)
        assert total[n] == sum(2 ** sum(c.values()) for c in parts)
        for k in range(1, n + 1):
            assert row[k] == sum(1 for c in parts if sum(c.values()) == k)


def test_lah_coefficients():
    # n! [x^n] exp(x/(1-x)) = 1, 1, 3, 13, 73, 501 (sums of Lah numbers)
    for n, lah in enumerate((1, 1, 3, 13, 73, 501)):
        assert oracles.lah_coefficient(n) == Fraction(lah, math.factorial(n))


def test_parts_moments_against_enumeration():
    p = oracles.partition_numbers(12)
    for n in (5, 12):
        sizes = [sum(c.values()) for c in oracles.partitions_of(n)]
        assert oracles.uniform_parts_mean(n, p) == pytest.approx(
            sum(sizes) / len(sizes), rel=1e-15)
    n = 7
    w = {k: Fraction(math.comb(n - 1, k - 1), math.factorial(k))
         for k in range(1, n + 1)}
    z = sum(w.values())
    mean = sum(k * v for k, v in w.items()) / z
    var = sum(k * k * v for k, v in w.items()) / z - mean ** 2
    assert oracles.lah_parts_moments(n) == pytest.approx(
        (float(mean), float(var)), rel=1e-12)


def test_direct_sums_against_closed_forms():
    x = 0.97
    m = oracles.count_moments(oracles.exponential("gibbs(1,1)", 1.0, 1.0), x)
    assert m["mean_N"] == pytest.approx(x / (1 - x) ** 2, rel=1e-13)
    assert m["var_N"] == pytest.approx(x * (1 + x) / (1 - x) ** 3, rel=1e-13)
    fam = oracles.geometric("uniform", 1.0)
    assert oracles.log_partition(fam, 0.5) == pytest.approx(
        -sum(math.log1p(-0.5 ** k) for k in range(1, 200)), rel=1e-15)
    x_n = oracles.tilt(fam, 10_000)
    assert oracles.count_moments(fam, x_n)["mean_N"] == pytest.approx(10_000, rel=1e-12)


def test_shape_oracle_known_constants():
    uni = oracles.ShapeOracle(oracles.geometric("uniform", 1.0))
    assert uni.omega == pytest.approx(math.pi ** 2 / 6, rel=1e-14)
    assert uni.sigma_sq == pytest.approx(math.pi ** 2 / 3, rel=1e-14)
    for t in (0.1, 1.0, 4.0):
        assert uni.phi(t) == pytest.approx(
            -6 / math.pi ** 2 * math.log1p(-math.exp(-t)), rel=1e-13)
    theta, beta = 2.0, 0.5
    gib = oracles.ShapeOracle(oracles.exponential("gibbs", theta, beta))
    assert gib.omega == pytest.approx(theta * beta * math.gamma(beta + 1), rel=1e-14)
    pole = oracles.ShapeOracle(oracles.double_pole("double pole"))
    assert pole.omega == pytest.approx(math.pi ** 2 / 3, rel=1e-14)


# -- checks accept the program's output and reject it made wrong -------------


class _Draw:
    def __init__(self, counts, weight):
        self.counts = counts
        self.weight = weight


def test_weight_check_rejects_a_draw_of_weight_n_minus_1():
    n = 30
    draw = mp.sample_small_rejection(mp.make("uniform"), n, mp.RngStream(5, 0),
                                     budget=10 ** 5)
    assert checks.weights_ok([draw], n)
    k = min(draw.counts)
    short = dict(draw.counts)
    short[k] -= 1                 # one part of size k becomes one of size k - 1
    if k > 1:
        short[k - 1] = short.get(k - 1, 0) + 1
    short = {a: b for a, b in short.items() if b}
    assert not checks.weights_ok([_Draw(short, n - 1)], n)
    assert not checks.weights_ok([_Draw(short, n)], n)


def test_mass_check_rejects_a_mass_scaled_by_1_01():
    e = mp.make("uniform")
    n = 100
    x = mp.solve_tilt(e, n).x_n
    mass = mp.point_mass(e, x, n)
    fam = oracles.geometric("uniform", 1.0)
    args = (math.log(oracles.partition_numbers(n)[n]), n, x,
            oracles.log_partition(fam, x))
    assert checks.mass_ok(mass, *args)
    assert not checks.mass_ok(1.01 * mass, *args)


def test_shape_check_rejects_phi_shifted_by_1e_6():
    curve = mp.shape_curve(mp.make("gibbs", theta=1, beta=1), t_max=4.0)
    shape = oracles.ShapeOracle(oracles.exponential("gibbs(1,1)", 1.0, 1.0))
    ts = curve.ts[::40]
    refs = [shape.phi(t) for t in ts]
    values = curve.phis[::40]
    assert checks.shape_ok(values, refs)
    assert not checks.shape_ok(values + 1e-6, refs)
    assert checks.curve_ok(curve.phis, curve.integral_check,
                           checks.curve_integral_tol(curve.ts, shape.phi_slope))
    assert not checks.curve_ok(curve.phis, curve.integral_check + 1e-3,
                               checks.curve_integral_tol(curve.ts, shape.phi_slope))


def test_exact_check_rejects_a_coefficient_off_by_one():
    table = mp.coefficients(mp.make("weighted", y=2), 60)
    ref = oracles.parts_weighted_counts(60, 2)[0]
    values = list(table.values)
    assert checks.exact_equal(values, ref)
    values[37] += 1
    assert not checks.exact_equal(values, ref)


def test_constants_check_rejects_a_wrong_sigma():
    e = mp.make("weighted", y=0.5)
    shape = oracles.ShapeOracle(oracles.geometric("w", 0.5))
    om, sig = mp.omega(e), mp.sigma_sq(e)
    assert checks.constants_ok(om, sig, 1.0, shape.omega, shape.sigma_sq)
    assert not checks.constants_ok(om, sig * (1 + 1e-6), 1.0, shape.omega,
                                   shape.sigma_sq)


def test_mean_check_rejects_a_tilt_off_by_its_tolerance():
    e = mp.make("uniform")
    fam = oracles.geometric("uniform", 1.0)
    sol = mp.solve_tilt(e, 10 ** 5)
    assert checks.mean_ok(oracles.count_moments(fam, sol.x_n)["mean_N"], 10 ** 5)
    assert not checks.mean_ok(oracles.count_moments(fam, sol.x_n * (1 + 1e-9))["mean_N"],
                              10 ** 5)


def test_statistical_checks_reject_a_wrong_law():
    rng = np.random.default_rng(0)
    probs = np.full(7, 1 / 7)
    fair = rng.multinomial(6000, probs)
    assert checks.chi2_ok(fair, probs)
    skew = probs.copy()
    skew[0] *= 1.5
    assert not checks.chi2_ok(rng.multinomial(6000, skew / skew.sum()), probs)
    values = rng.poisson(4.0, 6000)
    assert checks.moments_ok(values, 4.0, 4.0)
    assert not checks.moments_ok(values, 4.2, 4.0)
    assert not checks.moments_ok(values, 4.0, 4.6)


def test_largest_part_check_rejects_a_truncated_grand_table():
    e = mp.make("uniform")
    fam = oracles.geometric("uniform", 1.0)
    x = 0.9
    tops = np.array([max(mp.sample_grand(e, x, mp.RngStream(2, i)).counts, default=0)
                     for i in range(3000)])
    cdf = oracles.largest_part_cdf(fam, x)
    assert checks.cdf_ok(tops, cdf)
    # as if sizes above the 90th percentile of the largest part were never drawn
    cut = int(np.searchsorted(cdf, 0.9))
    assert not checks.cdf_ok(np.minimum(tops, cut), cdf)


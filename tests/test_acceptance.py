"""Acceptance gate: one test per release criterion.

Each test runs the matching check from multpart.verify, prints its
single-line report (visible with -s, and in the failure report otherwise),
and asserts the criterion passed. Thresholds live in multpart.verify next
to the measurements; the printed line restates them.

Criteria 8 and 11 check asymptotic claims at sizes where they do not yet
hold with unit constants: at t = 0.25 the fixed-weight hit fractions are
predicted at 0.57 (uniform) and 0.64 (gibbs), below 0.9, and the exact
point masses are 0.49-0.63 times n**-0.85. Both are what the exact law
predicts at these n, so the criteria compare against the finite-n
predictions; the tests at the end show that the comparisons still reject
what is wrong. At n = 10**6 the uniform prediction clears 0.9 everywhere,
and the last test checks concentration there.
"""

from __future__ import annotations

import time

import pytest

from multpart import (RngStream, concentration_experiment,
                      diagram_deviations, make,
                      predict_concentration, sample_grand, solve_tilt,
                      verify)
from multpart import diagnostics


def _check(result):
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_coefficient_exactness():
    res = _check(verify.criterion_coefficients())
    assert res.number == 1


def test_criterion_02_omega_closed_forms():
    res = _check(verify.criterion_omega())
    assert res.number == 2


def test_criterion_03_shape_closed_forms():
    res = _check(verify.criterion_shapes())
    assert res.number == 3


def test_criterion_04_tilt_solver():
    res = _check(verify.criterion_tilt())
    assert res.number == 4


def test_criterion_04_detail_is_reproducible():
    # a rerun on the same code prints the same line: no wall-clock figures
    assert verify.criterion_tilt().detail == verify.criterion_tilt().detail


def test_criterion_05_grand_sampler_moments():
    res = _check(verify.criterion_sampler_moments())
    assert res.number == 5


def test_criterion_06_small_canonical_laws():
    res = _check(verify.criterion_small_canonical())
    assert res.number == 6


def test_criterion_07_local_limit():
    res = _check(verify.criterion_local_limit())
    assert res.number == 7


def test_criterion_08_fixed_weight_concentration():
    res = _check(verify.criterion_concentration())
    assert res.number == 8


def test_criterion_09_second_moment_ratio():
    res = _check(verify.criterion_nonergodic_ratio())
    assert res.number == 9


def test_criterion_10_degenerate_shape():
    res = _check(verify.criterion_degenerate_shape())
    assert res.number == 10


def test_criterion_11_point_mass_floor():
    res = _check(verify.criterion_mass_floor())
    assert res.number == 11


def test_criterion_12_off_lattice_diagnostics():
    res = _check(verify.criterion_condition_10())
    assert res.number == 12


# ---------------------------------------------------------------------------
# the finite-n comparisons of criteria 8 and 11 still reject wrong input

_CONCENTRATION_LEGS = (("uniform", {}, 40_000, 12),
                       ("gibbs", {"theta": 1, "beta": 1}, 10_000, 13))


def test_concentration_rejects_unconditioned_draws():
    # grand-ensemble draws at x_n skip the conditioning on N = n, so their
    # diagrams spread wider than the prediction allows
    legs = []
    for name, params, n, seed in _CONCENTRATION_LEGS:
        e = make(name, **params)
        pred = predict_concentration(e, n, epsilon=0.05)
        x_n = solve_tilt(e, n).x_n
        parts = [sample_grand(e, x_n, RngStream(seed, i)) for i in range(100)]
        dev = diagram_deviations(parts, pred.alpha, n, pred.grid,
                                 pred.shape_values)
        hits = tuple((dev < pred.epsilon).mean(axis=0))
        assert max(abs(z) for z in pred.hit_z_scores(hits, 100)) > 5.0
        legs.append((pred, hits, 100))
    centred, agree = verify.concentration_verdict(legs)
    assert centred and not agree
    # the predicted fractions themselves are accepted
    assert verify.concentration_verdict(
        (p, p.hit_fractions, r) for p, _, r in legs) == (True, True)


def test_concentration_rejects_shifted_shape(monkeypatch):
    true_shape = diagnostics.limit_shape
    monkeypatch.setattr(diagnostics, "limit_shape",
                        lambda e, t: true_shape(e, t) + 0.025)
    preds = [predict_concentration(make(name, **params), n, epsilon=0.05)
             for name, params, n, _ in _CONCENTRATION_LEGS]
    for pred in preds:
        assert min(pred.centring_offsets()) == pytest.approx(0.025, abs=0.01)
    centred, _ = verify.concentration_verdict(
        (p, p.hit_fractions, 100) for p in preds)
    assert not centred


def test_mass_floor_rejects_scaled_masses(monkeypatch):
    true_mass = verify.point_mass
    monkeypatch.setattr(verify, "point_mass",
                        lambda *args, **kw: 0.9 * true_mass(*args, **kw))
    res = verify.criterion_mass_floor()
    assert not res.passed, res.line()



def test_concentration_at_a_million():
    # at n = 10**6 the fluctuations of the diagram are small enough that
    # every predicted hit fraction clears 0.9; the measured ones must
    # agree with the prediction, and divide-and-conquer sampling keeps
    # the 100 replicas within a minute
    t0 = time.perf_counter()
    rep = concentration_experiment(make("uniform"), 10 ** 6, 100,
                                   epsilon=0.05, seed=12)
    elapsed = time.perf_counter() - t0
    print(f"n=1e6 hit measured/predicted "
          + " ".join(f"{h:.2f}/{p:.2f}" for h, p in
                     zip(rep.hit_fractions, rep.prediction.hit_fractions))
          + f" ({elapsed:.1f}s)")
    assert min(rep.prediction.hit_fractions) >= 0.9
    assert verify.concentration_verdict(
        [(rep.prediction, rep.hit_fractions, rep.replicas)]) == (True, True)
    assert elapsed < 60.0

"""Diagram functionals and the Monte Carlo shape/condensation probes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multpart
from multpart import (
    CustomSeries,
    Ensemble,
    ParamError,
    Partition,
    RegimeError,
    Singularity,
    coefficients,
    constant_weights,
    concentration_experiment,
    degenerate_shape_probe,
    large_part_mass,
    make,
    predict_concentration,
    scaled_diagram,
    variance_ratio_probe,
    young_function,
    young_integral,
)

from oracles import array_prediction, parts_above_laws


# ---------------------------------------------------------------------------
# diagram functionals


def test_young_function_steps():
    p = Partition.make({3: 1, 1: 2})
    assert young_function(p, 0) == 3
    assert young_function(p, 0.5) == 3
    assert young_function(p, 1) == 1  # strict: parts > 1
    assert young_function(p, 2.5) == 1
    assert young_function(p, 3) == 0
    assert young_integral(p) == 5 == p.weight


def test_young_empty():
    p = Partition.make({})
    assert young_function(p, 0) == 0
    assert young_integral(p) == 0


count_dicts = st.dictionaries(st.integers(1, 40), st.integers(1, 6),
                              max_size=8)


@settings(max_examples=60, deadline=None)
@given(count_dicts)
def test_young_integral_is_weight(counts):
    p = Partition.make(counts)
    assert young_integral(p) == p.weight
    if counts:
        assert young_function(p, max(counts)) == 0
    heights = [young_function(p, t / 2) for t in range(0, 85)]
    assert all(a >= b for a, b in zip(heights, heights[1:]))


def test_scaled_diagram_values():
    p = Partition.make({4: 2, 1: 2})
    # alpha=2, normalizer=5: height over 2t, scaled by 2/5
    got = scaled_diagram(p, 2.0, 5.0, [0.5, 1.5, 2.5])
    assert got == [0.4 * young_function(p, 1.0), 0.4 * young_function(p, 3.0),
                   0.4 * young_function(p, 5.0)]
    assert scaled_diagram(p, 1.0, 1.0, []) == []


def test_scaled_diagram_validation():
    p = Partition.make({1: 1})
    with pytest.raises(ParamError):
        scaled_diagram(p, 0.0, 1.0, [1.0])
    with pytest.raises(ParamError):
        scaled_diagram(p, 1.0, -2.0, [1.0])


def test_large_part_mass():
    assert large_part_mass(Partition.make({5: 1})) == 1.0
    assert large_part_mass(Partition.make({1: 7})) == 0.0
    assert large_part_mass(Partition.make({1: 2, 2: 1})) == 0.5
    with pytest.raises(ParamError):
        large_part_mass(Partition.make({}))


# ---------------------------------------------------------------------------
# concentration experiment


@pytest.fixture(scope="module")
def uniform_concentration():
    return concentration_experiment(
        make("uniform"), n=600, replicas=20, grid=(0.75, 1.5, 2.5),
        epsilon=0.35, seed=21, mode="exact")


def test_concentration_report_fields(uniform_concentration):
    rep = uniform_concentration
    assert rep.n == 600 and rep.replicas == 20
    assert rep.grid == (0.75, 1.5, 2.5)
    assert len(rep.hit_fractions) == 3
    assert len(rep.sup_distances) == 20
    assert rep.alpha > 0
    assert rep.mode == "exact"
    assert all(0.0 <= h <= 1.0 for h in rep.hit_fractions)
    assert all(d > 0 for d in rep.sup_distances)


def test_concentration_hits(uniform_concentration):
    # wide epsilon at moderate n: most replicas should sit on the shape
    assert min(uniform_concentration.hit_fractions) >= 0.6


def test_concentration_report_carries_prediction(uniform_concentration):
    rep = uniform_concentration
    pred = rep.prediction
    assert (pred.n, pred.grid, pred.epsilon) == (rep.n, rep.grid, rep.epsilon)
    assert pred.alpha == rep.alpha and pred.shape_values == rep.shape_values
    pvalues = pred.hit_pvalues(rep.hit_fractions, rep.replicas)
    assert len(rep.hit_z_scores) == len(pvalues) == 3
    assert all(0.0 <= p <= 1.0 for p in pvalues)
    doc = rep.to_json()
    assert doc["predicted_hit_fractions"] == list(pred.hit_fractions)


def test_prediction_matches_exact_fixed_weight_law():
    # the exact law of the number of parts above alpha*t in a uniform
    # partition of n, from partition counts, against the conditioned
    # Gaussian built from independent-count moments at x_n
    n, eps = 2000, 0.05
    pred = predict_concentration(make("uniform"), n, epsilon=eps)
    ms = [math.floor(pred.alpha * t) for t in pred.grid]
    laws = parts_above_laws(n, ms)
    scale = pred.alpha / n
    for m, phi, centre, spread, predicted in zip(
            ms, pred.shape_values, pred.centres, pred.spreads,
            pred.hit_fractions):
        law = laws[m]
        mean = sum(d * q for d, q in enumerate(law))
        sd = math.sqrt(sum((d - mean) ** 2 * q for d, q in enumerate(law)))
        hit = sum(q for d, q in enumerate(law) if abs(scale * d - phi) < eps)
        assert abs(scale * mean - centre) <= 0.05 * spread
        assert scale * sd == pytest.approx(spread, rel=0.02)
        assert hit == pytest.approx(predicted, abs=0.02)


PREDICTION_FAMILIES = {
    "uniform": lambda: make("uniform"),
    "weighted(0.5)": lambda: make("weighted", y=0.5),
    "restricted(odds)": lambda: make("restricted", parts="odds"),
    "gibbs(1,1)": lambda: make("gibbs", theta=1, beta=1),
    "gibbs(2,0.5)": lambda: make("gibbs", theta=2, beta=0.5),
    "strict": lambda: Ensemble(CustomSeries([1, 1]), constant_weights()),
    "double pole": lambda: Ensemble(
        CustomSeries(lambda j: j + 1, radius=1.0,
                     singularity=Singularity("pole", 2.0)),
        constant_weights()),
}


@pytest.mark.parametrize("name,n", [
    # the double pole's truncated series refuses x_n at 10**6 (1 - x_n is
    # below 1e-3), so its largest case is 10**5
    (name, n) for name in sorted(PREDICTION_FAMILIES)
    for n in (10 ** 2, 10 ** 4, 10 ** 5 if name == "double pole" else 10 ** 6)])
def test_prediction_matches_array_oracle(name, n):
    # one tail walk at the grid cuts against reversed cumsums over arrays
    # up to a product tail cutoff
    e = PREDICTION_FAMILIES[name]()
    pred = predict_concentration(e, n, epsilon=0.05)
    centres, spreads, hits = array_prediction(e, n, pred.grid, 0.05)
    assert pred.centres == pytest.approx(centres, rel=1e-9, abs=0.0)
    assert pred.spreads == pytest.approx(spreads, rel=1e-9, abs=0.0)
    assert pred.hit_fractions == pytest.approx(hits, rel=0.0, abs=1e-9)


def test_concentration_quantiles(uniform_concentration):
    rep = uniform_concentration
    qs = rep.sup_quantiles
    assert qs["q10"] <= qs["q50"] <= qs["q90"]
    assert rep.sup_quantile(0.5) == qs["q50"]


def test_concentration_json(uniform_concentration):
    rep = uniform_concentration
    doc = json.loads(json.dumps(rep.to_json()))
    assert doc["n"] == 600
    assert len(doc["sup_distances"]) == 20
    assert set(doc["sup_quantiles"]) == {"q10", "q25", "q50", "q75", "q90"}


def test_concentration_reproducible():
    a = concentration_experiment(make("uniform"), n=80, replicas=5,
                                 grid=(1.0,), seed=3, budget=5000)
    b = concentration_experiment(make("uniform"), n=80, replicas=5,
                                 grid=(1.0,), seed=3, budget=5000)
    assert a.sup_distances == b.sup_distances


def test_concentration_validation():
    u = make("uniform")
    with pytest.raises(RegimeError):
        concentration_experiment(make("weighted", y=2), n=100, replicas=5)
    with pytest.raises(ParamError):
        concentration_experiment(u, n=100, replicas=0)
    with pytest.raises(ParamError):
        concentration_experiment(u, n=100, replicas=5, epsilon=0.0)
    with pytest.raises(ParamError):
        concentration_experiment(u, n=100, replicas=5, grid=())
    with pytest.raises(ParamError):
        concentration_experiment(u, n=100, replicas=5, grid=(-1.0, 2.0))


def test_concentration_flags_steep_grid():
    # the uniform shape diverges at 0: a point far left on a coarse grid
    # must be flagged as discretization-limited
    rep = concentration_experiment(make("uniform"), n=120, replicas=2,
                                   grid=(0.05, 2.0, 4.0), epsilon=0.05,
                                   seed=4, budget=5000)
    assert 0.05 in rep.steep_points


# ---------------------------------------------------------------------------
# condensation probes


def test_variance_ratio_flags_condensation():
    e = make("weighted", y=2)
    xs = [0.5 * (1 - 10.0 ** (-p)) for p in (2, 3, 4)]
    res = variance_ratio_probe(e, xs)
    assert res.limit == pytest.approx(2.0)
    assert res.flagged
    assert len(res) == 3
    ratios = [r for _, r in res]
    assert ratios[-1] == pytest.approx(2.0, rel=0.05)


def test_variance_ratio_gates():
    with pytest.raises(RegimeError):
        variance_ratio_probe(make("uniform"), [0.5])
    with pytest.raises(ParamError):
        variance_ratio_probe(make("weighted", y=2), [0.0])


def test_degenerate_shape_probe():
    e = make("weighted", y=2)
    rep = degenerate_shape_probe(e, n=200, replicas=50, seed=12)
    assert rep.mean < 0.1
    assert not rep.conjectural  # constant weights are bounded below
    assert set(rep.quantiles) == {"q25", "q50", "q75", "q90"}
    assert len(rep.values) == 50
    doc = rep.to_json()
    assert doc["n"] == 200 and doc["replicas"] == 50
    assert math.isclose(doc["mean"], rep.mean)


def test_degenerate_probe_table_reuse():
    e = make("weighted", y=2)
    table = coefficients(e, 60, keep_prefix=True)
    a = degenerate_shape_probe(e, n=60, replicas=10, seed=5, table=table)
    b = degenerate_shape_probe(e, n=60, replicas=10, seed=5)
    assert a.values == b.values


def test_degenerate_probe_gates():
    with pytest.raises(RegimeError):
        degenerate_shape_probe(make("uniform"), n=50, replicas=5)
    with pytest.raises(ParamError):
        degenerate_shape_probe(make("weighted", y=2), n=50, replicas=0)


def test_concentration_weight_check_survives_optimize():
    # python -O strips assert statements; the check of each draw's weight
    # must still refuse a draw of the wrong weight
    script = (
        "from multpart import Partition, diagnostics, make\n"
        "diagnostics.sample_small_many = lambda e, n, replicas, *a, **k: (\n"
        "    [Partition.make({1: n - 1})] * replicas)\n"
        "try:\n"
        "    diagnostics.concentration_experiment(make('uniform'), 50, 2)\n"
        "except AssertionError as err:\n"
        "    print('refused:', err)\n")
    src = str(Path(multpart.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "refused: replica 0 has weight 49, not 50"

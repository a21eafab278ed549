"""Diagram functionals and Monte Carlo probes of ensemble behavior.

The rescaled upper boundary of a random partition's Young diagram either
settles onto a deterministic curve (ergodic regimes) or refuses to: a
macroscopic part condenses and moment ratios betray it. This module
measures both sides: concentration experiments against the computed
limit shape, their finite-n prediction from the independent-count
moments, a variance-ratio probe for the condensation regime, and a
statistic tracking how much weight escapes part size one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import limit_shape, solve_tilt
from .ensemble import Ensemble, Regime
from .errors import ParamError
from .partition_function import CoefficientTable
from .sampler import Partition, sample_small_many

__all__ = [
    "ConcentrationPrediction",
    "ConcentrationReport",
    "DegenerateShapeReport",
    "VarianceRatioResult",
    "concentration_experiment",
    "degenerate_shape_probe",
    "diagram_deviations",
    "large_part_mass",
    "predict_concentration",
    "scaled_diagram",
    "variance_ratio_probe",
    "young_function",
    "young_integral",
]

DEFAULT_EPSILON = 0.05
DEFAULT_GRID = tuple(0.25 * i for i in range(1, 13))


# ---------------------------------------------------------------------------
# diagram functionals


def young_function(p: Partition, t: float) -> int:
    """Number of parts strictly exceeding t.

    This is the height of the Young diagram's boundary over position t:
    nonincreasing, integer-valued, constant on [j, j+1) for integer j.
    """
    return sum(r for k, r in p.counts.items() if k > t)


def young_integral(p: Partition) -> int:
    """Integral of the diagram function over [0, inf), exactly.

    Computed from the step structure (suffix part-counts times gap
    lengths), deliberately not as the cached weight, so the sum-of-parts
    identity integral == n is a genuine cross-check on sampled output.
    """
    sizes = sorted(p.counts)
    above = sum(p.counts.values())
    total = 0
    prev = 0
    for k in sizes:
        total += (k - prev) * above
        above -= p.counts[k]
        prev = k
    return total


def scaled_diagram(p: Partition, alpha: float, normalizer: float,
                   grid) -> list[float]:
    """Rescaled diagram heights (alpha/normalizer) * #parts > alpha*t."""
    if not (alpha > 0) or not (normalizer > 0):
        raise ParamError("scaled_diagram needs alpha > 0 and normalizer > 0")
    factor = alpha / normalizer
    return [factor * young_function(p, alpha * float(t)) for t in grid]


# ---------------------------------------------------------------------------
# concentration against the limit shape


@dataclass(frozen=True)
class ConcentrationPrediction:
    """Finite-n law of the rescaled diagram under fixed-weight conditioning.

    At the tilt x_n the number of parts above alpha*t, D_t, and the total
    weight N are sums of independent counts. Conditioning their joint
    Gaussian approximation on N = n leaves D_t with mean E D_t (E N = n at
    x_n) and variance Var D_t - Cov(D_t, N)^2 / Var N. centres[i] is
    (alpha/n) E D_t at grid[i] and spreads[i] the conditioned standard
    deviation on the same scale, of order n^(-1/(2 beta + 2)).
    hit_fractions[i] is the conditioned mass of the integers d with
    |alpha d / n - phi(t)| < epsilon: the share of replicas a
    concentration experiment is expected to count as hits.
    """

    n: int
    alpha: float
    grid: tuple[float, ...]
    epsilon: float
    shape_values: tuple[float, ...]
    centres: tuple[float, ...]
    spreads: tuple[float, ...]
    hit_fractions: tuple[float, ...]

    def centring_offsets(self) -> tuple[float, ...]:
        """|centre - phi(t)| per grid point: the bias of the mean diagram."""
        return tuple(abs(c - s)
                     for c, s in zip(self.centres, self.shape_values))

    def hit_z_scores(self, measured, replicas: int) -> tuple[float, ...]:
        """Binomial z-score of each measured hit fraction."""
        out = []
        for h, p in zip(measured, self.hit_fractions):
            diff = round(h * replicas) - replicas * p
            sd = math.sqrt(replicas * p * (1.0 - p))
            out.append(diff / sd if sd > 0.0
                       else (0.0 if abs(diff) < 0.5 else math.inf))
        return tuple(out)

    def hit_pvalues(self, measured, replicas: int) -> tuple[float, ...]:
        """Two-sided exact binomial p-value of each measured hit fraction."""
        from scipy import stats  # slow to import; only this method needs it
        return tuple(
            float(stats.binomtest(round(h * replicas), replicas,
                                  min(max(p, 0.0), 1.0)).pvalue)
            for h, p in zip(measured, self.hit_fractions))


def _check_concentration_inputs(e: Ensemble, grid, epsilon: float):
    e.require("a concentration experiment")
    if not (epsilon > 0):
        raise ParamError("epsilon must be positive")
    grid = tuple(float(t) for t in (DEFAULT_GRID if grid is None else grid))
    if not grid or any(t <= 0 for t in grid):
        raise ParamError("grid must be nonempty with positive t values")
    return grid


def predict_concentration(e: Ensemble, n: int, grid=None,
                          epsilon: float = DEFAULT_EPSILON,
                          ) -> ConcentrationPrediction:
    """Conditioned-Gaussian prediction of a concentration experiment.

    Every moment is a sum over part sizes of independent-count moments at
    x_n. Those of N come with the tilt; the counts above the grid cuts
    floor(alpha t) take one more walk (Ensemble.tail_moments), and no
    sampling. Raises RegimeError outside the ergodic regimes, where no
    limit shape exists.
    """
    grid = _check_concentration_inputs(e, grid, epsilon)
    sol = solve_tilt(e, n)
    # the same float threshold young_function compares part sizes with
    mean_d, var_d, cov_dn = np.array(e.tail_moments(
        sol.x_n, [math.floor(sol.alpha * t) for t in grid])).T
    shape = limit_shape(e, np.array(grid))
    scale = sol.alpha / n
    mu = mean_d + cov_dn / sol.variance * (n - sol.mean)
    sd = np.sqrt(np.maximum(var_d - cov_dn ** 2 / sol.variance, 0.0))
    # the integers d with |scale d - phi| < epsilon, widened by 1/2
    lo = np.floor((shape - epsilon) / scale) + 0.5
    hi = np.ceil((shape + epsilon) / scale) - 0.5
    from scipy.special import ndtr  # slow to import; loaded on first use
    with np.errstate(divide="ignore", invalid="ignore"):
        band = ndtr((hi - mu) / sd) - ndtr((lo - mu) / sd)
    hits = np.where(sd > 0.0, band, (lo < mu) & (mu < hi))
    return ConcentrationPrediction(
        n=n, alpha=sol.alpha, grid=grid, epsilon=epsilon,
        shape_values=tuple(shape.tolist()), hit_fractions=tuple(hits.tolist()),
        centres=tuple((scale * mean_d).tolist()),
        spreads=tuple((scale * sd).tolist()))


@dataclass(frozen=True)
class ConcentrationReport:
    """Outcome of a fixed-weight concentration experiment.

    hit_fractions[i] is the share of replicas whose rescaled diagram sits
    within epsilon of the limit shape at grid[i]; sup_distances lists the
    per-replica worst deviation over the grid, in replica-stream order.
    steep_points are grid entries where the shape moves more than
    epsilon/4 per grid step, so a miss there says more about
    discretization than about concentration. prediction holds the
    finite-n hit fractions the measured ones are to be read against.
    """

    n: int
    replicas: int
    grid: tuple[float, ...]
    epsilon: float
    hit_fractions: tuple[float, ...]
    sup_distances: tuple[float, ...]
    seed: int
    steep_points: tuple[float, ...]
    mode: str
    prediction: ConcentrationPrediction

    @property
    def alpha(self) -> float:
        return self.prediction.alpha

    @property
    def shape_values(self) -> tuple[float, ...]:
        return self.prediction.shape_values

    def sup_quantile(self, q: float) -> float:
        return float(np.quantile(np.array(self.sup_distances), q))

    @property
    def sup_quantiles(self) -> dict[str, float]:
        return {f"q{int(100 * q):02d}": self.sup_quantile(q)
                for q in (0.10, 0.25, 0.50, 0.75, 0.90)}

    @property
    def hit_z_scores(self) -> tuple[float, ...]:
        return self.prediction.hit_z_scores(self.hit_fractions, self.replicas)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "replicas": self.replicas,
            "grid": list(self.grid),
            "epsilon": self.epsilon,
            "hit_fractions": list(self.hit_fractions),
            "predicted_hit_fractions": list(self.prediction.hit_fractions),
            "hit_z_scores": list(self.hit_z_scores),
            "predicted_centres": list(self.prediction.centres),
            "predicted_spreads": list(self.prediction.spreads),
            "sup_distances": list(self.sup_distances),
            "sup_quantiles": self.sup_quantiles,
            "seed": self.seed,
            "alpha": self.alpha,
            "shape_values": list(self.shape_values),
            "steep_points": list(self.steep_points),
            "mode": self.mode,
        }


def _steep_points(e: Ensemble, grid: tuple[float, ...],
                  epsilon: float) -> tuple[float, ...]:
    """Grid points where phi moves by epsilon/4 or more over the wider gap
    to a neighbour, by central differences from one limit_shape call."""
    t = np.array(grid)
    gaps = np.diff(t)
    spacing = np.maximum(np.append(gaps, 0.0), np.insert(gaps, 0, 0.0))
    h = np.minimum(np.maximum(1e-4, 1e-3 * t), 0.5 * t)
    lo = np.maximum(t - h, 1e-9)
    phi = limit_shape(e, np.concatenate((t + h, lo)))
    slope = (phi[:t.size] - phi[t.size:]) / (t + h - lo)
    steep = (spacing > 0) & (np.abs(slope) * spacing >= epsilon / 4.0)
    return tuple(t[steep].tolist())


def diagram_deviations(parts, alpha: float, n: int, grid,
                       shape_values) -> np.ndarray:
    """|rescaled diagram - shape|, one row per partition, one column per t.

    Every diagram is rescaled by alpha/n whatever its own weight, so the
    rows of unconditioned draws can be set beside those of fixed-weight
    ones.
    """
    return np.array([np.abs(np.array(scaled_diagram(p, alpha, float(n), grid))
                            - np.array(shape_values)) for p in parts])


def concentration_experiment(e: Ensemble, n: int, replicas: int,
                             grid=None, epsilon: float = DEFAULT_EPSILON,
                             seed: int = 0, mode: str = "pdc",
                             budget: int | None = None,
                             ) -> ConcentrationReport:
    """Sample `replicas` fixed-weight partitions and compare each rescaled
    diagram with the limit shape on the grid.

    Replica i draws on stream i, so the report is reproducible from
    (ensemble, n, replicas, seed) and unchanged under any parallel
    execution order. The report carries predict_concentration's numbers
    for the same (n, grid, epsilon). Raises RegimeError outside the
    ergodic regimes, where no limit shape exists to compare against.
    """
    grid = _check_concentration_inputs(e, grid, epsilon)
    if replicas < 1:
        raise ParamError("need at least one replica")

    pred = predict_concentration(e, n, grid, epsilon)
    steep = _steep_points(e, grid, epsilon)

    parts = sample_small_many(e, n, replicas, seed, mode=mode,
                              budget=budget)
    for i, p in enumerate(parts):
        if (weight := young_integral(p)) != n:
            raise AssertionError(f"replica {i} has weight {weight}, not {n}")
    dev = diagram_deviations(parts, pred.alpha, n, grid, pred.shape_values)

    return ConcentrationReport(
        n=n, replicas=replicas, grid=grid, epsilon=epsilon,
        hit_fractions=tuple(float(h) for h in (dev < epsilon).mean(axis=0)),
        sup_distances=tuple(float(d) for d in dev.max(axis=1)), seed=seed,
        steep_points=steep, mode=mode, prediction=pred)


# ---------------------------------------------------------------------------
# nonergodicity probes


@dataclass(frozen=True)
class VarianceRatioResult:
    """Second-moment ratio E N^2 / (E N)^2 along a tilt grid.

    In the condensation regime the ratio tends to (m+1)/m with m the
    effective pole order, instead of to 1; `flagged` records whether
    ratio - 1 stayed above 0.5 on the whole grid.
    """

    points: tuple[tuple[float, float], ...]
    limit: float
    flagged: bool

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def variance_ratio_probe(e: Ensemble, x_grid) -> VarianceRatioResult:
    """Ratio of second moment to squared mean of N at each grid tilt.

    Only meaningful where a pole sits inside the unit disc; elsewhere the
    ratio tends to 1 and RegimeError is raised to prevent misreading.
    """
    e.require("variance_ratio_probe", Regime.NONERGODIC_GRAND_CANONICAL)
    pts = []
    for x in x_grid:
        x = float(x)
        mean, var = e.mean_var(x)
        if mean <= 0.0:
            raise ParamError(f"mean weight vanishes at x={x}")
        ratio = (var + mean * mean) / (mean * mean)
        pts.append((x, ratio))
    order = e.series.singularity.order or 1.0
    m = float(order) * float(e.weights.b_1)
    flagged = bool(pts) and min(r for _, r in pts) - 1.0 > 0.5
    return VarianceRatioResult(points=tuple(pts), limit=(m + 1.0) / m,
                               flagged=flagged)


def large_part_mass(p: Partition) -> float:
    """Fraction of total weight carried by parts of size at least 2."""
    if p.weight <= 0:
        raise ParamError("statistic undefined for the empty partition")
    return sum(k * r for k, r in p.counts.items() if k >= 2) / p.weight


@dataclass(frozen=True)
class DegenerateShapeReport:
    """Distribution summary of the large-part mass fraction.

    Under fixed-weight conditioning with a pole inside the unit disc the
    fraction should vanish as n grows (the diagram degenerates to a unit
    square of 1-parts). conjectural is True when some part sizes carry
    zero or vanishing weight: the degeneration is then expected but not
    guaranteed, and the numbers are exploratory.
    """

    n: int
    replicas: int
    seed: int
    mean: float
    quantiles: dict[str, float]
    values: tuple[float, ...]
    conjectural: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "replicas": self.replicas,
            "seed": self.seed,
            "mean": self.mean,
            "quantiles": self.quantiles,
            "values": list(self.values),
            "conjectural": self.conjectural,
        }


def degenerate_shape_probe(e: Ensemble, n: int, replicas: int, seed: int = 0,
                           table: CoefficientTable | None = None,
                           ) -> DegenerateShapeReport:
    """Exact-sampler survey of the large-part mass fraction at weight n;
    table is ignored (it fed the exact sampler's former prefix walk)."""
    e.require("degenerate_shape_probe", Regime.NONERGODIC_GRAND_CANONICAL)
    if replicas < 1:
        raise ParamError("need at least one replica")
    parts = sample_small_many(e, n, replicas, seed, mode="exact")
    vals = np.array([large_part_mass(p) for p in parts])
    qs = {f"q{int(100 * q):02d}": float(np.quantile(vals, q))
          for q in (0.25, 0.50, 0.75, 0.90)}
    return DegenerateShapeReport(
        n=n, replicas=replicas, seed=seed, mean=float(vals.mean()),
        quantiles=qs, values=tuple(float(v) for v in vals),
        conjectural=not e.weights.bounded_below)

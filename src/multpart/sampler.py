"""Random partitions: independent-count draws and fixed-size conditioning.

Under the product measure at parameter x the part counts R_k are
independent, so a grand-canonical sample is one row of independent draws
truncated where extra parts become improbable beyond certification.
Conditioning on total size n is done two ways: rejection (redraw at the
tilt solving mean = n until the size hits n exactly) and an exact
conditional walk down the retained prefix rows of a coefficient table.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import Ensemble
from .errors import (
    BudgetExhausted,
    EmptySupportError,
    ParamError,
    TableError,
    TailError,
)
from .partition_function import CoefficientTable, product_tail_cutoff
from .series import ExponentialSeries, GeometricSeries, power_coefficients

__all__ = [
    "Partition",
    "RngStream",
    "default_budget",
    "sample_count",
    "sample_grand",
    "sample_small_exact",
    "sample_small_many",
    "sample_small_rejection",
]

GRAND_TAIL_TOL = 1e-9
CDF_TAIL_TOL = 1e-12
CDF_MAX_TERMS = 10 ** 6
# batches sized to roughly 2^21 matrix cells keep memory modest while
# amortizing generator call overhead
_BATCH_CELLS = 1 << 21


@dataclass(frozen=True)
class RngStream:
    """Reproducible generator handle: (seed, stream) fixes every draw.

    Streams with distinct indices are statistically independent, so
    replica i of an experiment can use stream=i and run in any order or
    in parallel without changing its output.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) < 1 << 64:
            raise ParamError("seed must fit in 64 unsigned bits")
        if int(self.stream) < 0:
            raise ParamError("stream index must be >= 0")

    def generator(self) -> np.random.Generator:
        """A fresh PCG64 generator; repeated calls restart the stream."""
        ss = np.random.SeedSequence(entropy=int(self.seed),
                                    spawn_key=(int(self.stream),))
        return np.random.Generator(np.random.PCG64(ss))


class Partition:
    """Sparse partition: counts[k] = number of parts equal to k, all >= 1."""

    __slots__ = ("counts", "weight")

    def __init__(self, counts: dict[int, int], weight: int):
        self.counts = counts
        self.weight = weight

    @classmethod
    def make(cls, counts: dict[int, int]) -> "Partition":
        """Validate and build; zero counts are dropped, weight recomputed."""
        clean: dict[int, int] = {}
        weight = 0
        for k in sorted(counts):
            r = counts[k]
            if r == 0:
                continue
            if k < 1 or r < 0 or k != int(k) or r != int(r):
                raise ParamError(f"bad partition entry {k}:{r}")
            clean[int(k)] = int(r)
            weight += int(k) * int(r)
        return cls(clean, weight)

    @property
    def num_parts(self) -> int:
        return sum(self.counts.values())

    def to_record(self, rng: RngStream | None = None) -> dict:
        rec = {
            "n": self.weight,
            "counts": [[k, self.counts[k]] for k in sorted(self.counts)],
        }
        if rng is not None:
            rec["seed"] = int(rng.seed)
            rec["stream"] = int(rng.stream)
        return rec

    def __eq__(self, other):
        return isinstance(other, Partition) and self.counts == other.counts

    def __hash__(self):
        return hash(tuple(sorted(self.counts.items())))

    def __repr__(self):
        inner = ", ".join(f"{k}:{r}" for k, r in sorted(self.counts.items()))
        return f"Partition({{{inner}}}, n={self.weight})"


# ---------------------------------------------------------------------------
# count laws


def _count_cdf(e: Ensemble, b: float, u: float) -> np.ndarray:
    """Cumulative masses of R (unnormalized): cum_j = sum_{i<=j} w_i u^i.

    For series kinds without a closed-form count law. Extended until the
    missed mass is provably below CDF_TAIL_TOL of the total f(u)^b.
    """
    total = math.exp(b * e.series.log_value(u))
    target = total * (1.0 - CDF_TAIL_TOL)
    size = 64
    while True:
        w = np.asarray(power_coefficients(e.series, b, size), dtype=np.float64)
        cum = np.cumsum(w * np.power(u, np.arange(size + 1)))
        hit = np.nonzero(cum >= target)[0]
        if hit.size:
            return cum[:hit[0] + 1]
        if size >= CDF_MAX_TERMS:
            raise TailError(
                f"count law at u={u} does not reach {CDF_TAIL_TOL} tail "
                f"within {CDF_MAX_TERMS} terms")
        size *= 4


class _GrandTable:
    """Per-(ensemble, x) sampling plan: active sizes and their count laws."""

    __slots__ = ("x", "k_star", "ks", "bs", "kind", "lams", "cdfs",
                 "geo_cols", "geo_p", "nb_cols", "nb_b", "nb_p")

    def __init__(self, e: Ensemble, x: float):
        self.x = x
        self.k_star = product_tail_cutoff(e, x, GRAND_TAIL_TOL)
        ks = np.arange(1, self.k_star + 1)
        bs = e.weights.values(ks)
        active = bs > 0.0
        self.ks = ks[active]
        self.bs = bs[active]
        us = np.power(x, self.ks.astype(np.float64))
        self.lams = None
        self.cdfs = None
        self.geo_cols = self.geo_p = self.nb_cols = self.nb_b = self.nb_p = None
        if isinstance(e.series, GeometricSeries):
            self.kind = "geometric"
            p = 1.0 - float(e.series.coefficient(1)) * us
            ones = self.bs == 1.0
            self.geo_cols = np.nonzero(ones)[0]
            self.geo_p = p[ones]
            self.nb_cols = np.nonzero(~ones)[0]
            self.nb_b = self.bs[~ones]
            self.nb_p = p[~ones]
        elif isinstance(e.series, ExponentialSeries):
            self.kind = "exponential"
            self.lams = self.bs * float(e.series.rate) * us
        else:
            self.kind = "general"
            self.cdfs = [_count_cdf(e, float(b), float(u))
                         for b, u in zip(self.bs, us)]

    def draw(self, gen: np.random.Generator, rows: int) -> np.ndarray:
        """rows x len(ks) matrix of independent counts."""
        shape = (rows, self.ks.size)
        if self.kind == "geometric":
            out = np.empty(shape, dtype=np.int64)
            if self.geo_cols.size:
                # unit shape: failures before the first success
                out[:, self.geo_cols] = gen.geometric(
                    self.geo_p[None, :], size=(rows, self.geo_cols.size)) - 1
            if self.nb_cols.size:
                # real shape b > 0, drawn as the standard Gamma-mixed Poisson
                out[:, self.nb_cols] = gen.negative_binomial(
                    self.nb_b[None, :], self.nb_p[None, :],
                    size=(rows, self.nb_cols.size))
            return out
        if self.kind == "exponential":
            return gen.poisson(self.lams, size=shape)
        out = np.empty(shape, dtype=np.int64)
        u = gen.random(shape)
        for i, cum in enumerate(self.cdfs):
            out[:, i] = np.searchsorted(cum, u[:, i] * cum[-1], side="right")
        return out


def _grand_table(e: Ensemble, x: float) -> _GrandTable:
    key = ("grand_table", x)
    tbl = e._memo.get(key)
    if tbl is None:
        tbl = _GrandTable(e, x)
        e._memo[key] = tbl
    return tbl


def _check_sampling_x(e: Ensemble, x: float) -> None:
    if not (0.0 <= x < e.rho):
        raise ParamError(f"x={x} outside [0, {e.rho})")


def sample_count(e: Ensemble, k: int, x: float, rng: RngStream) -> int:
    """One exact draw of R_k under the independent-count measure at x."""
    if k < 1:
        raise ParamError("part size k must be >= 1")
    _check_sampling_x(e, x)
    b = e.weights.value(k)
    if x == 0.0 or b == 0.0:
        return 0
    gen = rng.generator()
    u = x ** k
    if isinstance(e.series, GeometricSeries):
        q = float(e.series.coefficient(1)) * u
        return int(gen.negative_binomial(float(b), 1.0 - q))
    if isinstance(e.series, ExponentialSeries):
        return int(gen.poisson(b * float(e.series.rate) * u))
    key = ("count_cdf", float(b), u)
    cum = e._memo.get(key)
    if cum is None:
        cum = e._memo[key] = _count_cdf(e, float(b), u)
    return int(np.searchsorted(cum, gen.random() * cum[-1], side="right"))


def _partition_from_row(ks: np.ndarray, row: np.ndarray) -> Partition:
    nz = np.nonzero(row)[0]
    counts = {int(ks[i]): int(row[i]) for i in nz}
    return Partition(counts, int((ks[nz] * row[nz]).sum()))


def sample_grand(e: Ensemble, x: float, rng: RngStream) -> Partition:
    """A full partition under the independent-count measure at x.

    Sizes beyond a cutoff K* are never drawn; K* certifies that the
    chance of any part out there is below 1e-9 total.
    """
    _check_sampling_x(e, x)
    if x == 0.0:
        return Partition({}, 0)
    tbl = _grand_table(e, x)
    row = tbl.draw(rng.generator(), 1)[0]
    return _partition_from_row(tbl.ks, row)


# ---------------------------------------------------------------------------
# fixed total size


def default_budget(e: Ensemble, n: int) -> int:
    """Rejection attempt allowance: 20 ceil(n^gamma), gamma = (b+2)/(2b+2).

    The acceptance probability at the tilt decays like n^-gamma in the
    ergodic regimes, so this allows roughly twenty expected waits. Outside
    them (or when the growth index is unknown) the same formula is used
    as an advisory default.
    """
    beta = e.beta
    gamma = (beta + 2.0) / (2.0 * beta + 2.0) if beta and beta > 0 else 0.75
    return 20 * math.ceil(n ** gamma)


def sample_small_rejection(e: Ensemble, n: int, rng: RngStream,
                           budget: int | None = None) -> Partition:
    """First grand-canonical draw at the tilt x_n with total size exactly n."""
    from .asymptotics import solve_tilt

    if n < 1:
        raise ParamError("n must be >= 1")
    if budget is None:
        budget = default_budget(e, n)
    if budget < 1:
        raise ParamError("budget must be >= 1")
    x_n = solve_tilt(e, n).x_n
    tbl = _grand_table(e, x_n)
    gen = rng.generator()
    # batches grow geometrically from 16 rows: cheap when acceptance is
    # high, amortized when it is ~n^-gamma; the fixed schedule keeps the
    # draw reproducible
    batch_cap = max(64, min(4096, _BATCH_CELLS // max(tbl.ks.size, 1)))
    batch = 16
    attempts = 0
    while attempts < budget:
        rows = min(batch, budget - attempts)
        counts = tbl.draw(gen, rows)
        weights = counts @ tbl.ks
        hits = np.nonzero(weights == n)[0]
        if hits.size:
            attempts += int(hits[0]) + 1
            return _partition_from_row(tbl.ks, counts[hits[0]])
        attempts += rows
        batch = min(batch * 4, batch_cap)
    raise BudgetExhausted(
        f"no draw of size {n} in {attempts} attempts at x={x_n:.6g}; the "
        "size may be unreachable (support obstruction) or the budget too "
        "small for this acceptance rate",
        attempts=attempts, budget=budget, acceptance_estimate=0.0)


def sample_small_exact(e: Ensemble, n: int, rng: RngStream,
                       table: CoefficientTable) -> Partition:
    """Exact fixed-size draw by walking the prefix rows top-down.

    At part size k with residual m, R_k = j has conditional mass
    proportional to wtilde_k(j) * W_{k-1}(m - k j); the tilt in the rows
    cancels in the ratio, so the walk reproduces the conditioned measure
    and never dead-ends.
    """
    if table.prefix is None:
        raise TableError("exact sampling needs a table built with keep_prefix")
    if n < 0:
        raise ParamError("n must be >= 0")
    if n > table.n_max:
        raise ParamError(f"n={n} beyond table range 0..{table.n_max}")
    if n == 0:
        return Partition({}, 0)
    if table.prefix[n][n] <= 0.0:
        raise EmptySupportError(
            f"no partition of {n} has positive mass in this ensemble",
            attempts=0, budget=0, acceptance_estimate=0.0)
    gen = rng.generator()
    counts: dict[int, int] = {}
    m = n
    # sizes with b_k != 0, ascending; the walk visits each one <= m
    sizes = table.active_sizes
    i = bisect.bisect_right(sizes, m) - 1
    while m and i >= 0:
        k = sizes[i]
        prev = table.prefix[k - 1]
        w = table.factor_weights(k)
        j_hi = min(m // k, len(w) - 1)
        masses = w[:j_hi + 1] * prev[m - np.arange(j_hi + 1) * k]
        total = float(masses.sum())
        if not total > 0.0:
            raise TableError("prefix rows inconsistent: conditional vanished")
        j = int(np.searchsorted(np.cumsum(masses), gen.random() * total,
                                side="right"))
        j = min(j, j_hi)
        if j:
            counts[k] = j
            m -= k * j
        i = min(i - 1, bisect.bisect_right(sizes, m) - 1)
    if m != 0:
        raise TableError("prefix rows inconsistent: residual not exhausted")
    part = Partition(counts, n)
    assert sum(k * r for k, r in counts.items()) == n
    return part


def sample_small_many(e: Ensemble, n: int, n_samples: int, seed: int,
                      mode: str = "rejection", base_stream: int = 0,
                      budget: int | None = None,
                      table: CoefficientTable | None = None) -> list[Partition]:
    """n_samples fixed-size draws, replica i on stream base_stream + i.

    mode "rejection" or "exact"; exact builds (or reuses) a prefix table
    once. The stream layout makes every replica reproducible on its own.
    """
    if n_samples < 0:
        raise ParamError("n_samples must be >= 0")
    if mode not in ("rejection", "exact"):
        raise ParamError(f"unknown sampling mode {mode!r}")
    if mode == "exact":
        if table is None:
            from .partition_function import coefficients

            table = coefficients(e, n, keep_prefix=True)
        return [sample_small_exact(e, n, RngStream(seed, base_stream + i), table)
                for i in range(n_samples)]
    return [sample_small_rejection(e, n, RngStream(seed, base_stream + i), budget)
            for i in range(n_samples)]

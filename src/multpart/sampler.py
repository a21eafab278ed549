"""Random partitions: independent-count draws and fixed-size conditioning.

Under the product measure at parameter x the part counts R_k are
independent, so a grand-canonical sample is one row of independent draws
truncated where extra parts become improbable beyond certification. The
law of each count comes from one CountLaw per series kind. Conditioning
on total size n is done three ways:

- rejection: redraw at the tilt x_n solving mean = n until the size hits
  n exactly;
- probabilistic divide-and-conquer ("pdc"): draw the counts of sizes
  k >= 2 at x_n, set R_1 = n - W from their weight W, and keep the draw
  with probability P(R_1 = n - W) / max_j P(R_1 = j);
- the recursive method ("exact"): remove components of j parts of size k
  by m p_m = sum_i c_i p_{m-i} until m = 0; needs nu_j = j [z^j] log f >= 0.

Each mode draws from one plan per n, built at the tilt x_n and cached by
the ensemble (_fixed_plan): a _FixedPlan for rejection and pdc, a
_RecursivePlan for exact. A plan draws itself: plan.draw(rng, budget).

A pdc attempt draws only its nonzero counts, as a Poisson process over
the sizes (CountLaw.draw_sparse; sample_small_pdc gives the rates by
series kind). A grand draw is one row of all k* counts (CountLaw.draw_row):
for unit shapes one uniform per size, inverted only where it can give a
nonzero count, else a dense row. A rejection attempt is a dense row of the
counts of sizes up to min(n, k*), since an accepted attempt has no part
above n.

An exact step picks its size i in Python floats up to m = _SCALAR_WINDOW
while no rescale applies, else in numpy vectors, the same bits in O(m);
the split i = k j reads divisors up to sqrt(i) and a per-plan x^e table.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .asymptotics import solve_tilt
from .ensemble import Ensemble
from .errors import (
    BudgetExhausted,
    EmptySupportError,
    ParamError,
    TableError,
    TailError,
)
from .partition_function import (_log_derivative_weights, _mass_recurrence,
                                 _mass_size, product_tail_cutoff)
from .series import ExponentialSeries, GeometricSeries, power_coefficients

__all__ = [
    "CountLaw",
    "Partition",
    "RngStream",
    "default_budget",
    "sample_count",
    "sample_grand",
    "sample_small_exact",
    "sample_small_many",
    "sample_small_pdc",
    "sample_small_rejection",
]

GRAND_TAIL_TOL = 1e-9
CDF_TAIL_TOL = 1e-12
CDF_MAX_TERMS = 10 ** 6
# batches sized to roughly 2^21 matrix cells, or expected points of a
# sparse draw, keep memory modest while amortizing generator call overhead
_BATCH_CELLS = 1 << 21
# longest window of the recursive method picked in scalar code, not numpy
_SCALAR_WINDOW = 64


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
        if type(self.seed) is not int or type(self.stream) is not int:
            try:  # numpy integers pass as ints; floats and strings fail
                object.__setattr__(self, "seed", operator.index(self.seed))
                object.__setattr__(self, "stream",
                                   operator.index(self.stream))
            except TypeError:
                raise ParamError(
                    "seed and stream must be integers, got "
                    f"{self.seed!r} and {self.stream!r}") from None
        if not 0 <= self.seed < 1 << 64:
            raise ParamError("seed must fit in 64 unsigned bits")
        if self.stream < 0:
            raise ParamError("stream index must be >= 0")

    def generator(self) -> np.random.Generator:
        """A fresh PCG64 generator; repeated calls restart the stream.

        Its state is that of PCG64(SeedSequence(entropy=seed,
        spawn_key=(stream,))). States are hashed for 2^12 consecutive
        streams at a time (_state_block), and the 2 blocks used last are
        kept, 256 KB: callers walk their streams in order, so replicas on
        streams i pay one hash per block, not one per draw.
        """
        block = _state_block(self.seed, self.stream >> _BLOCK_BITS)
        return np.random.Generator(np.random.PCG64(
            _Words(block[self.stream & _BLOCK_MASK])))


# SeedSequence constants (numpy/random/bit_generator.pyx): hashmix and mix
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# the seed's pool takes 16 hashmix steps whatever the seed: 4 words (a
# seed below 2^64, zero-padded) and 12 cross mixes
_HASH_AFTER_SEED = _INIT_A * pow(_MULT_A, 16, 1 << 32) & _M32
_BLOCK_BITS = 12
_BLOCK_MASK = (1 << _BLOCK_BITS) - 1


@lru_cache(maxsize=2)
def _state_block(seed: int, block: int) -> np.ndarray:
    """PCG64 states of the 2^12 streams block * 2^12 + j of seed, by j:
    numpy's SeedSequence algorithm on uint32 lanes, one per stream. The
    block is 2^12-aligned, so its streams differ only in the low word."""
    first = block << _BLOCK_BITS
    word = np.arange(1 << _BLOCK_BITS, dtype=np.uint32) + (first & _M32)
    pool = np.random.SeedSequence(seed).pool[:, None].repeat(word.size, 1)
    h, high = _HASH_AFTER_SEED, first >> 32
    while True:  # hashmix: xor the hash constant, step it, multiply
        for d in range(4):
            v = (word ^ h) * (h := h * _MULT_A & _M32)
            v ^= v >> 16
            v = _MIX_L * pool[d] - _MIX_R * v
            pool[d] = v ^ v >> 16
        if not high:
            break
        word, high = np.array([high & _M32], dtype=np.uint32), high >> 32
    h, out = _INIT_B, []
    for i in range(8):
        v = (pool[i & 3] ^ h) * (h := h * _MULT_B & _M32)
        out.append(v ^ v >> 16)
    # little-endian word pairs, as numpy's generate_state reads them
    state = np.stack(out, axis=1).astype("<u4", copy=False).view("<u8")
    state = state.astype(np.uint64, copy=False)
    state.setflags(write=False)
    return state


class _Words(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the 4 state words _state_block hashed."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


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


def _count_masses(e: Ensemble, b: float, u: float) -> np.ndarray:
    """Unnormalized masses of R: w_j u^j, w_j = [z^j] f(z)^b.

    For series kinds without a closed-form count law. Extended until the
    missed mass is provably below CDF_TAIL_TOL of the total f(u)^b.
    """
    total = math.exp(b * e.series.log_value(u))
    target = total * (1.0 - CDF_TAIL_TOL)
    size = 64
    while True:
        w = np.asarray(power_coefficients(e.series, b, size), dtype=np.float64)
        masses = w * np.power(u, np.arange(size + 1))
        hit = np.nonzero(np.cumsum(masses) >= target)[0]
        if hit.size:
            return masses[:hit[0] + 1]
        if size >= CDF_MAX_TERMS:
            raise TailError(
                f"count law at u={u} does not reach {CDF_TAIL_TOL} tail "
                f"within {CDF_MAX_TERMS} terms")
        size *= 4


class CountLaw:
    """Laws of the independent counts R_k at a list of part sizes.

    Under the product measure at x, P(R_k = j) is proportional to the
    coefficient of z^j in f(z)^{b_k} times u^j, u = x^k. One column per
    size, size columns in all: draw(gen, shape) fills an array whose last
    axis runs over the sizes, and logpmf(j) broadcasts j against that axis.
    draw_row gives one such row as its nonzero entries, with the same bits.
    draw_sparse gives the same law as the nonzero counts only, from a
    Poisson process over the sizes with the rates _rates.
    """

    size: int

    def draw(self, gen: np.random.Generator, shape: tuple) -> np.ndarray:
        raise NotImplementedError

    def draw_row(self, gen: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray]:
        """(cols, counts): the nonzero entries of draw(gen, (1, size))[0],
        columns ascending."""
        row = self.draw(gen, (1, self.size))[0]
        cols = np.flatnonzero(row)
        return cols, row[cols]

    def draw_sparse(self, gen: np.random.Generator, rows: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, column, count) of the nonzero counts of rows independent draws.

        Entries that share a row and a column add up to that count.
        """
        raise NotImplementedError

    @property
    def _rates(self) -> np.ndarray:
        """Rate of the Poisson process of draw_sparse at each size."""
        raise NotImplementedError

    def expected_points(self) -> float:
        """L, the expected number of points of one sparse draw."""
        return float(self._rates.sum())

    def _points(self, gen: np.random.Generator, rows: int
                ) -> tuple[np.ndarray, np.ndarray]:
        """(row, column) of each point of rows independent processes.

        Poisson(rows * rate) points fall at each size, each in a row drawn
        uniformly; by Poisson splitting the rows are then independent
        processes with the given rates. Drawing a size per point instead,
        by a search over the cumulative rates, gives the same law at many
        times the cost: each search misses the cache.
        """
        col = np.repeat(np.arange(self._rates.size),
                        gen.poisson(rows * self._rates))
        return gen.integers(rows, size=col.size), col

    def take(self, cols: slice) -> "CountLaw":
        """The laws of the sizes in columns cols."""
        raise NotImplementedError

    def _logpmf(self, j: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _mode(self) -> np.ndarray:
        """A count within one of the most likely count, per size."""
        raise NotImplementedError

    def logpmf(self, j) -> np.ndarray:
        """log P(R_k = j), -inf for j < 0."""
        j = np.asarray(j)
        inside = j >= 0
        with np.errstate(divide="ignore"):
            out = self._logpmf(np.where(inside, j, 0))
        return np.where(inside, out, -np.inf)

    def log_max(self) -> np.ndarray:
        """max_j log P(R_k = j), per size."""
        m = self._mode().astype(np.int64)
        return np.max([self.logpmf(np.maximum(m + d, 0)) for d in (-1, 0, 1)],
                      axis=0)


class _NegativeBinomialLaw(CountLaw):
    """Geometric series 1/(1 - y z): R_k is negative binomial with shape
    b_k and success probability 1 - y u. Shape 1 is geometric, drawn by
    inversion of one uniform per count."""

    def __init__(self, b: np.ndarray, q: np.ndarray):
        self.b = b
        self.q = q
        self.p = 1.0 - q
        self.size = q.size
        with np.errstate(divide="ignore"):
            self._log_q = np.log(q)  # -inf where q = 0: every count is 0
        unit = b == 1.0
        self._unit = np.nonzero(unit)[0]
        self._other = np.nonzero(~unit)[0]

    @staticmethod
    def _geometric(gen, shape, log_q) -> np.ndarray:
        # R = floor(log(1 - U) / log q), so P(R >= j) = q^j
        u = gen.random(shape)
        np.log1p(np.negative(u, out=u), out=u)
        return np.floor(np.divide(u, log_q, out=u), out=u).astype(np.int64)

    def draw(self, gen, shape):
        unit, other = self._unit, self._other
        if not other.size:
            return self._geometric(gen, shape, self._log_q)
        out = np.empty(shape, dtype=np.int64)
        lead = tuple(shape[:-1])
        if unit.size:
            out[..., unit] = self._geometric(gen, lead + (unit.size,),
                                             self._log_q[unit])
        # real shape b > 0, drawn as the standard Gamma-mixed Poisson
        out[..., other] = gen.negative_binomial(
            self.b[other], self.p[other], size=lead + (other.size,))
        return out

    @cached_property
    def _gate(self) -> np.ndarray:  # a uniform below it gives the count 0
        return 1.0 - self.q * (1.0 + 1e-6)

    def draw_row(self, gen):
        if self._other.size:
            return super().draw_row(gen)
        # the uniforms of draw, inverted only where they can give R >= 1.
        # That needs 1 - U <= q up to rounding, which moves the threshold
        # by at most q 3e-13 (a few ulps of log1p, log and the quotient,
        # |log q| <= 745), so the gate 1 - q (1 + 1e-6) lies below it far
        # inside the margin. Rounding the gate admits no U the exact gate
        # would bar: U is a multiple of 2^-53, a gate in [1/2, 1] rounds
        # to one, and one below 1/2 is exact (Sterbenz). q = 0 gives the
        # gate 1, so those columns are never inverted and never warn. One
        # (1, size) request, as draw makes, so that a generator wrapper
        # counting rows and columns of 2-D requests still sees the row
        u = gen.random((1, self.size))[0]
        cols = np.flatnonzero(u >= self._gate)
        r = np.floor(np.log1p(-u[cols]) / self._log_q[cols]).astype(np.int64)
        hit = r != 0
        return cols[hit], r[hit]

    @cached_property
    def _rates(self):
        # compound Poisson: clusters at rate -b log(1 - q), logarithmic sizes
        return -self.b * np.log1p(-self.q)

    def draw_sparse(self, gen, rows):
        row, col = self._points(gen, rows)
        return row, col, gen.logseries(self.q[col])

    def take(self, cols):
        return _NegativeBinomialLaw(self.b[cols], self.q[cols])

    def _logpmf(self, j):
        from scipy.special import gammaln  # slow to import
        b = self.b
        return (gammaln(j + b) - gammaln(b)
                - gammaln(j + 1.0) + b * np.log(self.p)
                + j * np.log(self.q))

    def _mode(self):
        return np.floor(np.maximum(self.b - 1.0, 0.0) * self.q / self.p)


class _PoissonLaw(CountLaw):
    """Exponential series exp(c z): R_k is Poisson with mean b_k c u."""

    def __init__(self, lam: np.ndarray):
        self.lam = lam
        self.size = lam.size

    def draw(self, gen, shape):
        return gen.poisson(self.lam, size=shape)

    @property
    def _rates(self):
        return self.lam

    def draw_sparse(self, gen, rows):
        row, col = self._points(gen, rows)
        return row, col, np.ones(row.size, dtype=np.int64)

    def take(self, cols):
        return _PoissonLaw(self.lam[cols])

    def _logpmf(self, j):
        from scipy.special import gammaln  # slow to import
        return j * np.log(self.lam) - self.lam - gammaln(j + 1.0)

    def _mode(self):
        return np.floor(self.lam)


class _TabulatedLaw(CountLaw):
    """Any other series: inverse-CDF draws from the masses _count_masses
    certifies; a count beyond a table has mass below CDF_TAIL_TOL and is
    given none."""

    def __init__(self, masses: list[np.ndarray]):
        self.masses = masses
        self.cdfs = [np.cumsum(m) for m in masses]
        self.size = len(masses)

    def _log_masses(self) -> list[np.ndarray]:
        with np.errstate(divide="ignore"):
            return [np.log(m / cum[-1]) for m, cum in zip(self.masses, self.cdfs)]

    def draw(self, gen, shape):
        out = np.empty(shape, dtype=np.int64)
        u = gen.random(shape)
        for i, cum in enumerate(self.cdfs):
            out[..., i] = np.searchsorted(cum, u[..., i] * cum[-1],
                                          side="right")
        return out

    @cached_property
    def _tails(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, start, total): the CDF of R - 1 given R >= 1 of column c
        is keys[start[c]:] with real part c, unnormalized, up to total[c]."""
        tails = [np.cumsum(m[1:]) for m in self.masses]
        sizes = np.array([t.size for t in tails])
        keys = np.concatenate(
            [c + 1j * t for c, t in enumerate(tails)] + [np.zeros(0)])
        total = np.array([t[-1] if t.size else 0.0 for t in tails])
        return keys, np.cumsum(sizes) - sizes, total

    @cached_property
    def _rates(self):
        # -log P(R = 0) = log(1 + P(R >= 1) / P(R = 0)), the mass of R = 0
        # being [z^0] f^b = 1: a size is hit with probability 1 - P(R = 0)
        return np.log1p(self._tails[2])

    def draw_sparse(self, gen, rows):
        row, col = self._points(gen, rows)
        # a size hit twice in a row is hit once; np.sort then a mask, since
        # np.unique takes about a hundred times as long on a batch. Sorting
        # by column first keeps the search below cache-friendly.
        key = np.sort(col * rows + row)
        col, row = np.divmod(key[np.diff(key, prepend=-1) != 0], rows)
        keys, start, total = self._tails
        # complex numbers order by real part, then imaginary part: one
        # search finds each count within its own column's CDF at full
        # double resolution
        v = gen.random(col.size) * total[col]
        at = np.searchsorted(keys, col + 1j * v, side="right")
        return row, col, at - start[col] + 1

    def take(self, cols):
        return _TabulatedLaw(self.masses[cols])

    def _logpmf(self, j):
        j = np.broadcast_to(j, np.broadcast_shapes(j.shape, (len(self.cdfs),)))
        out = np.full(j.shape, -np.inf)
        for i, logp in enumerate(self._log_masses()):
            ji = j[..., i]
            inside = ji < logp.size
            out[..., i][inside] = logp[ji[inside]]
        return out

    def _mode(self):
        return np.array([np.argmax(m) for m in self.masses])


def _count_law(e: Ensemble, bs: np.ndarray, us: np.ndarray) -> CountLaw:
    """The laws of R_k for weights bs > 0 at u = x^k, by series kind."""
    if isinstance(e.series, GeometricSeries):
        return _NegativeBinomialLaw(bs, float(e.series.coefficient(1)) * us)
    if isinstance(e.series, ExponentialSeries):
        return _PoissonLaw(bs * float(e.series.rate) * us)
    return _TabulatedLaw([_count_masses(e, float(b), float(u))
                          for b, u in zip(bs, us)])


class _GrandTable:
    """Per-(ensemble, x) sampling plan: active sizes and their count laws."""

    __slots__ = ("ks", "law")

    def __init__(self, e: Ensemble, x: float):
        ks = np.arange(1, product_tail_cutoff(e, x, GRAND_TAIL_TOL) + 1)
        bs = e.weights.values(ks)
        active = bs > 0.0
        self.ks = ks[active]
        self.law = _count_law(e, bs[active],
                              np.power(x, self.ks.astype(np.float64)))


def _grand_table(e: Ensemble, x: float) -> _GrandTable:
    return e.cached(("grand_table", x), lambda: _GrandTable(e, x))


def sample_count(e: Ensemble, k: int, x: float, rng: RngStream) -> int:
    """One exact draw of R_k under the independent-count measure at x."""
    if k < 1:
        raise ParamError("part size k must be >= 1")
    e.check_tilt(x)
    b = e.weights.value(k)
    if x == 0.0 or b == 0.0:
        return 0
    u = x ** k
    law = e.cached(("count_law", float(b), u),
                   lambda: _count_law(e, np.array([b]), np.array([u])))
    return int(law.draw(rng.generator(), (1,))[0])


def _partition_from_entries(n: int, r_1: int, ks: np.ndarray,
                            cnt: np.ndarray) -> Partition:
    """Partition of weight n with r_1 ones plus cnt[i] parts of size ks[i]."""
    counts = {1: r_1} if r_1 else {}
    for k, j in sorted(zip(ks.tolist(), cnt.tolist())):
        counts[k] = counts.get(k, 0) + j
    return Partition(counts, n)


def sample_grand(e: Ensemble, x: float, rng: RngStream) -> Partition:
    """A full partition under the independent-count measure at x.

    Sizes beyond a cutoff K* are never drawn; K* certifies that the
    chance of any part out there is below 1e-9 total.
    """
    e.check_tilt(x)
    if x == 0.0:
        return Partition({}, 0)
    tbl = _grand_table(e, x)
    cols, counts = tbl.law.draw_row(rng.generator())
    ks = tbl.ks[cols]
    return Partition(dict(zip(ks.tolist(), counts.tolist())),
                     int(ks @ counts))


# ---------------------------------------------------------------------------
# fixed total size

# the budget allows this many expected waits for an accepted attempt
_BUDGET_WAITS = 20


def default_budget(e: Ensemble, n: int, mode: str = "rejection") -> int:
    """Attempt allowance of about twenty expected waits for an acceptance.

    An attempt of the rejection sampler, which draws only the sizes up to
    n, is accepted with probability P(N = n) / P(no part above n) at the
    tilt x_n: at least P(N = n), with equality when n >= k*. The budget
    takes P(N = n), which the local limit theorem puts at
    1/sqrt(2 pi Var N(x_n)). Divide-and-conquer ("pdc") accepts with that
    probability divided by max_j P(R_1 = j). The plan of (n, mode) holds it.
    """
    if mode not in ("rejection", "pdc"):
        raise ParamError(f"no attempt budget for sampling mode {mode!r}")
    return _fixed_plan(e, n, mode).budget


class _FixedPlan:
    """What a fixed-size draw of weight n needs at the tilt x_n, by mode:
    the batch width, the sizes drawn, their count laws and the default
    budget; for pdc also the law of R_1 and log max_j P(R_1 = j)."""

    def __init__(self, e: Ensemble, n: int, mode: str):
        if n < 1:
            raise ParamError("n must be >= 1")
        sol = solve_tilt(e, n)
        self.n, self.mode, self.x_n = n, mode, sol.x_n
        rate = 1.0 / math.sqrt(2.0 * math.pi * sol.variance)
        tbl = _grand_table(e, self.x_n)
        if mode == "pdc":
            if tbl.ks.size == 0 or tbl.ks[0] != 1:
                raise ParamError(
                    "mode 'pdc' sets R_1 = n - W and needs b_1 > 0; use mode "
                    "'rejection' for ensembles without parts of size one")
            self.first = tbl.law.take(slice(0, 1))
            self.law = tbl.law.take(slice(1, None))
            self.log_top = self.first.log_max()
            rate /= math.exp(float(self.log_top[0]))
            self.ks = tbl.ks[1:]
            self.width = math.ceil(self.law.expected_points())
        else:
            # the sizes above n are 0 in every accepted attempt and
            # independent of the rest: conditioning the sizes up to n
            # gives the same law
            self.width = int(np.searchsorted(tbl.ks, n, side="right"))
            self.ks = tbl.ks[:self.width]
            self.ks_list = self.ks.tolist()
            self.law = tbl.law.take(slice(0, self.width))
        self.budget = math.ceil(_BUDGET_WAITS / min(rate, 1.0))
        self.batch_cap = max(64, min(4096, _BATCH_CELLS // max(self.width, 1)))

    def draw(self, rng: RngStream, budget: int | None = None) -> Partition:
        """First accepted attempt on rng's stream, within budget attempts."""
        if budget is None:
            budget = self.budget
        if budget < 1:
            raise ParamError("budget must be >= 1")
        n, ks, law, width = self.n, self.ks, self.law, self.width
        gen = rng.generator()
        # batches grow geometrically from 16 rows: cheap when acceptance is
        # high, amortized when it is small; the fixed schedule keeps the
        # draw reproducible
        batch = 16
        attempts = 0
        while attempts < budget:
            rows = min(batch, budget - attempts)
            if self.mode == "pdc":
                row, col, cnt = law.draw_sparse(gen, rows)
                weight = np.bincount(row, weights=ks[col] * cnt,
                                     minlength=rows)
                r_1 = n - weight.astype(np.int64)
                keep = np.exp(self.first.logpmf(r_1[:, None])[:, 0]
                              - self.log_top)
                hits = np.nonzero(gen.random(rows) < keep)[0]
                if hits.size:
                    h = hits[0]
                    mine = row == h
                    return _partition_from_entries(
                        n, int(r_1[h]), ks[col[mine]], cnt[mine])
            else:
                counts = law.draw(gen, (rows, width))
                hits = np.nonzero(counts @ ks == n)[0]
                if hits.size:
                    # accepted on its weight, which is therefore n
                    return Partition({k: r for k, r in zip(
                        self.ks_list, counts[hits[0]].tolist()) if r}, n)
            attempts += rows
            batch = min(batch * 4, self.batch_cap)
        raise BudgetExhausted(
            f"no draw of size {n} in {attempts} attempts at x={self.x_n:.6g}; "
            "the size may be unreachable (support obstruction) or the budget "
            "too small for this acceptance rate",
            attempts=attempts, budget=budget, acceptance_estimate=0.0)


def _fixed_plan(e: Ensemble, n: int, mode: str):
    """The plan of mode's draws of weight n, built once per ensemble:
    a _FixedPlan for rejection and pdc, a _RecursivePlan for exact."""
    return e.cached(("fixed_plan", n, mode), lambda: (
        _RecursivePlan(e, n) if mode == "exact" else _FixedPlan(e, n, mode)))


def sample_small_rejection(e: Ensemble, n: int, rng: RngStream,
                           budget: int | None = None) -> Partition:
    """First grand-canonical draw at the tilt x_n with total size exactly n."""
    return _fixed_plan(e, n, "rejection").draw(rng, budget)


def sample_small_pdc(e: Ensemble, n: int, rng: RngStream,
                     budget: int | None = None) -> Partition:
    """Exact fixed-size draw by divide-and-conquer with R_1 = n - W.

    R_k for k >= 2 are drawn at the tilt x_n and R_1 is set to n - W,
    W = sum_{k>=2} k R_k; the attempt is kept with probability
    P(R_1 = n - W) / max_j P(R_1 = j). Given acceptance the counts have
    the law of the grand draw conditioned on N = n (Arratia and DeSalvo,
    Combin. Probab. Comput. 2016). Acceptance is P(N = n) / max_j
    P(R_1 = j): for uniform about 1/(1 - x_n) times the rejection rate.
    Needs b_1 > 0 (ParamError otherwise).

    An attempt draws only the nonzero R_k, as a Poisson process over the
    sizes k >= 2, so it costs about the number of parts, not k*. An
    exponential series puts points at rate b_k c x^k, one part each. A
    geometric series puts clusters at rate -b_k log(1 - q_k), q_k = y x^k,
    and a cluster adds a logarithmic number of parts,
    P(s) = q_k^s / (s (-log(1 - q_k))). Any other series hits a size at
    rate -log P(R_k = 0) and then draws R_k given R_k >= 1 by inverse CDF.
    """
    return _fixed_plan(e, n, "pdc").draw(rng, budget)


class _RecursivePlan:
    """The recursive method's tables for weight n, built once at x = x_n:
    p_m ~ v_m exp(shift_m) (_mass_recurrence), c_i, kb_k = k b_k, nu_j,
    xpow_e = x^e, and the heads of c and v as lists for scalar windows."""

    def __init__(self, e: Ensemble, n: int):
        self.n = n = _mass_size(n, "n")
        if n == 0:
            return  # the empty partition is drawn without tables
        self.x = solve_tilt(e, n).x_n
        self.nu = e.series.log_coefficients(n, self.x)
        if (self.nu < 0.0).any():
            raise ParamError(
                "mode 'exact' splits components by the coefficients of log f, "
                "and this series has negative ones; use mode 'pdc' "
                "(small-pdc on the command line)")
        self.c, _ = _log_derivative_weights(e, self.x, n, self.nu)
        self.v, self.shift = _mass_recurrence(self.c, n)
        if not self.v[n] > 0.0:
            raise EmptySupportError(
                f"no partition of {n} has positive mass in this ensemble",
                attempts=0, budget=0, acceptance_estimate=0.0)
        ks = np.arange(1, n + 1)
        self.kb = ks * e.weights.values(ks)
        self.xpow = np.power(self.x, np.arange(n, dtype=np.float64))
        self._v_rev = self.v[::-1].copy()
        # scalar windows end at _SCALAR_WINDOW and before the first rescale
        self._top = min(_SCALAR_WINDOW, int(np.searchsorted(
            self.shift, 0.0, side="right")) - 1)
        self._c_head = self.c[:self._top + 1].tolist()
        self._v_head = self.v[:self._top].tolist()

    @staticmethod
    def _pick(gen: np.random.Generator, cum) -> int:
        """Index t drawn with probability (cum_t - cum_{t-1}) / cum[-1]."""
        t = bisect_right(cum, gen.random() * cum[-1])
        if t == len(cum):
            raise TableError("recursive method: every weight vanished")
        return t

    def draw(self, rng: RngStream, budget: int | None = None) -> Partition:
        """One draw on rng's stream; it takes no attempts, so no budget."""
        gen = rng.generator()
        counts: dict[int, int] = {}
        m = self.n
        while m:
            # size i with probability c_i p_{m-i} / (m p_m); the masses
            # below lo, at a lower shift, are brought to that of m
            if m <= self._top:
                c, v = self._c_head, self._v_head
                cum = list(accumulate([c[i] * v[m - i]
                                       for i in range(1, m + 1)]))
            else:
                w = self.c[1:m + 1] * self._v_rev[self.n + 1 - m:]
                sh = self.shift
                lo = int(np.searchsorted(sh, sh[m]))
                if lo:
                    w[m - lo:] *= np.exp(sh[lo - 1::-1] - sh[m])
                cum = np.cumsum(w)
            i = self._pick(gen, cum) + 1
            # i = k j, k ascending, with weight k b_k nu_j x^{(k-1) j}
            ks = [k for k in range(1, math.isqrt(i) + 1) if i % k == 0]
            ks += [i // k for k in reversed(ks) if k * k != i]
            k = ks[self._pick(gen, list(accumulate(
                [self.kb[k - 1] * self.nu[i // k] * self.xpow[i - i // k]
                 for k in ks])))]
            counts[k] = counts.get(k, 0) + i // k
            m -= i
        return Partition(dict(sorted(counts.items())), self.n)


def sample_small_exact(e: Ensemble, n: int, rng: RngStream) -> Partition:
    """Exact fixed-size draw by the recursive method (Nijenhuis and Wilf,
    Combinatorial Algorithms, 1978, ch. 10).

    log F = sum_{k,j} b_k mu_j x^{kj} / j, mu_j = j [z^j] log f, so a
    partition is a multiset of components (k, j), j parts of size k, and
    m p_m = sum_i c_i p_{m-i}. From m = n, a size i is drawn with
    probability c_i p_{m-i} / (m p_m) and split as i = k j with probability
    proportional to k b_k nu_j x^{(k-1)j}, nu_j = mu_j x^j; m drops by i
    until it is 0. The split needs every nu_j >= 0 (geometric and
    exponential series and their powers: every catalog ensemble), else
    ParamError points to mode 'pdc'. The plan, built once per n, takes
    O(n) memory and O(n log^2 n) operations for the masses
    (_mass_recurrence); n past MAX_PRODUCT_SIZES is refused with
    ConvergenceError before anything is allocated. A step costs O(m) for i,
    in scalar code up to m = _SCALAR_WINDOW, and O(sqrt i) for the split.
    """
    return _fixed_plan(e, n, "exact").draw(rng)


def sample_small_many(e: Ensemble, n: int, n_samples: int, seed: int,
                      mode: str = "rejection",
                      budget: int | None = None) -> list[Partition]:
    """n_samples fixed-size draws of weight n, replica i on stream i of seed.

    mode "rejection", "pdc" or "exact". Every replica draws from the one
    plan of (n, mode) the ensemble caches, and replica i equals the single
    draw of that mode on stream i. budget bounds the attempts of each
    rejection or pdc replica; exact draws take no attempts.
    """
    if mode not in ("rejection", "pdc", "exact"):
        raise ParamError(f"unknown sampling mode {mode!r}")
    if n_samples < 0:
        raise ParamError("n_samples must be >= 0")
    if not n_samples:
        return []
    plan = _fixed_plan(e, n, mode)
    return [plan.draw(RngStream(seed, i), budget) for i in range(n_samples)]

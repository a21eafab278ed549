"""Weight sequences, ensembles, and their first two weight moments.

A weight sequence b_k >= 0 is one small WeightSequence subclass per rule,
each with its closed forms, built by constant_weights, indicator_weights (on
a PartSet), power_law_weights, monomial_weights or explicit_weights.

An ensemble couples a single-part series f with a weight sequence; the
induced measure on partitions is proportional to the product of
per-size factors, and at inverse-temperature-like tilt x in (0, rho) the
size-k count R_k has probability generating function f(x^k e^s)^{b_k} /
f(x^k)^{b_k}, independently over k. The total weight N = sum k R_k then has

    E_x N   = sum_k k   b_k (x^k h(x^k))
    Var_x N = sum_k k^2 b_k (x^k h(x^k) + x^{2k} h'(x^k)),   h = f'/f.

The sums walk the part sizes in blocks of 4096; mean_var takes both in one
pass, once per Newton step of a tilt solve. A block's k-only arrays are built
per call, or once per solve in a store that the solve drops on return.

Every term is >= 0: b_k >= 0, and x^k h(x^k) = E_x R_k >= 0 because f has
nonnegative coefficients. So a partial mean only grows toward the full one,
and mean_N(x, stop_above=n) may stop walking once its running total passes
n; a tilt bracket, which only asks whether the mean is below or above n,
reads the same answer from far fewer blocks.

Regularity of the cumulative weights B_k = sum_{j<=k} b_j (growth like
theta * k^beta) is what the asymptotic layer relies on; the two condition
checks at the bottom of this module probe it: a resonance/density check used
by the local-limit machinery, and a power-law-remainder fit.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, FitUnstable, ParamError, RegimeError
from .series import (ExponentialSeries, Number, SeriesFunction, _as_exact,
                     _maybe_int)

_BLOCK = 4096
_STOP_REL = 1e-14
_MEAN = (1, False)  # (power of k, variance correction)
_VAR = (2, True)
_TAIL = ((0, False), (0, True), (1, True))  # E R_k, Var R_k, k Var R_k
_MEMO_CAP = 64
# a predicate part set's density is its share of the sizes up to this
_DENSITY_SIZES = 1 << 14
# condition 10 checks these strides on the sizes up to _LATTICE_SIZES
_LATTICE_STRIDES = range(2, 11)
_LATTICE_SIZES = 10_000
# condition 11 fits B_k on a dyadic grid up to this size
_GROWTH_SIZES = 1 << 16


# ---------------------------------------------------------------------------
# part-size index sets


class PartSet:
    """A set of part sizes, used by indicator weight rules.

    Built from "evens"/"odds", a modulus with residues, an explicit finite
    collection (end is its largest member), or a predicate callable. Has a
    vectorized mask (scalar membership reads it too) and a density estimate.
    """

    def __init__(self, label: str, mask: Callable[[np.ndarray], np.ndarray],
                 density: float | None, end: int | None = None):
        self.label = label
        self.mask = mask
        self.density = density
        self.end = end

    @classmethod
    def from_spec(cls, spec) -> "PartSet":
        if isinstance(spec, PartSet):
            return spec
        if isinstance(spec, str):
            name = spec.lower()
            if name == "evens":
                return cls.modular(2, (0,), label="evens")
            if name == "odds":
                return cls.modular(2, (1,), label="odds")
            raise ParamError(f"unknown part set name {spec!r}")
        if isinstance(spec, dict):
            if "modulus" not in spec or "residues" not in spec:
                raise ParamError("part set dict needs 'modulus' and 'residues'")
            return cls.modular(int(spec["modulus"]),
                               tuple(int(r) for r in spec["residues"]))
        if callable(spec):
            return cls.predicate(spec)
        return cls.explicit(spec)

    @classmethod
    def modular(cls, modulus: int, residues: Sequence[int],
                label: str | None = None) -> "PartSet":
        if modulus < 1 or not residues:
            raise ParamError("modular part set needs modulus >= 1 and residues")
        rs = sorted({r % modulus for r in residues})
        lbl = label or f"mod {modulus} residues {rs}"
        table = np.zeros(modulus, dtype=bool)
        table[rs] = True
        return cls(lbl, lambda ks: table[ks % modulus], len(rs) / modulus)

    @classmethod
    def explicit(cls, members: Iterable[int]) -> "PartSet":
        mset = frozenset(int(k) for k in members)
        if not mset or min(mset) < 1:
            raise ParamError("explicit part set needs members >= 1")
        marr = np.array(sorted(mset))
        return cls(f"set of {len(mset)}", lambda ks: np.isin(ks, marr), 0.0,
                   end=int(marr[-1]))

    @classmethod
    def predicate(cls, fn: Callable[[int], bool]) -> "PartSet":
        def mask(ks: np.ndarray) -> np.ndarray:
            return np.fromiter((bool(fn(int(k))) for k in ks), bool, len(ks))
        return cls("predicate", mask, None)

    def estimated_density(self) -> float:
        if self.density is not None:
            return self.density
        ks = np.arange(1, _DENSITY_SIZES + 1)
        return float(self.mask(ks).mean())

    def __contains__(self, k: int) -> bool:
        return bool(self.mask(np.array([int(k)]))[0])

    def __repr__(self):
        return f"PartSet({self.label})"


# ---------------------------------------------------------------------------
# weight sequences


class WeightSequence:
    """b_k >= 0 per part size; one subclass per rule, built by its factory:

      constant_weights()              b_k = 1
      indicator_weights(S)            b_k = 1 when k in S else 0
      power_law_weights(theta, beta)  b_k = theta*(k^beta - (k-1)^beta);
                                      B_k = theta*k^beta
      monomial_weights(c, p)          b_k = c * k^p
      explicit_weights(values)        finite list, zero beyond the end

    A rule supplies its unscaled values (_values(ks)) and exact values
    (_exact_values(n)), its closed-form prefix_sums where it has one, its
    block bounds (_block(lo, hi, scale)) and the growth B_k ~ theta * k^beta
    it implies (implied_beta, _theta(scale)). This base holds the rest: a
    scale factor that multiplies every b_k (the f**b_1 normalization trade
    uses it), and beta/theta declared through the factories' declared_beta/
    declared_theta keywords, which override the rule's (explicit lists imply
    none). theta, declared or implied, is scaled with the b_k.
    """

    rule = ""
    support_end: int | None = None  # largest k with b_k possibly nonzero
    bounded_below = False  # True when inf_k b_k > 0 can be read off the rule
    implied_beta: float | None = None  # growth exponent of B_k by the rule
    _args = ""  # the rule's parameters, as repr shows them

    def __init__(self, declared_beta: float | None = None,
                 declared_theta: float | None = None):
        self.scale: Number = 1
        self.declared_beta = declared_beta
        self.declared_theta = declared_theta

    def __repr__(self):
        s = "" if self.scale == 1 else f", scale={self.scale}"
        return f"WeightSequence({self.rule}{self._args}{s})"

    def scaled(self, factor: Number) -> "WeightSequence":
        w = copy.copy(self)
        w.scale = self.scale * factor
        return w

    # -- values ------------------------------------------------------------

    def values(self, ks: np.ndarray) -> np.ndarray:
        out = self._values(np.asarray(ks, dtype=np.int64))
        s = float(self.scale)
        return out * s if s != 1.0 else out

    def value(self, k: int) -> float:
        return float(self.values(np.array([k]))[0])

    def exact_values(self, n: int) -> list[int | Fraction] | None:
        """b_1..b_n as ints where whole and Fractions otherwise, None when
        the b_k are not exact rationals."""
        se = _as_exact(self.scale)
        bs = None if se is None else self._exact_values(n)
        # as_integer_ratio: no Fraction compare per table build
        if bs is None or se.as_integer_ratio() == (1, 1):
            return bs
        return [_maybe_int(b * se) for b in bs]

    @property
    def is_rational(self) -> bool:
        """True when every b_k is an exact rational: the scale and the rule's
        parameters, or every listed value, decide it, so b_1 is enough."""
        return self.exact_values(1) is not None

    @property
    def b_1(self) -> float:
        return self.value(1)

    def prefix_sums(self, ks: np.ndarray) -> np.ndarray:
        """B_k at each k of ks: a cumsum of b_1..b_max(ks), unless the rule
        has a closed form."""
        ks = np.asarray(ks, dtype=np.int64)
        b = self.values(np.arange(1, int(ks.max()) + 1))
        return np.concatenate(([0.0], np.cumsum(b)))[ks]

    def block_sum_upper(self, lo: int, hi: int) -> float:
        """Upper bound for sum_{lo < k <= hi} b_k, safe for huge indices.

        Tail-certification loops need block totals at geometrically
        growing indices; no rule allocates an index-length array.
        """
        return self._block(lo, hi, float(self.scale))[0] if hi > lo else 0.0

    def block_max_upper(self, lo: int, hi: int) -> float:
        """Upper bound for max_{lo < k <= hi} b_k, safe for huge indices.

        Pairing a block maximum with the closed geometric sum of x^k over
        the block gives a far tighter tail certificate than count times
        head when x is close to 1.
        """
        return self._block(lo, hi, float(self.scale))[1] if hi > lo else 0.0

    # -- growth description ------------------------------------------------

    @property
    def beta(self) -> float | None:
        """Growth exponent of B_k, declared or implied by the rule."""
        if self.declared_beta is not None:
            return self.declared_beta
        return self.implied_beta

    @property
    def theta(self) -> float | None:
        """Constant in B_k ~ theta * k^beta, declared or implied."""
        s = float(self.scale)
        if self.declared_theta is not None:
            return s * self.declared_theta
        return self._theta(s)

    def _theta(self, s: float) -> float | None:
        return None


class _Constant(WeightSequence):
    rule = "constant"
    bounded_below = True
    implied_beta = 1.0

    def _values(self, ks):
        return np.ones(len(ks))

    def _exact_values(self, n):
        return [1] * n

    def prefix_sums(self, ks):
        return float(self.scale) * np.asarray(ks, dtype=np.int64).astype(float)

    def _block(self, lo, hi, s):
        return s * (hi - lo), s

    def _theta(self, s):
        return s


class _Indicator(WeightSequence):
    rule = "indicator"

    def __init__(self, part_set, **declared):
        super().__init__(**declared)
        self.part_set = PartSet.from_spec(part_set)
        self.support_end = self.part_set.end
        self.implied_beta = None if self.support_end is not None else 1.0
        self._args = f"({self.part_set!r})"

    def _values(self, ks):
        return self.part_set.mask(ks).astype(float)

    def _exact_values(self, n):
        return self.part_set.mask(np.arange(1, n + 1)).astype(np.int64).tolist()

    _block = _Constant._block  # b_k <= 1, as for the constant rule

    def _theta(self, s):
        if self.support_end is not None:
            return None
        return s * self.part_set.estimated_density()


class _PowerLaw(WeightSequence):
    rule = "power_law"

    def __init__(self, theta: Number, beta: Number, **declared):
        if not (theta > 0 and beta > 0):
            raise ParamError("power_law needs theta > 0 and beta > 0")
        super().__init__(**declared)
        self.theta_param, self.beta_param = theta, beta
        self.implied_beta = float(beta)
        self.bounded_below = self.implied_beta >= 1.0
        self._args = f"(theta={theta}, beta={beta})"

    def _values(self, ks):
        th, be = float(self.theta_param), float(self.beta_param)
        kf = ks.astype(float)
        return th * (kf ** be - (kf - 1.0) ** be)

    def _exact_values(self, n):
        th, be = _as_exact(self.theta_param), _as_exact(self.beta_param)
        if th is None or be is None or be.denominator != 1:
            return None
        th = _maybe_int(th)
        B = [k ** be.numerator for k in range(n + 1)]
        return [_maybe_int(th * (B[k] - B[k - 1])) for k in range(1, n + 1)]

    def prefix_sums(self, ks):
        ks = np.asarray(ks, dtype=np.int64)
        return (float(self.scale) * float(self.theta_param)
                * ks.astype(float) ** float(self.beta_param))

    def _block(self, lo, hi, s):
        th, be = float(self.theta_param), float(self.beta_param)
        # increments theta*(k^beta - (k-1)^beta) = theta*beta*xi^(beta-1)
        # for some xi in (k-1, k), monotone in the block; for beta < 1,
        # b_1 = theta dominates every later one
        if be >= 1.0:
            top = s * th * be * float(hi) ** (be - 1.0)
        else:
            top = s * th if lo < 1 else s * th * be * float(lo) ** (be - 1.0)
        return s * th * (float(hi) ** be - float(lo) ** be), top

    def _theta(self, s):
        return s * float(self.theta_param)


class _Monomial(WeightSequence):
    rule = "monomial"

    def __init__(self, coeff: Number, power: Number, **declared):
        if not (coeff > 0):
            raise ParamError("monomial needs a positive coefficient")
        super().__init__(**declared)
        self.coeff, self.power = coeff, power
        p = float(power)
        self.implied_beta = p + 1.0 if p > -1.0 else None
        self.bounded_below = p >= 0.0
        self._args = f"({coeff}*k^{power})"

    def _values(self, ks):
        c, p = float(self.coeff), float(self.power)
        if p < 0.0 and p.is_integer():  # c / k^-p rounds once, c k^p twice
            return c / ks.astype(float) ** -p
        return c * ks.astype(float) ** p

    def _exact_values(self, n):
        c, p = _as_exact(self.coeff), _as_exact(self.power)
        if c is None or p is None or p.denominator != 1:
            return None
        p = p.numerator
        if p < 0:
            return [_maybe_int(c / k ** -p) for k in range(1, n + 1)]
        c = _maybe_int(c)
        return [_maybe_int(c * k ** p) for k in range(1, n + 1)]

    def _block(self, lo, hi, s):
        c, p = float(self.coeff), float(self.power)
        edge = float(hi) if p >= 0 else float(max(lo, 1))
        return s * c * (hi - lo) * edge ** p, s * c * edge ** p

    def _theta(self, s):
        p = float(self.power)
        return s * float(self.coeff) / (p + 1.0) if p > -1.0 else None


class _Explicit(WeightSequence):
    rule = "explicit"

    def __init__(self, values: Sequence[Number], **declared):
        values = list(values)
        if not values:
            raise ParamError("explicit rule needs a nonempty value list")
        if any(v < 0 for v in values):
            raise ParamError("weights must be nonnegative")
        super().__init__(**declared)
        self.support_end = len(values)
        self._floats = np.array([float(v) for v in values])
        exact = [_as_exact(v) for v in values]
        self._exact = (None if any(v is None for v in exact)
                       else [_maybe_int(v) for v in exact])
        self._args = f"({len(values)} values)"

    def _values(self, ks):
        out = np.zeros(len(ks))
        inside = ks <= self.support_end
        out[inside] = self._floats[ks[inside] - 1]
        return out

    def _exact_values(self, n):
        if self._exact is None:
            return None
        return (self._exact + [0] * (n - self.support_end))[:n]

    def _block(self, lo, hi, s):
        # summed over the block: a difference of prefix sums can cancel
        # below the block's own total, which also bounds the maximum
        end = self.support_end
        ks = np.arange(min(lo, end) + 1, min(hi, end) + 1)
        total = math.fsum(self.values(ks).tolist())
        return total, total


# the factories, one per rule, and the only constructors
constant_weights = _Constant
indicator_weights = _Indicator
power_law_weights = _PowerLaw
monomial_weights = _Monomial
explicit_weights = _Explicit


# ---------------------------------------------------------------------------
# regimes


class Regime(Enum):
    """Grand-canonical phase of an ensemble.

    ERGODIC_SUPERCRITICAL: rho_1 > 1 — f finite past the unit disc; the
    tilt can approach 1 and a limit shape exists.
    ERGODIC_POLE_AT_ONE: rho_1 = 1 with a pole there; shape integrals pick
    up the singular factor but stay convergent.
    NONERGODIC_GRAND_CANONICAL: rho_1 < 1 with a pole — the scaled diagram
    does not concentrate under the tilted measure (a single macroscopic
    part condenses); fixed-weight conditioning is still well defined.
    ESSENTIAL_SUBCRITICAL: rho_1 < 1, essential singularity; concentration
    may or may not hold, the asymptotic layer declines to certify it.
    OUT_OF_SCOPE: the cumulative-weight growth hypotheses fail (bounded
    support, exponent <= 0, no weight on part size 1, or an unclassifiable
    singularity).

    classify_regime decides the tag; Ensemble.require refuses a quantity
    outside its regimes and names the hypothesis that decided.
    """

    ERGODIC_SUPERCRITICAL = "ErgodicSupercritical"
    ERGODIC_POLE_AT_ONE = "ErgodicPoleAtOne"
    NONERGODIC_GRAND_CANONICAL = "NonergodicGrandCanonical"
    ESSENTIAL_SUBCRITICAL = "EssentialSubcritical"
    OUT_OF_SCOPE = "OutOfScope"

    def __str__(self):
        return self.value

    @property
    def ergodic(self) -> bool:
        return self in _ERGODIC


_ERGODIC = (Regime.ERGODIC_SUPERCRITICAL, Regime.ERGODIC_POLE_AT_ONE)


class Ensemble:
    """A single-part series plus a weight sequence.

    All numeric operations work on the representation as given; b_1 = 1
    normalization (replace f by f**b_1 and divide the weights by b_1, which
    leaves the measure unchanged) is available through normalized() and is
    applied by the catalog where a family is conventionally presented
    unnormalized.

    The ensemble remembers what it has computed once: its regime, Omega and
    sigma^2, tilts, grand tables and count laws, all through cached(). At
    most _MEMO_CAP entries are kept; past that the oldest is dropped, and
    since every build is deterministic a dropped entry rebuilds to the same
    value.
    """

    def __init__(self, series: SeriesFunction, weights: WeightSequence,
                 label: str = ""):
        self.series = series
        self.weights = weights
        self.label = label or f"{series.kind}+{weights.rule}"
        self._memo: dict = {}

    def __repr__(self):
        return f"Ensemble({self.label})"

    def cached(self, key, build: Callable):
        """The value stored under key, else build() stored there (nothing is
        stored when build raises); past _MEMO_CAP entries the oldest goes."""
        if key in self._memo:
            return self._memo[key]
        val = self._memo[key] = build()
        if len(self._memo) > _MEMO_CAP:
            del self._memo[next(iter(self._memo))]
        return val

    # -- structural properties --------------------------------------------

    @property
    def rho(self) -> float:
        """Right end of the tilt domain: min(1, rho_1)."""
        return min(1.0, self.series.radius)

    @property
    def beta(self) -> float | None:
        return self.weights.beta

    @property
    def theta(self) -> float | None:
        return self.weights.theta

    @property
    def regime(self) -> Regime:
        return self.cached("regime", lambda: _classify(self))[0]

    def require(self, what: str, *allowed: Regime) -> None:
        """Raise RegimeError unless the regime is one of allowed (by default
        the two ergodic ones); the message names the deciding hypothesis."""
        allowed = allowed or _ERGODIC
        regime, why = self.cached("regime", lambda: _classify(self))
        if regime not in allowed:
            raise RegimeError(
                f"{what} needs {' or '.join(map(str, allowed))}; "
                f"{self.label} is {regime}: {why}")

    def check_tilt(self, x: float) -> None:
        """Raise DomainError unless x lies in the tilt domain [0, rho)."""
        if not (0.0 <= x < self.rho):
            raise DomainError(
                f"tilt x={x} outside [0, {self.rho}) for {self.label}")

    @property
    def is_rational(self) -> bool:
        """True when coefficients and weights admit exact arithmetic."""
        return self.series.is_rational and self.weights.is_rational

    def normalized(self) -> "Ensemble":
        """Equivalent ensemble with b_1 = 1 (the f**b_1 trade)."""
        b1 = self.weights.b_1
        if b1 == 1.0:
            return self
        if b1 <= 0:
            raise RegimeError(
                "b_1 = 0: no normalization trade exists (part size 1 carries "
                "no weight)")
        exact = self.weights.exact_values(1)
        factor = b1 if exact is None else Fraction(exact[0])
        return Ensemble(self.series ** factor, self.weights.scaled(1 / factor),
                        label=self.label + " (normalized)")

    # -- moments -----------------------------------------------------------

    def _moment_sums(self, x: float, wants: tuple, cuts: Sequence[int] = (0,),
                     blocks: dict | None = None,
                     stop_above: float = math.inf) -> list[list[float]]:
        """sum_{k>c} k^p b_k x^k h(x^k) (+ variance correction) for each
        (p, variance) wanted and each cut c of the increasing cuts, in one
        walk over the size blocks from cuts[0] + 1. Each sum stops by its own
        test on its smallest suffix begun so far, and a cut the walk never
        reaches reads 0; blocks keeps the k-only arrays for one tilt solve.
        The walk returns early once the first sum exceeds stop_above: every
        term is >= 0 and adding a float >= 0 never lowers a float sum, so the
        full first total would exceed stop_above too.
        """
        self.check_tilt(x)
        segs = [[0.0] * len(cuts) for _ in wants]  # per segment between cuts
        if x == 0.0:
            return segs
        live = list(range(len(wants)))
        log_x = math.log(x)
        # exponential f has h = rate and h' = 0: no per-point evaluation, and
        # no h' term in the variance (x + 0.0 == x, so the bits stay)
        rate = (float(self.series.rate)
                if isinstance(self.series, ExponentialSeries) else None)
        end_support = self.weights.support_end
        start, nxt = cuts[0] + 1, 1  # segment nxt - 1 holds size start
        while live:
            blk = None if blocks is None else blocks.get(start)
            if blk is None:
                ks = np.arange(start, start + _BLOCK, dtype=np.int64)
                kf, bk = ks.astype(float), self.weights.values(ks)
                # the stop test reads the last size that carries weight: with
                # odd parts only, every block ends on a size with b_k = 0
                nz = np.flatnonzero(bk) if bk[-1] == 0.0 else ()
                blk = (kf, (bk, kf * bk, kf * kf * bk),
                       nz[-1] if len(nz) else _BLOCK - 1)
                if blocks is not None:
                    blocks[start] = blk
            kf, kpb, last = blk
            # offsets in the block where one segment ends and the next begins
            ends = [c + 1 - start for c in cuts[nxt:] if c < start + _BLOCK - 1]
            nxt += len(ends)  # segment nxt - 1 now holds the block's last size
            xk = np.exp(kf * log_x)
            h, hp = ((rate, None) if rate is not None
                     else self.series.h_vector(xk))
            for j in tuple(live):
                power, variance = wants[j]
                if variance:
                    terms = kpb[power] * (xk * h if hp is None
                                          else xk * h + xk * xk * hp)
                else:
                    terms = kpb[power] * xk * h
                if ends:
                    lo = nxt - 1 - len(ends)
                    for i, (a, b) in enumerate(zip([0] + ends, ends + [_BLOCK])):
                        segs[j][lo + i] += float(terms[a:b].sum())
                else:
                    segs[j][nxt - 1] += float(terms.sum())
                if (xk[last] < 0.5 and float(terms[last])
                        < _STOP_REL * max(segs[j][nxt - 1], 1e-300)):
                    live.remove(j)
            if segs[0][0] > stop_above:
                break
            start += _BLOCK
            if end_support is not None and start > end_support:
                break
            if live and start > 10 ** 9:
                raise DomainError("moment sum failed to terminate")
        if len(cuts) > 1:  # suffix sums
            segs = [list(accumulate(s[::-1]))[::-1] for s in segs]
        return segs

    def mean_N(self, x: float, blocks: dict | None = None, *,
               stop_above: float = math.inf) -> float:
        """Expected total weight at tilt x.

        With stop_above, the walk may return a partial sum once that sum
        exceeds stop_above. The terms k b_k E R_k are all >= 0, so the result
        then still exceeds stop_above, and it is the full mean whenever the
        full mean is <= stop_above: comparisons of the result with
        stop_above read as they would on the full mean.
        """
        return self._moment_sums(x, (_MEAN,), blocks=blocks,
                                 stop_above=stop_above)[0][0]

    def var_N(self, x: float) -> float:
        """Variance of the total weight at tilt x."""
        return self._moment_sums(x, (_VAR,))[0][0]

    def mean_var(self, x: float, blocks: dict | None = None) -> tuple:
        """(mean_N(x), var_N(x)) from one walk over the size blocks."""
        (mean,), (var,) = self._moment_sums(x, (_MEAN, _VAR), blocks=blocks)
        return mean, var

    def tail_moments(self, x: float, cuts: Sequence[int]) -> list[tuple]:
        """(sum E_x R_k, sum Var_x R_k, sum k Var_x R_k) over k > c for each
        cut c >= 0 in the order given (parts above c: their expected number,
        its variance and its covariance with N), from one walk."""
        levels = sorted({int(c) for c in cuts})
        if not levels or levels[0] < 0:
            raise ParamError("tail_moments needs one cut or more, all >= 0")
        sums = dict(zip(levels, zip(*self._moment_sums(x, _TAIL, levels))))
        return [sums[int(c)] for c in cuts]

    def mean_counts_tail(self, x: float, k_min: int) -> float:
        """sum_{k>=k_min} E_x R_k; benchmarks/tracing.py times it by name."""
        return self.tail_moments(x, (max(1, k_min) - 1,))[0][0]


def classify_regime(e: Ensemble) -> Regime:
    """Place an ensemble in the grand-canonical phase diagram."""
    return _classify(e)[0]


def _classify(e: Ensemble) -> tuple[Regime, str]:
    """(regime, the hypothesis that decided it). Unbounded B_k with b_1 > 0
    and exponent beta > 0.05 is required, else the asymptotic layer's
    hypotheses all fail and the tag is OUT_OF_SCOPE; then rho_1 and the
    singularity of f decide."""
    w = e.weights
    if w.support_end is not None:
        return Regime.OUT_OF_SCOPE, "finite support: B_k is bounded"
    if w.b_1 <= 0:  # the b_1 = 1 renormalization does not exist
        return Regime.OUT_OF_SCOPE, "b_1 = 0: part size 1 carries no weight"
    beta = w.beta
    if beta is None or beta <= 0.05:
        return Regime.OUT_OF_SCOPE, (
            f"beta = {beta}: B_k must grow like theta k^beta, beta > 0.05")
    rho1, kind = e.series.radius, e.series.singularity.kind
    if rho1 > 1.0:
        return Regime.ERGODIC_SUPERCRITICAL, f"rho_1 = {rho1} > 1"
    if rho1 == 1.0:
        return ((Regime.ERGODIC_POLE_AT_ONE, "rho_1 = 1 with a pole")
                if kind == "pole"
                else (Regime.OUT_OF_SCOPE, "rho_1 = 1 without a pole"))
    at = f"rho_1 = {rho1} < 1 with"
    if kind == "pole":
        return Regime.NONERGODIC_GRAND_CANONICAL, f"{at} a pole"
    if kind == "essential":
        return Regime.ESSENTIAL_SUBCRITICAL, f"{at} an essential singularity"
    return Regime.OUT_OF_SCOPE, f"{at} neither a pole nor an essential one"


# ---------------------------------------------------------------------------
# regularity conditions


@dataclass
class Condition10Report:
    """Resonant-mass check.

    For each stride s, K_s is the set of sizes within 1/2 of a multiple of
    s; the statistic is the worst over k <= k_max of the fraction of B_k
    carried by K_s. Small uniformly over s is what the local-limit argument
    needs; a value of 1.0 at some s means the weights live entirely on a
    lattice and the check fails for every chi < 1.
    """

    k_max: int
    per_s: dict
    worst_ratio: float
    worst_s: float

    def satisfied(self, chi: float) -> bool:
        if not (0 < chi < 1):
            raise ParamError("chi must lie in (0, 1)")
        return self.worst_ratio <= chi


def resonant_mask(s: float, ks: np.ndarray) -> np.ndarray:
    """True where some multiple of s lies within 1/2 of k."""
    j = np.maximum(np.rint(ks / s), 1.0)
    return np.abs(ks - s * j) < 0.5


def check_condition_10(w: WeightSequence) -> Condition10Report:
    ks = np.arange(1, _LATTICE_SIZES + 1, dtype=np.int64)
    b = w.values(ks)
    B = np.cumsum(b)
    ok = B > 0
    per_s: dict = {}
    worst, worst_s = 0.0, None
    for s in _LATTICE_STRIDES:
        mask = resonant_mask(float(s), ks)
        resonant = np.cumsum(np.where(mask, b, 0.0))
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(ok, resonant / np.maximum(B, 1e-300), 0.0)
        i = int(np.argmax(ratio))
        per_s[float(s)] = {"worst_ratio": float(ratio[i]), "at_k": int(ks[i])}
        if ratio[i] > worst:
            worst, worst_s = float(ratio[i]), float(s)
    return Condition10Report(k_max=_LATTICE_SIZES, per_s=per_s,
                             worst_ratio=worst, worst_s=worst_s)


@dataclass
class Condition11Report:
    """Power-law remainder fit for B_k = theta * k^beta + O(k^(beta-zeta))."""

    theta_fit: float
    beta_fit: float
    remainder_exponent: float | None
    exact_compliance: bool
    out_of_scope: bool
    points: int


def check_condition_11(w: WeightSequence) -> Condition11Report:
    """Fit B_k growth and its remainder on a dyadic grid up to 2^16.

    theta and beta are the declared or rule-implied values; when absent they
    are fitted from the top decades. An identically-zero remainder reports
    exact compliance. Raises FitUnstable when there is not enough usable
    signal to fit anything.
    """
    ks = np.unique(np.geomspace(8, _GROWTH_SIZES, 40).astype(np.int64))
    if w.support_end is not None:
        ks = ks[ks <= w.support_end]
    if len(ks) < 4:
        raise FitUnstable("too few usable k values to fit B_k growth")
    B = w.prefix_sums(ks)
    good = B > 0
    if good.sum() < 4:
        raise FitUnstable("B_k vanishes on the fit grid")
    lk, lB = np.log(ks[good]), np.log(B[good])
    top = lk >= lk.max() - math.log(16)
    slope, inter = np.polyfit(lk[top], lB[top], 1)
    beta_fit = w.beta or float(slope)
    theta_fit = w.theta or float(math.exp(inter))
    out = beta_fit <= 0.05 or float(slope) <= 0.05

    r = B - theta_fit * ks.astype(float) ** beta_fit
    nz = np.abs(r) > 1e-9 * np.maximum(B, 1.0)
    if not nz.any():
        return Condition11Report(theta_fit=float(theta_fit),
                                 beta_fit=float(beta_fit),
                                 remainder_exponent=None,
                                 exact_compliance=True,
                                 out_of_scope=bool(out), points=len(ks))
    if nz.sum() < 3:
        raise FitUnstable("remainder is nonzero at fewer than 3 grid points")
    rexp, _ = np.polyfit(np.log(ks[nz]), np.log(np.abs(r[nz])), 1)
    return Condition11Report(theta_fit=float(theta_fit), beta_fit=float(beta_fit),
                             remainder_exponent=float(rexp),
                             exact_compliance=False,
                             out_of_scope=bool(out), points=len(ks))

"""Random draws: streams, count laws, grand-canonical and fixed-size samplers."""

import json
import math
import random
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import special, stats

from multpart import (
    BudgetExhausted,
    CustomSeries,
    DomainError,
    EmptySupportError,
    GeometricSeries,
    Ensemble,
    ParamError,
    Partition,
    RngStream,
    constant_weights,
    default_budget,
    explicit_weights,
    make,
    point_mass,
    sample_count,
    sample_grand,
    sample_small_exact,
    sample_small_many,
    sample_small_pdc,
    sample_small_rejection,
    solve_tilt,
)

from multpart import partition_function, sampler
from multpart.sampler import _SCALAR_WINDOW, _RecursivePlan
from oracles import (dense_geometric_row, dense_pdc_draw, dense_rejection_draw,
                     exp_factor, geometric_factor, partitions_into,
                     prefix_walk_draw, recursive_vector_draw)


# ---------------------------------------------------------------------------
# streams


def test_stream_reproducibility():
    a = RngStream(7, 3).generator().random(8)
    b = RngStream(7, 3).generator().random(8)
    assert np.array_equal(a, b)


def test_streams_are_distinct():
    a = RngStream(7, 0).generator().random(8)
    b = RngStream(7, 1).generator().random(8)
    c = RngStream(8, 0).generator().random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _numpy_state(seed: int, stream: int) -> dict:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.PCG64(ss).state


def test_stream_state_matches_seed_sequence():
    # generator() hashes the seed and stream itself; every word boundary
    # of both, and random pairs of every width, against numpy's hashing
    edges = [(s, t) for s in (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1)
             for t in (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3)]
    rnd = random.Random(20)
    pairs = edges + [(rnd.getrandbits(rnd.randint(1, 64)),
                      rnd.getrandbits(rnd.randint(1, 80)))
                     for _ in range(2000)]
    for seed, stream in pairs:
        got = RngStream(seed, stream).generator().bit_generator.state
        assert got == _numpy_state(seed, stream), (seed, stream)


def test_stream_validation():
    with pytest.raises(ParamError):
        RngStream(-1, 0)
    with pytest.raises(ParamError):
        RngStream(3, -2)
    with pytest.raises(ParamError):
        RngStream(1 << 64, 0)
    # non-integral seeds and streams are refused, numpy integers pass
    for seed, stream in ((1.5, 0), ("7", 0), (1, 2.0), (1, "3"), (None, 0)):
        with pytest.raises(ParamError):
            RngStream(seed, stream)
    rng = RngStream(np.uint64(2 ** 64 - 1), np.int64(5))
    assert type(rng.seed) is int and type(rng.stream) is int
    assert rng == RngStream(2 ** 64 - 1, 5)
    assert Partition({}, 0).to_record(rng)["seed"] == 2 ** 64 - 1


def test_stream_states_across_block_boundaries():
    # generator() hashes 2^12 streams at a time: the streams either side
    # of a block edge and of the 32-bit word edge, and a bounded memo
    from multpart.sampler import _state_block

    for seed in (0, 2 ** 63, 2 ** 64 - 1):
        for stream in (4095, 4096, 4097, 2 ** 32 - 4096, 2 ** 32 - 1,
                       2 ** 32, 2 ** 32 + 4097):
            got = RngStream(seed, stream).generator().bit_generator.state
            assert got == _numpy_state(seed, stream), (seed, stream)
    for b in range(40):
        RngStream(3, b << 12).generator()
        info = _state_block.cache_info()
        assert info.currsize <= info.maxsize


# ---------------------------------------------------------------------------
# partitions


def test_partition_make():
    p = Partition.make({3: 2, 1: 4, 5: 0})
    assert p.counts == {1: 4, 3: 2}
    assert p.weight == 10
    assert p.num_parts == 6


@pytest.mark.parametrize("counts", [{0: 1}, {-2: 1}, {1: -1}, {1.5: 1}])
def test_partition_make_rejects(counts):
    with pytest.raises(ParamError):
        Partition.make(counts)


def test_partition_equality_and_hash():
    a = Partition.make({2: 1, 1: 3})
    b = Partition.make({1: 3, 2: 1})
    assert a == b and hash(a) == hash(b)
    assert a != Partition.make({5: 1})


def test_record_roundtrip():
    p = Partition.make({4: 1, 2: 2, 9: 1})
    rec = p.to_record(RngStream(11, 5))
    line = json.dumps(rec, separators=(",", ":"))
    back = json.loads(line)
    assert back["n"] == 17
    assert back["seed"] == 11 and back["stream"] == 5
    ks = [k for k, _ in back["counts"]]
    assert ks == sorted(ks)
    assert Partition.make({k: r for k, r in back["counts"]}) == p
    assert "seed" not in p.to_record()


# ---------------------------------------------------------------------------
# count laws


def _draw_counts(e, k, x, seed, m):
    return np.array([sample_count(e, k, x, RngStream(seed, i))
                     for i in range(m)])


def test_count_law_geometric():
    # uniform, k=1, x=0.5: P(R=j) = 0.5 * 0.5^j
    draws = _draw_counts(make("uniform"), 1, 0.5, 101, 6000)
    cap = 8
    obs = np.bincount(np.minimum(draws, cap), minlength=cap + 1)
    probs = np.array([0.5 ** (j + 1) for j in range(cap)] + [0.5 ** cap])
    p = stats.chisquare(obs, 6000 * probs).pvalue
    assert p > 0.01


def test_count_law_poisson():
    # exponential series, b_1 = 1, x = 0.7: Poisson(0.7)
    draws = _draw_counts(make("ordered_lists"), 1, 0.7, 102, 6000)
    cap = 6
    obs = np.bincount(np.minimum(draws, cap), minlength=cap + 1)
    pmf = stats.poisson(0.7).pmf(np.arange(cap))
    probs = np.append(pmf, 1.0 - pmf.sum())
    p = stats.chisquare(obs, 6000 * probs).pvalue
    assert p > 0.01


def test_count_law_negative_binomial():
    # doubled constant weights on a geometric series: shape-2 law
    e = Ensemble(GeometricSeries(1), constant_weights().scaled(2.0))
    draws = _draw_counts(e, 1, 0.4, 103, 6000)
    cap = 9
    obs = np.bincount(np.minimum(draws, cap), minlength=cap + 1)
    pmf = np.array([(j + 1) * 0.36 * 0.4 ** j for j in range(cap)])
    probs = np.append(pmf, 1.0 - pmf.sum())
    p = stats.chisquare(obs, 6000 * probs).pvalue
    assert p > 0.01


def test_count_law_inverse_cdf_matches_closed_form():
    # force the general path with a custom copy of the geometric series
    from multpart import CustomSeries, Singularity

    custom = Ensemble(
        CustomSeries(lambda j: 1.0, radius=1.0,
                     singularity=Singularity("pole", 1)),
        constant_weights())
    closed = make("uniform")
    a = _draw_counts(custom, 2, 0.6, 104, 4000)
    b = _draw_counts(closed, 2, 0.6, 105, 4000)
    table = np.vstack([
        np.bincount(np.minimum(a, 6), minlength=7),
        np.bincount(np.minimum(b, 6), minlength=7),
    ])
    keep = table.sum(axis=0) > 0
    p = stats.chi2_contingency(table[:, keep]).pvalue
    assert p > 0.01


def test_count_law_masses():
    # logpmf and log_max of each law kind against scipy's closed forms;
    # the custom copy of the geometric series takes the tabulated route
    from multpart import Singularity
    from multpart.sampler import _count_law

    js = np.arange(60)
    geo = Ensemble(GeometricSeries(0.5), constant_weights())
    law = _count_law(geo, np.array([1.0, 2.5]), np.array([0.9, 0.9]))
    want = np.array([stats.nbinom(b, 0.55).logpmf(js) for b in (1.0, 2.5)]).T
    assert np.allclose(law.logpmf(js[:, None]), want, rtol=1e-12)
    assert np.allclose(law.log_max(), want.max(axis=0), rtol=1e-12)
    pois = _count_law(make("ordered_lists"), np.array([1.0, 3.0]),
                      np.array([0.9, 0.9]))
    want = np.array([stats.poisson(lam).logpmf(js) for lam in (0.9, 2.7)]).T
    assert np.allclose(pois.logpmf(js[:, None]), want, rtol=1e-12)
    assert np.allclose(pois.log_max(), want.max(axis=0), rtol=1e-12)
    custom = Ensemble(CustomSeries(lambda j: 1.0, radius=1.0,
                                   singularity=Singularity("pole", 1)),
                      constant_weights())
    tab = _count_law(custom, np.array([1.0]), np.array([0.6]))
    got = tab.logpmf(js[:, None])[:, 0]
    # the table stops once the missed mass 0.6^(j+1) is below 1e-12
    top = math.ceil(math.log(1e-12) / math.log(0.6)) - 1
    assert np.allclose(got[:top], stats.geom(0.4, loc=-1).logpmf(js[:top]),
                       rtol=1e-12)
    assert np.all(got[top + 1:] == -np.inf)
    assert tab.log_max()[0] == pytest.approx(math.log(0.4), rel=1e-12)
    assert tab.logpmf([-1])[0] == -np.inf


def test_count_trivial_cases():
    u = make("uniform")
    assert sample_count(u, 3, 0.0, RngStream(1)) == 0
    evens = make("restricted", parts="evens")
    assert sample_count(evens, 1, 0.5, RngStream(1)) == 0  # b_1 = 0
    with pytest.raises(ParamError):
        sample_count(u, 0, 0.5, RngStream(1))
    with pytest.raises(DomainError):
        sample_count(u, 1, 1.0, RngStream(1))
    with pytest.raises(DomainError):
        sample_count(u, 1, -0.1, RngStream(1))


# ---------------------------------------------------------------------------
# grand-canonical sampler


def test_grand_draw_deterministic():
    u = make("uniform")
    a = sample_grand(u, 0.8, RngStream(5, 2))
    b = sample_grand(u, 0.8, RngStream(5, 2))
    assert a == b
    assert a.weight == sum(k * r for k, r in a.counts.items())


def test_grand_at_zero_is_empty():
    p = sample_grand(make("uniform"), 0.0, RngStream(1))
    assert p.counts == {} and p.weight == 0


def test_grand_moments():
    u = make("uniform")
    m = 4000
    ws = np.array([sample_grand(u, 0.9, RngStream(106, i)).weight
                   for i in range(m)])
    mean, var = u.mean_N(0.9), u.var_N(0.9)
    z_mean = (ws.mean() - mean) / math.sqrt(var / m)
    s2 = ws.var(ddof=1)
    m4 = ((ws - ws.mean()) ** 4).mean()
    se_var = math.sqrt(max(m4 - s2 ** 2, 0.0) / m)
    z_var = (s2 - var) / se_var
    assert abs(z_mean) < 3
    assert abs(z_var) < 3


def test_grand_draws_zero_and_near_one_columns():
    # at x = 1e-200, x^k underflows to 0 from k = 2: those columns have
    # log q = -inf and draw 0, with no floating-point warning
    from multpart.sampler import _grand_table

    u = make("uniform")
    assert np.all(_grand_table(u, 1e-200).law.q[1:] == 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = sample_grand(u, 1e-200, RngStream(1))
    assert p == Partition({}, 0) and p.weight == 0
    # q = 1 - 1e-9: counts near 10^9, still finite ints
    for i in range(20):
        r = sample_count(u, 1, 1.0 - 1e-9, RngStream(128, i))
        assert isinstance(r, int) and r >= 0


@pytest.mark.parametrize("name,y,x", [
    ("uniform", 1, 0.5), ("uniform", 1, 0.9), ("uniform", 1, "x_40000"),
    ("weighted", 0.5, 0.99), ("weighted", 2, 0.4999),
    ("uniform", 1, 1e-200)])
def test_grand_row_matches_dense_inversion(name, y, x):
    # unit shapes invert only the uniforms past their gate; every size
    # inverted, as the oracle does, gives the same counts. At 1e-200 the
    # q = 0 columns are never inverted and raise no warning
    e = make(name, **({"y": y} if name == "weighted" else {}))
    if x == "x_40000":
        x = solve_tilt(e, 40_000).x_n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(2000):
            got = sample_grand(e, x, RngStream(2026, i)).counts
            want = dense_geometric_row(e, x, RngStream(2026, i).generator())
            assert got == want, (x, i)


def test_grand_row_drops_zero_counts_past_the_gate():
    # a uniform on its gate passes it but inverts to 0 (1 - U > q): the
    # row keeps no such entry; one at 1 - q^1.5 inverts to 1
    from multpart.sampler import _grand_table

    law = _grand_table(make("uniform"), 0.5).law.take(slice(0, 10))

    class Uniforms:
        def __init__(self, u):
            self.u = u

        def random(self, size):
            return self.u.reshape(size).copy()

    cols, counts = law.draw_row(Uniforms(law._gate))
    assert cols.size == 0 and counts.size == 0
    cols, counts = law.draw_row(Uniforms(1.0 - law.q ** 1.5))
    assert np.array_equal(cols, np.arange(law.q.size))
    assert np.all(counts == 1)


def test_grand_respects_part_restriction():
    evens = make("restricted", parts="evens")
    for i in range(20):
        p = sample_grand(evens, 0.7, RngStream(107, i))
        assert all(k % 2 == 0 for k in p.counts)


# ---------------------------------------------------------------------------
# fixed-size samplers


def _law_table(n, part_weight):
    """Exact conditioned law as {Partition: probability}."""
    cells = {}
    for counts in partitions_into(n):
        w = 1.0
        for k, r in counts.items():
            w *= part_weight(k, r)
        cells[Partition.make(counts)] = w
    total = sum(cells.values())
    return {p: w / total for p, w in cells.items()}


def _empirical(draws):
    out = {}
    for p in draws:
        out[p] = out.get(p, 0) + 1
    return out


BUDGET_CASES = [
    ("uniform", {}, 5), ("weighted", {"y": 0.5}, 5), ("uniform", {}, 50),
    ("uniform", {}, 200), ("gibbs", {"theta": 1, "beta": 1}, 100),
    ("restricted", {"parts": "odds"}, 100), ("uniform", {}, 40_000),
]


@pytest.mark.parametrize("mode", ["rejection", "pdc"])
@pytest.mark.parametrize("name,params,n", BUDGET_CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in BUDGET_CASES])
def test_default_budget_allows_twenty_waits(name, params, n, mode):
    # an attempt succeeds with probability P(N = n) at x_n, exact from the
    # point-mass recurrence; pdc divides it by max_j P(R_1 = j)
    e = make(name, **params)
    x = solve_tilt(e, n).x_n
    rate = point_mass(e, x, n)
    if mode == "pdc":
        # R_1 is Poisson(x) for gibbs and geometric with ratio y x for the
        # rest; at x < 1 both are most likely 0
        rate /= (math.exp(-x) if name == "gibbs"
                 else 1.0 - e.series.coefficient(1) * x)
    waits = default_budget(e, n, mode) * rate
    assert 15.0 <= waits <= 25.0


def test_default_budget_rejects_unknown_mode():
    with pytest.raises(ParamError):
        default_budget(make("uniform"), 10, "exact")


def test_rejection_law_uniform():
    law = _law_table(5, lambda k, r: 1.0)
    assert len(law) == 7
    draws = sample_small_many(make("uniform"), 5, 3000, seed=108,
                              budget=5000)
    counts = _empirical(draws)
    obs = [counts.get(p, 0) for p in law]
    p = stats.chisquare(obs, [3000 * w for w in law.values()]).pvalue
    assert p > 0.01


REJECTION_LAWS = [
    ("weighted", {"y": 0.5}, 5, lambda k, r: 0.5 ** r),
    ("restricted", {"parts": "odds"}, 7, lambda k, r: float(k % 2 or r == 0)),
]


@pytest.mark.parametrize("name,params,n,part_weight", REJECTION_LAWS,
                         ids=[c[0] for c in REJECTION_LAWS])
def test_rejection_law_matches_enumeration(name, params, n, part_weight):
    law = {p: w for p, w in _law_table(n, part_weight).items() if w > 0}
    m = 3000
    draws = sample_small_many(make(name, **params), n, m, seed=127,
                              budget=5000)
    counts = _empirical(draws)
    assert set(counts) <= set(law)
    obs = [counts.get(p, 0) for p in law]
    assert stats.chisquare(obs, [m * w for w in law.values()]).pvalue > 0.01


def test_rejection_without_sizes_up_to_n():
    # restricted(evens) has no size <= 1, so every attempt is empty
    evens = make("restricted", parts="evens")
    with pytest.raises(BudgetExhausted) as err:
        sample_small_rejection(evens, 1, RngStream(1))
    assert err.value.attempts == err.value.budget == default_budget(evens, 1)


def test_exact_law_weighted():
    law = _law_table(5, lambda k, r: 2.0 ** r)
    mono = Partition.make({1: 5})
    assert law[mono] == pytest.approx(32 / 74)
    draws = sample_small_many(make("weighted", y=2), 5, 3000, seed=109,
                              mode="exact")
    counts = _empirical(draws)
    obs = [counts.get(p, 0) for p in law]
    p = stats.chisquare(obs, [3000 * w for w in law.values()]).pvalue
    assert p > 0.01


def test_rejection_and_exact_agree():
    u = make("uniform")
    a = sample_small_many(u, 6, 2000, seed=110, budget=5000)
    b = sample_small_many(u, 6, 2000, seed=111, mode="exact")
    support = sorted({*a, *b}, key=lambda p: sorted(p.counts.items()))
    ca, cb = _empirical(a), _empirical(b)
    table = np.array([[ca.get(p, 0) for p in support],
                      [cb.get(p, 0) for p in support]])
    p = stats.chi2_contingency(table).pvalue
    assert p > 0.01


def _gibbs_weight(k, r):
    return 1.0 / math.factorial(r)  # exp(z): g_r = 1/r!


# the shapes b_k of the "mixed" ensemble, a geometric series with y = 1
MIXED_WEIGHTS = [1, 2, 0.5, 1]


def _mixed_weight(k, r):
    # [z^r] (1 - z)^(-b) = C(b + r - 1, r); b = 0 past the support
    b = MIXED_WEIGHTS[k - 1] if k <= len(MIXED_WEIGHTS) else 0.0
    return math.prod((b + i) / (i + 1) for i in range(r))


PDC_LAWS = [
    ("uniform", lambda k, r: 1.0),
    ("weighted", lambda k, r: 0.5 ** r),
    ("gibbs", _gibbs_weight),
    ("strict", lambda k, r: float(r <= 1)),
    ("mixed", _mixed_weight),
]


@pytest.mark.parametrize("n", [5, 8])
@pytest.mark.parametrize("name,part_weight", PDC_LAWS,
                         ids=[c[0] for c in PDC_LAWS])
def test_pdc_law_matches_enumeration(name, part_weight, n):
    law = {p: w for p, w in _law_table(n, part_weight).items() if w > 0}
    m = 3000
    draws = sample_small_many(_golden_ensemble(name), n, m, seed=115 + n,
                              mode="pdc")
    counts = _empirical(draws)
    assert set(counts) <= set(law)
    obs = [counts.get(p, 0) for p in law]
    p = stats.chisquare(obs, [m * w for w in law.values()]).pvalue
    assert p > 0.01


SPARSE_LAWS = ["uniform", "weighted", "mixed", "gibbs", "strict", "quartic"]


@pytest.mark.parametrize("name", SPARSE_LAWS)
def test_sparse_draw_marginals(name):
    # R_k of unconditioned sparse draws at x = 0.8 against its pmf, k <= 3:
    # negative binomial with unit shape (uniform, weighted) and with shapes
    # 2 and 0.5 (mixed), Poisson (gibbs), tabulated (strict, quartic)
    from multpart.sampler import _grand_table

    e = (Ensemble(CustomSeries([1, 1, 1, 1]), constant_weights())
         if name == "quartic" else _golden_ensemble(name))
    law = _grand_table(e, 0.8).law
    m = 20_000
    row, col, cnt = law.draw_sparse(RngStream(120).generator(), m)
    assert np.all((row >= 0) & (row < m)) and np.all(cnt >= 1)
    pmf = np.exp(law.logpmf(np.arange(200)[:, None]))
    for c in range(3):
        at = col == c
        r = np.bincount(row[at], weights=cnt[at], minlength=m).astype(int)
        # one cell per count j with m P(R = j) >= 5, the last one open
        cells = int(np.argmin(m * pmf[:, c] >= 5))
        obs = np.bincount(np.minimum(r, cells - 1), minlength=cells)
        probs = pmf[:cells, c].copy()
        probs[-1] = 1.0 - probs[:-1].sum()
        assert stats.chisquare(obs, m * probs).pvalue > 0.01


@pytest.mark.parametrize("name", SPARSE_LAWS)
def test_dense_draw_marginals(name):
    # the dense twin of the test above: R_k of law.draw at x = 0.8, k <= 3,
    # with unit shapes drawn by inversion
    from multpart.sampler import _grand_table

    e = (Ensemble(CustomSeries([1, 1, 1, 1]), constant_weights())
         if name == "quartic" else _golden_ensemble(name))
    law = _grand_table(e, 0.8).law.take(slice(0, 3))
    m = 20_000
    counts = law.draw(RngStream(121).generator(), (m, 3))
    pmf = np.exp(law.logpmf(np.arange(200)[:, None]))
    for c in range(3):
        cells = int(np.argmin(m * pmf[:, c] >= 5))
        obs = np.bincount(np.minimum(counts[:, c], cells - 1),
                          minlength=cells)
        probs = pmf[:cells, c].copy()
        probs[-1] = 1.0 - probs[:-1].sum()
        assert stats.chisquare(obs, m * probs).pvalue > 0.01


@pytest.mark.parametrize("name,n", [("uniform", 8), ("weighted", 8),
                                    ("mixed", 8), ("uniform", 30)])
def test_rejection_matches_dense(name, n):
    # the sampler's attempts against attempts whose count laws the oracle
    # builds from the series and weights and draws with numpy's samplers;
    # at n = 30, q_1 = x_n > 2/3, where numpy's geometric is not an
    # inversion. A partition of 30 is one of 5604, so there a cell is
    # (R_1, number of parts); cells seen fewer than 10 times on both sides
    # together are pooled
    e, m = _golden_ensemble(name), 3000
    assert n < 30 or solve_tilt(e, n).x_n > 2 / 3
    gen = RngStream(125).generator()
    a = [Partition.make(dense_rejection_draw(e, n, gen)) for _ in range(m)]
    b = sample_small_many(e, n, m, seed=126)
    cell = repr if n < 30 else (lambda p: (p.counts.get(1, 0), p.num_parts))
    ca, cb = Counter(map(cell, a)), Counter(map(cell, b))
    kept = [c for c in {*ca, *cb} if ca[c] + cb[c] >= 10]
    table = np.array([[ca[c] for c in kept] + [m - sum(ca[c] for c in kept)],
                      [cb[c] for c in kept] + [m - sum(cb[c] for c in kept)]])
    table = table[:, table.sum(axis=0) > 0]
    assert stats.chi2_contingency(table).pvalue > 0.01


@pytest.mark.parametrize("name", ["uniform", "gibbs", "strict", "mixed"])
def test_sparse_pdc_matches_dense(name):
    # sparse attempts against dense ones whose count laws, R_1's among
    # them, the oracle builds from the series and weights
    e, n, m = _golden_ensemble(name), 8, 3000
    gen = RngStream(123).generator()
    a = [Partition.make(dense_pdc_draw(e, n, gen)) for _ in range(m)]
    b = sample_small_many(e, n, m, seed=124, mode="pdc")
    support = sorted({*a, *b}, key=lambda p: sorted(p.counts.items()))
    ca, cb = _empirical(a), _empirical(b)
    table = np.array([[ca.get(p, 0) for p in support],
                      [cb.get(p, 0) for p in support]])
    assert stats.chi2_contingency(table).pvalue > 0.01


def test_pdc_and_exact_agree():
    # criterion 6's contingency test, divide-and-conquer against the walk
    w = make("weighted", y=0.5)
    a = sample_small_many(w, 8, 3000, seed=116, mode="pdc")
    b = sample_small_many(w, 8, 3000, seed=117, mode="exact")
    support = sorted({*a, *b}, key=lambda p: sorted(p.counts.items()))
    ca, cb = _empirical(a), _empirical(b)
    table = np.array([[ca.get(p, 0) for p in support],
                      [cb.get(p, 0) for p in support]])
    assert stats.chi2_contingency(table).pvalue > 0.01


@pytest.mark.parametrize("name,n", [("uniform", 40_000), ("weighted", 3000),
                                    ("gibbs", 2000), ("strict", 300),
                                    ("restricted", 501), ("strict", 100_000),
                                    ("gibbs", 100_000)])
def test_pdc_draws_have_weight_n(name, n):
    e = (make(name, parts="odds") if name == "restricted"
         else _golden_ensemble(name))
    for p in sample_small_many(e, n, 3, seed=118, mode="pdc"):
        assert p.weight == n
        assert sum(k * r for k, r in p.counts.items()) == n
        assert all(r >= 1 for r in p.counts.values())


def test_pdc_is_reproducible():
    u = make("uniform")
    assert (sample_small_pdc(u, 500, RngStream(119, 4))
            == sample_small_many(u, 500, 5, seed=119, mode="pdc")[4])


def test_pdc_needs_parts_of_size_one():
    evens = make("restricted", parts="evens")
    with pytest.raises(ParamError, match="rejection"):
        sample_small_pdc(evens, 8, RngStream(1))
    with pytest.raises(ParamError, match="rejection"):
        default_budget(evens, 8, "pdc")
    assert sample_small_rejection(evens, 8, RngStream(1)).weight == 8


def test_exact_sampler_weight_exactness():
    w2 = make("weighted", y=2)
    for i in range(3):
        p = sample_small_exact(w2, 2000, RngStream(112, i))
        assert p.weight == 2000
        assert sum(k * r for k, r in p.counts.items()) == 2000


def test_exact_sampler_support_obstruction():
    evens = make("restricted", parts="evens")
    with pytest.raises(EmptySupportError) as err:
        sample_small_exact(evens, 7, RngStream(1))
    assert err.value.attempts == 0
    assert err.value.budget == 0
    # n = 6 has exactly three even partitions
    seen = {frozenset(p.counts.items())
            for p in sample_small_many(evens, 6, 60, seed=113, mode="exact")}
    want = {frozenset({6: 1}.items()), frozenset({4: 1, 2: 1}.items()),
            frozenset({2: 3}.items())}
    assert seen == want


EXACT_LAWS = [
    ("uniform", {}, 7, lambda k, r: 1.0),
    ("weighted", {"y": 2}, 6, lambda k, r: 2.0 ** r),
    ("gibbs", {"theta": 1, "beta": 1}, 6, _gibbs_weight),
    ("restricted", {"parts": "odds"}, 9, lambda k, r: float(k % 2 or r == 0)),
    # the Ewens sampling formula: exp(z) with b_k = theta / k
    ("ewens", {"theta": 2}, 7, lambda k, r: (2 / k) ** r / math.factorial(r)),
]


@pytest.mark.parametrize("name,params,n,part_weight", EXACT_LAWS,
                         ids=[c[0] for c in EXACT_LAWS])
def test_exact_law_matches_enumeration(name, params, n, part_weight):
    law = {p: w for p, w in _law_table(n, part_weight).items() if w > 0}
    m = 20_000
    draws = sample_small_many(make(name, **params), n, m, seed=130 + n,
                              mode="exact")
    counts = _empirical(draws)
    assert set(counts) <= set(law)
    obs = [counts.get(p, 0) for p in law]
    assert stats.chisquare(obs, [m * w for w in law.values()]).pvalue > 0.01


# the factors f(x^k)^{b_k} of each golden ensemble, exact, up to x^n
PREFIX_FACTORS = {
    "uniform": lambda k, n: geometric_factor(k, 1, n),
    "weighted": lambda k, n: geometric_factor(k, Fraction(1, 2), n),
    "gibbs": lambda k, n: exp_factor(k, Fraction(1), n),
}


@pytest.mark.parametrize("name", ["uniform", "weighted", "gibbs"])
def test_exact_matches_prefix_walk(name):
    # the recursive method against a walk of exact prefix rows that the
    # oracle builds from the factors alone
    e, n, m = _golden_ensemble(name), 8, 3000
    factors = [PREFIX_FACTORS[name](k, n) for k in range(1, n + 1)]
    gen = RngStream(140).generator()
    a = [Partition.make(prefix_walk_draw(factors, n, gen)) for _ in range(m)]
    b = sample_small_many(e, n, m, seed=141, mode="exact")
    support = sorted({*a, *b}, key=lambda p: sorted(p.counts.items()))
    ca, cb = _empirical(a), _empirical(b)
    table = np.array([[ca.get(p, 0) for p in support],
                      [cb.get(p, 0) for p in support]])
    assert stats.chi2_contingency(table).pvalue > 0.01


def _assert_matches_vector_reference(e, n, streams, seed=150):
    plan = _RecursivePlan(e, n)
    for i in range(streams):
        want = recursive_vector_draw(plan, RngStream(seed, i).generator())
        assert plan.draw(RngStream(seed, i)).counts == want, (n, i)


REFERENCE_LAWS = [("uniform", {}), ("weighted", {"y": 2}),
                  ("weighted", {"y": 0.5}), ("restricted", {"parts": "odds"}),
                  ("gibbs", {"theta": 1, "beta": 1}), ("ewens", {"theta": 2})]


@pytest.mark.parametrize("n", [0, 1, 2, 5, 37, _SCALAR_WINDOW,
                               _SCALAR_WINDOW + 1, 300, 2000])
@pytest.mark.parametrize("name,params", REFERENCE_LAWS,
                         ids=["uniform", "weighted-2", "weighted-0.5", "odds",
                              "gibbs", "ewens-2"])
def test_exact_matches_vector_reference(name, params, n):
    # scalar windows and divisor splits against the all-vector loop: the
    # same partition from every stream
    _assert_matches_vector_reference(make(name, **params), n, 100)


def test_exact_matches_vector_reference_across_rescales(monkeypatch):
    # gibbs(5000, 1) at n = 1000 rescales its masses, so the windows from
    # m = n down take the rescale branch
    e = make("gibbs", theta=5000, beta=1)
    assert _RecursivePlan(e, 1000).shift[-1] > 0.0
    _assert_matches_vector_reference(e, 1000, 20)
    # a low rescale threshold ends the scalar windows at the first shift,
    # below _SCALAR_WINDOW
    monkeypatch.setattr(partition_function, "_RESCALE", 1e20)
    e = make("gibbs", theta=1000, beta=1)
    assert _RecursivePlan(e, 300).shift[_SCALAR_WINDOW] > 0.0
    _assert_matches_vector_reference(e, 300, 100)


def test_exact_needs_nonnegative_log_coefficients():
    # log(1 + z) = z - z^2/2 + ...: the split of a component has no law
    strict = _golden_ensemble("strict")
    with pytest.raises(ParamError, match="small-pdc"):
        sample_small_exact(strict, 10, RngStream(1))
    with pytest.raises(ParamError, match="small-pdc"):
        sample_small_many(strict, 10, 2, seed=1, mode="exact")


def test_exact_draws_when_mass_at_zero_underflows():
    # gibbs(theta, 1) at theta = 5000, n = 1000 has log F(x_n) > 800, so
    # p_0 = 1/F(x_n) is below the float range. The number of parts K has
    # P(K = k) proportional to C(n-1, k-1) theta^k / k!
    theta, n, m = 5000, 1000, 100
    e = make("gibbs", theta=theta, beta=1)
    x = solve_tilt(e, n).x_n
    assert theta * x / (1.0 - x) > 800.0
    ks = np.arange(1, n + 1)
    logw = (special.gammaln(n) - special.gammaln(ks) - special.gammaln(n - ks + 1)
            + ks * math.log(theta) - special.gammaln(ks + 1))
    law = np.exp(logw - logw.max())
    law /= law.sum()
    mean = float((ks * law).sum())
    sd = math.sqrt(float((ks * ks * law).sum()) - mean * mean)
    draws = sample_small_many(e, n, m, seed=142, mode="exact")
    assert all(p.weight == n for p in draws)
    got = np.mean([p.num_parts for p in draws])
    assert abs(got - mean) <= 4.0 * sd / math.sqrt(m)


def test_rejection_budget_exhaustion():
    evens = make("restricted", parts="evens")
    with pytest.raises(BudgetExhausted) as err:
        sample_small_rejection(evens, 7, RngStream(1), budget=50)
    assert err.value.attempts == 50
    assert err.value.budget == 50
    assert err.value.acceptance_estimate == 0.0


def test_small_sampler_validation():
    u = make("uniform")
    with pytest.raises(ParamError):
        sample_small_rejection(u, 0, RngStream(1))
    with pytest.raises(ParamError):
        sample_small_rejection(u, 5, RngStream(1), budget=0)
    with pytest.raises(ParamError):
        sample_small_exact(u, -1, RngStream(1))
    assert sample_small_exact(u, 0, RngStream(1)).weight == 0
    with pytest.raises(ParamError):
        sample_small_many(u, 5, 3, seed=1, mode="bogus")
    assert sample_small_many(u, 5, 0, seed=1) == []


SINGLE_DRAWS = {"rejection": sample_small_rejection, "pdc": sample_small_pdc,
                "exact": sample_small_exact}


@pytest.mark.parametrize("mode", list(SINGLE_DRAWS))
def test_small_many_reuses_table(mode):
    # sample_small_many draws every replica from the one cached plan of
    # (n, mode); replica i is still the single draw on stream i, here from
    # a plan built afresh on a new ensemble
    for name, n in [("uniform", 12), ("weighted", 300), ("gibbs", 50)]:
        many = sample_small_many(_golden_ensemble(name), n, 6, seed=114,
                                 mode=mode)
        for i in (0, 5):
            fresh = _golden_ensemble(name)
            assert SINGLE_DRAWS[mode](fresh, n, RngStream(114, i)) == many[i]


def test_exact_plan_is_built_once_per_n(monkeypatch):
    # the recursive method's tables are cached with the ensemble: a second
    # draw at the same n, single or many, runs no mass recurrence
    calls = []

    def counted(*args):
        calls.append(args[1])
        return partition_function._mass_recurrence(*args)

    monkeypatch.setattr(sampler, "_mass_recurrence", counted)
    e = make("uniform")
    first = sample_small_exact(e, 200, RngStream(3, 0))
    assert calls == [200]
    assert sample_small_exact(e, 200, RngStream(3, 1)).weight == 200
    assert sample_small_many(e, 200, 2, seed=3, mode="exact")[0] == first
    assert calls == [200]
    sample_small_exact(e, 201, RngStream(3, 0))
    assert calls == [200, 201]


@pytest.mark.parametrize("mode", list(SINGLE_DRAWS))
def test_small_many_without_samples_builds_no_plan(mode):
    e = make("uniform")
    assert sample_small_many(e, 50, 0, seed=1, mode=mode) == []
    assert not [k for k in e._memo
                if isinstance(k, tuple) and k[0] in ("fixed_plan", "tilt")]


# draws recorded when the recursive method replaced the prefix-row walk,
# after the enumeration and walk-contingency tests above passed; the
# walk's draws (seed 2024) differ, for the same law
EXACT_GOLDEN = [
    ("uniform", {}, 60, [
        {2: 3, 3: 2, 4: 1, 5: 1, 6: 3, 8: 1, 13: 1},
        {1: 21, 4: 4, 5: 2, 13: 1},
        {1: 1, 4: 7, 5: 1, 8: 2, 10: 1}]),
    ("weighted", {"y": 2}, 200, [
        {1: 189, 3: 2, 5: 1}, {1: 200}, {1: 189, 2: 4, 3: 1}]),
    ("restricted", {"parts": "odds"}, 45, [
        {1: 9, 3: 2, 5: 3, 15: 1},
        {1: 20, 5: 5},
        {3: 3, 5: 2, 13: 2}]),
    ("gibbs", {"theta": 1, "beta": 1}, 40, [
        {2: 2, 4: 2, 5: 3, 13: 1},
        {1: 1, 3: 1, 4: 2, 6: 1, 9: 1, 13: 1},
        {3: 1, 4: 1, 5: 1, 6: 1, 22: 1}]),
]


@pytest.mark.parametrize("name,params,n,want", EXACT_GOLDEN,
                         ids=[c[0] for c in EXACT_GOLDEN])
def test_exact_golden_draws(name, params, n, want):
    e = make(name, **params)
    got = [sample_small_exact(e, n, RngStream(2024, i)).counts
           for i in range(len(want))]
    assert got == want


def _golden_ensemble(name):
    if name == "strict":
        return Ensemble(CustomSeries([1, 1]), constant_weights())
    if name == "mixed":
        # unit and non-unit shapes side by side on a geometric series
        return Ensemble(GeometricSeries(1), explicit_weights(MIXED_WEIGHTS))
    return make(name, **{"weighted": {"y": 0.5},
                         "gibbs": {"theta": 1, "beta": 1}}.get(name, {}))


# rejection draws at n = 30, re-recorded when an attempt began to draw
# only the sizes up to n, with unit-shape counts by inversion; grand draws
# of uniform and mixed, re-recorded for the inversion, which takes other
# numbers from the stream than numpy's geometric where q > 2/3. Weighted,
# gibbs and strict keep the draws recorded before the count laws moved
# behind CountLaw. (seed, stream) fixes them; the laws are checked by the
# enumeration and dense-oracle tests above
REJECTION_GOLDEN = [
    ("uniform", [{1: 1, 2: 2, 4: 2, 5: 1, 12: 1}, {1: 3, 2: 5, 6: 1, 11: 1},
                 {2: 2, 3: 1, 5: 1, 7: 1, 11: 1}]),
    ("weighted", [{2: 3, 4: 1, 20: 1}, {5: 1, 10: 1, 15: 1},
                  {7: 1, 10: 1, 13: 1}]),
    ("gibbs", [{4: 1, 5: 1, 6: 2, 9: 1}, {1: 1, 2: 1, 4: 1, 5: 1, 6: 1, 12: 1},
               {1: 1, 2: 2, 12: 1, 13: 1}]),
    ("strict", [{2: 1, 3: 1, 5: 1, 7: 1, 13: 1}, {6: 1, 11: 1, 13: 1},
                {2: 1, 5: 1, 11: 1, 12: 1}]),
]

GRAND_GOLDEN = [
    ("uniform", 0.9, [
        {1: 66, 2: 4, 8: 2, 10: 1, 17: 2, 21: 1, 23: 1, 27: 1, 44: 1},
        {1: 11, 2: 2, 3: 2, 4: 7, 8: 1, 9: 1, 12: 3, 14: 1, 22: 1},
        {1: 12, 2: 1, 3: 7, 7: 1, 8: 1, 20: 1, 21: 1, 22: 1, 26: 1}]),
    ("weighted", 0.9, [{1: 8, 2: 1, 8: 1, 17: 1, 21: 1, 27: 1, 44: 1},
                       {1: 1, 4: 2, 12: 2, 14: 1},
                       {1: 1, 3: 2, 20: 1, 22: 1, 26: 1}]),
    ("gibbs", 0.8, [{1: 2, 6: 1, 14: 1, 17: 1}, {1: 1, 3: 1, 10: 1},
                    {1: 1, 2: 1, 18: 1}]),
    ("strict", 0.8, [{1: 1, 8: 1, 17: 1}, {1: 1, 4: 1, 12: 1}, {1: 1, 3: 1}]),
    ("mixed", 0.8, [{1: 31, 2: 4, 3: 1, 4: 1}, {1: 5, 2: 1}, {1: 5, 2: 1}]),
]


# divide-and-conquer draws, re-recorded when an attempt began to draw only
# its nonzero counts: the sparse attempt takes other numbers from the
# stream than the dense one did, for the same law (see the sparse-versus-
# dense and enumeration tests); (seed, stream) fixes them
PDC_GOLDEN = [
    ("uniform", [{1: 9, 2: 7, 7: 1}, {2: 3, 3: 2, 4: 1, 14: 1},
                 {2: 1, 4: 5, 8: 1}]),
    ("weighted", [{1: 1, 3: 2, 5: 1, 6: 3}, {3: 1, 4: 1, 5: 1, 9: 2},
                  {2: 1, 3: 6, 5: 2}]),
    ("gibbs", [{2: 2, 6: 1, 7: 1, 13: 1}, {1: 2, 4: 1, 6: 1, 7: 1, 11: 1},
               {2: 2, 4: 1, 6: 1, 7: 1, 9: 1}]),
    ("strict", [{1: 1, 2: 1, 8: 1, 19: 1}, {2: 1, 3: 1, 6: 1, 7: 1, 12: 1},
                {1: 1, 7: 1, 10: 1, 12: 1}]),
]


@pytest.mark.parametrize("name,want", REJECTION_GOLDEN,
                         ids=[c[0] for c in REJECTION_GOLDEN])
def test_rejection_golden_draws(name, want):
    e = _golden_ensemble(name)
    got = [sample_small_rejection(e, 30, RngStream(2024, i)).counts
           for i in range(len(want))]
    assert got == want


@pytest.mark.parametrize("name,want", PDC_GOLDEN,
                         ids=[c[0] for c in PDC_GOLDEN])
def test_pdc_golden_draws(name, want):
    e = _golden_ensemble(name)
    got = [sample_small_pdc(e, 30, RngStream(2024, i)).counts
           for i in range(len(want))]
    assert got == want


@pytest.mark.parametrize("name,x,want", GRAND_GOLDEN,
                         ids=[c[0] for c in GRAND_GOLDEN])
def test_grand_golden_draws(name, x, want):
    e = _golden_ensemble(name)
    got = [sample_grand(e, x, RngStream(2025, i)).counts
           for i in range(len(want))]
    assert got == want

"""The three workloads: their set-up, one pass over their operations, checks.

Each workload is a fixed list of operations in four timed stages. A pass
runs the list once; `check` then compares every output of the pass with a
reference from `oracles`, which never imports `multpart`. Seeds passed to
the program come from the workload seed, except where a class says why not.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import checks
import oracles


class Capture:
    """Keeps the partitions that diagnostics functions draw.

    `concentration_experiment` and `degenerate_shape_probe` report
    statistics of their draws, not the draws; the checks need the draws.
    The hook replaces the name `sample_small_many` inside
    `multpart.diagnostics` by a function that looks the sampler up at call
    time (so a traced run traces it) and keeps its result.
    """

    def __init__(self):
        import multpart.diagnostics as diagnostics
        import multpart.sampler as sampler

        self.batches: list[list] = []

        def keep(*args, **kwargs):
            out = sampler.sample_small_many(*args, **kwargs)
            self.batches.append(out)
            return out
        diagnostics.sample_small_many = keep

    def take(self) -> list:
        out = [p for batch in self.batches for p in batch]
        self.batches = []
        return out


class PassRecord:
    """Stage times, per-part times and outputs of one pass."""

    def __init__(self, stages: int):
        self.stage_s = [0.0] * stages
        self.part_s: dict[str, float] = defaultdict(float)
        self.errors: list[str] = []

    def op(self, stage: int, part: str, fn, *args, **kwargs):
        """Run one operation; return its output, or None if it raised."""
        t0 = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            value = None
            self.errors.append(f"{part}: {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        self.stage_s[stage] += dt
        self.part_s[part] += dt
        return value


class Tally:
    """Attempted and failed operation counts of one pass.

    `unexpected` counts the failures outside the operations a workload
    marks as hit by a known fault of the program.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: list[str] = []

    def group(self, label: str, ok: bool, ops: int = 1,
              known: bool = False) -> None:
        """Count `ops` operations whose outputs passed (ok) or failed together."""
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.unexpected += 0 if known else ops
            self.failures.append(f"{label}: {ops} failed"
                                 + (" (known fault)" if known else ""))


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2 ** 63, count)]


def _jitter(rng: np.random.Generator, base: float, width: float) -> float:
    return base * (1.0 + width * (2.0 * rng.random() - 1.0))


# ---------------------------------------------------------------------------


class FixedWeight:
    """Fixed-weight and grand-ensemble sampling.

    The two concentration legs are criterion 8's (uniform n=40000 on seed
    12, gibbs(1,1) n=10000 on seed 13), with fewer replicas and the
    sampler's default budget. They keep those seeds on every run: a
    rejection draw costs a geometric number of attempts, and at a few draws
    per pass a seed-dependent attempt count would move the stage time by
    tens of percent between seeds. The small-n and grand draws take their
    streams from the workload seed.
    """

    name = "fixed-weight"
    STAGES = ("uniform concentration leg", "gibbs(1,1) concentration leg",
              "small-n rejection draws", "grand draws")
    LEGS = (("uniform", 40_000, 3, 12), ("gibbs", 10_000, 12, 13))
    SMALL_N = 5
    SMALL_DRAWS = 6000
    # criterion 6's budget: the default, 80 attempts at n=5, runs out on
    # roughly 1 draw in 160 for weighted(y=0.5)
    SMALL_BUDGET = 5000
    GRAND_N = 40_000
    GRAND_X = 0.9
    GRAND_DRAWS = 6000

    def __init__(self, mp, seed: int):
        self.mp = mp
        self.ens = {"uniform": mp.make("uniform"),
                    "gibbs": mp.make("gibbs", theta=1, beta=1),
                    "weighted": mp.make("weighted", y=0.5)}
        s = _seeds(seed, 4)
        self.small_streams = {"uniform": s[0], "weighted": s[1]}
        self.grand_streams = (s[2], s[3])
        self.capture = Capture()
        self.refs: dict = {}

    def ensembles(self) -> list:
        return list(self.ens.values())

    def run_pass(self) -> PassRecord:
        mp = self.mp
        rec = PassRecord(4)
        rec.legs = []
        for stage, (fam, n, replicas, seed) in enumerate(self.LEGS):
            rep = rec.op(stage, f"{fam} leg n={n}", mp.concentration_experiment,
                         self.ens[fam], n, replicas, seed=seed)
            rec.legs.append((fam, n, replicas, rep, self.capture.take()))
        rec.small = {}
        for fam, stream in self.small_streams.items():
            e = self.ens[fam]
            rec.small[fam] = [
                rec.op(2, f"{fam} n={self.SMALL_N}", mp.sample_small_rejection,
                       e, self.SMALL_N, mp.RngStream(stream, i),
                       budget=self.SMALL_BUDGET)
                for i in range(self.SMALL_DRAWS)]
        uni = self.ens["uniform"]
        sol = rec.op(3, f"solve_tilt n={self.GRAND_N}", mp.solve_tilt, uni,
                     self.GRAND_N)
        rec.grand = []
        for x, label, stream in zip(
                (self.GRAND_X, sol.x_n if sol else None),
                (f"grand x={self.GRAND_X}", f"grand x=x_{self.GRAND_N}"),
                self.grand_streams):
            draws = [rec.op(3, label, mp.sample_grand, uni, x,
                            mp.RngStream(stream, i))
                     for i in range(self.GRAND_DRAWS)]
            rec.grand.append((x, label, draws))
        return rec

    def _leg_refs(self, fam: str, n: int):
        key = (fam, n)
        if key not in self.refs:
            if fam == "uniform":
                f = oracles.geometric("uniform", 1.0)
                mean = oracles.uniform_parts_mean(n, oracles.partition_numbers(n))
                var = oracles.conditioned_parts_moments(f, n)[1]
            else:
                f = oracles.exponential("gibbs(1,1)", 1.0, 1.0)
                mean, var = oracles.lah_parts_moments(n)
            self.refs[key] = (oracles.ShapeOracle(f), mean, var)
        return self.refs[key]

    def check(self, rec: PassRecord) -> Tally:
        tally = Tally()
        for fam, n, replicas, rep, parts in rec.legs:
            shape, mean, var = self._leg_refs(fam, n)
            pred = rep.prediction if rep is not None else None
            ok = (rep is not None and rep.n == n and len(parts) == replicas
                  and checks.weights_ok(parts, n)
                  and checks.shape_ok(pred.shape_values,
                                      [shape.phi(t) for t in pred.grid])
                  and checks.z_ok(float(np.mean([p.num_parts for p in parts])),
                                  mean, math.sqrt(var), replicas))
            tally.group(f"{fam} leg", ok)
        cells = [tuple(sorted(c.items())) for c in oracles.partitions_of(self.SMALL_N)]
        for fam, draws in rec.small.items():
            # each part multiplies the weight of a partition by y
            y = 1.0 if fam == "uniform" else 0.5
            probs = np.array([y ** sum(r for _, r in c) for c in cells])
            ok = all(p is not None for p in draws) and checks.weights_ok(
                draws, self.SMALL_N)
            if ok:
                seen = Counter(tuple(sorted(p.counts.items())) for p in draws)
                ok = checks.chi2_ok([seen[c] for c in cells], probs / probs.sum())
            tally.group(f"small {fam}", ok, len(draws))
        uniform = oracles.geometric("uniform", 1.0)
        for x, label, draws in rec.grand:
            ok = x is not None and all(p is not None and p.weight == checks.weight(p.counts)
                                       for p in draws)
            if ok:
                m = oracles.count_moments(uniform, x)
                ok = (checks.moments_ok([p.weight for p in draws], m["mean_N"], m["var_N"])
                      and checks.cdf_ok([max(p.counts, default=0) for p in draws],
                                        oracles.largest_part_cdf(uniform, x)))
            tally.group(label, ok, len(draws))
        return tally


class Tables:
    """Everything that needs a coefficient table.

    The fixed sizes are those of criteria 1, 7, 10 and 11; the workload
    seed drives the exact-walk draws.
    """

    name = "tables"
    STAGES = ("point masses and probe", "exact tables", "prefix table",
              "exact-walk draws")
    MASSES = (("uniform", 100), ("uniform", 500), ("uniform", 1000),
              ("uniform", 2000), ("odds", 1000), ("gibbs", 50))
    PROBE_X = 0.98
    PROBE_U = (-1.0, 0.0, 1.0)
    EXACT = (("uniform", 500), ("gibbs", 300), ("weighted", 2000))
    PREFIX_N = 2000
    WALK_DRAWS = 80

    def __init__(self, mp, seed: int):
        self.mp = mp
        self.ens = {"uniform": mp.make("uniform"),
                    "odds": mp.make("restricted", parts="odds"),
                    "gibbs": mp.make("gibbs", theta=1, beta=1),
                    "weighted": mp.make("weighted", y=2)}
        self.walk_seed = _seeds(seed, 1)[0]
        self.capture = Capture()
        self._refs = None

    def ensembles(self) -> list:
        return list(self.ens.values())

    def run_pass(self) -> PassRecord:
        mp = self.mp
        rec = PassRecord(4)
        rec.masses = []
        for fam, n in self.MASSES:
            e = self.ens[fam]

            def mass(e=e, n=n):
                x = mp.solve_tilt(e, n).x_n
                return x, mp.point_mass(e, x, n)
            rec.masses.append((fam, n, rec.op(0, f"point_mass {fam} n={n}", mass)))
        rec.probe = rec.op(0, "local_limit_probe", mp.local_limit_probe,
                           self.ens["uniform"], self.PROBE_X, self.PROBE_U)
        rec.exact = [(fam, n, rec.op(1, f"coefficients {fam} n={n}",
                                     mp.coefficients, self.ens[fam], n))
                     for fam, n in self.EXACT]
        w = self.ens["weighted"]
        rec.prefix = rec.op(2, "coefficients keep_prefix", mp.coefficients, w,
                            self.PREFIX_N, keep_prefix=True)
        rec.walk = None
        if rec.prefix is not None:
            rec.walk = rec.op(3, "degenerate_shape_probe",
                              mp.degenerate_shape_probe, w, self.PREFIX_N,
                              self.WALK_DRAWS, seed=self.walk_seed,
                              table=rec.prefix)
        rec.walk_parts = self.capture.take()
        return rec

    def refs(self) -> dict:
        if self._refs is None:
            p = oracles.partition_numbers(6000)
            weighted, row = oracles.parts_weighted_counts(self.PREFIX_N, 2)
            odd = oracles.odd_part_counts(1000)
            self._refs = {
                "p": p,
                "log_c": {"uniform": lambda m: math.log(p[m]),
                          "odds": lambda m: math.log(odd[m]),
                          "gibbs": lambda m: _log_fraction(oracles.lah_coefficient(m))},
                "fam": {"uniform": oracles.geometric("uniform", 1.0),
                        "odds": oracles.geometric("odds", 1.0, oracles.odd_weights),
                        "gibbs": oracles.exponential("gibbs(1,1)", 1.0, 1.0)},
                "exact": {"uniform": p[:501],
                          "gibbs": [oracles.lah_coefficient(m) for m in range(301)],
                          "weighted": weighted},
                "walk_parts": oracles.parts_law_moments(row, 2),
            }
        return self._refs

    def check(self, rec: PassRecord) -> Tally:
        r = self.refs()
        tally = Tally()
        for fam, n, out in rec.masses:
            ok = out is not None and checks.mass_ok(
                out[1], r["log_c"][fam](n), n, out[0],
                oracles.log_partition(r["fam"][fam], out[0]))
            tally.group(f"point_mass {fam} n={n}", ok)
        ok = rec.probe is not None and len(rec.probe) == len(self.PROBE_U)
        if ok:
            x = self.PROBE_X
            uni = r["fam"]["uniform"]
            m = oracles.count_moments(uni, x)
            sd = math.sqrt(m["var_N"])
            log_F = oracles.log_partition(uni, x)
            for (u, value), u_in in zip(rec.probe, self.PROBE_U):
                size = max(int(round(m["mean_N"] + u_in * sd)), 0)
                ok = ok and u == u_in and checks.mass_ok(
                    value / sd, math.log(r["p"][size]), size, x, log_F)
        tally.group("local_limit_probe", ok)
        for fam, n, table in rec.exact:
            ok = table is not None and table.exact and checks.exact_equal(
                list(table.values), r["exact"][fam][:n + 1])
            tally.group(f"coefficients {fam} n={n}", ok)
        tally.group("coefficients keep_prefix", self._prefix_ok(rec.prefix))
        walk = rec.walk
        parts = rec.walk_parts
        ok = (walk is not None and walk.n == self.PREFIX_N
              and len(parts) == self.WALK_DRAWS
              and checks.weights_ok(parts, self.PREFIX_N)
              and all(v == sum(k * c for k, c in p.counts.items() if k >= 2) / p.weight
                      for v, p in zip(walk.values, parts)))
        if ok:
            mean_k, var_k = r["walk_parts"]
            ok = checks.z_ok(float(np.mean([p.num_parts for p in parts])),
                             mean_k, math.sqrt(var_k), len(parts))
        tally.group("degenerate_shape_probe", ok)
        return tally

    def _prefix_ok(self, table) -> bool:
        """Exact values, and the last tilted row against a_m x0^m."""
        if table is None or table.prefix is None:
            return False
        ref = self.refs()["exact"]["weighted"]
        if not checks.exact_equal(list(table.values), ref):
            return False
        last = np.asarray(table.prefix[-1], dtype=float)
        big = last >= 1e-250 * last.max()
        logs = np.array([math.log(a) for a in ref]) + np.arange(len(ref)) * math.log(table.x0)
        return bool(np.all(np.abs(np.log(last[big]) - logs[big]) <= checks.MASS_RTOL))


def _log_fraction(q) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


# ---------------------------------------------------------------------------


class Shapes:
    """The asymptotic layer on closed-form families and custom series.

    Every operation builds its ensemble afresh, as one command-line call
    does, so the memos start cold. The closed-form list runs ROUNDS times
    per pass, so that its stages last long enough to time steadily. The
    workload seed jitters the curve ranges by 2% and epsilon by 10%; the
    tilt targets are fixed, so the operations that a known fault fails
    (KNOWN_FAULT) fail on every seed.
    """

    name = "shapes"
    STAGES = ("closed-form shape curves", "closed-form tilt solves",
              "closed-form predictions", "custom-series operations")
    CURVES_T = (3.0, 4.0, 5.0, 6.0)
    TILT_EXP = tuple(2.0 + i / 3.0 for i in range(13))   # 1e2 .. 1e6
    PRED_N = (10 ** 4, 10 ** 6)
    EPSILONS = 2
    ROUNDS = 8
    CURVE_CHECK_POINTS = (0, 99, 199)
    # Ensemble._moment_sum stops at a block whose last term is zero; with
    # odd-only weights every block ends on an even size, so mean_N drops
    # the sizes beyond 4096 and tilts from n of about 2e4 up miss their
    # target (mean 8.7% above n at n=1e6)
    KNOWN_FAULT = "restricted(odds)"

    def __init__(self, mp, seed: int):
        self.mp = mp
        rng = np.random.default_rng(seed)

        def custom(series):
            return lambda: mp.Ensemble(series(), mp.constant_weights())

        pole = mp.Singularity("pole", 2.0)
        self.closed = {
            "uniform": (lambda: mp.make("uniform"),
                        oracles.geometric("uniform", 1.0)),
            "weighted(y=0.5)": (lambda: mp.make("weighted", y=0.5),
                                oracles.geometric("weighted(y=0.5)", 0.5)),
            "restricted(odds)": (lambda: mp.make("restricted", parts="odds"),
                                 oracles.geometric("odds", 1.0, oracles.odd_weights)),
            "gibbs(1,1)": (lambda: mp.make("gibbs", theta=1, beta=1),
                           oracles.exponential("gibbs(1,1)", 1.0, 1.0)),
            "gibbs(2,0.5)": (lambda: mp.make("gibbs", theta=2, beta=0.5),
                             oracles.exponential("gibbs(2,0.5)", 2.0, 0.5)),
        }
        self.custom = {
            "strict": (custom(lambda: mp.CustomSeries([1, 1])),
                       oracles.polynomial("strict", [1, 1])),
            "multiplicity<=3": (custom(lambda: mp.CustomSeries([1, 1, 1, 1])),
                                oracles.polynomial("multiplicity<=3", [1, 1, 1, 1])),
            "double pole": (custom(lambda: mp.CustomSeries(
                                lambda j: j + 1, radius=1.0, singularity=pole)),
                            oracles.double_pole("double pole")),
        }
        # per family: (curve t_max values, tilt targets, (n, epsilon) predictions)
        self.plan = {}
        for name in self.closed:
            self.plan[name] = (
                [_jitter(rng, t, 0.02) for t in self.CURVES_T],
                [round(10 ** a) for a in self.TILT_EXP],
                [(n, _jitter(rng, 0.05, 0.1)) for n in self.PRED_N
                 for _ in range(self.EPSILONS)])
        for name in self.custom:
            top = 5 if name == "double pole" else 6
            self.plan[name] = (
                [_jitter(rng, 5.0, 0.02)],
                [10 ** a for a in range(2, top + 1)],
                [(n, 0.05) for n in self.PRED_N if n <= 10 ** top])
        self.built: list = []
        self._shape: dict = {}
        self._means: dict = {}

    def ensembles(self) -> list:
        return self.built

    def _ops(self, rec: PassRecord, stage_of, name: str, make) -> dict:
        mp = self.mp
        t_maxes, targets, preds = self.plan[name]

        def fresh():
            e = make()
            self.built.append(e)
            return e

        def curve(t_max):
            e = fresh()
            return mp.omega(e), mp.sigma_sq(e), mp.shape_curve(e, t_max=t_max)

        out = {"curves": [rec.op(stage_of[0], name, curve, t) for t in t_maxes]}
        out["tilts"] = [(n, rec.op(stage_of[1], name,
                                   lambda n=n: mp.solve_tilt(fresh(), n)))
                        for n in targets]
        out["preds"] = [(n, rec.op(stage_of[2], name,
                                   lambda n=n, eps=eps: mp.predict_concentration(
                                       fresh(), n, epsilon=eps)))
                        for n, eps in preds]
        return out

    def run_pass(self) -> PassRecord:
        rec = PassRecord(4)
        self.built = []
        rec.out = {}
        for _ in range(self.ROUNDS):
            for name, (make, _) in self.closed.items():
                rec.out.setdefault(name, []).append(
                    self._ops(rec, (0, 1, 2), name, make))
        for name, (make, _) in self.custom.items():
            rec.out[name] = [self._ops(rec, (3, 3, 3), name, make)]
        return rec

    def _oracle(self, name: str, fam) -> oracles.ShapeOracle:
        if name not in self._shape:
            self._shape[name] = oracles.ShapeOracle(fam)
        return self._shape[name]

    def _mean(self, fam, x: float) -> float:
        key = (fam.name, x)
        if key not in self._means:
            self._means[key] = oracles.count_moments(fam, x)["mean_N"]
        return self._means[key]

    def check(self, rec: PassRecord) -> Tally:
        tally = Tally()
        for name, (_, fam) in {**self.closed, **self.custom}.items():
            shape = self._oracle(name, fam)
            for out in rec.out[name]:
                self._check_round(tally, name, fam, shape, out)
        return tally

    def _check_round(self, tally: Tally, name: str, fam, shape, out) -> None:
        known = name == self.KNOWN_FAULT
        for res in out["curves"]:
            ok = res is not None
            if ok:
                om, sig, curve = res
                idx = self.CURVE_CHECK_POINTS
                ok = (checks.constants_ok(om, sig, fam.beta, shape.omega,
                                          shape.sigma_sq)
                      and checks.shape_ok([curve.phis[i] for i in idx],
                                          [shape.phi(curve.ts[i]) for i in idx])
                      and checks.curve_ok(curve.phis, curve.integral_check,
                                          checks.curve_integral_tol(
                                              curve.ts, shape.phi_slope)))
            tally.group(f"{name} curve", ok)
        for n, sol in out["tilts"]:
            ok = sol is not None and sol.n == n and checks.mean_ok(
                self._mean(fam, sol.x_n), n)
            tally.group(f"{name} tilt n={n}", ok, known=known)
        for n, pred in out["preds"]:
            ok = pred is not None and pred.n == n
            if ok:
                x = 1.0 - 1.0 / pred.alpha
                ok = (checks.shape_ok(pred.shape_values,
                                      [shape.phi(t) for t in pred.grid])
                      and checks.mean_ok(self._mean(fam, x), n))
            tally.group(f"{name} prediction n={n}", ok, known=known)


WORKLOADS = {w.name: w for w in (FixedWeight, Tables, Shapes)}


def report_errors(rec: PassRecord, tally: Tally) -> None:
    """First few raised errors and failed checks of a pass, on stderr."""
    for line in (rec.errors[:5] + tally.failures[:5]):
        print(f"  {line}", file=sys.stderr)

"""In-memory spans around the public functions of each `multpart` layer.

The tracer replaces each listed function, wherever a `multpart` module
holds a reference to it, with a wrapper that records a span (name, start,
end, parent) and a few counts read from arguments and results. Uninstall
restores every reference, so untraced passes run the program unchanged.
A layer's self time is the time of its spans minus the time of their
child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# traced functions by layer module; a method is named Class.method
TRACED = {
    "series": ("power_coefficients",
               "SeriesFunction.h_vector", "GeometricSeries.h_vector",
               "ExponentialSeries.h_vector", "PowerSeriesFunction.h_vector"),
    "ensemble": ("Ensemble.mean_N", "Ensemble.var_N",
                 "Ensemble.mean_counts_tail"),
    "asymptotics": ("solve_tilt", "omega", "sigma_sq", "limit_shape",
                    "shape_curve"),
    "partition_function": ("coefficients", "point_mass", "local_limit_probe",
                           "log_partition_value", "product_tail_cutoff"),
    "sampler": ("sample_small_rejection", "sample_small_exact",
                "sample_grand", "sample_small_many"),
    "diagnostics": ("predict_concentration", "concentration_experiment",
                    "degenerate_shape_probe"),
}

# per-layer time metrics: self time summed over these span names
SELF_TIME_GROUPS = {
    "series.h_vector_s": ("SeriesFunction.h_vector", "GeometricSeries.h_vector",
                          "ExponentialSeries.h_vector",
                          "PowerSeriesFunction.h_vector"),
    "series.power_coefficients_s": ("power_coefficients",),
    "ensemble.moment_sum_s": ("Ensemble.mean_N", "Ensemble.var_N",
                              "Ensemble.mean_counts_tail"),
    "asymptotics.solve_tilt_s": ("solve_tilt",),
    "asymptotics.quadrature_s": ("omega", "sigma_sq", "limit_shape",
                                 "shape_curve"),
    "partition_function.coefficients_s": ("coefficients",),
    "partition_function.log_partition_value_s": ("log_partition_value",),
    "partition_function.product_tail_cutoff_s": ("product_tail_cutoff",),
    "sampler.rejection_s": ("sample_small_rejection",),
    "sampler.grand_s": ("sample_grand",),
    "sampler.exact_walk_s": ("sample_small_exact",),
    "diagnostics.predict_concentration_s": ("predict_concentration",),
    "diagnostics.experiment_self_s": ("concentration_experiment",),
}


class _CountingGenerator:
    """Delegates to a numpy Generator and counts the rows of 2-D requests.

    The grand sampler asks for one (rows, part sizes) array per batch, so
    rows are attempts and columns are the part sizes drawn per attempt.
    """

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr
        tracer = self._tracer

        def call(*args, **kwargs):
            size = kwargs.get("size")
            if size is None and name == "random" and args:
                size = args[0]
            if isinstance(size, tuple) and len(size) == 2:
                tracer.count_rows(int(size[0]), int(size[1]))
            return attr(*args, **kwargs)
        # later lookups of the name skip __getattr__
        setattr(self, name, call)
        return call


class Tracer:
    """Spans and counts for one traced pass; install before, uninstall after."""

    def __init__(self, mp):
        self.mp = mp
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.child_time: list[float] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _in_experiment(self) -> bool:
        return any(self.spans[i][0] == "concentration_experiment"
                   for i in self.stack)

    def count_rows(self, rows: int, cols: int) -> None:
        if not self.stack:
            return
        owner = self.spans[self.stack[-1]][0]
        if owner == "sample_small_rejection" and self._in_experiment():
            owner = "experiment rejection"
        self.counts[f"rows:{owner}"] += rows
        self.counts[f"cells:{owner}"] += rows * cols

    def _observe(self, name: str, args, result, worked: bool) -> None:
        c = self.counts
        if name.endswith("h_vector"):
            parent = self.spans[self.stack[-1]][0] if self.stack else ""
            if not parent.endswith("h_vector"):
                c["h_vector_points"] += len(args[1])
        elif name.startswith("Ensemble."):
            c["moment_sum_calls"] += 1
        elif name == "solve_tilt" and worked:
            c["solve_tilt_iterations"] += result.iterations
        elif name == "coefficients":
            c["table_entries"] += result.n_max + 1
            if result.prefix is not None:
                rows = {id(r): r.nbytes for r in result.prefix}
                c["prefix_rows_bytes"] += sum(rows.values())
        elif name == "sample_small_rejection" and self._in_experiment():
            c["experiment_draws"] += 1

    def _wrap(self, name: str, fn):
        spans, child_time, stack = self.spans, self.child_time, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append([name, clock(), 0.0, parent])
            child_time.append(0.0)
            stack.append(idx)
            children_before = len(spans)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = clock()
                spans[idx][2] = end
                if parent >= 0:
                    child_time[parent] += end - spans[idx][1]
            self._observe(name, args, result, len(spans) > children_before)
            return result
        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "multpart" or k.startswith("multpart."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"multpart.{layer}"]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    self._set(cls, meth, self._wrap(name, cls.__dict__[meth]))
                    continue
                fn = getattr(home, name)
                wrapped = self._wrap(name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, attr, wrapped)
        rng = self.mp.RngStream
        plain = rng.generator
        tracer = self

        def generator(stream):
            return _CountingGenerator(plain(stream), tracer)
        self._set(rng, "generator", generator)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- summary -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, self.child_time):
            out[name] += (end - start) - inner
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of this pass, before memo entries are added."""
        selfs = self.self_times()
        c = self.counts
        out = {metric: sum(selfs.get(n, 0.0) for n in names)
               for metric, names in SELF_TIME_GROUPS.items()}
        attempts = c["rows:experiment rejection"]
        grand_rows = c["rows:sample_grand"]
        out.update({
            "series.h_vector_points": c["h_vector_points"],
            "ensemble.moment_sum_calls": c["moment_sum_calls"],
            "asymptotics.solve_tilt_iterations": c["solve_tilt_iterations"],
            "partition_function.table_entries": c["table_entries"],
            "partition_function.prefix_rows_bytes": c["prefix_rows_bytes"],
            "sampler.rejection_attempts": attempts,
            "sampler.acceptance_rate": (c["experiment_draws"] / attempts
                                        if attempts else 0.0),
            "sampler.grand_columns": (c["cells:sample_grand"] / grand_rows
                                      if grand_rows else 0.0),
        })
        return out

    def dump(self) -> list[list]:
        """Spans relative to the first start, for writing out."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, round(s - t0, 9), round(e - t0, 9), p]
                for n, s, e, p in self.spans]

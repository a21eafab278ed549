"""Benchmark of `multpart`: one workload per call, one JSON result line.

    python3 benchmarks/run.py --workload fixed-weight --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its `src`
directory. A run sets up the workload, then makes passes over the
workload's operation list until `--seconds` of pass time have gone by (at
least four passes), checks every output against `oracles.py`, and prints
the result as its last line of standard output. With `--trace 1` the
passes alternate between untraced and traced, and the metrics are the
per-layer numbers of the traced passes together with the tracing overhead.
Progress and per-part timings go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# BLAS and OpenMP pools pinned to one thread, before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MIN_PASSES = 4
# a traced run alternates untraced and traced passes, at least this many each
MIN_TRACED_PAIRS = 2
# the set-up is timed in this process and in SETUP_PROBES fresh ones
SETUP_PROBES = 2
DEFAULT_SEED = 1
DEFAULT_SECONDS = 15


def _import_program():
    """Import multpart from this checkout's src, and nowhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import multpart

    where = Path(multpart.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"multpart was imported from {where}, not from {SRC}")
    return multpart


def _setup(workload: str, seed: int):
    """Import the program and build the workload; return it and the seconds."""
    t0 = time.perf_counter()
    mp = _import_program()
    import workloads

    wl = workloads.WORKLOADS[workload](mp, seed)
    return wl, time.perf_counter() - t0


def _probe_setup(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values) -> float:
    return float(statistics.median(values))


def run(wl, own_setup: float, seed: int, seconds: float, trace: bool) -> dict:
    """Measure an already set-up workload; return the result object."""
    import tracing
    import workloads

    workload = wl.name
    attempted = failed = unexpected = 0
    plain, traced, layers, spans = [], [], [], None
    measured = 0.0
    while True:
        tracer = tracing.Tracer(wl.mp) if trace and len(plain) > len(traced) else None
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            rec = wl.run_pass()
        finally:
            if tracer:
                tracer.uninstall()
        rec.seconds = time.perf_counter() - t0
        measured += rec.seconds
        tally = wl.check(rec)
        attempted += tally.attempted
        failed += tally.failed
        unexpected += tally.unexpected
        workloads.report_errors(rec, tally)
        # keep the timings only, so that outputs do not pile up across passes
        timing = SimpleNamespace(seconds=rec.seconds, stage_s=rec.stage_s,
                                 part_s=rec.part_s)
        if tracer:
            m = tracer.layer_metrics()
            m["ensemble.memo_entries"] = sum(len(e._memo) for e in wl.ensembles())
            layers.append(m)
            spans = tracer.dump()
            traced.append(timing)
        else:
            plain.append(timing)
        passes = len(plain) + len(traced)
        print(f"{workload} pass {passes}{' traced' if tracer else ''}: "
              f"{timing.seconds:.3f} s, stages "
              + ", ".join(f"{s:.3f}" for s in timing.stage_s)
              + f"; {tally.failed} of {tally.attempted} failed", file=sys.stderr)
        del rec
        enough = (len(traced) == len(plain) >= MIN_TRACED_PAIRS if trace
                  else len(plain) >= MIN_PASSES)
        if measured >= seconds and enough:
            break

    parts = {}
    for name in plain[0].part_s:
        parts[name] = _median([r.part_s.get(name, 0.0) for r in plain])
    detail = {"workload": workload, "seed": seed, "passes": len(plain),
              "traced_passes": len(traced), "stages": list(wl.STAGES),
              "part_seconds_median": parts}
    if trace:
        values = {k: _median([m[k] for m in layers]) for k in layers[0]}
        values["trace.overhead_pct"] = 100.0 * (
            _median([r.seconds for r in traced])
            / _median([r.seconds for r in plain]) - 1.0)
    else:
        values = {"setup_s": _median([own_setup] + [
                      _probe_setup(workload, seed) for _ in range(SETUP_PROBES)]),
                  "peak_rss_mb": _peak_rss_mb()}
        for i in range(len(wl.STAGES)):
            values[f"stage{i + 1}_s"] = _median([r.stage_s[i] for r in plain])
    metrics = _with_units(values, "per_layer" if trace else "end_to_end")
    result = {"correct": unexpected == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    _write(workload, seed, trace, result, detail, spans)
    return result


def _with_units(values: dict, kind: str) -> dict:
    """The metrics as BENCHMARK.json declares them, with their units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    if declared.keys() != values.keys():
        raise RuntimeError(f"{kind} metrics {sorted(values)} differ from "
                           f"BENCHMARK.json's {sorted(declared)}")
    return {k: {"value": values[k], "unit": declared[k]} for k in declared}


def _write(workload, seed, trace, result, detail, spans) -> None:
    """Keep the result, the per-part medians and the last traced pass's spans."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    if spans is not None:
        with open(f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"],
                       "spans": spans}, fh)
    for name, seconds in detail["part_seconds_median"].items():
        print(f"  part {name}: {seconds:.4f} s", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fixed-weight", "tables", "shapes"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time the set-up alone and print the seconds")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must lie in [0, 2^63)")
    try:
        wl, own_setup = _setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import multpart from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(own_setup)
        return 0
    result = run(wl, own_setup, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door.

Five subcommands: `shape` (limit-shape CSV), `sample` (partition JSONL),
`tilt` (print the solved tilt), `coeffs` (coefficient CSV), and `verify`
(acceptance-suite runner). Every command takes --ensemble, which accepts a
catalog name (`uniform`), a name with inline parameters (`weighted:y=0.5`),
or a path to a YAML config file.

Exit codes: 0 success, 1 usage/parameter errors (a malformed argument),
2 regime/domain errors (the ensemble's regime refuses the quantity, or a
tilt lies outside [0, rho)), 3 sampling budget exhaustion, 4 numerical
failures. Output formats use `.` decimals and 17 significant digits;
reruns with the same arguments produce byte-identical files.
"""

from __future__ import annotations

import functools
import json
import sys
from decimal import Decimal

import click
import numpy as np

from . import verify as acceptance
from .asymptotics import shape_curve, solve_tilt
from .config import ensemble_from_flag
from .errors import (BudgetExhausted, DomainError, MultpartError, ParamError,
                     RegimeError, TailError)
from .partition_function import coefficients
from .sampler import RngStream, sample_grand, sample_small_many

# click defaults usage errors to exit code 2; this interface reserves 2 for
# regime/domain failures and reports bad invocations as 1
click.UsageError.exit_code = 1

_ENSEMBLE_HELP = ("Catalog name (optionally name:key=val,...) or path to a "
                  "YAML config file.")


def _exit_code(err: MultpartError) -> int:
    if isinstance(err, ParamError):
        return 1
    if isinstance(err, (RegimeError, DomainError)):
        return 2
    if isinstance(err, TailError):
        return 3
    return 4


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BudgetExhausted as err:
            click.echo(f"error: {err}", err=True)
            click.echo(f"attempts={err.attempts} budget={err.budget} "
                       f"acceptance_estimate={err.acceptance_estimate:.6g}",
                       err=True)
            sys.exit(3)
        except MultpartError as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(_exit_code(err))
    return wrapper


def _fmt_float(v: float) -> str:
    return f"{float(v):.17g}"


def _fmt_coefficient(v) -> str:
    if isinstance(v, np.longdouble):
        # stays in extended precision: float64 overflows above ~1.8e308
        return np.format_float_scientific(v, precision=16)
    if isinstance(v, float):
        return _fmt_float(v)
    # int and Fraction render exactly, through Decimal: str() of an int
    # stops at sys.get_int_max_str_digits() digits, Decimal has no limit
    text = str(Decimal(v.numerator))
    return text if v.denominator == 1 else f"{text}/{Decimal(v.denominator)}"


@click.group()
def main():
    """Multiplicative measures on integer partitions."""


@main.command("shape")
@click.option("--ensemble", "ens", required=True, metavar="NAME|PATH",
              help=_ENSEMBLE_HELP)
@click.option("--tmax", type=float, default=5.0, show_default=True,
              help="Right end of the t grid.")
@click.option("--grid", type=int, default=200, show_default=True,
              help="Number of grid points on (0, tmax].")
@click.option("--out", default="-", show_default=True,
              help="Output CSV path ('-' for stdout).")
@_guarded
def cmd_shape(ens, tmax, grid, out):
    """Write the limit-shape curve as CSV with header t,phi."""
    cfg = ensemble_from_flag(ens)
    curve = shape_curve(cfg.ensemble, t_max=tmax, grid_size=grid)
    with click.open_file(out, "w") as fh:
        fh.write("t,phi\n")
        for t, p in curve.rows():
            fh.write(f"{_fmt_float(t)},{_fmt_float(p)}\n")


@main.command("sample")
@click.option("--ensemble", "ens", required=True, metavar="NAME|PATH",
              help=_ENSEMBLE_HELP)
@click.option("--mode", type=click.Choice(["grand", "small-rejection",
                                           "small-pdc", "small-exact"]),
              default="small-rejection", show_default=True)
@click.option("--n", type=int, default=None,
              help="Target weight (small modes).")
@click.option("--x", type=float, default=None,
              help="Tilt parameter (grand mode).")
@click.option("--count", type=click.IntRange(min=1), default=1,
              show_default=True, help="Number of partitions to draw.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default="-", show_default=True,
              help="Output JSONL path ('-' for stdout).")
@_guarded
def cmd_sample(ens, mode, n, x, count, seed, out):
    """Draw partitions; one JSON object per line.

    Replica i draws on stream i of the seed, so outputs are reproducible
    and insensitive to the order draws complete in.
    """
    cfg = ensemble_from_flag(ens)
    e = cfg.ensemble
    if mode == "grand":
        if x is None:
            raise click.UsageError("mode 'grand' requires --x")
        records = []
        for i in range(count):
            rng = RngStream(seed, i)
            records.append(sample_grand(e, x, rng).to_record(rng))
    else:
        if n is None:
            raise click.UsageError(f"mode {mode!r} requires --n")
        parts = sample_small_many(e, n, count, seed,
                                  mode=mode.removeprefix("small-"),
                                  budget=cfg.budget)
        records = [p.to_record(RngStream(seed, i))
                   for i, p in enumerate(parts)]
    with click.open_file(out, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


@main.command("tilt")
@click.option("--ensemble", "ens", required=True, metavar="NAME|PATH",
              help=_ENSEMBLE_HELP)
@click.option("--n", type=int, required=True, help="Target mean weight.")
@_guarded
def cmd_tilt(ens, n):
    """Solve mean weight = n and print the tilt and its scaling numbers."""
    cfg = ensemble_from_flag(ens)
    sol = solve_tilt(cfg.ensemble, n)
    for name, value in (("x_n", sol.x_n), ("tau_n", sol.tau_n),
                        ("alpha", sol.alpha), ("mean", sol.mean),
                        ("variance", sol.variance),
                        ("residual", sol.residual)):
        click.echo(f"{name} = {_fmt_float(value)}")
    click.echo(f"iterations = {sol.iterations}")
    click.echo(f"walks = {sol.walks}")


@main.command("coeffs")
@click.option("--ensemble", "ens", required=True, metavar="NAME|PATH",
              help=_ENSEMBLE_HELP)
@click.option("--n", "n_max", type=click.IntRange(min=0), required=True,
              help="Largest weight to tabulate.")
@click.option("--exact/--float", "exact", default=None,
              help="Force exact or floating arithmetic (default: exact "
                   "when the ensemble supports it).")
@click.option("--out", default="-", show_default=True,
              help="Output CSV path ('-' for stdout).")
@_guarded
def cmd_coeffs(ens, n_max, exact, out):
    """Write weight-generating coefficients a_0..a_n as CSV."""
    cfg = ensemble_from_flag(ens)
    mode = "auto" if exact is None else ("exact" if exact else "float")
    table = coefficients(cfg.ensemble, n_max, mode=mode)
    with click.open_file(out, "w") as fh:
        fh.write("n,a_n\n")
        for i in range(n_max + 1):
            fh.write(f"{i},{_fmt_coefficient(table.coefficient(i))}\n")


@main.command("verify")
@click.argument("suite", default="all")
@click.option("--seed", type=int, default=None,
              help="Override the suite's fixed seed.")
@click.option("--n", type=int, default=None,
              help="Override the sample weight where a suite accepts one.")
@click.option("--out", default="-", show_default=True,
              help="Report JSON path ('-' for stdout).")
@_guarded
def cmd_verify(suite, seed, n, out):
    """Run acceptance suites; exit 0 when every criterion passes, else 4.

    SUITE is one of the names in the report, or 'all'.
    """
    results = acceptance.run_suite(suite, seed=seed, n=n)
    report = {
        "suite": suite,
        "passed": all(r.passed for r in results),
        "results": [r.to_json() for r in results],
    }
    with click.open_file(out, "w") as fh:
        fh.write(json.dumps(report, indent=2) + "\n")
    for r in results:
        click.echo(r.line(), err=True)
    if not report["passed"]:
        sys.exit(4)


if __name__ == "__main__":
    main()

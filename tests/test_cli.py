"""End-to-end tests of the command-line interface.

Everything runs through click's CliRunner, so these exercise argument
parsing, the error-to-exit-code mapping, and the output formats exactly as
a shell user sees them.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import multpart
from multpart import coefficients, ensemble_from_flag, verify
from multpart.cli import _fmt_coefficient, main


def run_cli(*args: str):
    return CliRunner().invoke(main, list(args))


def csv_rows(text: str) -> list[list[str]]:
    lines = text.strip().splitlines()
    return [line.split(",") for line in lines]


# -- top level ---------------------------------------------------------------


def test_help_lists_all_subcommands():
    res = run_cli("--help")
    assert res.exit_code == 0
    for name in ("shape", "sample", "tilt", "coeffs", "verify"):
        assert name in res.output


def test_import_loads_no_scipy_module():
    # scipy is most of a cold start: scipy.stats loads only in criterion 6
    # and hit_pvalues, scipy.special in the functions that call it
    src = str(Path(multpart.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, multpart; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True)
    assert out.stdout.strip() == "[]"


# -- shape -------------------------------------------------------------------


def test_shape_header_grid_and_monotonicity():
    res = run_cli("shape", "--ensemble", "uniform")
    assert res.exit_code == 0
    rows = csv_rows(res.output)
    assert rows[0] == ["t", "phi"]
    assert len(rows) == 201
    ts = [float(r[0]) for r in rows[1:]]
    phis = [float(r[1]) for r in rows[1:]]
    assert ts[0] == pytest.approx(0.025)
    assert ts[-1] == pytest.approx(5.0)
    assert all(a < b for a, b in zip(ts, ts[1:]))
    assert all(a > b for a, b in zip(phis, phis[1:]))


def test_shape_gibbs_value_on_grid():
    # theta=1, beta=1 has scaled shape exp(-t); t=1.0 lands on the grid
    res = run_cli("shape", "--ensemble", "gibbs:theta=1,beta=1")
    assert res.exit_code == 0
    by_t = {float(r[0]): float(r[1]) for r in csv_rows(res.output)[1:]}
    t_star = min(by_t, key=lambda t: abs(t - 1.0))
    assert t_star == pytest.approx(1.0, abs=1e-12)
    assert by_t[t_star] == pytest.approx(math.exp(-1.0), abs=1e-6)


def test_shape_file_output_matches_stdout(tmp_path):
    stdout_res = run_cli("shape", "--ensemble", "uniform", "--grid", "50")
    out = tmp_path / "curve.csv"
    file_res = run_cli("shape", "--ensemble", "uniform", "--grid", "50",
                       "--out", str(out))
    assert stdout_res.exit_code == 0 and file_res.exit_code == 0
    assert out.read_text() == stdout_res.output


def test_shape_nonergodic_exits_2():
    res = run_cli("shape", "--ensemble", "weighted:y=2")
    assert res.exit_code == 2
    assert "error:" in res.stderr
    assert "NonergodicGrandCanonical" in res.stderr


def test_shape_out_of_scope_names_hypothesis():
    res = run_cli("shape", "--ensemble", "restricted:parts=evens")
    assert res.exit_code == 2
    assert "b_1 = 0" in res.stderr


def test_shape_unknown_ensemble_exits_1():
    res = run_cli("shape", "--ensemble", "no_such_family")
    assert res.exit_code == 1
    assert "error:" in res.stderr


def test_shape_bad_grid_exits_1():
    res = run_cli("shape", "--ensemble", "uniform", "--grid", "0")
    assert res.exit_code == 1
    assert "grid_size" in res.stderr


# -- sample ------------------------------------------------------------------


def test_sample_small_exact_records():
    res = run_cli("sample", "--ensemble", "uniform", "--mode", "small-exact",
                  "--n", "5", "--count", "3", "--seed", "1")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines):
        rec = json.loads(line)
        assert set(rec) == {"n", "counts", "seed", "stream"}
        assert rec["n"] == 5
        assert rec["seed"] == 1
        assert rec["stream"] == i
        assert sum(k * r for k, r in rec["counts"]) == 5
        assert all(r >= 1 for _, r in rec["counts"])


def test_sample_gibbs_small_exact_beyond_float_factorials():
    # g_j = c^j / j! for j >= 171 leaves the float range of j!; the draw
    # must still come out
    res = run_cli("sample", "--ensemble", "gibbs", "--mode", "small-exact",
                  "--n", "171", "--seed", "1")
    assert res.exit_code == 0, res.output
    rec = json.loads(res.output)
    assert rec["n"] == 171
    assert sum(k * r for k, r in rec["counts"]) == 171


def test_sample_small_exact_beyond_prefix_cap():
    # the exact sampler keeps O(n) memory; prefix rows stopped at n = 5000
    res = run_cli("sample", "--ensemble", "uniform", "--mode", "small-exact",
                  "--n", "20000", "--seed", "4")
    assert res.exit_code == 0, res.output
    rec = json.loads(res.output)
    assert rec["n"] == 20000
    assert sum(k * r for k, r in rec["counts"]) == 20000


def test_sample_small_exact_strict_series_exits_1(tmp_path):
    # log(1 + z) has negative coefficients: the exact split has no law
    path = tmp_path / "strict.yaml"
    path.write_text("f:\n  kind: custom\n  coefficients: [1, 1]\n"
                    "weights:\n  rule: constant\n")
    res = run_cli("sample", "--ensemble", str(path), "--mode", "small-exact",
                  "--n", "30")
    assert res.exit_code == 1
    assert "small-pdc" in res.stderr


def test_sample_small_pdc_records():
    args = ("sample", "--ensemble", "uniform", "--mode", "small-pdc",
            "--n", "40000", "--count", "2", "--seed", "3")
    res = run_cli(*args)
    assert res.exit_code == 0, res.output
    recs = [json.loads(line) for line in res.output.strip().splitlines()]
    assert [r["stream"] for r in recs] == [0, 1]
    for rec in recs:
        assert rec["n"] == 40000
        assert sum(k * r for k, r in rec["counts"]) == 40000
    assert run_cli(*args).output == res.output


def test_sample_small_pdc_without_size_one_exits_1():
    res = run_cli("sample", "--ensemble", "restricted:parts=evens", "--mode",
                  "small-pdc", "--n", "8")
    assert res.exit_code == 1
    assert "rejection" in res.stderr


def test_sample_weight_zero_is_empty_partition():
    res = run_cli("sample", "--ensemble", "uniform", "--mode", "small-exact",
                  "--n", "0", "--seed", "2")
    assert res.exit_code == 0
    assert json.loads(res.output) == {"n": 0, "counts": [], "seed": 2,
                                      "stream": 0}


def test_sample_rerun_is_byte_identical(tmp_path):
    args = ("sample", "--ensemble", "weighted:y=0.5", "--mode",
            "small-rejection", "--n", "12", "--count", "5", "--seed", "7")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.exit_code == 0
    assert first.output == second.output
    out = tmp_path / "draws.jsonl"
    run_cli(*args, "--out", str(out))
    assert out.read_text() == first.output


def test_sample_grand_record_structure():
    res = run_cli("sample", "--ensemble", "uniform", "--mode", "grand",
                  "--x", "0.5", "--count", "2", "--seed", "3")
    assert res.exit_code == 0
    recs = [json.loads(line) for line in res.output.strip().splitlines()]
    assert [r["stream"] for r in recs] == [0, 1]
    for rec in recs:
        assert rec["n"] == sum(k * r for k, r in rec["counts"])


def test_sample_grand_requires_x():
    res = run_cli("sample", "--ensemble", "uniform", "--mode", "grand")
    assert res.exit_code == 1
    assert "requires --x" in res.stderr


def test_sample_grand_tilt_outside_domain_exits_2():
    res = run_cli("sample", "--ensemble", "uniform", "--mode", "grand",
                  "--x", "1.5")
    assert res.exit_code == 2
    assert "outside" in res.stderr


def test_sample_grand_past_the_size_bound_exits_4():
    res = run_cli("sample", "--ensemble", "uniform", "--mode", "grand",
                  "--x", "0.9999999")
    assert res.exit_code == 4
    assert "part sizes" in res.stderr


def test_sample_small_requires_n():
    res = run_cli("sample", "--ensemble", "uniform")
    assert res.exit_code == 1
    assert "requires --n" in res.stderr


def test_sample_negative_n_exits_1():
    res = run_cli("sample", "--ensemble", "uniform", "--n", "-3")
    assert res.exit_code == 1


def test_sample_count_below_one_exits_1():
    res = run_cli("sample", "--ensemble", "uniform", "--n", "5",
                  "--count", "0")
    assert res.exit_code == 1


def test_sample_empty_support_exits_3_with_attempt_line():
    # evens cannot hit an odd weight; the obstruction is structural
    res = run_cli("sample", "--ensemble", "restricted:parts=evens",
                  "--mode", "small-exact", "--n", "7", "--seed", "1")
    assert res.exit_code == 3
    assert "error:" in res.stderr
    assert "attempts=0 budget=0 acceptance_estimate=0" in res.stderr


# -- tilt --------------------------------------------------------------------


def test_tilt_prints_labeled_solution():
    res = run_cli("tilt", "--ensemble", "uniform", "--n", "100")
    assert res.exit_code == 0
    values = {}
    for line in res.output.strip().splitlines():
        name, _, text = line.partition(" = ")
        values[name] = float(text)
    assert list(values) == ["x_n", "tau_n", "alpha", "mean", "variance",
                            "residual", "iterations", "walks"]
    assert 0.85 < values["x_n"] < 0.90
    assert values["tau_n"] == pytest.approx(1.0 - values["x_n"])
    assert values["mean"] == pytest.approx(100.0, rel=1e-6)
    assert values["residual"] <= 1e-8


def test_tilt_near_pole_for_nonergodic_family():
    # convergent-series families tilt toward the pole with gap ~ 1/(2n)
    res = run_cli("tilt", "--ensemble", "weighted:y=2", "--n", "1000")
    assert res.exit_code == 0
    x_n = float(res.output.splitlines()[0].partition(" = ")[2])
    assert (0.5 - x_n) * 1000 == pytest.approx(0.5, abs=0.05)


def test_tilt_strict_partitions_from_yaml(tmp_path):
    # f = 1 + z, constant weights: mean N(x) = sum_k k x^k / (1 + x^k)
    path = tmp_path / "strict.yaml"
    path.write_text("f:\n  kind: custom\n  coefficients: [1, 1]\n"
                    "weights:\n  rule: constant\n")
    n = 10 ** 6
    res = run_cli("tilt", "--ensemble", str(path), "--n", str(n))
    assert res.exit_code == 0
    x_n = float(res.output.splitlines()[0].partition(" = ")[2])
    k = np.arange(1, 200_000, dtype=np.float64)
    xk = np.exp(k * math.log(x_n))
    assert xk[-1] < 1e-60
    mean = float(np.sum(k * xk / (1.0 + xk)))
    assert abs(mean - n) <= 1e-9 * n


def test_tilt_unreachable_target_reaches_the_generic_error_exit(tmp_path):
    # f = 1 + z with parts of size 1 only: mean N(x) = x / (1 + x) < 1/2,
    # so n = 1 is out of reach. A ConvergenceError is no Param/Regime/
    # Domain/Tail error: exit 4
    path = tmp_path / "one.yaml"
    path.write_text("f:\n  kind: custom\n  coefficients: [1, 1]\n"
                    "weights:\n  rule: explicit\n  values: [1]\n")
    res = run_cli("tilt", "--ensemble", str(path), "--n", "1")
    assert res.exit_code == 4
    assert "unreachable" in res.stderr


def test_tilt_nonpositive_n_exits_1():
    res = run_cli("tilt", "--ensemble", "uniform", "--n", "0")
    assert res.exit_code == 1


# -- coeffs ------------------------------------------------------------------


def test_coeffs_uniform_counts():
    res = run_cli("coeffs", "--ensemble", "uniform", "--n", "10")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "n,a_n"
    assert len(lines) == 12
    assert lines[1] == "0,1"
    assert lines[-1] == "10,42"


def test_coeffs_exact_fractions():
    res = run_cli("coeffs", "--ensemble", "ordered_lists", "--n", "4",
                  "--exact")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[1:] == ["0,1", "1,1", "2,3/2", "3,13/6", "4,73/24"]


def test_coeffs_large_float_uses_extended_precision():
    # a_1200 for y=2 is ~6e361, beyond float64; output must stay finite
    res = run_cli("coeffs", "--ensemble", "weighted:y=2", "--n", "1200",
                  "--float")
    assert res.exit_code == 0
    assert res.output.strip().splitlines()[-1] == \
        "1200,5.9623231529756219e+361"


def test_coeffs_exact_refused_without_rational_data():
    res = run_cli("coeffs", "--ensemble", "gibbs:theta=1,beta=0.5",
                  "--n", "10", "--exact")
    assert res.exit_code == 1
    assert "error:" in res.stderr


def test_coeffs_and_grand_draws_with_a_fractional_coefficient(tmp_path):
    # 0.5 is no exact rational here, so the default route is the float one
    half = tmp_path / "half.yaml"
    half.write_text("f:\n  kind: custom\n  coefficients: [1, 1, 0.5]\n"
                    "weights:\n  rule: constant\n")
    res = run_cli("coeffs", "--ensemble", str(half), "--n", "6")
    assert res.exit_code == 0
    got = [float(v) for _, v in csv_rows(res.output)[1:]]
    assert got == [1, 1, 1.5, 2, 3, 4, 5.25]
    assert "e+00" in res.output
    res = run_cli("sample", "--ensemble", str(half), "--mode", "grand",
                  "--x", "0.5", "--count", "3")
    assert res.exit_code == 0
    for line in res.output.strip().splitlines():
        rec = json.loads(line)
        assert rec["n"] == sum(k * r for k, r in rec["counts"])
    listed = tmp_path / "listed.yaml"
    listed.write_text("f: {kind: geometric, weight: 1}\n"
                      "weights: {rule: explicit, values: [1, 1, 0.5]}\n")
    res = run_cli("coeffs", "--ensemble", str(listed), "--n", "6")
    assert res.exit_code == 0
    got = [float(v) for _, v in csv_rows(res.output)[1:]]
    assert got == [1, 1, 2, 2.5, 3.5, 4, 5.375]


def test_coeffs_render_values_past_the_int_string_limit():
    # a_40 of weighted(1e300) has about 12,000 digits, past the 4,300 that
    # str() of an int allows
    ens = "weighted:y=1e300"
    res = run_cli("coeffs", "--ensemble", ens, "--n", "40")
    assert res.exit_code == 0
    want = coefficients(ensemble_from_flag(ens).ensemble, 40).values
    got = [v for _, v in csv_rows(res.output)[1:]]
    assert len(got[40]) > 12_000
    assert [Decimal(v) for v in got] == [Decimal(int(a)) for a in want]
    q = Fraction(7, 10 ** 5000 + 1)
    num, den = _fmt_coefficient(q).split("/")
    assert (Decimal(num), Decimal(den)) == (7, Decimal(10 ** 5000 + 1))


def test_coeffs_n_zero():
    res = run_cli("coeffs", "--ensemble", "uniform", "--n", "0")
    assert res.exit_code == 0
    assert res.output == "n,a_n\n0,1\n"


# -- verify ------------------------------------------------------------------


def test_verify_single_suite_report():
    res = run_cli("verify", "omega")
    assert res.exit_code == 0
    # res.output interleaves the stderr progress line; parse stdout alone
    report = json.loads(res.stdout)
    assert report["suite"] == "omega"
    assert report["passed"] is True
    assert len(report["results"]) == 1
    entry = report["results"][0]
    assert entry["number"] == 2
    assert entry["passed"] is True
    assert isinstance(entry["seconds"], float)
    assert "[PASS]" in res.stderr


def test_verify_report_to_file(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("verify", "coefficients", "--out", str(out))
    assert res.exit_code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["results"][0]["number"] == 1


def test_verify_failing_suite_exits_4(monkeypatch):
    def failing(seed=None):
        return verify.CriterionResult(number=99, title="always red",
                                      passed=False, detail="forced",
                                      seconds=0.0)

    monkeypatch.setitem(verify.SUITES, "always-red", failing)
    res = run_cli("verify", "always-red")
    assert res.exit_code == 4
    report = json.loads(res.stdout)
    assert report["passed"] is False
    assert "criterion 99 [FAIL]" in res.stderr


def test_verify_unknown_suite_exits_1():
    res = run_cli("verify", "bogus")
    assert res.exit_code == 1
    assert "unknown suite" in res.stderr

"""Config parsing: YAML documents, the --ensemble flag, and field errors."""

import math

import numpy as np
import pytest
import yaml

from multpart import (
    ConfigError,
    CustomSeries,
    EnsembleConfig,
    ExponentialSeries,
    GeometricSeries,
    Regime,
    ensemble_from_flag,
    load_config,
    make,
    parse_config,
)


# ---------------------------------------------------------------------------
# the numerics block: one budget, checked by EnsembleConfig


def test_numerics_defaults():
    assert EnsembleConfig(make("uniform"), "config").budget is None
    assert parse_config({"catalog": "uniform"}).budget is None


@pytest.mark.parametrize("kwargs", [
    {"budget": 0},
    {"budget": -5},
    {"budget": 2.5},
    {"budget": "many"},
    {"budget": 1e3},
])
def test_numerics_validation(kwargs):
    with pytest.raises(ConfigError, match="numerics.budget"):
        EnsembleConfig(make("uniform"), "config", **kwargs)
    with pytest.raises(ConfigError, match="numerics.budget"):
        parse_config({"catalog": "uniform", "numerics": kwargs})


def test_numerics_refuses_bool_budget():
    # bool is an int subclass; a budget of True is still no count
    with pytest.raises(ConfigError, match="numerics.budget"):
        EnsembleConfig(make("uniform"), "config", budget=True)
    with pytest.raises(ConfigError, match="numerics.budget"):
        parse_config({"catalog": "uniform", "numerics": {"budget": True}})


def test_yaml_null_budget_is_the_default(tmp_path):
    p = tmp_path / "ens.yaml"
    p.write_text("catalog: uniform\nnumerics:\n  budget: null\n")
    assert load_config(str(p)).budget is None


def test_yaml_bool_budget_refused(tmp_path):
    p = tmp_path / "ens.yaml"
    p.write_text("catalog: uniform\nnumerics:\n  budget: true\n")
    with pytest.raises(ConfigError, match="numerics.budget"):
        load_config(str(p))


# ---------------------------------------------------------------------------
# catalog documents


def test_catalog_document():
    cfg = parse_config({"catalog": "weighted", "params": {"y": 0.5}})
    assert cfg.ensemble.label == "weighted(y=0.5)"
    assert cfg.ensemble.regime is Regime.ERGODIC_SUPERCRITICAL
    assert cfg.budget is None
    assert cfg.source == "config"


def test_catalog_document_with_numerics():
    cfg = parse_config({"catalog": "uniform", "numerics": {"budget": 500}})
    assert cfg.budget == 500
    cfg = parse_config({"catalog": "uniform", "numerics": {}})
    assert cfg.budget is None


@pytest.mark.parametrize("doc,needle", [
    ({"catalog": "nope"}, "catalog"),
    ({"catalog": 7}, "catalog"),
    ({"catalog": "weighted", "params": {"y": -1}}, "catalog"),
    ({"catalog": "uniform", "params": {1: 2}}, "params"),
    ({"catalog": "uniform", "extra": 1}, "unknown keys"),
    ({"numerics": {}}, "catalog"),
    ([1, 2], "mapping"),
    ({"catalog": "uniform", "numerics": {"bogus": 1}}, "numerics"),
    ({"catalog": "uniform", "numerics": {"budget": "many"}},
     "numerics.budget"),
    # the tilt has no settings: a config that sets one fails, naming it
    ({"catalog": "uniform", "numerics": {"tilt_max_iter": 200}},
     "tilt_max_iter"),
])
def test_catalog_document_errors(doc, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(doc)


# ---------------------------------------------------------------------------
# explicit documents


def test_explicit_geometric_document():
    cfg = parse_config({
        "f": {"kind": "geometric", "y": 0.5},
        "weights": {"rule": "constant"},
        "label": "my-ensemble",
    })
    e = cfg.ensemble
    assert isinstance(e.series, GeometricSeries)
    assert e.series.radius == 2.0
    assert e.label == "my-ensemble"
    assert e.weights.rule == "constant"


def test_explicit_exponential_power_law():
    cfg = parse_config({
        "f": {"kind": "exponential", "rate": 1},
        "weights": {"rule": "power_law", "theta": 2, "beta": 1.5},
    })
    e = cfg.ensemble
    assert isinstance(e.series, ExponentialSeries)
    assert e.weights.theta_param == 2
    assert e.weights.beta_param == 1.5


def test_explicit_custom_series():
    cfg = parse_config({
        "f": {
            "kind": "custom",
            "coefficients": [1, 1, 0.5],
            "radius": 3.0,
            "singularity": {"kind": "pole", "order": 2},
        },
        "weights": {"rule": "indicator", "parts": "odds"},
    })
    e = cfg.ensemble
    assert isinstance(e.series, CustomSeries)
    assert e.series.radius == 3.0
    assert e.series.singularity.kind == "pole"
    assert 3 in e.weights.part_set and 2 not in e.weights.part_set


def test_explicit_weight_alias_and_normalize():
    cfg = parse_config({
        "f": {"kind": "exponential", "c": 1},
        "weights": {"rule": "monomial", "coeff": 2, "power": 0.5},
        "normalize": True,
    })
    assert cfg.ensemble.weights.b_1 == pytest.approx(1.0)


def test_declared_block():
    cfg = parse_config({
        "f": {"kind": "geometric", "weight": 1},
        "weights": {"rule": "explicit", "values": [1, 1.5, 1, 1.5]},
        "declared": {"beta": 1.0, "theta": 1.25},
    })
    w = cfg.ensemble.weights
    assert w.beta == 1.0
    assert w.theta == 1.25
    # only beta and theta may be declared
    for key in ("zeta", "chi"):
        with pytest.raises(ConfigError,
                           match=r"unknown keys \['%s'\]; allowed: "
                                 r"\['beta', 'theta'\]" % key):
            parse_config({"f": {"kind": "geometric"},
                          "weights": {"rule": "constant"},
                          "declared": {key: 0.5}})


def test_declared_theta_scales_with_normalization():
    # B_k = 2 k^1.5 with b_1 = 2; normalized, B_k = k^1.5, so theta = 1
    cfg = parse_config({
        "f": {"kind": "geometric", "weight": 1},
        "weights": {"rule": "power_law", "theta": 2, "beta": 1.5},
        "declared": {"theta": 2.0},
        "normalize": True,
    })
    w = cfg.ensemble.weights
    assert w.b_1 == 1.0
    assert w.theta == 1.0
    ks = np.array([1, 10, 1000])
    assert np.allclose(w.prefix_sums(ks), w.theta * ks ** w.beta, rtol=1e-14)


def test_module_docstring_examples_parse():
    import multpart.config

    # each indented block of the module docstring is one YAML document
    blocks, cur = [], []
    for line in multpart.config.__doc__.splitlines() + [""]:
        if line.startswith("    "):
            cur.append(line[4:])
        elif cur:
            blocks.append("\n".join(cur))
            cur = []
    assert len(blocks) == 2
    catalog_cfg, explicit_cfg = (parse_config(yaml.safe_load(b))
                                 for b in blocks)
    assert catalog_cfg.ensemble.label == "weighted(y=0.5)"
    e = explicit_cfg.ensemble
    assert e.label == "my-ensemble"
    assert (e.weights.beta, e.weights.theta) == (2.0, 1.0)


def test_modulus_part_set():
    cfg = parse_config({
        "f": {"kind": "geometric"},
        "weights": {"rule": "indicator",
                    "parts": {"modulus": 3, "residues": [1, 2]}},
    })
    ps = cfg.ensemble.weights.part_set
    assert 1 in ps and 2 in ps and 3 not in ps and 4 in ps


@pytest.mark.parametrize("doc,needle", [
    ({"f": {"kind": "laurent"}, "weights": {"rule": "constant"}}, "f.kind"),
    ({"f": {"kind": "geometric", "y": -2}, "weights": {"rule": "constant"}},
     "f.y"),
    ({"f": {"kind": "geometric", "y": "big"}, "weights":
      {"rule": "constant"}}, "f.y"),
    ({"f": {"kind": "custom"}, "weights": {"rule": "constant"}},
     "f.coefficients"),
    ({"f": {"kind": "custom", "coefficients": [1, 1],
            "singularity": {"kind": "pole"}},
      "weights": {"rule": "constant"}}, "pole"),
    ({"f": {"kind": "geometric"}, "weights": {"rule": "fancy"}},
     "weights.rule"),
    ({"f": {"kind": "geometric"}, "weights": {"rule": "indicator"}},
     "weights.parts"),
    ({"f": {"kind": "geometric"}, "weights": {"rule": "explicit"}},
     "weights.values"),
    ({"f": {"kind": "geometric"},
      "weights": {"rule": "power_law", "theta": -1}}, "weights.theta"),
    ({"f": {"kind": "geometric"}, "weights": {"rule": "constant"},
      "declared": {"chi": 1.5}}, "chi"),
    ({"f": {"kind": "geometric"}, "weights": {"rule": "constant"},
      "declared": {"slack": 1}}, "declared"),
    ({"f": {"kind": "geometric"}, "weights": {"rule": "constant"},
      "label": 7}, "label"),
    ({"f": {"kind": "geometric"}}, "weights"),
    ({"weights": {"rule": "constant"}}, "f"),
    ({"f": {"kind": "geometric"}, "weights": {"rule": ["constant"]}},
     "weights.rule"),
])
def test_explicit_document_errors(doc, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(doc)


def test_source_prefix_in_errors():
    with pytest.raises(ConfigError, match="my.yaml"):
        parse_config({"bogus": 1}, source="my.yaml")


# ---------------------------------------------------------------------------
# files


def test_load_config_file(tmp_path):
    p = tmp_path / "ens.yaml"
    p.write_text(
        "catalog: gibbs\n"
        "params:\n"
        "  theta: 1\n"
        "  beta: 2\n"
        "numerics:\n"
        "  budget: 100\n")
    cfg = load_config(str(p))
    assert cfg.ensemble.label == "gibbs(theta=1, beta=2)"
    assert cfg.budget == 100
    assert cfg.source == str(p)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="nope.yaml"):
        load_config(str(tmp_path / "nope.yaml"))


def test_load_config_yaml_error_has_position(tmp_path):
    p = tmp_path / "broken.yaml"
    p.write_text("catalog: [unclosed\n")
    with pytest.raises(ConfigError, match="line"):
        load_config(str(p))


# ---------------------------------------------------------------------------
# the --ensemble flag


def test_flag_plain_name():
    cfg = ensemble_from_flag("uniform")
    assert cfg.ensemble.label == "uniform"
    assert cfg.source == "uniform"


def test_flag_with_params():
    cfg = ensemble_from_flag("weighted:y=0.5")
    assert cfg.ensemble.label == "weighted(y=0.5)"
    cfg = ensemble_from_flag("gibbs:theta=2,beta=1")
    assert cfg.ensemble.label == "gibbs(theta=2, beta=1)"
    cfg = ensemble_from_flag("restricted:parts=odds")
    assert cfg.ensemble.weights.part_set.label == "odds"


def test_flag_file_path(tmp_path):
    p = tmp_path / "conf.yml"
    p.write_text("catalog: uniform\n")
    assert ensemble_from_flag(str(p)).ensemble.label == "uniform"


@pytest.mark.parametrize("value", [
    "", "zeta", "weighted", "weighted:y", "weighted:=2", "weighted:y=-1",
    "uniform:y=2",
])
def test_flag_errors(value):
    with pytest.raises(ConfigError, match="--ensemble|no such file|:"):
        ensemble_from_flag(value)


def test_flag_error_mentions_flag():
    with pytest.raises(ConfigError, match="--ensemble"):
        ensemble_from_flag("zeta")


def test_flag_numeric_coercion():
    cfg = ensemble_from_flag("weighted:y=2")
    assert cfg.ensemble.series.weight == 2
    assert math.isclose(cfg.ensemble.rho, 0.5)

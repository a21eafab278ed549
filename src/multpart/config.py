"""Build ensembles from structured config files or one-line flag values.

Two top-level document shapes are accepted. Either a catalog reference:

    catalog: weighted
    params: {y: 0.5}

or a fully explicit description:

    f:        {kind: geometric, weight: 1.0}
    weights:  {rule: power_law, theta: 1.0, beta: 2.0}
    declared: {beta: 2.0, theta: 1.0}
    label:    my-ensemble
    normalize: false

Both may carry a `numerics:` block; its one key, `budget`, caps the attempts
of each rejection or pdc draw (the tilt x_n has no settings). Parse failures
raise ConfigError with the offending field path in the message; YAML syntax
errors keep the parser's line/column information.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from numbers import Real
from typing import Any

import yaml

from . import catalog
from .ensemble import (Ensemble, WeightSequence, constant_weights,
                       explicit_weights, indicator_weights, monomial_weights,
                       power_law_weights)
from .errors import ConfigError, MultpartError
from .series import (CustomSeries, ExponentialSeries, GeometricSeries,
                     SeriesFunction, Singularity)

_SERIES_KINDS = ("geometric", "exponential", "custom")
# each weight rule with the keys its section may carry besides "rule"
_WEIGHT_RULES = {"constant": (), "indicator": ("parts",),
                 "power_law": ("theta", "beta"), "monomial": ("coeff", "power"),
                 "explicit": ("values",)}


@dataclass(frozen=True)
class Numerics:
    """Sampler overrides a config may carry; None keeps the library default."""

    budget: int | None = None

    def __post_init__(self):
        if self.budget is not None and not (
                isinstance(self.budget, int) and self.budget > 0):
            raise ConfigError("numerics.budget: must be a positive integer")


@dataclass(frozen=True)
class EnsembleConfig:
    """A parsed config: the ensemble it describes plus numeric overrides."""

    ensemble: Ensemble
    numerics: Numerics
    source: str


def _fail(path: str, msg: str) -> ConfigError:
    return ConfigError(f"{path}: {msg}")


def _require_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise _fail(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _reject_extras(sec: dict, allowed: tuple, path: str) -> None:
    extras = sorted(k for k in sec if k not in allowed)
    if extras:
        raise _fail(path, f"unknown keys {extras}; allowed: {sorted(allowed)}")


def _number(sec: dict, key: str, path: str, default=None,
            positive: bool = False):
    if key not in sec or sec[key] is None:
        return default
    v = sec[key]
    if isinstance(v, bool) or not isinstance(v, Real):
        raise _fail(f"{path}.{key}", f"expected a number, got {v!r}")
    if positive and not (v > 0):
        raise _fail(f"{path}.{key}", f"must be positive, got {v!r}")
    return v


def _build_series(sec: dict, path: str) -> SeriesFunction:
    sec = _require_mapping(sec, path)
    kind = sec.get("kind")
    if kind not in _SERIES_KINDS:
        raise _fail(f"{path}.kind",
                    f"expected one of {list(_SERIES_KINDS)}, got {kind!r}")
    if kind == "geometric":
        _reject_extras(sec, ("kind", "weight", "y"), path)
        w = _number(sec, "weight", path, default=None, positive=True)
        if w is None:
            w = _number(sec, "y", path, default=1, positive=True)
        return GeometricSeries(w)
    if kind == "exponential":
        _reject_extras(sec, ("kind", "rate", "c"), path)
        r = _number(sec, "rate", path, default=None, positive=True)
        if r is None:
            r = _number(sec, "c", path, default=1, positive=True)
        return ExponentialSeries(r)
    _reject_extras(sec, ("kind", "coefficients", "radius", "singularity"),
                   path)
    coeffs = sec.get("coefficients")
    if not isinstance(coeffs, (list, tuple)) or not coeffs:
        raise _fail(f"{path}.coefficients",
                    "custom series needs a nonempty coefficient list")
    radius = _number(sec, "radius", path, default=math.inf, positive=True)
    sing = Singularity("none")
    if "singularity" in sec and sec["singularity"] is not None:
        ss = _require_mapping(sec["singularity"], f"{path}.singularity")
        _reject_extras(ss, ("kind", "order"), f"{path}.singularity")
        sing = Singularity(ss.get("kind", "none"), ss.get("order"))
    return CustomSeries(list(coeffs), radius=float(radius), singularity=sing)


def _build_weights(sec: dict, declared: dict, path: str) -> WeightSequence:
    sec = _require_mapping(sec, path)
    rule = sec.get("rule")
    if not isinstance(rule, str) or rule not in _WEIGHT_RULES:
        raise _fail(f"{path}.rule",
                    f"expected one of {list(_WEIGHT_RULES)}, got {rule!r}")
    decl = {"declared_beta": _number(declared, "beta", "declared"),
            "declared_theta": _number(declared, "theta", "declared",
                                      positive=True)}
    _reject_extras(sec, ("rule",) + _WEIGHT_RULES[rule], path)
    if rule == "constant":
        return constant_weights(**decl)
    if rule == "indicator":
        if "parts" not in sec:
            raise _fail(f"{path}.parts", "indicator rule needs a part set")
        return indicator_weights(sec["parts"], **decl)
    if rule == "power_law":
        return power_law_weights(
            _number(sec, "theta", path, default=1, positive=True),
            _number(sec, "beta", path, default=1, positive=True), **decl)
    if rule == "monomial":
        return monomial_weights(
            _number(sec, "coeff", path, default=1, positive=True),
            _number(sec, "power", path, default=0), **decl)
    values = sec.get("values")
    if not isinstance(values, (list, tuple)) or not values:
        raise _fail(f"{path}.values",
                    "explicit rule needs a nonempty value list")
    return explicit_weights(values, **decl)


def _build_numerics(sec: Any, path: str) -> Numerics:
    if sec is None:
        return Numerics()
    sec = _require_mapping(sec, path)
    _reject_extras(sec, ("budget",), path)
    if "budget" not in sec:
        return Numerics()
    v = sec["budget"]
    if isinstance(v, bool) or not isinstance(v, int):
        raise _fail(f"{path}.budget", f"expected an integer, got {v!r}")
    return Numerics(budget=v)


def parse_config(doc: Any, source: str = "config") -> EnsembleConfig:
    """Turn a parsed document into an EnsembleConfig or raise ConfigError."""
    doc = _require_mapping(doc, source)
    numerics = _build_numerics(doc.get("numerics"), "numerics")
    if "catalog" in doc:
        _reject_extras(doc, ("catalog", "params", "numerics"), source)
        name = doc["catalog"]
        if not isinstance(name, str):
            raise _fail("catalog", f"expected a family name, got {name!r}")
        params = doc.get("params") or {}
        _require_mapping(params, "params")
        if not all(isinstance(k, str) for k in params):
            raise _fail("params", "parameter names must be strings")
        try:
            e = catalog.make(name, **params)
        except MultpartError as err:
            raise _fail("catalog", str(err)) from err
        return EnsembleConfig(e, numerics, source)
    if "f" not in doc or "weights" not in doc:
        raise _fail(source, "document needs either a `catalog` key or both "
                    "`f` and `weights` sections")
    _reject_extras(doc, ("f", "weights", "declared", "label", "normalize",
                         "numerics"), source)
    declared = doc.get("declared") or {}
    _require_mapping(declared, "declared")
    _reject_extras(declared, ("beta", "theta"), "declared")
    try:
        series = _build_series(doc["f"], "f")
        weights = _build_weights(doc["weights"], declared, "weights")
        label = doc.get("label") or ""
        if not isinstance(label, str):
            raise _fail("label", f"expected a string, got {label!r}")
        e = Ensemble(series, weights, label=label)
        if doc.get("normalize"):
            e = e.normalized()
    except ConfigError:
        raise
    except MultpartError as err:
        raise ConfigError(f"{source}: {err}") from err
    return EnsembleConfig(e, numerics, source)


def load_config(path: str) -> EnsembleConfig:
    """Read a YAML config file and build its ensemble."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as err:
        raise ConfigError(f"{path}: {err}") from err
    except yaml.YAMLError as err:
        # the parser's message carries line/column marks
        raise ConfigError(f"{path}: {err}") from err
    return parse_config(doc, source=path)


def _coerce_scalar(text: str):
    t = text.strip()
    for cast in (int, float):
        try:
            return cast(t)
        except ValueError:
            pass
    return t


def ensemble_from_flag(value: str) -> EnsembleConfig:
    """Resolve an --ensemble flag: catalog name, name:k=v,..., or file path.

    Anything that exists on disk or looks like a YAML path is loaded as a
    config file; otherwise the value is a catalog family, optionally with
    inline parameters after a colon, e.g. `weighted:y=0.5`.
    """
    if not value:
        raise ConfigError("--ensemble: empty value")
    if (os.sep in value or value.endswith((".yml", ".yaml"))
            or os.path.isfile(value)):
        return load_config(value)
    name, _, tail = value.partition(":")
    params: dict[str, Any] = {}
    if tail:
        for item in tail.split(","):
            key, eq, raw = item.partition("=")
            if not eq or not key.strip():
                raise ConfigError(f"--ensemble: expected key=value, "
                                  f"got {item!r}")
            params[key.strip()] = _coerce_scalar(raw)
    try:
        e = catalog.make(name, **params)
    except MultpartError as err:
        raise ConfigError(f"--ensemble: {err}") from err
    return EnsembleConfig(e, Numerics(), source=value)

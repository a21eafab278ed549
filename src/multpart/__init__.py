"""Multiplicative probability measures on integer partitions.

A partition ensemble is a single-part series f paired with a weight
sequence b_k; the induced measure tilts each part size independently.
This package computes the generating coefficients exactly, solves the
tilt that targets a mean weight, evaluates limit shapes by quadrature,
samples in the grand and fixed-weight ensembles reproducibly, and runs
concentration diagnostics against the shape predictions.
"""

from .asymptotics import (ShapeCurve, TiltSolution, limit_shape, omega,
                          phi_at_zero_divergent, scaling_alpha, shape_curve,
                          sigma_sq, solve_tilt, symmetric_rescale)
from .catalog import CatalogEntry, dilogarithm, entry, make, names, reference_shape
from .config import (EnsembleConfig, ensemble_from_flag, load_config,
                     parse_config)
from .diagnostics import (ConcentrationPrediction, ConcentrationReport,
                          DegenerateShapeReport, VarianceRatioResult,
                          concentration_experiment, degenerate_shape_probe,
                          diagram_deviations, large_part_mass,
                          predict_concentration, scaled_diagram,
                          variance_ratio_probe, young_function,
                          young_integral)
from .ensemble import (Condition10Report, Condition11Report, Ensemble,
                       PartSet, Regime, WeightSequence, check_condition_10,
                       check_condition_11, classify_regime, constant_weights,
                       explicit_weights, indicator_weights, monomial_weights,
                       power_law_weights)
from .errors import (BudgetExhausted, ConfigError, ConvergenceError,
                     DomainError, EmptySupportError, FitUnstable,
                     MultpartError, NegativeCoefficientError, ParamError,
                     QuadratureError, RegimeError, TableError, TailError,
                     UnknownNameError)
from .partition_function import (CoefficientTable, coefficients,
                                 local_limit_probe, log_partition_value,
                                 partition_numbers, point_mass,
                                 product_tail_cutoff)
from .sampler import (Partition, RngStream, default_budget, sample_count,
                      sample_grand, sample_small_exact, sample_small_many,
                      sample_small_pdc, sample_small_rejection)
from .series import (CustomSeries, ExponentialSeries, GeometricSeries,
                     PowerSeriesFunction, SeriesFunction, Singularity,
                     power_coefficients)
from .verify import CriterionResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "BudgetExhausted", "CatalogEntry", "CoefficientTable",
    "ConcentrationPrediction", "ConcentrationReport", "Condition10Report", "Condition11Report",
    "ConfigError", "ConvergenceError", "CriterionResult", "CustomSeries",
    "DegenerateShapeReport", "DomainError", "EmptySupportError", "Ensemble",
    "EnsembleConfig", "ExponentialSeries", "FitUnstable", "GeometricSeries",
    "MultpartError", "NegativeCoefficientError", "ParamError",
    "PartSet", "Partition", "PowerSeriesFunction", "QuadratureError",
    "Regime", "RegimeError", "RngStream", "SeriesFunction", "ShapeCurve",
    "Singularity", "TableError", "TailError", "TiltSolution",
    "UnknownNameError", "VarianceRatioResult",
    "WeightSequence", "check_condition_10", "check_condition_11",
    "classify_regime", "coefficients", "concentration_experiment",
    "constant_weights", "default_budget", "degenerate_shape_probe",
    "diagram_deviations", "dilogarithm", "ensemble_from_flag", "entry", "explicit_weights",
    "indicator_weights", "large_part_mass", "limit_shape",
    "load_config", "local_limit_probe", "log_partition_value", "make",
    "monomial_weights", "names", "omega", "parse_config",
    "partition_numbers", "phi_at_zero_divergent", "point_mass",
    "power_coefficients", "power_law_weights", "predict_concentration",
    "product_tail_cutoff",
    "reference_shape", "run_suite", "sample_count", "sample_grand",
    "sample_small_exact", "sample_small_many", "sample_small_pdc",
    "sample_small_rejection",
    "scaled_diagram", "scaling_alpha", "shape_curve", "sigma_sq",
    "solve_tilt", "symmetric_rescale", "variance_ratio_probe",
    "young_function", "young_integral",
]

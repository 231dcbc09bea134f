"""Quantile calibration toolkit for probabilistic regression.

Train heteroscedastic Gaussian regressors whose PIT values are pushed
toward uniformity by a differentiable penalty, compare against Monte-Carlo
dropout and deep-ensemble baselines, recalibrate post hoc with isotonic
regression, and measure everything with quantile-calibration metrics.
"""

from .ckl import CklEstimate, ckl_uniform, quantile_reg_loss, total_loss
from .datasets import (
    Dataset,
    SplitSpec,
    Standardization,
    load_csv,
    load_descriptor,
    load_from_descriptor,
    make_splits,
    standardize,
    synth_hetero,
)
from .gaussian import (
    GaussianPrediction,
    aggregate_ensemble,
    aggregate_mc,
    gaussian_nll,
    pit,
)
from .metrics import (
    MetricConfig,
    MetricsReport,
    calibration_error,
    predictive_nll,
    reliability_curve,
    rmse,
)
from .models import (
    EnsembleConfig,
    MlpParams,
    TrainConfig,
    ensemble_predict,
    ensemble_train,
    load_params,
    mc_dropout_predict,
    mlp_forward,
    predict,
    save_params,
    train,
)
from .recalib import (
    CalibrationMap,
    apply_map,
    fit_calibration_map,
    load_map,
    pav,
    save_map,
)
from .softsort import SoftSortConfig, soft_permutation, soft_sorted

__version__ = "0.1.0"

__all__ = [
    "CalibrationMap",
    "CklEstimate",
    "Dataset",
    "EnsembleConfig",
    "GaussianPrediction",
    "MetricConfig",
    "MetricsReport",
    "MlpParams",
    "SoftSortConfig",
    "SplitSpec",
    "Standardization",
    "TrainConfig",
    "aggregate_ensemble",
    "aggregate_mc",
    "apply_map",
    "calibration_error",
    "ckl_uniform",
    "ensemble_predict",
    "ensemble_train",
    "fit_calibration_map",
    "gaussian_nll",
    "load_csv",
    "load_descriptor",
    "load_from_descriptor",
    "load_map",
    "load_params",
    "make_splits",
    "mc_dropout_predict",
    "mlp_forward",
    "pav",
    "pit",
    "predict",
    "predictive_nll",
    "quantile_reg_loss",
    "reliability_curve",
    "rmse",
    "save_map",
    "save_params",
    "soft_permutation",
    "soft_sorted",
    "standardize",
    "synth_hetero",
    "total_loss",
    "train",
]

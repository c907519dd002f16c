"""Takagi-Sugeno neuro-fuzzy regression with alternating bi-objective training.

Modes: classic single-objective ANFIS, weighted-sum MO-ANFIS, and X-ANFIS,
which alternates an accuracy pass with an explainability pass driving
adjacent fuzzy sets toward a target distinguishability.
"""

from .data import (
    DatasetManifest,
    DatasetSplit,
    Scaler,
    load_csv,
    load_manifest,
    split_scale,
    synth_regression,
)
from .fcm_init import FCMConfig, FCMResult, fcm_fit
from .inference import Order, RuleBase, load_model, predict, save_model
from .membership import SCALE_MIN, MFKind
from .metrics import (
    EvalReport,
    evaluate_model,
    mean_distinguishability,
    pareto_front,
    regression_metrics,
)
from .numerics import InsufficientDataError, RandomStream, SingularMatrixError, mean_ci95
from .training import EpochTrace, Mode, TrainConfig, TrainResult, train

__version__ = "0.1.0"

__all__ = [
    "DatasetManifest",
    "DatasetSplit",
    "EpochTrace",
    "EvalReport",
    "FCMConfig",
    "FCMResult",
    "InsufficientDataError",
    "MFKind",
    "Mode",
    "Order",
    "RandomStream",
    "RuleBase",
    "SCALE_MIN",
    "Scaler",
    "SingularMatrixError",
    "TrainConfig",
    "TrainResult",
    "evaluate_model",
    "fcm_fit",
    "load_csv",
    "load_manifest",
    "load_model",
    "mean_ci95",
    "mean_distinguishability",
    "pareto_front",
    "predict",
    "regression_metrics",
    "save_model",
    "split_scale",
    "synth_regression",
    "train",
]

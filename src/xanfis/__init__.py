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
from .fcm_init import FCMConfig, FCMResult, derive_scales, fcm_fit
from .inference import (
    EPS_DENOM,
    FiringMatrices,
    Order,
    RuleBase,
    design_matrix,
    firing_strengths,
    fit_consequents,
    load_model,
    predict,
    save_model,
)
from .membership import SCALE_MIN, MFKind
from .metrics import (
    EvalReport,
    ParetoPoint,
    evaluate_model,
    mean_distinguishability,
    pareto_front,
    regression_metrics,
)
from .numerics import (
    InsufficientDataError,
    RandomStream,
    SingularMatrixError,
    mean_ci95,
    ridge_solve,
)
from .training import (
    DivergenceError,
    EpochTrace,
    Mode,
    TrainConfig,
    adjacency_pairs,
    backward_pass,
    train,
    xpass_update,
)

__version__ = "0.1.0"

__all__ = [
    "DatasetManifest",
    "DatasetSplit",
    "DivergenceError",
    "EPS_DENOM",
    "EpochTrace",
    "EvalReport",
    "FCMConfig",
    "FCMResult",
    "FiringMatrices",
    "InsufficientDataError",
    "MFKind",
    "Mode",
    "Order",
    "ParetoPoint",
    "RandomStream",
    "RuleBase",
    "SCALE_MIN",
    "Scaler",
    "SingularMatrixError",
    "TrainConfig",
    "adjacency_pairs",
    "backward_pass",
    "derive_scales",
    "design_matrix",
    "evaluate_model",
    "fcm_fit",
    "firing_strengths",
    "fit_consequents",
    "load_csv",
    "load_manifest",
    "load_model",
    "mean_ci95",
    "mean_distinguishability",
    "pareto_front",
    "predict",
    "regression_metrics",
    "ridge_solve",
    "save_model",
    "split_scale",
    "synth_regression",
    "train",
    "xpass_update",
]

"""Evaluation metrics: regression errors, distinguishability, Pareto-front
extraction.

All regression metrics are computed on scaled targets; callers wanting raw
units map predictions back with the scaler's range, y * (y_max - y_min) + y_min.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inference import predict
from .numerics import as_array, as_rows
from .training import mean_distinguishability  # re-exported: defined with the trainer


@dataclass
class EvalReport:
    mse: float
    rmse: float
    mae: float
    r2: float
    mean_D: float


def regression_metrics(y, yhat):
    """(mse, rmse, mae, r2); r2 is 1 - SSE/SST about the mean of y."""
    y = as_array(y, 1, "y")
    yhat = as_array(yhat, 1, "yhat")
    if y.shape[0] != yhat.shape[0]:
        raise ValueError(f"length mismatch: {y.shape[0]} vs {yhat.shape[0]}")
    if y.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    err = yhat - y
    mse = float(np.mean(err * err))
    rmse = float(np.sqrt(mse))
    mae = float(np.mean(np.abs(err)))
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        raise ValueError("r2 undefined: target is constant")
    r2 = 1.0 - float(np.sum(err * err)) / sst
    return mse, rmse, mae, r2


def pareto_front(items, key):
    """Non-dominated subset of items maximizing key(item) = (r2, mean_D), sorted by r2 descending.

    Items tied in both coordinates are all kept (neither dominates).  An
    item whose r2 or mean_D is not finite is rejected by its run_id.
    """
    bad = [item.run_id for item in items if not all(map(math.isfinite, key(item)))]
    if bad:
        raise ValueError(f"non-finite r2 or mean_D in point(s): {', '.join(bad)}")
    front = []
    for item in sorted(items, key=lambda item: [-v for v in key(item)]):
        # the last kept item has the largest mean_D of every item before this one
        last = key(front[-1]) if front else None
        if last is None or key(item)[1] > last[1] or key(item) == last:
            front.append(item)
    return front


def evaluate_model(rb, X, y):
    """Predict and bundle regression metrics with distinguishability."""
    X, y = as_rows(X, y)
    mse, rmse, mae, r2 = regression_metrics(y, predict(rb, X))
    return EvalReport(mse=mse, rmse=rmse, mae=mae, r2=r2, mean_D=mean_distinguishability(rb))

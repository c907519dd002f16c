"""Alternating bi-objective training.

Each epoch runs, in order: consequent refit (regularized LSE), a backward
pass on MSE over the antecedents (consequents held fixed), and — in
X-ANFIS mode — an explainability pass that nudges adjacent-set centers
toward a target distinguishability while scales stay frozen.  In MO-ANFIS
mode the backward pass descends the scalarized objective
MSE + weight * sum over adjacent pairs of 0.5 * (D - D_target)^2 instead.
The refit's forward and predictions are the only training-set forward of
each antecedent state, and one adjacency pass per state serves both its
traced mean D and the next MO-ANFIS step.
Early stopping watches validation MSE with a patience window; train
returns the best validation snapshot and the reason the run stopped.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import write_csv
from .inference import RuleBase, Rows, forward, mse_antecedent_gradients, refit
from .membership import project_bounds_arrays
from .numerics import SingularMatrixError, as_rows, check_fields

#: adjacent pairs closer than this get no explainability gradient; the
#: pair distance divides the update, so coincident sets must be skipped
D_SING = 1e-9

#: every gradient step clips each gradient entry to [-CLIP, CLIP]
CLIP = 1.0


class Mode(str, enum.Enum):
    ANFIS = "anfis"
    MO_ANFIS = "mo_anfis"
    X_ANFIS = "x_anfis"


@dataclass(frozen=True)
class TrainConfig:
    mode: Mode = Mode.ANFIS
    lr_backward: float = 0.1
    lr_xpass: float = 0.1
    lam: float = 1e-4
    d_target: float = 0.5
    mo_weight: float = 1.0
    max_epochs: int = 500
    patience: int = 20

    def __post_init__(self):
        check_fields(self)
        if not 0.0 < self.d_target <= 1.0:
            raise ValueError(f"d_target must be in (0, 1], got {self.d_target}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.lr_backward <= 0:
            raise ValueError(f"lr_backward must be positive, got {self.lr_backward}")
        if self.lr_xpass < 0:
            raise ValueError(f"lr_xpass must be nonnegative, got {self.lr_xpass}")
        if self.lam < 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be nonnegative, got {self.max_epochs}")
        if self.mo_weight < 0:
            raise ValueError(f"mo_weight must be nonnegative, got {self.mo_weight}")

    def unread_knobs(self):
        """{knob: reason} of the mode knobs (mo_weight, lr_xpass, d_target) a run does not read."""
        switches = {"mo_weight": Mode.MO_ANFIS, "lr_xpass": Mode.X_ANFIS}
        switch = next((knob for knob, mode in switches.items() if mode == self.mode), None)
        unread = {k: f"no run is in {m.value} mode" for k, m in switches.items() if k != switch}
        if switch is None:
            unread["d_target"] = "no run is in mo_anfis or x_anfis mode"
        elif getattr(self, switch) == 0:
            unread["d_target"] = f"{switch} is 0"
        return unread


@dataclass
class EpochTrace:
    epoch: int
    train_mse: float
    val_mse: float
    mean_D: float
    centers: np.ndarray
    scales: np.ndarray
    consequents: np.ndarray | None = None


def adjacency_pairs(centers, scales):
    """Each feature's adjacent pairs of float64 (R, F) antecedents: (order, dc, D).

    order (F, R) is the rule order of each feature's centers, ties by rule
    index; consecutive entries of a row are that feature's adjacent pairs.
    For the lower- and higher-ranked set of each pair, dc = c_lo - c_hi and
    D = hypot(dc, s_lo - s_hi), both (F, R - 1).
    """
    order = centers.T.argsort(axis=1, kind="stable")
    rows = np.arange(order.shape[0])[:, None]
    c = centers.T[rows, order]
    s = scales.T[rows, order]
    dc = c[:, :-1] - c[:, 1:]
    return order, dc, np.hypot(dc, s[:, :-1] - s[:, 1:])


def _mean(d):
    """np.mean's value over all of d, without its Python wrapper; 0.0 when d is empty."""
    return float(np.add.reduce(d, axis=None)) / max(d.size, 1)


def mean_distinguishability(rb):
    """Mean pair distance over all per-feature adjacent pairs; 0.0 for one rule (no pairs)."""
    return _mean(adjacency_pairs(rb.centers, rb.scales)[2])


def pair_gradient(pairs, d_target):
    """Center gradients of sum over adjacent pairs of 0.5*(D - D_target)^2.

    pairs is adjacency_pairs' (order, dc, D) of the antecedents.  Scales
    contribute to each D but receive no gradient (the explainability pass
    freezes them, which stops the trivial shrink-all-widths solution).
    Pairs closer than D_SING are skipped.  On each feature's sorted axis,
    pair k adds its term at position k and subtracts it at k + 1.
    """
    order, dc, d = pairs
    # d >= D_SING divides by d itself; the floor only keeps skipped pairs from dividing by 0
    t = np.where(d < D_SING, 0.0, (d - d_target) / np.maximum(d, D_SING) * dc)
    g = np.zeros(order.shape)
    g[:, :-1] += t
    g[:, 1:] -= t
    grad = np.empty(order.shape[::-1])
    grad.T[np.arange(order.shape[0])[:, None], order] = g
    return grad


def _clipped_step(values, grad, lr):
    # np.clip's values without its Python wrapper
    return values - lr * np.minimum(np.maximum(grad, -CLIP), CLIP)


def _mse(yhat, y):
    diff = yhat - y
    return _mean(diff * diff)


#: the stop reasons of a diverged run
DIVERGED = ("non_finite", "singular")


class TrainResult(NamedTuple):
    """A finished run: its model, one trace per recorded epoch, and why it stopped.

    stop_reason is "patience", "max_epochs", "non_finite" (a loss) or
    "singular" (the LSE refit).  rb is the best trace's state, or after a
    divergence the last trace's (rb0 when epoch 0 fails).  A diverged
    run failed at epoch len(traces); the best epoch is the first argmin of
    val_mse over traces.
    """

    rb: RuleBase
    traces: list
    stop_reason: str


def train(X_train, y_train, X_val, y_val, rb0, cfg):
    """Run the alternating loop; returns a TrainResult.

    Epoch 0 records the initial model with consequents fitted once.  Each
    later epoch applies the mode's antecedent passes and refits the
    consequents.  Every epoch ends with the patience check, so a run whose
    patience runs out on its last epoch stops for "patience", not
    "max_epochs".  Every trace holds the epoch's arrays, which no later
    step writes into: its centers, scales and consequents.

    The four arrays are checked once, here, and cfg and rb0 when they were
    built; the epochs run the kernels on one Rows per row set, the
    validation Rows over the training Rows' scratch, and carry the state
    as arrays.
    """
    X_train, y_train = as_rows(X_train, y_train, "X_train", "y_train")
    X_val, y_val = as_rows(X_val, y_val, "X_val", "y_val")
    rows = Rows.of(X_train, rb0, "X_train")
    val_rows = Rows.of(X_val, rb0, "X_val", buf=rows.scratch)

    centers, scales = rb0.centers, rb0.scales
    unread = cfg.unread_knobs().keys()  # what the CLI's ignored-knob warnings read too
    mo_weight = 0.0 if {"mo_weight", "d_target"} & unread else cfg.mo_weight
    xpass = not {"lr_xpass", "d_target"} & unread
    traces, best = [], None  # best is the first trace with the lowest val_mse

    def result(stop_reason):  # best's state; after a divergence the last trace's, or rb0
        t = traces[-1] if stop_reason in DIVERGED and traces else best
        if t is None:
            return TrainResult(rb0, traces, stop_reason)
        rb = replace(rb0, centers=t.centers, scales=t.scales, consequents=t.consequents)
        return TrainResult(rb, traces, stop_reason)

    for epoch in range(cfg.max_epochs + 1):
        if epoch:
            grad_c, grad_s = mse_antecedent_gradients(rows, y_train, yhat, scales, consequents)
            if mo_weight:
                grad_c += mo_weight * pair_gradient(pairs, cfg.d_target)
            centers, scales = project_bounds_arrays(
                _clipped_step(centers, grad_c, cfg.lr_backward),
                _clipped_step(scales, grad_s, cfg.lr_backward),
            )
            if xpass:  # its own adjacency pass, on the stepped state
                grad_c = pair_gradient(adjacency_pairs(centers, scales), cfg.d_target)
                step = _clipped_step(centers, grad_c, cfg.lr_xpass)
                centers, scales = project_bounds_arrays(step, scales)
        try:
            consequents, yhat = refit(rows, y_train, cfg.lam, centers, scales)
        except SingularMatrixError:
            return result("singular")
        train_mse = _mse(yhat, y_train)
        val_mse = _mse(consequents @ forward(val_rows, centers, scales), y_val)
        if not (math.isfinite(train_mse) and math.isfinite(val_mse)):
            return result("non_finite")
        pairs = adjacency_pairs(centers, scales)  # this state's one pass: mean D, next MO step
        mean_d = _mean(pairs[2])
        traces.append(EpochTrace(epoch, train_mse, val_mse, mean_d, centers, scales, consequents))
        if best is None or val_mse < best.val_mse:
            best = traces[-1]
        elif epoch - best.epoch >= cfg.patience:
            return result("patience")
    return result("max_epochs")


# --------------------------------------------------------------------
# Trace export
# --------------------------------------------------------------------

#: the EpochTrace field of each column of trace_*.csv
TRACE_COLUMNS = ("epoch", "train_mse", "val_mse", "mean_D")


def traces_to_csv(traces, path):
    """One row per epoch, one cell per TRACE_COLUMNS field."""
    write_csv(path, TRACE_COLUMNS, map(operator.attrgetter(*TRACE_COLUMNS), traces))


def trajectory_to_csv(traces, path):
    """Per-parameter rows (epoch, rule, feature, center, scale) of each trace's snapshot."""

    def rows():
        for t in traces:
            centers, scales = t.centers.tolist(), t.scales.tolist()
            for j, (cs, ss) in enumerate(zip(centers, scales)):
                for k, (c, s) in enumerate(zip(cs, ss)):
                    yield [t.epoch, j, k, c, s]

    write_csv(path, ["epoch", "rule", "feature", "center", "scale"], rows())

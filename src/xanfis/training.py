"""Alternating bi-objective training.

Each epoch runs, in order: consequent refit (regularized LSE), a backward
pass on MSE over the antecedents (consequents held fixed), and — in
X-ANFIS mode — an explainability pass that nudges adjacent-set centers
toward a target distinguishability while scales stay frozen.  In MO-ANFIS
mode the backward pass descends the scalarized objective
MSE + weight * sum over adjacent pairs of 0.5 * (D - D_target)^2 instead.
The refit's firing matrices and predictions are the only training-set
forward of each antecedent state.
Early stopping watches validation MSE with a patience window; train
returns the best validation snapshot and the reason the run stopped.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import write_csv
from .inference import RuleBase, Workspace, fit_consequents, predict, rule_outputs
from .membership import log_grad_factor, project_bounds_arrays
from .numerics import SingularMatrixError, as_matrix, as_vector

#: adjacent pairs closer than this get no explainability gradient; the
#: pair distance divides the update, so coincident sets must be skipped
D_SING = 1e-9


class Mode(str, enum.Enum):
    ANFIS = "anfis"
    MO_ANFIS = "mo_anfis"
    X_ANFIS = "x_anfis"


@dataclass
class TrainConfig:
    mode: Mode = Mode.ANFIS
    lr_backward: float = 0.1
    lr_xpass: float = 0.1
    lam: float = 1e-4
    d_target: float = 0.5
    mo_weight: float = 1.0
    max_epochs: int = 500
    patience: int = 20
    clip_lo: float = -1.0
    clip_hi: float = 1.0

    def validate(self):
        names = [m.value for m in Mode]
        if self.mode not in names:
            raise ValueError(f"mode must be one of {names}, got {self.mode!r}")
        if self.clip_lo >= self.clip_hi:
            raise ValueError(f"clip_lo={self.clip_lo} must be < clip_hi={self.clip_hi}")
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


@dataclass
class EpochTrace:
    epoch: int
    train_mse: float
    val_mse: float
    mean_D: float
    centers_snapshot: np.ndarray
    scales_snapshot: np.ndarray


def adjacency_pairs(centers):
    """Rule order of each feature's centers, shape (F, R); ties by rule index.

    Consecutive entries of a row are that feature's adjacent pairs.
    """
    return np.argsort(np.asarray(centers, dtype=np.float64).T, axis=1, kind="stable")


def _pair_distances(centers, scales, order):
    """(dc, D) of each feature's adjacent pairs in order, both (F, R - 1).

    For the lower- and higher-ranked set of a pair, dc = c_lo - c_hi and
    D = hypot(dc, s_lo - s_hi).
    """
    rows = np.arange(order.shape[0])[:, None]
    c = centers.T[rows, order]
    s = scales.T[rows, order]
    dc = c[:, :-1] - c[:, 1:]
    return dc, np.hypot(dc, s[:, :-1] - s[:, 1:])


def mean_distinguishability(rb):
    """Mean pair distance over all per-feature adjacent pairs; requires at least 2 rules."""
    if rb.n_rules < 2:
        raise ValueError(f"no adjacent pairs with {rb.n_rules} rule(s)")
    _, d = _pair_distances(rb.centers, rb.scales, adjacency_pairs(rb.centers))
    return float(np.mean(d))


def mse_antecedent_gradients(rb, fm, X, y, yhat, scratch=None):
    """d MSE / d centers and d MSE / d scales with consequents frozen.

    X and y are checked arrays (train checks them once); fm and yhat are
    rb's firing matrices and predictions on X, as fit_consequents returns
    them.  Chain rule through the normalized firing strengths, with fm's
    live-row mask:

        d yhat_t / d theta_jf = normalized_jt * (f_j(x_t) - live_t * yhat_t)
                                * d log mu_tjf / d theta,

    where d log mu / d c = g / s and d log mu / d s = g u / s for the
    kind's factor g at fm's standardized distances u; these stay finite
    even when mu underflows.  The 1/s is applied after the sum over samples.

    scratch, a flat buffer of at least R*(F+1)*N floats, holds the (R, N)
    rule-output term and the (F, R, N) w in its front and b behind them;
    without it they are allocated.
    """
    n_rules, n = fm.normalized.shape
    size = fm.u.size
    if scratch is None:
        scratch = np.empty(size + n_rules * n)
    f = scratch[: n_rules * n].reshape(n_rules, n)
    b = scratch[size : size + n_rules * n].reshape(n_rules, n)
    w = scratch[:size].reshape(fm.u.shape)
    upstream = (2.0 / X.shape[0]) * (yhat - y)
    with np.errstate(under="ignore"):
        np.multiply(upstream, fm.normalized, out=b)
        b *= np.subtract(rule_outputs(rb, X, out=f), np.where(fm.live, yhat, 0.0), out=f)
        # w = b * g; the Cauchy g is built in w itself, over the consumed f
        np.multiply(b, log_grad_factor(rb.mf_kind, fm.u, out=w), out=w)  # (F, R, N)
    # sums over samples, the last axis; (F, R) transposed to the (R, F) parameters
    grad_c = w.sum(axis=-1).T / rb.scales
    grad_s = np.einsum("frt,frt->fr", w, fm.u).T / rb.scales
    return grad_c, grad_s


def xpass_gradients(centers, scales, d_target):
    """Center gradients of sum over adjacent pairs of 0.5*(D - D_target)^2.

    Scales contribute to each D but receive no gradient (they are frozen
    in the explainability pass, which stops the trivial shrink-all-widths
    solution).  Pairs closer than D_SING are skipped.  On each feature's
    sorted axis, pair k adds its term at position k and subtracts it at k + 1.
    """
    centers = np.asarray(centers, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)
    order = adjacency_pairs(centers)
    dc, d = _pair_distances(centers, scales, order)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(d < D_SING, 0.0, (d - d_target) / d * dc)
    g = np.zeros(order.shape)
    g[:, :-1] += t
    g[:, 1:] -= t
    grad = np.empty_like(centers)
    grad.T[np.arange(order.shape[0])[:, None], order] = g
    return grad


def _clipped_step(values, grad, lr, cfg):
    return values - lr * np.clip(grad, cfg.clip_lo, cfg.clip_hi)


def backward_pass(rb, fm, X, y, yhat, cfg, scratch=None):
    """One clipped gradient-descent step on MSE over centers and scales.

    fm and yhat are rb's firing matrices and predictions on X; scratch is
    passed to mse_antecedent_gradients.  In MO-ANFIS mode the centers also
    descend mo_weight times the pair penalty; scales get only the MSE term.
    """
    grad_c, grad_s = mse_antecedent_gradients(rb, fm, X, y, yhat, scratch)
    if cfg.mode == Mode.MO_ANFIS and cfg.mo_weight != 0.0:
        grad_c = grad_c + cfg.mo_weight * xpass_gradients(rb.centers, rb.scales, cfg.d_target)
    centers = _clipped_step(rb.centers, grad_c, cfg.lr_backward, cfg)
    scales = _clipped_step(rb.scales, grad_s, cfg.lr_backward, cfg)
    centers, scales = project_bounds_arrays(centers, scales)
    return replace(rb, centers=centers, scales=scales)


def xpass_update(rb, cfg):
    """One clipped explainability step on the centers; scales frozen."""
    if cfg.lr_xpass == 0.0:
        return rb
    grad_c = xpass_gradients(rb.centers, rb.scales, cfg.d_target)
    centers = _clipped_step(rb.centers, grad_c, cfg.lr_xpass, cfg)
    centers, scales = project_bounds_arrays(centers, rb.scales)
    return replace(rb, centers=centers, scales=scales)


def _mse(yhat, y):
    diff = yhat - y
    return float(np.mean(diff * diff))


#: the stop reasons of a diverged run
DIVERGED = ("non_finite", "singular")


class TrainResult(NamedTuple):
    """A finished run: its model, one trace per recorded epoch, and why it stopped.

    stop_reason is "patience", "max_epochs", "non_finite" (a loss) or
    "singular" (the LSE refit).  rb is the best-validation model, or after
    a divergence the last finite one (rb0 when epoch 0 fails).  A diverged
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
    "max_epochs".  Every trace carries a snapshot of that epoch's centers
    and scales.  The forward, refit and backward of every epoch write into
    one Workspace sized here, once per run; the validation forward writes
    into views of its scratch when they fit (at most half as many rows).
    """
    TrainConfig.validate(cfg)  # a subclass checks its own fields at its boundary
    X_train = as_matrix(X_train, "X_train")
    y_train = as_vector(y_train, "y_train")
    X_val = as_matrix(X_val, "X_val")
    y_val = as_vector(y_val, "y_val")
    for part, X, y in (("train", X_train, y_train), ("val", X_val, y_val)):
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"X_{part} has {X.shape[0]} rows but y_{part} has {y.shape[0]} entries"
            )

    ws = Workspace.allocate(X_train.shape[0], rb0.n_rules, rb0.n_features)
    val_ws = Workspace.carve(ws.scratch, X_val.shape[0], rb0.n_rules, rb0.n_features)
    traces = []
    rb = best_rb = rb0  # rb: the last finite model
    best_val = math.inf
    stall = 0
    for epoch in range(cfg.max_epochs + 1):
        stepped = rb
        if epoch:
            stepped = backward_pass(rb, fm, X_train, y_train, yhat, cfg, ws.scratch)
            if cfg.mode == Mode.X_ANFIS:
                stepped = xpass_update(stepped, cfg)
        # fm's arrays are ws's buffers: the backward above has consumed the
        # previous state's fm and yhat, and the refit overwrites them with the
        # next.  Between the refit's solve and the next backward ws.scratch
        # is free, and the validation forward uses it.  Traces keep copies.
        try:
            fitted, fm, yhat = fit_consequents(stepped, X_train, y_train, cfg.lam, ws)
        except SingularMatrixError:
            return TrainResult(rb, traces, "singular")
        train_mse = _mse(yhat, y_train)
        val_mse = _mse(predict(fitted, X_val, val_ws), y_val)
        if not (math.isfinite(train_mse) and math.isfinite(val_mse)):
            return TrainResult(rb, traces, "non_finite")
        rb = fitted
        traces.append(
            EpochTrace(
                epoch=epoch,
                train_mse=train_mse,
                val_mse=val_mse,
                mean_D=mean_distinguishability(rb) if rb.n_rules > 1 else 0.0,
                centers_snapshot=rb.centers.copy(),
                scales_snapshot=rb.scales.copy(),
            )
        )
        if val_mse < best_val:
            best_val, best_rb, stall = val_mse, rb, 0
        else:
            stall += 1
            if stall >= cfg.patience:
                return TrainResult(best_rb, traces, "patience")
    return TrainResult(best_rb, traces, "max_epochs")


# --------------------------------------------------------------------
# Trace export
# --------------------------------------------------------------------

def traces_to_csv(traces, path):
    """One row per epoch: epoch, train_mse, val_mse, mean_D."""
    write_csv(
        path,
        ["epoch", "train_mse", "val_mse", "mean_D"],
        ([t.epoch, repr(t.train_mse), repr(t.val_mse), repr(t.mean_D)] for t in traces),
    )


def trajectory_to_csv(traces, path):
    """Per-parameter rows (epoch, rule, feature, center, scale) of each trace's snapshot."""

    def rows():
        for t in traces:
            centers, scales = t.centers_snapshot.tolist(), t.scales_snapshot.tolist()
            for j, (cs, ss) in enumerate(zip(centers, scales)):
                for k, (c, s) in enumerate(zip(cs, ss)):
                    yield [t.epoch, j, k, repr(c), repr(s)]

    write_csv(path, ["epoch", "rule", "feature", "center", "scale"], rows())

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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import write_csv
from .inference import Order, RuleBase, Rows, check_rule_base, forward, refit
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
    return np.asarray(centers, dtype=np.float64).T.argsort(axis=1, kind="stable")


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


def _mean(d):
    """np.mean's value over all of d, without its Python wrapper."""
    return float(np.add.reduce(d, axis=None)) / d.size


def mean_distinguishability(rb):
    """Mean pair distance over all per-feature adjacent pairs; requires at least 2 rules."""
    if rb.n_rules < 2:
        raise ValueError(f"no adjacent pairs with {rb.n_rules} rule(s)")
    return _mean(_pair_distances(rb.centers, rb.scales, adjacency_pairs(rb.centers))[1])


def mse_antecedent_gradients(rows, y, yhat, kind, order, scales, consequents):
    """d MSE / d centers and d MSE / d scales with consequents frozen.

    rows holds the state's forward on the checked training rows and yhat
    its predictions there, as refit leaves them.  Chain rule through the
    normalized firing strengths, with the live-row mask:

        d yhat_t / d theta_jf = normalized_jt * (f_j(x_t) - live_t * yhat_t)
                                * d log mu_tjf / d theta,

    where d log mu / d c = g / s and d log mu / d s = g u / s for the
    kind's factor g at the standardized distances u; these stay finite
    even when mu underflows.  The 1/s is applied after the sum over samples.
    rows.scratch holds the (R, N) rule outputs f_j and the (F, R, N) w in
    its front and b behind them.
    """
    u, normalized = rows.u, rows.normalized
    n_rules, n = normalized.shape
    f = rows.scratch[: n_rules * n].reshape(n_rules, n)
    b = rows.scratch[u.size : u.size + n_rules * n].reshape(n_rules, n)
    w = rows.scratch[: u.size].reshape(u.shape)
    upstream = (2.0 / n) * (yhat - y)
    np.multiply(upstream, normalized, out=b)
    if order == Order.ZERO:
        fout = consequents[:, None]
    else:
        fout = np.matmul(consequents.reshape(n_rules, -1), rows.aug, out=f)
    b *= np.subtract(fout, np.where(rows.live, yhat, 0.0), out=f)
    # w = b * g; the Cauchy g is built in w itself, over the consumed f
    np.multiply(b, log_grad_factor(kind, u, out=w), out=w)  # (F, R, N)
    # sums over samples, the last axis; (F, R) transposed to the (R, F) parameters
    grad_c = np.add.reduce(w, axis=-1).T / scales
    grad_s = np.einsum("frt,frt->fr", w, u).T / scales
    return grad_c, grad_s


def _pair_gradient(order, dc, d, d_target):
    """Center gradients of sum over the pairs (order, dc, d) of 0.5*(D - D_target)^2.

    Pairs closer than D_SING are skipped.  On each feature's sorted axis,
    pair k adds its term at position k and subtracts it at k + 1.
    """
    # d >= D_SING divides by d itself; the floor only keeps skipped pairs from dividing by 0
    t = np.where(d < D_SING, 0.0, (d - d_target) / np.maximum(d, D_SING) * dc)
    g = np.zeros(order.shape)
    g[:, :-1] += t
    g[:, 1:] -= t
    grad = np.empty(order.shape[::-1])
    grad.T[np.arange(order.shape[0])[:, None], order] = g
    return grad


def xpass_gradients(centers, scales, d_target):
    """Center gradients of sum over adjacent pairs of 0.5*(D - D_target)^2.

    Scales contribute to each D but receive no gradient (they are frozen
    in the explainability pass, which stops the trivial shrink-all-widths
    solution).  Pairs closer than D_SING are skipped.
    """
    centers = np.asarray(centers, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)
    order = adjacency_pairs(centers)
    return _pair_gradient(order, *_pair_distances(centers, scales, order), d_target)


def _clipped_step(values, grad, lr, cfg):
    # np.clip's values without its Python wrapper
    return values - lr * np.minimum(np.maximum(grad, cfg.clip_lo), cfg.clip_hi)


def _mse(yhat, y):
    diff = yhat - y
    return _mean(diff * diff)


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
    and scales.

    The config, rb0 and the four arrays are checked once, here; the epochs
    run the kernels on one Rows per row set and carry the state as arrays.
    The training Rows' buffers serve every epoch's refit and backward; the
    validation Rows are views of its scratch when they fit (at most half as
    many rows).
    """
    TrainConfig.validate(cfg)  # a subclass checks its own fields at its boundary
    check_rule_base(rb0, "rb0")
    X_train = as_matrix(X_train, "X_train")
    y_train = as_vector(y_train, "y_train")
    X_val = as_matrix(X_val, "X_val")
    y_val = as_vector(y_val, "y_val")
    for part, X, y in (("train", X_train, y_train), ("val", X_val, y_val)):
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"X_{part} has {X.shape[0]} rows but y_{part} has {y.shape[0]} entries"
            )
        if X.shape[0] == 0:
            raise ValueError(f"X_{part} has 0 rows")
    rows = Rows.of(X_train, rb0, "X_train")
    # the validation forward uses the scratch between the refit's solve and the next backward
    val_rows = Rows.of(X_val, rb0, "X_val", buf=rows.scratch)

    kind, order, centers, scales = rb0.mf_kind, rb0.order, rb0.centers, rb0.scales
    paired = rb0.n_rules > 1
    mo_weight = cfg.mo_weight if cfg.mode == Mode.MO_ANFIS and paired else 0.0
    xpass = cfg.mode == Mode.X_ANFIS and cfg.lr_xpass != 0.0
    traces = []
    last = best = None  # (centers, scales, consequents): the last finite and the best state
    best_val = math.inf
    stall = 0

    def result(state, stop_reason):
        rb = rb0 if state is None else RuleBase(kind, *state, order=order)
        return TrainResult(rb, traces, stop_reason)

    for epoch in range(cfg.max_epochs + 1):
        if epoch:
            grad_c, grad_s = mse_antecedent_gradients(
                rows, y_train, yhat, kind, order, scales, consequents
            )
            if mo_weight:
                grad_c += mo_weight * _pair_gradient(*pairs, cfg.d_target)
            centers, scales = project_bounds_arrays(
                _clipped_step(centers, grad_c, cfg.lr_backward, cfg),
                _clipped_step(scales, grad_s, cfg.lr_backward, cfg),
            )
            if xpass:  # its own adjacency pass, on the stepped state
                grad_c = xpass_gradients(centers, scales, cfg.d_target)
                centers, scales = project_bounds_arrays(
                    _clipped_step(centers, grad_c, cfg.lr_xpass, cfg), scales
                )
        # the refit overwrites rows' forward, which the backward above consumed
        try:
            consequents, yhat = refit(rows, y_train, cfg.lam, kind, order, centers, scales)
        except SingularMatrixError:
            return result(last, "singular")
        train_mse = _mse(yhat, y_train)
        val_mse = _mse(consequents @ forward(val_rows, kind, order, centers, scales), y_val)
        if not (math.isfinite(train_mse) and math.isfinite(val_mse)):
            return result(last, "non_finite")
        last = (centers, scales, consequents)
        mean_d = 0.0
        if paired:  # this state's one adjacency pass: its mean D and the next MO step
            ranks = adjacency_pairs(centers)
            pairs = (ranks, *_pair_distances(centers, scales, ranks))
            mean_d = _mean(pairs[2])
        traces.append(EpochTrace(epoch, train_mse, val_mse, mean_d, centers.copy(), scales.copy()))
        if val_mse < best_val:
            best_val, best, stall = val_mse, last, 0
        else:
            stall += 1
            if stall >= cfg.patience:
                return result(best, "patience")
    return result(best, "max_epochs")


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

"""Takagi-Sugeno forward pass: firing strengths, design matrix, LSE, predict.

A RuleBase is treated as immutable; every operation returns a new one.
The kernels work on a Rows object, the checked rows of X plus the buffers
that a forward and backward on them write into, and on the state's
arrays; the trainer builds its Rows once per run and carries the state
as arrays.  fit_consequents and predict check their inputs once and build
fresh Rows per call, so they return arrays their caller owns.

Gaussian memberships underflow to 0.0 at small scales by design, and the
forward tolerates it (EPS_DENOM).  The kernels, and the trainer that
calls them, run under numpy's default floating-point settings, in which
underflow is ignored; a caller that makes underflow raise with
np.seterr must restore the default around them.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import read_json
from .membership import SCALE_MAX, SCALE_MIN, MFKind, product_firing, project_bounds_arrays
from .numerics import as_matrix, as_vector, ridge_solve

#: raw firing sums below this floor are treated as a dead row rather than
#: dividing by ~0; keeps the forward pass total when Gaussian memberships
#: underflow at small scales
EPS_DENOM = 1e-12


class Order(str, enum.Enum):
    ZERO = "zero"
    FIRST = "first"


@dataclass(frozen=True)
class RuleBase:
    """Full parameterization of a T-S fuzzy model.

    centers/scales: (rules, features); consequents: length R (zero-order)
    or R*(F+1) (first-order, per-rule blocks of F weights then bias), or
    None before the first fit.  The center and scale shapes are checked
    here; the values and the consequent length by check_rule_base.
    """

    mf_kind: MFKind
    centers: np.ndarray
    scales: np.ndarray
    consequents: np.ndarray | None = None
    order: Order = Order.ZERO

    def __post_init__(self):
        # a name such as "first" becomes its member here, and a bad name fails here
        object.__setattr__(self, "mf_kind", MFKind(self.mf_kind))
        object.__setattr__(self, "order", Order(self.order))
        if np.ndim(self.centers) != 2 or np.shape(self.centers) != np.shape(self.scales):
            raise ValueError("center/scale shape mismatch")

    @property
    def n_rules(self):
        return self.centers.shape[0]

    @property
    def n_features(self):
        return self.centers.shape[1]


def check_rule_base(rb, what):
    """Raise ValueError, prefixed by what, unless rb's values are trainable.

    That is: at least one rule, centers in [0, 1], scales in [SCALE_MIN,
    SCALE_MAX], and consequents (when fitted) of the order's length and finite.
    """
    n_rules, n_features = rb.centers.shape
    if n_rules < 1:
        raise ValueError(f"{what}: a rule base needs at least one rule")
    centers, scales = project_bounds_arrays(rb.centers, rb.scales)
    # clipping keeps NaN and moves +-inf onto a bound, so both fail array_equal
    if not np.array_equal(centers, rb.centers):
        raise ValueError(f"{what}: centers must be finite and in [0, 1]")
    if not np.array_equal(scales, rb.scales):
        raise ValueError(f"{what}: scales must be finite and in [{SCALE_MIN}, {SCALE_MAX}]")
    n_conseq = n_rules if rb.order == Order.ZERO else n_rules * (n_features + 1)
    if rb.consequents is not None and not (
        rb.consequents.shape == (n_conseq,) and np.isfinite(rb.consequents).all()
    ):
        raise ValueError(
            f"{what}: consequents must be {n_conseq} finite values "
            f"({rb.order.value} order, {n_rules} rules, {n_features} features)"
        )


class Rows(NamedTuple):
    """N checked rows of X and the buffers a forward and backward on them write into.

    The sample axis is last.  aug is the (F+1, N) augmented transpose,
    (x_1, ..., x_F, 1) per sample, whose first F rows the membership tensor
    broadcasts as an (F, 1, N) view.  u (F, R, N), normalized (R, N)
    and live (N,) hold the last forward: the standardized distances, the
    normalized firing and the live-row mask.  scratch, a flat buffer of
    R*(F+1)*N floats, holds the transients in turn: Cauchy's per-feature
    memberships (F, R, N), the first-order design matrix (R, F+1, N), then
    the backward's terms.
    """

    aug: np.ndarray
    u: np.ndarray
    normalized: np.ndarray
    live: np.ndarray
    scratch: np.ndarray

    @classmethod
    def of(cls, X, rb, name="X", buf=None):
        """Rows of X, a checked (N, F) array, for rb's rule count and feature count.

        The float buffers are views of the flat float64 array buf when it
        holds them all, else three new arrays made before aug: one buffer
        of their total size, or aug made first, makes glibc map them afresh
        where they can otherwise reuse memory the caller freed (either raised
        the 20k-row friedman run's peak RSS by 4-5 MiB).
        """
        (n, f), r = X.shape, rb.n_rules
        if f != rb.n_features:
            raise ValueError(f"{name} has {f} feature columns but the rule base has {rb.n_features}")
        frn, rn = f * r * n, r * n
        if buf is not None and buf.size >= 2 * (frn + rn):
            u, normalized, scratch = buf[:frn], buf[frn : frn + rn], buf[frn + rn : 2 * (frn + rn)]
        else:
            u, normalized, scratch = np.empty(frn), np.empty(rn), np.empty(rn * (f + 1))
        aug = np.empty((f + 1, n))
        aug[:f] = X.T
        aug[f] = 1.0
        return cls(aug, u.reshape(f, r, n), normalized.reshape(r, n), np.empty(n, dtype=bool), scratch)


def membership_tensor(rows, centers, scales):
    """Standardized distances u = (x - c) / s per feature, rule and sample, in rows.u (F, R, N)."""
    u = np.subtract(rows.aug[:-1, None, :], centers.T[:, :, None], out=rows.u)
    u /= scales.T[:, :, None]
    return u


def design_matrix(rows, order):
    """Transposed LSE design matrix phi^T of rows' last forward.

    Zero-order: rows.normalized itself, (R, N).  First-order: per rule j
    the rows normalized[j] * (x_1, ..., x_F, 1), (R*(F+1), N), written to
    the front of rows.scratch.
    """
    if order == Order.ZERO:
        return rows.normalized
    n_rules, n = rows.normalized.shape
    # a C-ordered (R, F+1, N) buffer, so the reshape below is a view and not a copy
    blocks = rows.scratch[: n_rules * rows.aug.size].reshape(n_rules, *rows.aug.shape)
    np.multiply(rows.normalized[:, None, :], rows.aug, out=blocks)
    return blocks.reshape(-1, n)


def forward(rows, kind, order, centers, scales):
    """A state's forward on rows, into its buffers; returns the design matrix phi^T.

    Product t-norm firing strengths, normalized per sample in place:
    normalized[:, t] = raw[:, t] / max(sum(raw[:, t]), EPS_DENOM), so live
    samples (sum above the floor) form an exact partition of unity and fully
    underflowed samples degrade to ~0 instead of dividing by zero.
    """
    u = membership_tensor(rows, centers, scales)
    raw = product_firing(kind, u, out=rows.normalized, scratch=rows.scratch)
    total = np.add.reduce(raw, axis=0)
    raw /= np.maximum(total, EPS_DENOM)
    np.greater(total, EPS_DENOM, out=rows.live)
    return design_matrix(rows, order)


def refit(rows, y, lam, kind, order, centers, scales):
    """Regularized-LSE consequents of a state on rows, and its predictions there."""
    phi_t = forward(rows, kind, order, centers, scales)
    w = ridge_solve(phi_t.T, y, lam)
    return w, w @ phi_t


def fit_consequents(rb, X, y, lam):
    """Refit consequents by regularized LSE; antecedents untouched.

    Returns (fitted rb, the Rows of X holding rb's forward, predictions on
    X); the predictions equal predict(fitted rb, X) bit for bit.
    """
    X = as_matrix(X, "X")
    y = as_vector(y, "y")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
    if X.shape[0] < 1 or rb.n_rules < 1:
        raise ValueError("phi must have at least one row and one column")
    rows = Rows.of(X, rb)
    w, yhat = refit(rows, y, lam, rb.mf_kind, rb.order, rb.centers, rb.scales)
    return replace(rb, consequents=w), rows, yhat


def predict(rb, X):
    """Weighted-average model output for each row of X, a new array."""
    if rb.consequents is None:
        raise ValueError("rule base has no fitted consequents")
    rows = Rows.of(as_matrix(X, "X"), rb)
    return rb.consequents @ forward(rows, rb.mf_kind, rb.order, rb.centers, rb.scales)


# --------------------------------------------------------------------
# Model artifact (versioned JSON)
# --------------------------------------------------------------------

MODEL_FORMAT = "ts-rulebase"
MODEL_VERSION = 1


def save_model(path, rb, scaler_meta=None):
    """Write the rule base (plus optional scaler metadata) as JSON."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "mf_kind": rb.mf_kind.value,
        "order": rb.order.value,
        "centers": rb.centers.tolist(),
        "scales": rb.scales.tolist(),
        "consequents": None if rb.consequents is None else rb.consequents.tolist(),
        "scaler": scaler_meta,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path):
    """Read a model artifact; returns (RuleBase, scaler_meta or None)."""
    doc = read_json(path, "model")
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path} is not a {MODEL_FORMAT} artifact")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')!r}")
    try:
        consequents = doc["consequents"]
        rb = RuleBase(
            mf_kind=doc["mf_kind"],
            centers=np.asarray(doc["centers"], dtype=np.float64),
            scales=np.asarray(doc["scales"], dtype=np.float64),
            consequents=None if consequents is None else np.asarray(consequents, dtype=np.float64),
            order=doc["order"],
        )
    except (KeyError, ValueError, TypeError) as err:
        raise ValueError(f"corrupt model file {path}: {err}") from err
    check_rule_base(rb, f"corrupt model file {path}")
    return rb, doc.get("scaler")

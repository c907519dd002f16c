"""Takagi-Sugeno forward pass: firing strengths, design matrix, LSE, predict.

A RuleBase is treated as immutable; every operation returns a new one.
The trainer owns the single evolving copy.  fit_consequents and predict
check X once at entry; the kernels below them take that checked array.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace

import numpy as np

from .membership import SCALE_MAX, SCALE_MIN, MFKind, product_firing, project_bounds_arrays
from .numerics import as_matrix, ridge_solve

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
    None before the first fit.
    """

    mf_kind: MFKind
    centers: np.ndarray
    scales: np.ndarray
    consequents: np.ndarray | None = None
    order: Order = Order.ZERO

    @property
    def n_rules(self):
        return self.centers.shape[0]

    @property
    def n_features(self):
        return self.centers.shape[1]


@dataclass
class FiringMatrices:
    """One antecedent state's forward on X; the backward pass reuses all of it."""

    raw: np.ndarray         # (N, R), entries in [0, 1]
    normalized: np.ndarray  # (N, R), live rows sum to 1
    den: np.ndarray         # (N,), max(raw row sum, EPS_DENOM)
    live: np.ndarray        # (N,), raw row sum > EPS_DENOM
    u: np.ndarray           # (N, R, F), standardized distances (x - c) / s


def membership_tensor(X, rb):
    """Standardized distances u = (x - c) / s per sample, rule and feature, (N, R, F)."""
    if X.shape[1] != rb.n_features:
        raise ValueError(
            f"X has {X.shape[1]} feature columns but the rule base has {rb.n_features}"
        )
    u = X[:, None, :] - rb.centers
    u /= rb.scales
    return u


def firing_strengths(X, rb):
    """Product t-norm firing strengths and their row normalization.

    normalized[t] = raw[t] / den[t] with den[t] = max(sum(raw[t]), EPS_DENOM):
    live rows (sum above the floor) form an exact partition of unity; fully
    underflowed rows degrade to ~0 instead of dividing by zero.
    """
    u = membership_tensor(X, rb)
    raw = product_firing(rb.mf_kind, u)
    total = raw.sum(axis=1)
    den = np.maximum(total, EPS_DENOM)
    return FiringMatrices(
        raw=raw, normalized=raw / den[:, None], den=den, live=total > EPS_DENOM, u=u
    )


def design_matrix(fm, X, order):
    """LSE design matrix for the given consequent order.

    Zero-order: the normalized firing matrix itself.  First-order: per
    rule j the block normalized[:, j] * (x_1, ..., x_F, 1).
    """
    if order == Order.ZERO:
        return fm.normalized
    n = X.shape[0]
    aug = np.concatenate([X, np.ones((n, 1))], axis=1)  # (N, F+1)
    blocks = fm.normalized[:, :, None] * aug[:, None, :]  # (N, R, F+1)
    return blocks.reshape(n, -1)


def fit_consequents(rb, X, y, lam):
    """Refit consequents by regularized LSE; antecedents untouched.

    Returns (fitted rb, FiringMatrices on X, predictions on X); the
    predictions equal predict(fitted rb, X) bit for bit.
    """
    X = as_matrix(X, "X")
    fm = firing_strengths(X, rb)
    phi = design_matrix(fm, X, rb.order)
    w = ridge_solve(phi, y, lam)
    return replace(rb, consequents=w), fm, phi @ w


def rule_outputs(rb, X):
    """Per-rule consequent values f_j(x_t), shape (N, R)."""
    if rb.consequents is None:
        raise ValueError("rule base has no fitted consequents")
    n, f = X.shape
    if rb.order == Order.ZERO:
        return np.broadcast_to(rb.consequents, (n, rb.n_rules)).copy()
    aug = np.concatenate([X, np.ones((n, 1))], axis=1)
    coeffs = rb.consequents.reshape(rb.n_rules, f + 1)
    return aug @ coeffs.T


def predict(rb, X):
    """Weighted-average model output for each row of X."""
    if rb.consequents is None:
        raise ValueError("rule base has no fitted consequents")
    X = as_matrix(X, "X")
    phi = design_matrix(firing_strengths(X, rb), X, rb.order)
    return phi @ rb.consequents


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
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"corrupt model file {path}: {err}") from err
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path} is not a {MODEL_FORMAT} artifact")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')!r}")
    try:
        consequents = doc["consequents"]
        rb = RuleBase(
            mf_kind=MFKind(doc["mf_kind"]),
            centers=np.asarray(doc["centers"], dtype=np.float64),
            scales=np.asarray(doc["scales"], dtype=np.float64),
            consequents=None if consequents is None else np.asarray(consequents, dtype=np.float64),
            order=Order(doc["order"]),
        )
    except (KeyError, ValueError, TypeError) as err:
        raise ValueError(f"corrupt model file {path}: {err}") from err
    if rb.centers.ndim != 2 or rb.centers.shape != rb.scales.shape:
        raise ValueError(f"corrupt model file {path}: center/scale shape mismatch")
    n_rules, n_features = rb.centers.shape
    n_conseq = n_rules if rb.order == Order.ZERO else n_rules * (n_features + 1)
    centers, scales = project_bounds_arrays(rb.centers, rb.scales)
    prefix = f"corrupt model file {path}:"
    # clipping keeps NaN and moves +-inf onto a bound, so both fail array_equal
    if not np.array_equal(centers, rb.centers):
        raise ValueError(f"{prefix} centers must be finite and in [0, 1]")
    if not np.array_equal(scales, rb.scales):
        raise ValueError(f"{prefix} scales must be finite and in [{SCALE_MIN}, {SCALE_MAX}]")
    if rb.consequents is not None and not (
        rb.consequents.shape == (n_conseq,) and np.isfinite(rb.consequents).all()
    ):
        raise ValueError(
            f"{prefix} consequents must be {n_conseq} finite values "
            f"({rb.order.value} order, {n_rules} rules, {n_features} features)"
        )
    return rb, doc.get("scaler")

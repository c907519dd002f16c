"""Takagi-Sugeno forward pass: firing strengths, design matrix, LSE, predict.

A RuleBase is treated as immutable; every operation returns a new one.
The trainer owns the single evolving copy.  fit_consequents and predict
check X (and fit_consequents y) once at entry; the kernels below them,
ridge_solve included, take those checked arrays.  Given a Workspace, the
forward writes into its buffers instead of allocating; without one every
result is a fresh array its caller owns.
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
    None before the first fit.
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

    @property
    def n_rules(self):
        return self.centers.shape[0]

    @property
    def n_features(self):
        return self.centers.shape[1]


@dataclass
class FiringMatrices:
    """One antecedent state's forward on X, sample axis last; the backward pass reuses it all."""

    normalized: np.ndarray  # (R, N), raw firing / max(its column sum, EPS_DENOM)
    live: np.ndarray        # (N,), raw firing column sum > EPS_DENOM
    u: np.ndarray           # (F, R, N), standardized distances (x - c) / s


class Workspace(NamedTuple):
    """Buffers that a forward and backward on N rows write into, sample axis last.

    u and normalized hold an antecedent state's FiringMatrices.  scratch,
    a flat buffer of R*(F+1)*N floats, holds the transients in turn:
    Cauchy's per-feature memberships (F, R, N), the first-order design
    matrix (R, F+1, N), then the backward's terms.  A field left None is
    allocated by the kernel that needs it.
    """

    u: np.ndarray | None = None           # (F, R, N)
    normalized: np.ndarray | None = None  # (R, N)
    scratch: np.ndarray | None = None     # (R * (F + 1) * N,)

    @classmethod
    def allocate(cls, n_rows, n_rules, n_features):
        """A workspace of three new arrays.

        Not one buffer of their total size: glibc maps a block that large
        afresh, where three smaller ones can reuse memory the caller freed
        before (one buffer raised the 20k-row friedman run's peak RSS 5 MiB).
        """
        return cls(
            np.empty((n_features, n_rules, n_rows)),
            np.empty((n_rules, n_rows)),
            np.empty(n_rules * (n_features + 1) * n_rows),
        )

    @classmethod
    def carve(cls, buf, n_rows, n_rules, n_features):
        """A workspace of views of the flat float64 array buf, or FRESH if buf is too short."""
        rn = n_rules * n_rows
        frn = n_features * rn
        if buf.size < 2 * (frn + rn):
            return FRESH
        return cls(
            buf[:frn].reshape(n_features, n_rules, n_rows),
            buf[frn : frn + rn].reshape(n_rules, n_rows),
            buf[frn + rn : 2 * (frn + rn)],
        )


#: the workspace of a caller that holds none: every kernel allocates its result
FRESH = Workspace()


def membership_tensor(X, rb, out=None):
    """Standardized distances u = (x - c) / s per feature, rule and sample, (F, R, N).

    Written to out, a C-ordered (F, R, N) array, when given.
    """
    if X.shape[1] != rb.n_features:
        raise ValueError(
            f"X has {X.shape[1]} feature columns but the rule base has {rb.n_features}"
        )
    xt = np.ascontiguousarray(X.T)[:, None, :]  # (F, 1, N)
    if out is None:
        # an explicit C-ordered buffer: the broadcast operands alone give a strided result
        out = np.empty((*rb.centers.T.shape, len(X)))
    u = np.subtract(xt, rb.centers.T[:, :, None], out=out)
    u /= rb.scales.T[:, :, None]
    return u


def firing_strengths(X, rb, ws=FRESH):
    """Product t-norm firing strengths, normalized per sample in place.

    normalized[:, t] = raw[:, t] / max(sum(raw[:, t]), EPS_DENOM): live
    samples (sum above the floor) form an exact partition of unity; fully
    underflowed samples degrade to ~0 instead of dividing by zero.  u and
    normalized are ws's buffers when it holds them.
    """
    u = membership_tensor(X, rb, out=ws.u)
    raw = product_firing(rb.mf_kind, u, out=ws.normalized, scratch=ws.scratch)
    total = raw.sum(axis=0)
    raw /= np.maximum(total, EPS_DENOM)
    return FiringMatrices(normalized=raw, live=total > EPS_DENOM, u=u)


def _augmented_t(X):
    """(x_1, ..., x_F, 1) per sample, laid out (F+1, N)."""
    return np.concatenate([X.T, np.ones((1, X.shape[0]))], axis=0)


def design_matrix(fm, X, order, out=None):
    """Transposed LSE design matrix phi^T for the given consequent order.

    Zero-order: the normalized firing matrix itself, (R, N).  First-order:
    per rule j the rows normalized[j] * (x_1, ..., x_F, 1), (R*(F+1), N),
    written to the first R*(F+1)*N floats of the flat buffer out when given.
    """
    if order == Order.ZERO:
        return fm.normalized
    aug = _augmented_t(X)
    n_rules, n = fm.normalized.shape
    shape = (n_rules, *aug.shape)
    # a C-ordered (R, F+1, N) buffer, so the reshape below is a view and not a copy
    blocks = np.empty(shape) if out is None else out[: n_rules * aug.size].reshape(shape)
    np.multiply(fm.normalized[:, None, :], aug, out=blocks)
    return blocks.reshape(-1, n)


def fit_consequents(rb, X, y, lam, ws=FRESH):
    """Refit consequents by regularized LSE; antecedents untouched.

    Returns (fitted rb, FiringMatrices on X, predictions on X); the
    predictions equal predict(fitted rb, X) bit for bit.  With a Workspace
    sized for X and rb, the firing matrices are its buffers and the design
    matrix lives in its scratch.
    """
    X = as_matrix(X, "X")
    y = as_vector(y, "y")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
    if X.shape[0] < 1 or rb.n_rules < 1:
        raise ValueError("phi must have at least one row and one column")
    fm = firing_strengths(X, rb, ws)
    phi_t = design_matrix(fm, X, rb.order, out=ws.scratch)
    w = ridge_solve(phi_t.T, y, lam)
    return replace(rb, consequents=w), fm, w @ phi_t


def rule_outputs(rb, X, out=None):
    """Per-rule consequent values f_j(x_t), shape (R, N); zero-order (R, 1).

    First-order values go to out, an (R, N) array, when given.
    """
    if rb.consequents is None:
        raise ValueError("rule base has no fitted consequents")
    if rb.order == Order.ZERO:
        return rb.consequents[:, None]
    return np.matmul(rb.consequents.reshape(rb.n_rules, -1), _augmented_t(X), out=out)


def predict(rb, X, ws=FRESH):
    """Weighted-average model output for each row of X, a new array.

    The forward's arrays are ws's buffers when it holds them.
    """
    if rb.consequents is None:
        raise ValueError("rule base has no fitted consequents")
    X = as_matrix(X, "X")
    phi_t = design_matrix(firing_strengths(X, rb, ws), X, rb.order, out=ws.scratch)
    return rb.consequents @ phi_t


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

"""Takagi-Sugeno forward and backward passes: firing strengths, design matrix, LSE, gradients.

A RuleBase is immutable, its arrays read-only; every operation returns a new one.
The kernels work on a Rows object, the checked rows of X with their rule
base's kind and order and the buffers the kernels write into, and on the
state's arrays; the trainer builds its Rows once per run and carries the
state as arrays.  Only predict builds fresh Rows per call, checking X once,
so it returns an array its caller owns.

Gaussian memberships underflow to 0.0 at small scales by design, and the
forward tolerates it (EPS_DENOM).  The kernels, and the trainer that
calls them, run under numpy's default floating-point settings, in which
underflow is ignored; a caller that makes underflow raise with
np.seterr must restore the default around them.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import read_json
from .membership import (
    SCALE_MAX, SCALE_MIN, MFKind, log_grad_factor, product_firing, project_bounds_arrays,
)
from .numerics import as_array, as_numbers, check_value, has_type, ridge_solve

#: raw firing sums below this floor are treated as a dead row rather than
#: dividing by ~0; keeps the forward pass total when Gaussian memberships
#: underflow at small scales
EPS_DENOM = 1e-12


class Order(str, enum.Enum):
    ZERO = "zero"
    FIRST = "first"


@dataclass(frozen=True)
class RuleBase:
    """Full parameterization of a T-S fuzzy model, checked when built.

    centers/scales: (rules, features) in [0, 1] and [SCALE_MIN, SCALE_MAX];
    consequents: R finite values (zero-order) or R*(F+1) (first-order,
    per-rule blocks of F weights then bias), or None before the first fit.
    All three are stored as read-only float64 arrays: one that already is
    such an array and owns its data is kept (so replace() shares the
    unchanged ones), any other value is copied.
    """

    mf_kind: MFKind
    centers: np.ndarray
    scales: np.ndarray
    consequents: np.ndarray | None = None
    order: Order = Order.ZERO

    def __post_init__(self):
        # a name such as "first" becomes its member here, and a bad name fails here
        object.__setattr__(self, "mf_kind", MFKind(check_value(self.mf_kind, MFKind, "mf_kind")))
        object.__setattr__(self, "order", Order(check_value(self.order, Order, "order")))
        for name in ("centers", "scales", "consequents"):
            a = getattr(self, name)
            if a is None and name == "consequents":  # not fitted yet
                continue
            if not (type(a) is np.ndarray and a.dtype == np.float64 and a.flags.owndata
                    and not a.flags.writeable):
                if isinstance(a, np.ndarray):
                    as_numbers(a, name)
                else:  # np.array reads "0.25" and True as numbers
                    for value in np.asarray(a, dtype=object).flat:
                        check_value(value, "float", name)
                a = np.array(a, dtype=np.float64)
                a.flags.writeable = False
                object.__setattr__(self, name, a)
        if self.centers.ndim != 2 or self.centers.shape != self.scales.shape:
            raise ValueError("center/scale shape mismatch")
        n_rules, n_features = self.centers.shape
        if n_rules < 1:
            raise ValueError("a rule base needs at least one rule")
        centers, scales = project_bounds_arrays(self.centers, self.scales)
        # clipping keeps NaN and moves +-inf onto a bound, so both fail array_equal
        if not np.array_equal(centers, self.centers):
            raise ValueError("centers must be finite and in [0, 1]")
        if not np.array_equal(scales, self.scales):
            raise ValueError(f"scales must be finite and in [{SCALE_MIN}, {SCALE_MAX}]")
        n_conseq = n_rules if self.order == Order.ZERO else n_rules * (n_features + 1)
        if self.consequents is not None and not (
            self.consequents.shape == (n_conseq,) and np.isfinite(self.consequents).all()
        ):
            raise ValueError(
                f"consequents must be {n_conseq} finite values "
                f"({self.order.value} order, {n_rules} rules, {n_features} features)"
            )

    def __reduce__(self):  # pickle and deepcopy rebuild through the checks above
        return RuleBase, (self.mf_kind, self.centers, self.scales, self.consequents, self.order)

    @property
    def n_rules(self):
        return self.centers.shape[0]

    @property
    def n_features(self):
        return self.centers.shape[1]


class Rows(NamedTuple):
    """Checked rows of X, their rule base's kind and order, and the buffers they write into.

    The sample axis is last.  aug is the (F+1, N) augmented transpose, (x_1, ...,
    x_F, 1) per sample, whose first F rows the membership tensor broadcasts as an
    (F, 1, N) view.  A forward writes u (F, R, N), normalized (R, N) and live (N,),
    the standardized distances, the normalized firing and the live-row mask, which
    the backward reads.  scratch, a flat buffer of R*(F+1)*N floats, holds the
    transients in turn through views that alias it: work (F, R, N) at its front
    and b (R, N) behind it, for Cauchy's memberships and the backward's terms, and
    design (R, F+1, N) over all of it, which refit's solve consumes.  So Rows built
    over another's scratch (buf=rows.scratch) may run a forward between that one's
    refit and its next backward.
    """

    kind: MFKind
    order: Order
    aug: np.ndarray
    u: np.ndarray
    normalized: np.ndarray
    live: np.ndarray
    scratch: np.ndarray
    work: np.ndarray
    design: np.ndarray
    b: np.ndarray

    @classmethod
    def of(cls, X, rb, name="X", buf=None):
        """Rows of X, a checked (N, F) array, for the rule base rb.

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
        return cls(
            rb.mf_kind, rb.order, aug, u.reshape(f, r, n), normalized.reshape(r, n),
            np.empty(n, dtype=bool), scratch, scratch[:frn].reshape(f, r, n),
            scratch.reshape(r, f + 1, n), scratch[frn:].reshape(r, n),
        )


def membership_tensor(rows, centers, scales):
    """Standardized distances u = (x - c) / s per feature, rule and sample, in rows.u (F, R, N)."""
    u = np.subtract(rows.aug[:-1, None, :], centers.T[:, :, None], out=rows.u)
    u /= scales.T[:, :, None]
    return u


def design_matrix(rows):
    """Transposed LSE design matrix phi^T of rows' last forward.

    Zero-order: rows.normalized itself, (R, N).  First-order: per rule j
    the rows normalized[j] * (x_1, ..., x_F, 1), (R*(F+1), N), written to
    rows.design, whose reshape is a view.
    """
    if rows.order == Order.ZERO:
        return rows.normalized
    np.multiply(rows.normalized[:, None, :], rows.aug, out=rows.design)
    return rows.design.reshape(-1, rows.aug.shape[1])


def forward(rows, centers, scales):
    """A state's forward on rows, into its buffers; returns the design matrix phi^T.

    Product t-norm firing strengths, normalized per sample in place:
    normalized[:, t] = raw[:, t] / max(sum(raw[:, t]), EPS_DENOM), so live
    samples (sum above the floor) form an exact partition of unity and fully
    underflowed samples degrade to ~0 instead of dividing by zero.
    """
    u = membership_tensor(rows, centers, scales)
    raw = product_firing(rows.kind, u, out=rows.normalized, mu=rows.work)
    total = np.add.reduce(raw, axis=0)
    raw /= np.maximum(total, EPS_DENOM)
    np.greater(total, EPS_DENOM, out=rows.live)
    return design_matrix(rows)


def refit(rows, y, lam, centers, scales):
    """Regularized-LSE consequents of a state on rows, and its predictions there."""
    phi_t = forward(rows, centers, scales)
    w = ridge_solve(phi_t.T, y, lam)
    return w, w @ phi_t


def mse_antecedent_gradients(rows, y, yhat, scales, consequents):
    """d MSE / d centers and d MSE / d scales with consequents frozen.

    rows holds the state's forward on the checked training rows and yhat
    its predictions there, as refit leaves them.  Chain rule through the
    normalized firing strengths, with the live-row mask:

        d yhat_t / d theta_jf = normalized_jt * (f_j(x_t) - live_t * yhat_t)
                                * d log mu_tjf / d theta,

    where d log mu / d c = g / s and d log mu / d s = g u / s for the
    kind's factor g at the standardized distances u; these stay finite
    even when mu underflows.  The 1/s is applied after the sum over samples.
    The (R, N) rule outputs f_j go to rows.work[0], b to rows.b, and the
    (F, R, N) w to rows.work, over the consumed f.
    """
    u, normalized, f, b, w = rows.u, rows.normalized, rows.work[0], rows.b, rows.work
    n_rules, n = normalized.shape
    upstream = (2.0 / n) * (yhat - y)
    np.multiply(upstream, normalized, out=b)
    if rows.order == Order.ZERO:
        fout = consequents[:, None]
    else:
        fout = np.matmul(consequents.reshape(n_rules, -1), rows.aug, out=f)
    b *= np.subtract(fout, np.where(rows.live, yhat, 0.0), out=f)
    # w = b * g; the Cauchy g is built in w itself, over the consumed f
    np.multiply(b, log_grad_factor(rows.kind, u, out=w), out=w)  # (F, R, N)
    # sums over samples, the last axis; (F, R) transposed to the (R, F) parameters
    grad_c = np.add.reduce(w, axis=-1).T / scales
    grad_s = np.einsum("frt,frt->fr", w, u).T / scales
    return grad_c, grad_s


def predict(rb, X):
    """Weighted-average model output for each row of X, a new array."""
    if rb.consequents is None:
        raise ValueError("rule base has no fitted consequents")
    return rb.consequents @ forward(Rows.of(as_array(X, 2, "X"), rb), rb.centers, rb.scales)


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
    if not has_type(doc.get("version"), "int") or doc["version"] != MODEL_VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')!r}")
    try:
        rb = RuleBase(doc["mf_kind"], doc["centers"], doc["scales"], doc["consequents"], doc["order"])
    except (KeyError, ValueError, TypeError) as err:
        raise ValueError(f"corrupt model file {path}: {err}") from err
    return rb, doc.get("scaler")

"""Fuzzy c-means initialization of rule antecedents.

Rule antecedents are scatter-type: rule j takes cluster j's center and
per-feature dispersion in every feature, giving center/scale matrices of
shape (rules, features).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .membership import SCALE_MAX, SCALE_MIN
from .numerics import InsufficientDataError, RandomStream, as_matrix


@dataclass
class FCMConfig:
    n_clusters: int
    fuzziness: float = 2.0
    tol: float = 1e-5
    max_iter: int = 300
    seed: int = 0

    def validate(self):
        if self.n_clusters < 2:
            raise ValueError(f"n_clusters must be >= 2, got {self.n_clusters}")
        if not self.fuzziness > 1.0:
            raise ValueError(f"fuzziness must be > 1, got {self.fuzziness}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass
class FCMResult:
    centers: np.ndarray      # (R, F)
    memberships: np.ndarray  # (N, R), rows sum to 1
    iterations: int
    final_shift: float
    fuzziness: float = 2.0


def _memberships_from_distances(d2, exponent):
    """Membership update u_tj = d_tj^(-1/(m-1)) normalized over clusters.

    Rows with one or more exact-zero distances give those clusters equal
    full membership (coincident-point degeneracy).  A row whose powers
    overflow or underflow (e.g. a distance within rounding of zero) is
    recomputed from its distances divided by their minimum: the same
    ratios on a representable scale.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inv = d2 ** (-exponent)
        total = inv.sum(axis=1, keepdims=True)
        u = inv / total
        # a row's memberships form a partition exactly when its total is finite and positive
        bad = ~((total > 0.0) & (total < np.inf))[:, 0]
        if bad.any():
            rows = d2[bad]
            inv = (rows / rows.min(axis=1, keepdims=True)) ** (-exponent)
            fixed = inv / inv.sum(axis=1, keepdims=True)
            hits = rows == 0.0
            zero = hits.any(axis=1)
            fixed[zero] = hits[zero] / hits[zero].sum(axis=1, keepdims=True)
            u[bad] = fixed
    return u


def fcm_fit(X, cfg):
    """Standard fuzzy c-means on min-max scaled inputs.

    Memberships are initialized from the seeded stream and row-normalized;
    iteration alternates center and membership updates until the largest
    center shift drops below cfg.tol or cfg.max_iter is reached.
    """
    cfg.validate()
    X = as_matrix(X, "X")
    n, f = X.shape
    r = cfg.n_clusters
    if n < r:
        raise InsufficientDataError(f"{n} samples cannot support {r} clusters")

    stream = RandomStream(cfg.seed)
    u = stream.uniforms(n * r).reshape(n, r)
    u /= u.sum(axis=1, keepdims=True)

    m = float(cfg.fuzziness)
    exponent = 1.0 / (m - 1.0)
    centers = np.zeros((r, f))
    shift = np.inf
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        um = u**m
        new_centers = (um.T @ X) / um.sum(axis=0)[:, None]
        d2 = np.zeros((n, r))
        for k in range(f):  # (N, R) per feature: no (N, R, F) tensor
            diff = X[:, k, None] - new_centers[:, k]
            diff *= diff
            d2 += diff
        u = _memberships_from_distances(d2, exponent)
        shift = float(np.max(np.abs(new_centers - centers))) if iterations > 1 else np.inf
        centers = new_centers
        if shift < cfg.tol:
            break

    return FCMResult(
        centers=centers,
        memberships=u,
        iterations=iterations,
        final_shift=shift,
        fuzziness=m,
    )


def derive_scales(X, res, override_scale=None):
    """Per-rule per-feature scales from the FCM fit.

    override_scale (initialization-study mode) fills the whole matrix with
    one value; otherwise scales are the fuzzy within-cluster dispersion
    sqrt(sum_t u^m (x - c)^2 / sum_t u^m), clipped to [SCALE_MIN, SCALE_MAX].
    """
    if override_scale is not None:
        r, f = res.centers.shape
        return np.full((r, f), float(override_scale))
    X = as_matrix(X, "X")
    um = res.memberships**res.fuzziness  # (N, R)
    diff2 = (X[:, None, :] - res.centers[None, :, :]) ** 2  # (N, R, F)
    weighted = np.einsum("tr,trf->rf", um, diff2)
    scales = np.sqrt(weighted / um.sum(axis=0)[:, None])
    return np.clip(scales, SCALE_MIN, SCALE_MAX)

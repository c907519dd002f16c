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
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class FCMResult:
    centers: np.ndarray      # (R, F)
    memberships: np.ndarray  # (R, N) like Rows.normalized, columns sum to 1
    iterations: int
    final_shift: float
    fuzziness: float = 2.0


def check_init_scale(scale):
    """Reject an initialization scale outside [SCALE_MIN, SCALE_MAX]; NaN fails too."""
    if not SCALE_MIN <= float(scale) <= SCALE_MAX:
        raise ValueError(f"init scale {float(scale):g} is outside [{SCALE_MIN:g}, {SCALE_MAX:g}]")


def _squared_differences(XT, centers):
    """Yield (x_k - c_k)^2 for each feature k as an (R, N) array, sample axis last.

    XT is the (F, N) C-contiguous transpose of X, made once per caller.
    """
    for xk, ck in zip(XT, centers.T):
        yield (xk - ck[:, None]) ** 2


def _memberships_from_distances(d2, exponent):
    """Membership update u_jt = d_jt^(-1/(m-1)) normalized over clusters (axis 0).

    Columns with one or more exact-zero distances give those clusters equal
    full membership (coincident-point degeneracy).  A column whose powers
    overflow or underflow (e.g. a distance within rounding of zero) is
    recomputed from its distances divided by their minimum: the same
    ratios on a representable scale.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inv = d2 ** (-exponent)
        total = inv.sum(axis=0)
        u = inv / total
        # a column's memberships form a partition exactly when its total is finite and positive
        bad = ~((total > 0.0) & (total < np.inf))
        if bad.any():
            cols = d2[:, bad]
            inv = (cols / cols.min(axis=0)) ** (-exponent)
            fixed = inv / inv.sum(axis=0)
            hits = cols == 0.0
            zero = hits.any(axis=0)
            fixed[:, zero] = hits[:, zero] / hits[:, zero].sum(axis=0)
            u[:, bad] = fixed
    return u


def fcm_fit(X, cfg):
    """Standard fuzzy c-means on min-max scaled inputs.

    Memberships are initialized from the seeded stream and normalized over
    clusters; iteration alternates center and membership updates until the
    largest center shift drops below cfg.tol or cfg.max_iter is reached.
    """
    cfg.validate()
    X = as_matrix(X, "X")
    n, f = X.shape
    r = cfg.n_clusters
    if n < r:
        raise InsufficientDataError(f"{n} samples cannot support {r} clusters")

    stream = RandomStream(cfg.seed)
    u = stream.uniforms(n * r).reshape(n, r).T
    u /= u.sum(axis=0)

    m = float(cfg.fuzziness)
    exponent = 1.0 / (m - 1.0)
    centers = np.full((r, f), np.inf)  # the first shift is infinite
    XT = np.ascontiguousarray(X.T)
    for iterations in range(1, cfg.max_iter + 1):
        um = u**m
        new_centers = (um @ X) / um.sum(axis=1)[:, None]
        d2 = np.zeros((r, n))
        for diff in _squared_differences(XT, new_centers):
            d2 += diff
        u = _memberships_from_distances(d2, exponent)
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift < cfg.tol:
            break

    return FCMResult(
        centers=centers, memberships=u, iterations=iterations, final_shift=shift, fuzziness=m
    )


def derive_scales(X, res, override_scale=None):
    """Per-rule per-feature scales from the FCM fit.

    override_scale (initialization-study mode, range-checked) fills the whole
    matrix with one value; otherwise scales are the fuzzy within-cluster dispersion
    sqrt(sum_t u^m (x - c)^2 / sum_t u^m), clipped to [SCALE_MIN, SCALE_MAX].
    """
    if override_scale is not None:
        check_init_scale(override_scale)
        return np.full(res.centers.shape, float(override_scale))
    X = as_matrix(X, "X")
    um = res.memberships**res.fuzziness  # (R, N)
    sq = _squared_differences(np.ascontiguousarray(X.T), res.centers)
    weighted = np.stack([np.einsum("rt,rt->r", um, diff) for diff in sq], axis=1)  # (R, F)
    scales = np.sqrt(weighted / um.sum(axis=1)[:, None])
    return np.clip(scales, SCALE_MIN, SCALE_MAX)

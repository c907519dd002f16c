"""Fuzzy c-means initialization of rule antecedents.

Rule antecedents are scatter-type: rule j takes cluster j's center and
per-feature dispersion in every feature, giving center/scale matrices of
shape (rules, features).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .membership import project_bounds_arrays
from .numerics import InsufficientDataError, RandomStream, as_array, check_fields

#: the fuzzifier m of every fit (Bezdek's usual value)
FUZZINESS = 2.0


@dataclass(frozen=True)
class FCMConfig:
    n_clusters: int
    tol: float = 1e-5
    max_iter: int = 300
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.n_clusters < 2:
            raise ValueError(f"n_clusters must be >= 2, got {self.n_clusters}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class FCMResult:
    centers: np.ndarray  # (R, F) in [0, 1]
    scales: np.ndarray   # (R, F) fuzzy within-cluster dispersion, in the scale bounds
    iterations: int
    final_shift: float


def _squared_differences(XT, centers):
    """Yield (x_k - c_k)^2 for each feature k as an (R, N) array, sample axis last.

    XT is the (F, N) C-contiguous transpose of X, made once per caller.
    """
    for xk, ck in zip(XT, centers.T):
        yield (xk - ck[:, None]) ** 2


def _memberships_from_distances(d2):
    """Membership update u_jt = d_jt^(-1/(m-1)) normalized over clusters (axis 0), m = FUZZINESS.

    Columns with one or more exact-zero distances give those clusters equal
    full membership (coincident-point degeneracy).  A column whose powers
    overflow or underflow (e.g. a distance within rounding of zero) is
    recomputed from its distances divided by their minimum: the same
    ratios on a representable scale.
    """
    exponent = 1.0 / (FUZZINESS - 1.0)
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
    """Standard fuzzy c-means on min-max scaled inputs, returning the rule antecedents.

    Memberships are initialized from the seeded stream and normalized over
    clusters; iteration alternates center and membership updates until the
    largest center shift drops below cfg.tol or cfg.max_iter is reached.
    The scales are the final fit's fuzzy within-cluster dispersion
    sqrt(sum_t u^m (x - c)^2 / sum_t u^m); both are projected onto their
    bounds.  A cluster with no u^m mass raises InsufficientDataError.
    """
    X = as_array(X, 2, "X")
    n, f = X.shape
    r = cfg.n_clusters
    if n < r:
        raise InsufficientDataError(f"{n} samples cannot support {r} clusters")

    stream = RandomStream(cfg.seed)
    u = stream.uniforms(n * r).reshape(n, r).T
    u /= u.sum(axis=0)

    m = FUZZINESS
    centers = np.full((r, f), np.inf)  # the first shift is infinite
    XT = np.ascontiguousarray(X.T)
    shift = np.inf  # no pass stops before the first update
    for iterations in range(cfg.max_iter + 1):  # pass k weighs the memberships after k updates
        um = u**m
        mass = um.sum(axis=1)
        if not mass.all():
            raise InsufficientDataError(
                f"one of {r} FCM clusters is empty: likely fewer distinct training rows than rules"
            )
        if shift < cfg.tol or iterations == cfg.max_iter:
            break
        new_centers = (um @ X) / mass[:, None]
        d2 = np.zeros((r, n))
        for diff in _squared_differences(XT, new_centers):
            d2 += diff
        u = _memberships_from_distances(d2)
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers

    sq = _squared_differences(XT, centers)
    weighted = np.stack([np.einsum("rt,rt->r", um, diff) for diff in sq], axis=1)  # (R, F)
    scales = np.sqrt(weighted / mass[:, None])
    return FCMResult(*project_bounds_arrays(centers, scales), iterations, shift)

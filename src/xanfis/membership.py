"""Gaussian and Cauchy membership functions with analytic log-gradients.

Centers live in [0, 1] (min-max scaled input units) and scales in
[SCALE_MIN, 1].  Evaluation accepts inputs outside [0, 1] because test
rows may fall outside the training min-max range; only the parameters are
projected, never the data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

#: lower bound on scale parameters; keeps the 1/scale^3 gradient terms finite
SCALE_MIN = 1e-3
#: upper bound on both centers and scales in scaled units
SCALE_MAX = 1.0


class MFKind(str, enum.Enum):
    GAUSSIAN = "gaussian"
    CAUCHY = "cauchy"


@dataclass(frozen=True)
class FuzzySetParams:
    """One fuzzy set: center in [0,1], scale in [SCALE_MIN, 1].

    The pairwise overlap measures in metrics take one per argument.
    """

    center: float
    scale: float


def membership_values(kind, x, centers, scales):
    """Membership of x under the given centers/scales (broadcasting).

    Gaussian: exp(-(x-c)^2 / (2 s^2)); Cauchy: 1 / (1 + ((x-c)/s)^2).
    Result lies in (0, 1] for Cauchy and [0, 1] for Gaussian (the far tail
    underflows to exactly 0.0, which the firing-strength layer tolerates).
    """
    x = np.asarray(x, dtype=np.float64)
    u = (x - centers) / scales
    if kind == MFKind.GAUSSIAN:
        with np.errstate(under="ignore"):
            return np.exp(-0.5 * u * u)
    if kind == MFKind.CAUCHY:
        return 1.0 / (1.0 + u * u)
    raise ValueError(f"unknown membership kind: {kind!r}")


def log_membership_grads(kind, x, centers, scales):
    """Partials of log(mu): (d log mu / d center, d log mu / d scale).

    These stay finite even where mu itself underflows, which is what the
    training passes multiply against raw firing strengths.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x - centers
    s2 = scales * scales
    if kind == MFKind.GAUSSIAN:
        return d / s2, d * d / (s2 * scales)
    if kind == MFKind.CAUCHY:
        mu = membership_values(kind, x, centers, scales)
        two_mu = 2.0 * mu
        return two_mu * d / s2, two_mu * d * d / (s2 * scales)
    raise ValueError(f"unknown membership kind: {kind!r}")


def project_bounds_arrays(centers, scales):
    """Clamp centers into [0, 1] and scales into [SCALE_MIN, 1]; returns copies."""
    return (
        np.clip(centers, 0.0, 1.0),
        np.clip(scales, SCALE_MIN, SCALE_MAX),
    )

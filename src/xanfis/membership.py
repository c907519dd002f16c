"""Gaussian and Cauchy membership functions with analytic log-gradients.

The training kernels (product firing and the log-gradient factor) take
standardized distances u = (x - c) / s, which the forward computes once
per antecedent state; membership_values evaluates curves from x directly.

Centers live in [0, 1] (min-max scaled input units) and scales in
[SCALE_MIN, 1].  Evaluation accepts inputs outside [0, 1] because test
rows may fall outside the training min-max range; only the parameters are
projected, never the data.
"""

from __future__ import annotations

import enum

import numpy as np

#: lower bound on scale parameters; keeps the 1/scale^3 gradient terms finite
SCALE_MIN = 1e-3
#: upper bound on both centers and scales in scaled units
SCALE_MAX = 1.0


class MFKind(str, enum.Enum):
    GAUSSIAN = "gaussian"
    CAUCHY = "cauchy"


def _mu(kind, u, out=None):
    if kind == MFKind.GAUSSIAN:
        with np.errstate(under="ignore"):
            return np.exp(-0.5 * u * u)
    if kind == MFKind.CAUCHY:
        mu = np.multiply(u, u, out=out)
        mu += 1.0
        return np.divide(1.0, mu, out=out)
    raise ValueError(f"unknown membership kind: {kind!r}")


def membership_values(kind, x, centers, scales):
    """Membership of x under the given centers/scales (broadcasting).

    Gaussian: exp(-(x-c)^2 / (2 s^2)); Cauchy: 1 / (1 + ((x-c)/s)^2).
    Result lies in (0, 1] for Cauchy and [0, 1] for Gaussian (the far tail
    underflows to exactly 0.0, which the firing-strength layer tolerates).
    """
    x = np.asarray(x, dtype=np.float64)
    return _mu(kind, (x - centers) / scales)


def product_firing(kind, u, out=None, scratch=None):
    """Product over the leading (feature) axis of the memberships at standardized distances u.

    u = (x - c) / s.  Gaussian: one exp of -0.5 * sum(u^2), with no
    per-feature membership; Cauchy: the product of 1 / (1 + u^2).  The
    result goes to out when given; Cauchy's per-feature memberships go to
    the first u.size floats of the flat buffer scratch when given.  Gaussian
    memberships may underflow to 0.0 (see xanfis.inference).
    """
    if kind == MFKind.GAUSSIAN:
        q = np.einsum("f...,f...->...", u, u, out=out)
        q *= -0.5
        return np.exp(q, out=q)
    mu = None if scratch is None else scratch[: u.size].reshape(u.shape)
    return np.multiply.reduce(_mu(kind, u, out=mu), axis=0, out=out)


def log_grad_factor(kind, u, out=None):
    """Factor g of the log-membership partials at standardized distances u.

    d log mu / d center = g / s and d log mu / d scale = g * u / s; both
    stay finite where mu underflows.  Gaussian: g = u (the same array; out
    is unused); Cauchy: g = 2u / (1 + u^2), written to out when given and
    computed as 2 * (u / (1 + u^2)), the same bits since doubling is exact.
    """
    if kind == MFKind.GAUSSIAN:
        return u
    if kind == MFKind.CAUCHY:
        g = np.multiply(u, u, out=out)
        g += 1.0
        g = np.divide(u, g, out=out)
        g *= 2.0
        return g
    raise ValueError(f"unknown membership kind: {kind!r}")


def project_bounds_arrays(centers, scales):
    """Clamp centers into [0, 1] and scales into [SCALE_MIN, 1]; returns copies."""
    # np.clip's values without its Python wrapper (only a -0.0 at the bound 0 comes out +0.0)
    return (
        np.minimum(np.maximum(centers, 0.0), 1.0),
        np.minimum(np.maximum(scales, SCALE_MIN), SCALE_MAX),
    )

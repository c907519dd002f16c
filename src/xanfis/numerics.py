"""Shared numeric kernels: ridge solver, CI statistics, seeded RNG.

All matrices and vectors are float64 numpy arrays.  Public entry points
check shape/finiteness once with as_matrix/as_vector, so the kernels
below them can assume clean inputs.
"""

from __future__ import annotations

import math

import numpy as np


class SingularMatrixError(ValueError):
    """The regularized normal equations are not positive definite in float64."""


class InsufficientDataError(ValueError):
    """Too few samples for the requested statistic or fit."""


def as_matrix(a, name="matrix"):
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(v, name="vector"):
    """Coerce to a 1-D float64 array, rejecting non-finite entries."""
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def ridge_solve(phi, y, lam):
    """Minimize ||phi @ w - y||^2 + lam * ||w||^2 over w.

    Solves the normal equations (phi^T phi + lam I) w = phi^T y with a
    Cholesky factorization; the system sizes here are small (columns =
    rules or rules*(features+1)), so the direct solve is both fast and
    accurate.  A system that is not positive definite in float64 (lam = 0
    with dependent columns, or lam below rounding) raises
    SingularMatrixError.  phi and y are trusted: finite, 2-D and 1-D, with
    matching nonzero row counts (fit_consequents and train check them).
    """
    lam = float(lam)
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")

    a = phi.T @ phi
    a.flat[:: a.shape[0] + 1] += lam  # the diagonal
    b = phi.T @ y
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise SingularMatrixError(
            f"phi^T phi + lambda I is not positive definite at lambda {lam}"
        ) from err
    # two solves with the factor: L z = b, then L^T w = z
    return np.linalg.solve(low.T, np.linalg.solve(low, b))


#: normal-approximation 95% quantile used for confidence intervals
Z95 = 1.96


def mean_ci95(samples):
    """Mean and normal-approximation 95% CI of a sample.

    Returns (mean, lo, hi) with half-width Z95 * sd / sqrt(n), sd the
    sample standard deviation (ddof=1).
    """
    a = as_vector(samples, "samples")
    n = a.shape[0]
    if n < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {n}")
    mean = float(np.mean(a))
    half = Z95 * float(np.std(a, ddof=1)) / math.sqrt(n)
    return mean, mean - half, mean + half


# --------------------------------------------------------------------
# Seeded randomness
# --------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
# splitmix64 constants (Steele, Lea & Flood's SplittableRandom finalizer)
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64_array(z):
    """splitmix64 finalizer, vectorized over a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class RandomStream:
    """Deterministic counter-based generator (splitmix64 core).

    Draw i is mix64(seed + (i+1)*GAMMA mod 2^64), so batched and
    one-at-a-time draws produce the same sequence, and any language with
    64-bit integers can reproduce it from the three constants above.
    """

    def __init__(self, seed):
        self.seed = int(seed) & _MASK64
        self._count = 0

    def uint64s(self, n):
        n = int(n)
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return _mix64_array((np.uint64(self.seed) + idx * np.uint64(_GAMMA)).astype(np.uint64))

    def uniforms(self, n):
        return (self.uint64s(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, n):
        """Standard normals via Box-Muller (two uniforms per draw)."""
        n = int(n)
        u1 = self.uniforms(n)
        u2 = self.uniforms(n)
        return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * math.pi * u2)

    def permutation(self, n):
        """Fisher-Yates shuffle of range(n)."""
        n = int(n)
        if n < 2:
            return np.arange(n)
        perm = list(range(n))
        # raw draw k swaps position i = n-1-k (Python ints: exact 128-bit product)
        for i, raw in zip(range(n - 1, 0, -1), self.uint64s(n - 1).tolist()):
            j = (raw * (i + 1)) >> 64
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm)

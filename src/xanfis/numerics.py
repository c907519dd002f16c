"""Shared numeric kernels: value checks, ridge solver, CI statistics, seeded RNG.

All matrices and vectors are float64 numpy arrays.  Public entry points
check arrays once with as_array/as_rows and scalars with check_value, so
the kernels below them can assume clean inputs.
"""

from __future__ import annotations

import enum
import functools
import math
import typing
from dataclasses import fields

import numpy as np


class SingularMatrixError(ValueError):
    """The regularized normal equations are not positive definite in float64."""


class InsufficientDataError(ValueError):
    """Too few samples for the requested statistic or fit."""


def has_type(value, kind):
    """isinstance against a type or | union; a bare float takes an int; a bool is only a bool."""
    kinds = (int, float) if kind is float else kind
    return isinstance(value, kinds) and (kind is bool) == isinstance(value, bool)


def check_value(value, kind, name):
    """value, if of kind (a has_type kind) and finite; for an enum kind, the member it names."""
    if isinstance(kind, enum.EnumMeta):
        names = [member.value for member in kind]
        if value not in names:
            raise ValueError(f"{name} must be one of {names}, got {value!r}")
        return kind(value)
    if not has_type(value, kind):
        raise ValueError(f"{name} must be {getattr(kind, '__name__', kind)}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


#: a class's annotations, resolved; once per class, as resolving costs more than a config's checks
_annotations = functools.cache(typing.get_type_hints)


def check_fields(obj):
    """check_value on each field of frozen dataclass obj against its annotation; stores the result."""
    kinds = _annotations(type(obj))
    for f in fields(obj):
        object.__setattr__(obj, f.name, check_value(getattr(obj, f.name), kinds[f.name], f.name))


def as_numbers(a, name):
    """np.asarray(a), if numpy reads its entries as int, uint or float; else ValueError."""
    m = np.asarray(a)
    if m.dtype.kind not in "iuf":  # not read as numbers: str, bool, complex, object entries
        raise ValueError(f"{name} must hold numbers, got {m.dtype} entries")
    return m


def as_array(a, ndim, name):
    """Coerce to an ndim-D (1 or 2) float64 array of its int or float entries, all finite."""
    m = as_numbers(a, name).astype(np.float64, copy=False)
    if m.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_rows(X, y, x_name="X", y_name="y"):
    """(X, y) as a checked matrix and vector of the same, nonzero row count."""
    X = as_array(X, 2, x_name)
    y = as_array(y, 1, y_name)
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{x_name} has {X.shape[0]} rows but {y_name} has {y.shape[0]} entries")
    if X.shape[0] == 0:
        raise ValueError(f"{x_name} has 0 rows")
    return X, y


def ridge_solve(phi, y, lam):
    """Minimize ||phi @ w - y||^2 + lam * ||w||^2 over w.

    Solves the normal equations (phi^T phi + lam I) w = phi^T y with a
    Cholesky factorization; the system sizes here are small (columns =
    rules or rules*(features+1)), so the direct solve is both fast and
    accurate.  A system that is not positive definite in float64 (lam = 0
    with dependent columns, or lam below rounding) raises
    SingularMatrixError.  phi and y are trusted: finite, 2-D and 1-D, with
    matching nonzero row counts (as_rows checks them for every caller).
    """
    lam = float(check_value(lam, float, "lambda"))
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
    a = as_array(samples, 1, "samples")
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
        self.seed = check_value(seed, int, "seed") & _MASK64
        self._count = 0

    def uint64s(self, n):
        if check_value(n, int, "n") < 0:  # every draw passes here
            raise ValueError(f"n must be >= 0, got {n}")
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return _mix64_array((np.uint64(self.seed) + idx * np.uint64(_GAMMA)).astype(np.uint64))

    def uniforms(self, n):
        return (self.uint64s(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, n):
        """Standard normals via Box-Muller (two uniforms per draw)."""
        u1 = self.uniforms(n)
        u2 = self.uniforms(n)
        return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * math.pi * u2)

    def permutation(self, n):
        """Fisher-Yates shuffle of range(n)."""
        perm = list(range(check_value(n, int, "n")))
        # n - 1 raw draws, none at n = 0; draw k swaps i = n-1-k (exact 128-bit Python ints)
        for i, raw in zip(range(n - 1, 0, -1), self.uint64s(n - (n > 0)).tolist()):
            j = (raw * (i + 1)) >> 64
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=int)

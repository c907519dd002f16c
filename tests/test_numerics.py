"""Row checks, ridge solver, CI statistics and the seeded stream."""

import math
import re

import numpy as np
import pytest

from xanfis.data import split_scale
from xanfis.inference import RuleBase
from xanfis.membership import MFKind
from xanfis.metrics import evaluate_model
from xanfis.numerics import (
    InsufficientDataError,
    RandomStream,
    SingularMatrixError,
    as_rows,
    mean_ci95,
    ridge_solve,
)
from xanfis.training import TrainConfig, train

_RNG = np.random.default_rng(0)
_X, _Y = _RNG.uniform(size=(20, 2)), _RNG.uniform(size=20)
_RB0 = RuleBase(MFKind.CAUCHY, [[0.2, 0.3], [0.5, 0.8], [0.9, 0.4]], np.full((3, 2), 0.3))
_RB = train(_X, _Y, _X, _Y, _RB0, TrainConfig(max_epochs=0)).rb
_CFG = TrainConfig(max_epochs=1)

#: every entry point that takes rows and targets: (call on X and y, X's name, y's name)
ROW_ENTRIES = {
    "as_rows": (as_rows, "X", "y"),
    "split_scale": (split_scale, "X", "y"),
    "train": (lambda X, y: train(X, y, _X, _Y, _RB0, _CFG), "X_train", "y_train"),
    "train_val": (lambda X, y: train(_X, _Y, X, y, _RB0, _CFG), "X_val", "y_val"),
    "evaluate_model": (lambda X, y: evaluate_model(_RB, X, y), "X", "y"),
}

#: one fault of the rows or targets each: (X, y, message with {x} and {y} for the names)
ROW_FAULTS = {
    "row_mismatch": (_X, _Y[:15], "{x} has 20 rows but {y} has 15 entries"),
    "zero_rows": (_X[:0], _Y[:0], "{x} has 0 rows"),
    "one_d_X": (_X[:, 0], _Y, "{x} must be 2-D, got ndim=1"),
    "two_d_y": (_X, _Y[:, None], "{y} must be 1-D, got ndim=2"),
    "non_finite_X": (np.where(_X > 0.5, np.inf, _X), _Y, "{x} contains non-finite entries"),
    "non_finite_y": (_X, np.where(_Y > 0.5, np.nan, _Y), "{y} contains non-finite entries"),
    "str_X": (_X.astype(str), _Y, "{x} must hold numbers, got <U32 entries"),
    "bool_X": (_X > 0.5, _Y, "{x} must hold numbers, got bool entries"),
    "complex_y": (_X, _Y + 1j, "{y} must hold numbers, got complex128 entries"),
}


class TestAsRows:
    def test_returns_checked_float_arrays(self):
        X, y = as_rows([[1, 2], [3, 4]], [5, 6])
        assert X.dtype == y.dtype == np.float64
        assert X.shape == (2, 2) and y.tolist() == [5.0, 6.0]

    @pytest.mark.parametrize("fault", ROW_FAULTS)
    @pytest.mark.parametrize("entry", ROW_ENTRIES)
    def test_every_entry_names_the_fault(self, entry, fault):
        call, x_name, y_name = ROW_ENTRIES[entry]
        X, y, shown = ROW_FAULTS[fault]
        with pytest.raises(ValueError, match=re.escape(shown.format(x=x_name, y=y_name))):
            call(X, y)


class TestRidgeSolve:
    def test_identity_design_lambda_zero(self):
        w = ridge_solve(np.eye(2), [1.0, 2.0], 0.0)
        np.testing.assert_allclose(w, [1.0, 2.0], rtol=0, atol=1e-14)

    def test_identity_design_lambda_one(self):
        # (I + I)^-1 y
        w = ridge_solve(np.eye(2), [1.0, 2.0], 1.0)
        np.testing.assert_allclose(w, [0.5, 1.0], rtol=0, atol=1e-14)

    def test_matches_explicit_normal_equations(self):
        # oracle: dense inverse of the normal equations, nothing shared
        # with the solver path
        rng = np.random.default_rng(7)
        phi = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        lam = 1e-4
        oracle = np.linalg.inv(phi.T @ phi + lam * np.eye(3)) @ (phi.T @ y)
        w = ridge_solve(phi, y, lam)
        np.testing.assert_allclose(w, oracle, atol=1e-8)

    def test_residual_bound_random_systems(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            r = int(rng.integers(1, 8))
            phi = rng.normal(size=(n, r))
            y = rng.normal(size=n)
            lam = float(rng.choice([1e-6, 1e-4, 1e-2, 1.0]))
            w = ridge_solve(phi, y, lam)
            resid = phi.T @ (phi @ w - y) + lam * w
            bound = 1e-8 * (1.0 + np.max(np.abs(phi.T @ y)))
            assert np.max(np.abs(resid)) < bound

    def test_positive_lambda_never_errors(self):
        # rank-deficient design: duplicate columns
        rng = np.random.default_rng(3)
        col = rng.normal(size=(10, 1))
        phi = np.hstack([col, col, col])
        y = rng.normal(size=10)
        w = ridge_solve(phi, y, 1e-4)
        assert np.all(np.isfinite(w))

    def test_singular_with_lambda_zero_raises(self):
        col = np.ones((5, 1))
        phi = np.hstack([col, col])
        with pytest.raises(SingularMatrixError):
            ridge_solve(phi, np.ones(5), 0.0)

    def test_lambda_below_rounding_raises_naming_lambda(self):
        # a duplicated 0/1 column first: its Gram entries are exactly 100, so
        # the second pivot is exactly 0, since 100 + 1e-20 rounds to 100
        rng = np.random.default_rng(5)
        col = (np.arange(200) < 100).astype(float)[:, None]
        phi = np.hstack([col, col, rng.normal(size=(200, 3))])
        with pytest.raises(SingularMatrixError, match="1e-20"):
            ridge_solve(phi, rng.normal(size=200), 1e-20)

    def test_negative_lambda_raises(self):
        with pytest.raises(ValueError):
            ridge_solve(np.eye(2), np.ones(2), -1.0)

    @pytest.mark.parametrize("lam, shown", [
        (math.nan, "lambda must be finite, got nan"),
        (math.inf, "lambda must be finite, got inf"),
        (True, "lambda must be float, got True"),
        ("0.1", "lambda must be float, got '0.1'"),
    ], ids=["nan", "inf", "True", "0.1"])
    def test_lambda_not_a_finite_number_raises(self, lam, shown):
        # unchecked, NaN gives NaN consequents and inf all-zero ones; True and "0.1" are coerced
        with pytest.raises(ValueError, match=re.escape(shown)):
            ridge_solve(np.eye(2), np.ones(2), lam)


class TestMeanCI95:
    def test_zero_variance(self):
        assert mean_ci95([5.0, 5.0, 5.0, 5.0]) == (5.0, 5.0, 5.0)

    def test_two_points_analytic(self):
        mean, lo, hi = mean_ci95([0.0, 1.0])
        # sd = sqrt(0.5); half-width = 1.96 * sd / sqrt(2) = 0.98
        assert mean == pytest.approx(0.5)
        assert lo == pytest.approx(-0.48)
        assert hi == pytest.approx(1.48)

    def test_matches_independent_reimplementation(self):
        samples = RandomStream(99).uniforms(100)
        mean, lo, hi = mean_ci95(samples)
        # second implementation, scalar arithmetic only
        n = len(samples)
        m = sum(samples) / n
        var = sum((s - m) ** 2 for s in samples) / (n - 1)
        half = 1.96 * math.sqrt(var) / math.sqrt(n)
        assert abs(mean - m) < 1e-10
        assert abs(lo - (m - half)) < 1e-10
        assert abs(hi - (m + half)) < 1e-10

    def test_single_sample_rejected(self):
        with pytest.raises(InsufficientDataError):
            mean_ci95([1.0])


class TestRandomStream:
    @pytest.mark.parametrize("seed", [1.5, True, "1", np.int64(1)])
    def test_non_int_seed_rejected(self, seed):
        # int() would run each as seed 1; a bool is not an int, as in the config fields
        with pytest.raises(ValueError, match=re.escape(f"seed must be int, got {seed!r}")):
            RandomStream(seed)

    @pytest.mark.parametrize("draw, n, shown", [
        ("uniforms", 2.7, "n must be int, got 2.7"),
        ("permutation", 3.9, "n must be int, got 3.9"),
        ("normals", True, "n must be int, got True"),
        ("uint64s", np.int64(2), "n must be int, got np.int64(2)"),
        ("uniforms", -1, "n must be >= 0, got -1"),
        ("permutation", -1, "n must be >= 0, got -1"),
    ])
    def test_bad_count_rejected_without_drawing(self, draw, n, shown):
        # int() truncated 2.7 and 3.9 and read True as 1; -1 rewound the draw counter
        stream = RandomStream(3)
        with pytest.raises(ValueError, match=re.escape(shown)):
            getattr(stream, draw)(n)
        np.testing.assert_array_equal(stream.uniforms(3), RandomStream(3).uniforms(3))

    def test_negative_seed_wraps(self):
        a, b = RandomStream(-1).uniforms(4), RandomStream(2**64 - 1).uniforms(4)
        np.testing.assert_array_equal(a, b)

    def test_equal_seeds_equal_draws(self):
        a = RandomStream(123456789).uniforms(10_000)
        b = RandomStream(123456789).uniforms(10_000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStream(1).uniforms(100)
        b = RandomStream(2).uniforms(100)
        assert not np.array_equal(a, b)

    def test_batched_equals_sequential(self):
        batch = RandomStream(42).uniforms(64)
        s = RandomStream(42)
        single = np.concatenate([s.uniforms(1) for _ in range(64)])
        np.testing.assert_array_equal(batch, single)

    def test_uniform_range(self):
        u = RandomStream(5).uniforms(10_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert 0.45 < u.mean() < 0.55

    def test_normals_moments(self):
        z = RandomStream(17).normals(20_000)
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03

    def test_permutation_is_permutation(self):
        perm = RandomStream(8).permutation(1000)
        assert sorted(perm.tolist()) == list(range(1000))

    def test_permutation_deterministic(self):
        np.testing.assert_array_equal(
            RandomStream(8).permutation(50), RandomStream(8).permutation(50)
        )

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 1000, 20000])
    @pytest.mark.parametrize("seed", [0, 8, 2**64 - 1])
    def test_permutation_matches_per_element_fisher_yates(self, n, seed):
        def oracle(stream, n):
            # the per-element numpy loop the list-based shuffle replaced
            perm = np.arange(n)
            if n < 2:
                return perm
            raws = stream.uint64s(n - 1)
            for i in range(n - 1, 0, -1):
                j = (int(raws[n - 1 - i]) * (i + 1)) >> 64
                perm[i], perm[j] = perm[j], perm[i]
            return perm

        fast, slow = RandomStream(seed), RandomStream(seed)
        perm = fast.permutation(n)
        assert perm.dtype == np.int64
        np.testing.assert_array_equal(perm, oracle(slow, n))
        # both leave the stream at the same draw
        np.testing.assert_array_equal(fast.uniforms(3), slow.uniforms(3))

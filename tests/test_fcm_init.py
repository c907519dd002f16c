"""Fuzzy c-means fitting and antecedent scale derivation."""

import warnings

import numpy as np
import pytest

from xanfis.data import synth_regression
from xanfis.fcm_init import (
    FCMConfig,
    FCMResult,
    _memberships_from_distances,
    derive_scales,
    fcm_fit,
)
from xanfis.membership import SCALE_MIN
from xanfis.numerics import InsufficientDataError, RandomStream, as_matrix


def fcm_objective(X, res):
    """Weighted within-cluster scatter sum u^m d^2 at a fitted state."""
    X = as_matrix(X, "X")
    diff = X[:, None, :] - res.centers[None, :, :]
    d2 = np.einsum("trf,trf->tr", diff, diff)
    return float(np.sum(res.memberships**res.fuzziness * d2))


def einsum_fcm_oracle(X, cfg):
    """FCM with (N, R, F) difference tensors and masked membership rows."""
    n, f = X.shape
    r = cfg.n_clusters
    u = RandomStream(cfg.seed).uniforms(n * r).reshape(n, r)
    u /= u.sum(axis=1, keepdims=True)
    m = float(cfg.fuzziness)
    centers = np.zeros((r, f))
    for it in range(1, cfg.max_iter + 1):
        um = u**m
        new_centers = (um.T @ X) / um.sum(axis=0)[:, None]
        diff = X[:, None, :] - new_centers[None, :, :]
        d2 = np.einsum("trf,trf->tr", diff, diff)
        u = np.empty_like(d2)
        zero = (d2 == 0.0).any(axis=1)
        inv = d2[~zero] ** (-1.0 / (m - 1.0))
        u[~zero] = inv / inv.sum(axis=1, keepdims=True)
        hits = d2[zero] == 0.0
        u[zero] = hits / hits.sum(axis=1, keepdims=True)
        shift = np.max(np.abs(new_centers - centers)) if it > 1 else np.inf
        centers = new_centers
        if shift < cfg.tol:
            break
    return centers, u


def two_blobs(n=200, radius=0.05, seed=0):
    X, y = synth_regression("two_blob", n, radius, seed)
    return X, y


class TestFit:
    def test_two_blobs_recovers_cloud_means(self):
        X, labels = two_blobs()
        res = fcm_fit(X, FCMConfig(n_clusters=2, seed=0))
        mean_a = X[labels == 0].mean(axis=0)
        mean_b = X[labels == 1].mean(axis=0)
        # match clusters to blobs by proximity
        d0 = np.linalg.norm(res.centers[0] - mean_a)
        if d0 > np.linalg.norm(res.centers[0] - mean_b):
            mean_a, mean_b = mean_b, mean_a
        assert np.linalg.norm(res.centers[0] - mean_a) < 0.02
        assert np.linalg.norm(res.centers[1] - mean_b) < 0.02

    def test_membership_rows_sum_to_one(self):
        X, _ = two_blobs(seed=3)
        res = fcm_fit(X, FCMConfig(n_clusters=4, seed=1))
        np.testing.assert_allclose(res.memberships.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(res.memberships >= 0.0)
        assert np.all(res.memberships <= 1.0)

    def test_identical_rows_degenerate_fixed_point(self):
        X = np.tile([0.3, 0.7], (25, 1))
        res = fcm_fit(X, FCMConfig(n_clusters=2, seed=0))
        np.testing.assert_allclose(res.centers[0], [0.3, 0.7], atol=1e-12)
        np.testing.assert_allclose(res.centers[1], [0.3, 0.7], atol=1e-12)
        # coincident clusters share each point equally
        np.testing.assert_allclose(res.memberships, 0.5, atol=1e-12)

    def test_same_seed_bitwise_identical(self):
        X, _ = two_blobs(seed=5)
        cfg = FCMConfig(n_clusters=3, seed=9)
        a = fcm_fit(X, cfg)
        b = fcm_fit(X, FCMConfig(n_clusters=3, seed=9))
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.memberships, b.memberships)
        assert a.iterations == b.iterations
        assert a.final_shift == b.final_shift

    def test_objective_non_increasing_across_iterations(self):
        # truncated runs at the same seed expose the per-iteration states
        X, _ = two_blobs(n=150, seed=2)
        values = []
        for k in range(1, 12):
            res = fcm_fit(X, FCMConfig(n_clusters=3, seed=4, max_iter=k))
            values.append(fcm_objective(X, res))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_centers_inside_bounding_box(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0.2, 0.9, size=(120, 3))
        res = fcm_fit(X, FCMConfig(n_clusters=5, seed=2))
        assert np.all(res.centers >= X.min(axis=0) - 1e-12)
        assert np.all(res.centers <= X.max(axis=0) + 1e-12)

    @pytest.mark.parametrize("f", range(1, 9))
    @pytest.mark.parametrize("m", [2.0, 1.7])
    def test_matches_einsum_oracle(self, f, m):
        # per-feature distance sums: bit-identical while a row sums at most
        # two features, reordered (rounding-level) beyond that
        X = np.random.default_rng(f).uniform(size=(240, f))
        X[7] = X[3]  # a repeated row
        cfg = FCMConfig(n_clusters=6, fuzziness=m, tol=1e-300, max_iter=20, seed=f)
        res = fcm_fit(X, cfg)
        centers, u = einsum_fcm_oracle(X, cfg)
        assert res.iterations == 20
        if f <= 2:
            np.testing.assert_array_equal(res.centers, centers)
            np.testing.assert_array_equal(res.memberships, u)
        else:
            np.testing.assert_allclose(res.centers, centers, rtol=0, atol=1e-12)
            np.testing.assert_allclose(res.memberships, u, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("exponent", [1.0, 1 / 0.7])
    def test_memberships_patch_only_zero_distance_rows(self, exponent):
        d2 = np.array([
            [0.04, 0.25, 1.0],
            [0.0, 0.3, 0.1],
            [0.5, 0.0, 0.0],
            [1e-200, 2.0, 3.0],
            [0.0, 0.0, 0.0],
            [0.09, 0.01, 0.16],
        ])
        expected = np.empty_like(d2)
        for t, row in enumerate(d2):
            if np.any(row == 0.0):
                hits = row == 0.0
                expected[t] = hits / hits.sum()
            else:
                inv = row ** (-exponent)
                expected[t] = inv / inv.sum()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the zero rows' inf/nan stay silent
            u = _memberships_from_distances(d2, exponent)
        np.testing.assert_array_equal(u, expected)

    @pytest.mark.parametrize("exponent", [1.0, 1 / 0.7])
    def test_memberships_tiny_distance_row_is_full_membership(self, exponent):
        # d2 ** -exponent overflows for the 1e-300 entry; the limit is [1, 0, 0]
        d2 = np.array([[1e-300, 2.0, 3.0], [0.04, 0.25, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = _memberships_from_distances(d2, exponent)
        assert np.all(np.isfinite(u))
        np.testing.assert_allclose(u.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(u[0], [1.0, 0.0, 0.0], rtol=0, atol=1e-15)
        inv = d2[1] ** (-exponent)
        np.testing.assert_array_equal(u[1], inv / inv.sum())

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            fcm_fit(np.zeros((3, 2)), FCMConfig(n_clusters=4, seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            fcm_fit(np.zeros((10, 2)), FCMConfig(n_clusters=1, seed=0))
        with pytest.raises(ValueError):
            fcm_fit(np.zeros((10, 2)), FCMConfig(n_clusters=2, fuzziness=1.0, seed=0))


class TestDeriveScales:
    def test_override_fills_matrix(self):
        res = FCMResult(
            centers=np.zeros((4, 3)),
            memberships=np.ones((10, 4)) / 4,
            iterations=1,
            final_shift=0.0,
        )
        scales = derive_scales(np.zeros((10, 3)), res, override_scale=0.03125)
        assert scales.shape == (4, 3)
        assert np.all(scales == 0.03125)

    def test_single_point_cluster_floored(self):
        # crisp memberships: cluster 0 owns one point, zero dispersion
        X = np.array([[0.5, 0.5], [0.1, 0.9], [0.2, 0.8], [0.15, 0.85]])
        u = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        centers = np.array([[0.5, 0.5], [0.15, 0.85]])
        res = FCMResult(centers=centers, memberships=u, iterations=1, final_shift=0.0)
        scales = derive_scales(X, res)
        assert np.all(scales[0] == SCALE_MIN)
        assert np.all(scales[1] > SCALE_MIN)

    def test_two_blob_scales_match_cloud_dispersion(self):
        X, labels = two_blobs(n=400, radius=0.05, seed=7)
        res = fcm_fit(X, FCMConfig(n_clusters=2, seed=7))
        fitted = derive_scales(X, res)
        # oracle: per-cloud per-feature standard deviation
        for j in range(2):
            cloud = X[labels == (np.linalg.norm(res.centers[j] - [0.8, 0.8]) < 0.3)]
            ref = cloud.std(axis=0)
            assert np.all(np.abs(fitted[j] - ref) / ref < 0.2)

    def test_scales_capped_at_one(self):
        res = FCMResult(
            centers=np.zeros((2, 2)),
            memberships=np.ones((10, 2)) / 2,
            iterations=1,
            final_shift=0.0,
        )
        scales = derive_scales(np.zeros((10, 2)), res, override_scale=1.0)
        assert np.all(scales == 1.0)

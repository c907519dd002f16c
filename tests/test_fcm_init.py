"""Fuzzy c-means fitting and antecedent scale derivation."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

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
    diff = X.T[:, None, :] - res.centers.T[:, :, None]  # (F, R, N)
    d2 = np.einsum("frt,frt->rt", diff, diff)
    return float(np.sum(res.memberships**res.fuzziness * d2))


def einsum_fcm_oracle(X, cfg):
    """FCM with (F, R, N) difference tensors and masked membership columns."""
    n, f = X.shape
    r = cfg.n_clusters
    u = RandomStream(cfg.seed).uniforms(n * r).reshape(n, r).T
    u /= u.sum(axis=0)
    m = float(cfg.fuzziness)
    centers = np.zeros((r, f))
    for it in range(1, cfg.max_iter + 1):
        um = u**m
        new_centers = (um @ X) / um.sum(axis=1)[:, None]
        diff = X.T[:, None, :] - new_centers.T[:, :, None]
        d2 = np.einsum("frt,frt->rt", diff, diff)
        u = np.empty_like(d2)
        zero = (d2 == 0.0).any(axis=0)
        inv = d2[:, ~zero] ** (-1.0 / (m - 1.0))
        u[:, ~zero] = inv / inv.sum(axis=0)
        hits = d2[:, zero] == 0.0
        u[:, zero] = hits / hits.sum(axis=0)
        shift = np.max(np.abs(new_centers - centers)) if it > 1 else np.inf
        centers = new_centers
        if shift < cfg.tol:
            break
    return centers, u


#: the cloud centers of two_blobs
TWO_BLOB_CENTERS = ((0.2, 0.2), (0.8, 0.8))


def two_blobs(n=200, radius=0.05, seed=0):
    """Two uniform discs of the given radius around TWO_BLOB_CENTERS; y is the 0/1 cloud label."""
    stream = RandomStream(seed)
    half = n // 2
    sizes = (half, n - half)
    rows = []
    labels = []
    for label, (cx, cy) in enumerate(TWO_BLOB_CENTERS):
        k = sizes[label]
        radius_k = radius * np.sqrt(stream.uniforms(k))
        theta = 2.0 * math.pi * stream.uniforms(k)
        rows.append(
            np.column_stack([cx + radius_k * np.cos(theta), cy + radius_k * np.sin(theta)])
        )
        labels.append(np.full(k, float(label)))
    return np.vstack(rows), np.concatenate(labels)


def test_two_blob_geometry():
    X, labels = two_blobs(200, 0.05, seed=3)
    a = X[labels == 0]
    b = X[labels == 1]
    assert np.linalg.norm(a.mean(axis=0) - [0.2, 0.2]) < 0.02
    assert np.linalg.norm(b.mean(axis=0) - [0.8, 0.8]) < 0.02
    assert np.max(np.linalg.norm(a - [0.2, 0.2], axis=1)) <= 0.05 + 1e-12


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

    def test_membership_columns_sum_to_one(self):
        X, _ = two_blobs(seed=3)
        res = fcm_fit(X, FCMConfig(n_clusters=4, seed=1))
        # the layout of Rows.normalized: (R, N), sample axis last
        assert res.memberships.shape == (4, len(X))
        assert res.memberships.flags.c_contiguous
        np.testing.assert_allclose(res.memberships.sum(axis=0), 1.0, atol=1e-9)
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
    def test_memberships_patch_only_zero_distance_columns(self, exponent):
        d2 = np.array([
            [0.04, 0.25, 1.0],
            [0.0, 0.3, 0.1],
            [0.5, 0.0, 0.0],
            [1e-200, 2.0, 3.0],
            [0.0, 0.0, 0.0],
            [0.09, 0.01, 0.16],
        ]).T  # (R, N): one column per sample
        expected = np.empty_like(d2)
        for t, col in enumerate(d2.T):
            if np.any(col == 0.0):
                hits = col == 0.0
                expected[:, t] = hits / hits.sum()
            else:
                inv = col ** (-exponent)
                expected[:, t] = inv / inv.sum()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the zero columns' inf/nan stay silent
            u = _memberships_from_distances(d2, exponent)
        np.testing.assert_array_equal(u, expected)

    @pytest.mark.parametrize("exponent", [1.0, 1 / 0.7])
    def test_memberships_tiny_distance_column_is_full_membership(self, exponent):
        # d2 ** -exponent overflows for the 1e-300 entry; the limit is [1, 0, 0]
        d2 = np.array([[1e-300, 2.0, 3.0], [0.04, 0.25, 1.0]]).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = _memberships_from_distances(d2, exponent)
        assert np.all(np.isfinite(u))
        np.testing.assert_allclose(u.sum(axis=0), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(u[:, 0], [1.0, 0.0, 0.0], rtol=0, atol=1e-15)
        inv = d2[:, 1] ** (-exponent)
        np.testing.assert_array_equal(u[:, 1], inv / inv.sum())

    def test_memberships_tiny_distance_columns_rescaled_by_own_minimum(self):
        # both columns overflow d2 ** -2; divided by the first column's minimum,
        # the second's ratios (~1e163) would underflow to 0 ** -2 and give nan
        d2 = np.array([[5e-324, 1.0], [1e-160, 2e-160]]).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = _memberships_from_distances(d2, 2.0)
        np.testing.assert_array_equal(u[:, 0], [1.0, 0.0])
        np.testing.assert_array_equal(u[:, 1], [0.8, 0.2])

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            fcm_fit(np.zeros((3, 2)), FCMConfig(n_clusters=4, seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            fcm_fit(np.zeros((10, 2)), FCMConfig(n_clusters=1, seed=0))
        with pytest.raises(ValueError):
            fcm_fit(np.zeros((10, 2)), FCMConfig(n_clusters=2, fuzziness=1.0, seed=0))
        # zero iterations would return the all-zero initial centers
        with pytest.raises(ValueError, match="max_iter must be >= 1, got 0"):
            fcm_fit(np.zeros((10, 2)), FCMConfig(n_clusters=2, max_iter=0, seed=0))


class TestDeriveScales:
    @pytest.mark.parametrize("scale", [0.03125, SCALE_MIN, 1.0])
    def test_override_fills_matrix(self, scale):
        res = FCMResult(
            centers=np.zeros((4, 3)),
            memberships=np.ones((4, 10)) / 4,
            iterations=1,
            final_shift=0.0,
        )
        scales = derive_scales(np.zeros((10, 3)), res, override_scale=scale)
        assert scales.shape == (4, 3)
        assert np.all(scales == scale)

    @pytest.mark.parametrize("scale, shown", [(0.0, "0"), (5.0, "5"), (float("nan"), "nan")])
    def test_override_outside_bounds_rejected(self, scale, shown):
        res = FCMResult(
            centers=np.zeros((4, 3)),
            memberships=np.ones((4, 10)) / 4,
            iterations=1,
            final_shift=0.0,
        )
        with pytest.raises(ValueError, match=rf"init scale {shown} is outside \[0.001, 1\]"):
            derive_scales(np.zeros((10, 3)), res, override_scale=scale)

    def test_single_point_cluster_floored(self):
        # crisp memberships: cluster 0 owns one point, zero dispersion
        X = np.array([[0.5, 0.5], [0.1, 0.9], [0.2, 0.8], [0.15, 0.85]])
        u = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]).T  # (R, N)
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
            memberships=np.ones((2, 10)) / 2,
            iterations=1,
            final_shift=0.0,
        )
        scales = derive_scales(np.zeros((10, 2)), res, override_scale=1.0)
        assert np.all(scales == 1.0)

    def test_peak_memory_below_one_sample_rule_feature_tensor(self):
        # one feature's (R, N) squared differences at a time: no (N, R, F) tensor
        X = np.random.default_rng(0).uniform(size=(5000, 8))
        res = fcm_fit(X, FCMConfig(n_clusters=10, max_iter=3, seed=0))
        tracemalloc.start()
        try:
            derive_scales(X, res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5000 * 10 * 8 * 8  # 3.2 MB of float64

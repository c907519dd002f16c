"""Fuzzy c-means fitting and antecedent scale derivation."""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import xanfis.fcm_init
from xanfis.data import split_scale, synth_regression
from xanfis.fcm_init import (
    FUZZINESS,
    FCMConfig,
    FCMResult,
    _memberships_from_distances,
    fcm_fit,
)
from xanfis.membership import SCALE_MAX, SCALE_MIN
from xanfis.numerics import InsufficientDataError, RandomStream, as_array


def squared_distances(X, centers):
    """(R, N) squared distances of every row of X to every center."""
    diff = X.T[:, None, :] - centers.T[:, :, None]  # (F, R, N)
    return np.einsum("frt,frt->rt", diff, diff)


def final_memberships(X, res):
    """The (R, N) memberships of a fit's final state, recomputed from its centers."""
    return _memberships_from_distances(squared_distances(X, res.centers))


def fcm_objective(X, res, m=FUZZINESS):
    """Weighted within-cluster scatter sum u^m d^2 at a fitted state."""
    X = as_array(X, 2, "X")
    return float(np.sum(final_memberships(X, res) ** m * squared_distances(X, res.centers)))


def loop_dispersion(X, centers, u, m=FUZZINESS):
    """Unclipped sqrt(sum_t u^m (x - c)^2 / sum_t u^m), one rule and feature at a time."""
    r, f = centers.shape
    out = np.empty((r, f))
    for j in range(r):
        for k in range(f):
            num = sum(u[j, t] ** m * (X[t, k] - centers[j, k]) ** 2 for t in range(len(X)))
            out[j, k] = math.sqrt(num / sum(u[j, t] ** m for t in range(len(X))))
    return out


def einsum_fcm_oracle(X, cfg, m=FUZZINESS):
    """FCM at fuzziness m with (F, R, N) difference tensors and masked membership columns.

    Returns the centers, the final memberships and the clipped dispersion scales.
    """
    n, f = X.shape
    r = cfg.n_clusters
    u = RandomStream(cfg.seed).uniforms(n * r).reshape(n, r).T
    u /= u.sum(axis=0)
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
    um = u**m
    weighted = np.stack([np.einsum("rt,rt->r", um, dk * dk) for dk in diff], axis=1)
    scales = np.clip(np.sqrt(weighted / um.sum(axis=1)[:, None]), SCALE_MIN, SCALE_MAX)
    return centers, u, scales


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

    def test_result_holds_the_antecedents(self):
        X, _ = two_blobs(seed=3)
        res = fcm_fit(X, FCMConfig(n_clusters=4, seed=1))
        assert [f.name for f in dataclasses.fields(FCMResult)] == [
            "centers", "scales", "iterations", "final_shift"
        ]
        assert res.centers.shape == res.scales.shape == (4, 2)
        assert 1 <= res.iterations <= 300 and res.final_shift < 1e-5

    def test_membership_columns_sum_to_one(self):
        X, _ = two_blobs(seed=3)
        res = fcm_fit(X, FCMConfig(n_clusters=4, seed=1))
        u = final_memberships(X, res)
        # the layout of Rows.normalized: (R, N), sample axis last
        assert u.shape == (4, len(X))
        np.testing.assert_allclose(u.sum(axis=0), 1.0, atol=1e-9)
        assert np.all(u >= 0.0)
        assert np.all(u <= 1.0)

    def test_identical_rows_degenerate_fixed_point(self):
        X = np.tile([0.3, 0.7], (25, 1))
        res = fcm_fit(X, FCMConfig(n_clusters=2, seed=0))
        np.testing.assert_allclose(res.centers[0], [0.3, 0.7], atol=1e-12)
        np.testing.assert_allclose(res.centers[1], [0.3, 0.7], atol=1e-12)
        # coincident clusters share each point equally
        np.testing.assert_allclose(final_memberships(X, res), 0.5, atol=1e-12)
        # every row on both centers: zero dispersion, floored
        assert np.all(res.scales == SCALE_MIN)

    def test_same_seed_bitwise_identical(self):
        X, _ = two_blobs(seed=5)
        cfg = FCMConfig(n_clusters=3, seed=9)
        a = fcm_fit(X, cfg)
        b = fcm_fit(X, FCMConfig(n_clusters=3, seed=9))
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.scales, b.scales)
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
    def test_matches_einsum_oracle(self, monkeypatch, f, m):
        # per-feature distance sums: bit-identical while a row sums at most
        # two features, reordered (rounding-level) beyond that; the fit's
        # arithmetic holds for any fuzziness, so the constant is patched
        monkeypatch.setattr(xanfis.fcm_init, "FUZZINESS", m)
        X = np.random.default_rng(f).uniform(size=(240, f))
        X[7] = X[3]  # a repeated row
        cfg = FCMConfig(n_clusters=6, tol=1e-300, max_iter=20, seed=f)
        res = fcm_fit(X, cfg)
        centers, u, scales = einsum_fcm_oracle(X, cfg, m)
        assert res.iterations == 20
        if f <= 2:
            np.testing.assert_array_equal(res.centers, centers)
            np.testing.assert_array_equal(final_memberships(X, res), u)
            np.testing.assert_array_equal(res.scales, scales)
        else:
            np.testing.assert_allclose(res.centers, centers, rtol=0, atol=1e-12)
            np.testing.assert_allclose(final_memberships(X, res), u, rtol=0, atol=1e-12)
            np.testing.assert_allclose(res.scales, scales, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [2.0, 1.7])
    def test_memberships_patch_only_zero_distance_columns(self, monkeypatch, m):
        monkeypatch.setattr(xanfis.fcm_init, "FUZZINESS", m)
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
                inv = col ** (-1.0 / (m - 1.0))
                expected[:, t] = inv / inv.sum()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the zero columns' inf/nan stay silent
            u = _memberships_from_distances(d2)
        np.testing.assert_array_equal(u, expected)

    @pytest.mark.parametrize("m", [2.0, 1.7])
    def test_memberships_tiny_distance_column_is_full_membership(self, monkeypatch, m):
        # d2 ** -1/(m-1) overflows for the 1e-310 entry; the limit is [1, 0, 0]
        monkeypatch.setattr(xanfis.fcm_init, "FUZZINESS", m)
        d2 = np.array([[1e-310, 2.0, 3.0], [0.04, 0.25, 1.0]]).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = _memberships_from_distances(d2)
        assert np.all(np.isfinite(u))
        np.testing.assert_allclose(u.sum(axis=0), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(u[:, 0], [1.0, 0.0, 0.0], rtol=0, atol=1e-15)
        inv = d2[:, 1] ** (-1.0 / (m - 1.0))
        np.testing.assert_array_equal(u[:, 1], inv / inv.sum())

    def test_memberships_tiny_distance_columns_rescaled_by_own_minimum(self):
        # both columns overflow d2 ** -1; divided by the first column's minimum,
        # the second's ratios 1e-15 / 5e-324 would overflow and drop its 1e-295 memberships
        d2 = np.array([[5e-324, 1.0, 1.0], [1e-310, 1e-15, 1e-15]]).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = _memberships_from_distances(d2)
        np.testing.assert_array_equal(u[:, 0], [1.0, 0.0, 0.0])
        assert u[0, 1] == 1.0
        np.testing.assert_allclose(u[1:, 1], 1e-295, rtol=1e-12, atol=0)

    def test_centers_projected_on_few_valued_columns(self):
        # a binary and a three-valued column: the binary column's weighted mean
        # rounds above 1 in one cluster; the returned centers are projected
        rng = np.random.default_rng(6)
        n = int(rng.integers(50, 300))
        rng.integers(2, 11)  # the rule count the stream drew next (6)
        X = np.column_stack([(rng.random(n) < 0.5).astype(float), rng.integers(0, 3, n) / 2.0])
        y = X[:, 0] + X[:, 1] + rng.standard_normal(n)
        res = fcm_fit(split_scale(X, y, seed=0).X_train, FCMConfig(n_clusters=6, seed=0))
        assert np.all((res.centers >= 0.0) & (res.centers <= 1.0))
        assert np.all((res.scales >= SCALE_MIN) & (res.scales <= SCALE_MAX))

    def test_empty_cluster_raises(self):
        # 4 distinct rows cannot hold 6 clusters: one is left with no members
        X = (np.random.default_rng(0).random((300, 2)) < 0.5).astype(float)
        shown = "one of 6 FCM clusters is empty: likely fewer distinct training rows than rules"
        with pytest.raises(InsufficientDataError, match=shown):
            fcm_fit(X, FCMConfig(n_clusters=6, seed=0))

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            fcm_fit(np.zeros((3, 2)), FCMConfig(n_clusters=4, seed=0))

    @pytest.mark.parametrize(
        "knobs, shown",
        [
            ({"n_clusters": 1}, "n_clusters must be >= 2, got 1"),
            # zero iterations would return the all-zero initial centers
            ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
            ({"seed": 1.5}, "seed must be int, got 1.5"),
            ({"seed": True}, "seed must be int, got True"),
            ({"max_iter": 2.5}, "max_iter must be int, got 2.5"),
            ({"n_clusters": 3.0}, "n_clusters must be int, got 3.0"),
        ],
    )
    def test_config_validation(self, knobs, shown):
        X = np.random.default_rng(0).random((10, 2))
        with pytest.raises(ValueError, match=re.escape(shown)):
            fcm_fit(X, FCMConfig(**{"n_clusters": 2, "seed": 0, **knobs}))


class TestScales:
    def test_scales_match_loop_oracle(self):
        X = np.random.default_rng(4).uniform(size=(60, 3))
        res = fcm_fit(X, FCMConfig(n_clusters=3, seed=4))
        u = final_memberships(X, res)
        ref = loop_dispersion(X, res.centers, u)
        assert np.all((ref > SCALE_MIN) & (ref < SCALE_MAX))  # no bound reached
        np.testing.assert_allclose(res.scales, ref, rtol=1e-12, atol=0)

    def test_two_blob_scales_match_cloud_dispersion(self):
        X, labels = two_blobs(n=400, radius=0.05, seed=7)
        res = fcm_fit(X, FCMConfig(n_clusters=2, seed=7))
        # oracle: per-cloud per-feature standard deviation
        for j in range(2):
            cloud = X[labels == (np.linalg.norm(res.centers[j] - [0.8, 0.8]) < 0.3)]
            ref = cloud.std(axis=0)
            assert np.all(np.abs(res.scales[j] - ref) / ref < 0.2)

    def test_scales_capped_at_one(self):
        # rows spread over [0, 10]^2: every cluster's dispersion exceeds 1
        X = np.random.default_rng(3).uniform(0.0, 10.0, size=(200, 2))
        res = fcm_fit(X, FCMConfig(n_clusters=2, seed=3))
        assert np.all(loop_dispersion(X, res.centers, final_memberships(X, res)) > 1.0)
        assert np.all(res.scales == SCALE_MAX)

    def test_peak_memory_below_one_sample_rule_feature_tensor(self):
        # one feature's (R, N) squared differences at a time: no (N, R, F) tensor
        X = np.random.default_rng(0).uniform(size=(5000, 8))
        cfg = FCMConfig(n_clusters=10, max_iter=3, seed=0)
        tracemalloc.start()
        try:
            fcm_fit(X, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5000 * 10 * 8 * 8  # 3.2 MB of float64


class TestFriedmanStart:
    """Characterization of the built-in friedman set's FCM start, which its README tables rest on.

    At the library's FUZZINESS 2 every rule's center lands on one point; at
    m = 1.5 the centers spread.  A change to the initialization fails here
    instead of quietly moving the friedman tables.
    """

    @pytest.mark.parametrize("n_clusters", [5, 10])
    def test_rules_start_at_one_point_at_fuzziness_two(self, monkeypatch, n_clusters):
        X = split_scale(*synth_regression("friedman", 2000, 0.05, seed=0), seed=0).X_train
        cfg = FCMConfig(n_clusters=n_clusters, seed=0)
        assert np.ptp(fcm_fit(X, cfg).centers, axis=0).max() < 1e-3
        monkeypatch.setattr(xanfis.fcm_init, "FUZZINESS", 1.5)
        assert np.ptp(fcm_fit(X, cfg).centers, axis=0).min() > 0.1

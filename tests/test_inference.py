"""Forward pass against scalar-loop oracles, LSE fit, prediction, artifacts."""

import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xanfis.inference import (
    EPS_DENOM,
    Order,
    RuleBase,
    Rows,
    design_matrix,
    fit_consequents,
    forward,
    load_model,
    membership_tensor,
    predict,
    refit,
    save_model,
)
from xanfis.membership import (
    SCALE_MIN,
    MFKind,
    log_grad_factor,
    membership_values,
    product_firing,
)


def random_rulebase(rng, n_rules=4, n_features=3, kind=MFKind.CAUCHY, order=Order.ZERO):
    centers = rng.uniform(0, 1, size=(n_rules, n_features))
    scales = rng.uniform(0.05, 0.6, size=(n_rules, n_features))
    return RuleBase(mf_kind=kind, centers=centers, scales=scales, order=order)


def wide_rulebase(rng, kind, order, n_rules, n_features):
    """Random state with log-uniform scales, about a fifth pinned at SCALE_MIN."""
    centers = rng.uniform(0, 1, size=(n_rules, n_features))
    scales = 10.0 ** rng.uniform(np.log10(SCALE_MIN), 0, size=(n_rules, n_features))
    scales[rng.uniform(size=scales.shape) < 0.2] = SCALE_MIN
    return RuleBase(mf_kind=kind, centers=centers, scales=scales, order=order)


def firing(X, rb, buf=None):
    """Rows of X holding rb's forward: normalized firing, live mask and u."""
    rows = Rows.of(X, rb, buf=buf)
    forward(rows, rb.mf_kind, rb.order, rb.centers, rb.scales)
    return rows


def raw_firing(X, rb):
    """Unnormalized product firing strengths, (R, N), derived apart from the forward's normalization."""
    return product_firing(rb.mf_kind, membership_tensor(Rows.of(X, rb), rb.centers, rb.scales))


def scalar_firing_oracle(X, rb):
    """Per-element reference: nested loops over scalar membership_values, (R, N)."""
    n, f = X.shape
    r = rb.n_rules
    raw = np.ones((r, n))
    for t in range(n):
        for j in range(r):
            for k in range(f):
                raw[j, t] *= float(
                    membership_values(rb.mf_kind, X[t, k], rb.centers[j, k], rb.scales[j, k])
                )
    norm = np.zeros_like(raw)
    for t in range(n):
        s = raw[:, t].sum()
        norm[:, t] = raw[:, t] / max(s, EPS_DENOM)
    return raw, norm


class TestFiringStrengths:
    def test_sample_at_all_centers(self):
        centers = np.tile([0.5, 0.5], (3, 1))
        rb = RuleBase(MFKind.CAUCHY, centers, np.full((3, 2), 0.2))
        X = np.array([[0.5, 0.5]])
        fm = firing(X, rb)
        np.testing.assert_allclose(raw_firing(X, rb), 1.0)
        np.testing.assert_allclose(fm.normalized, 1.0 / 3.0)

    def test_two_identical_rules_split_evenly(self):
        centers = np.tile([0.3, 0.7], (2, 1))
        rb = RuleBase(MFKind.GAUSSIAN, centers, np.full((2, 2), 0.15))
        fm = firing(np.array([[0.9, 0.1], [0.2, 0.6]]), rb)
        np.testing.assert_allclose(fm.normalized, 0.5)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(31)
        X = rng.uniform(0, 1, size=(10, 3))
        rb = random_rulebase(rng, n_rules=4, n_features=3)
        fm = firing(X, rb)
        raw_ref, norm_ref = scalar_firing_oracle(X, rb)
        np.testing.assert_allclose(raw_firing(X, rb), raw_ref, atol=1e-12)
        np.testing.assert_allclose(fm.normalized, norm_ref, atol=1e-12)

    def test_partition_of_unity_random(self):
        rng = np.random.default_rng(32)
        for kind in (MFKind.CAUCHY, MFKind.GAUSSIAN):
            X = rng.uniform(-0.3, 1.3, size=(50, 2))
            rb = random_rulebase(rng, n_rules=6, n_features=2, kind=kind)
            fm = firing(X, rb)
            live = raw_firing(X, rb).max(axis=0) > EPS_DENOM
            np.testing.assert_allclose(fm.normalized[:, live].sum(axis=0), 1.0, atol=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(list(MFKind)),
        n_rules=st.integers(1, 5),
        n_features=st.integers(1, 4),
        n_samples=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_live_rows_partition_unity(self, kind, n_rules, n_features, n_samples, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-0.2, 1.2, size=(n_samples, n_features))
        rb = wide_rulebase(rng, kind, Order.ZERO, n_rules, n_features)
        fm = firing(X, rb)
        raw = raw_firing(X, rb)
        total = raw.sum(axis=0)
        np.testing.assert_array_equal(fm.live, total > EPS_DENOM)
        np.testing.assert_array_equal(fm.normalized, raw / np.maximum(total, EPS_DENOM))
        np.testing.assert_allclose(
            fm.normalized[:, fm.live].sum(axis=0), 1.0, rtol=0, atol=1e-12
        )
        assert np.all(fm.normalized[:, ~fm.live].sum(axis=0) <= 1.0 + 1e-12)

    def test_dead_rows_stay_finite(self):
        # Gaussian memberships underflow far from the centers
        rb = RuleBase(MFKind.GAUSSIAN, np.zeros((2, 2)), np.full((2, 2), 1e-3))
        X = np.array([[1.0, 1.0]])
        fm = firing(X, rb)
        assert np.all(np.isfinite(fm.normalized))
        np.testing.assert_array_equal(raw_firing(X, rb), 0.0)


class TestDesignMatrix:
    def test_zero_order_is_normalized_matrix(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, size=(6, 2))
        rb = random_rulebase(rng, n_rules=3, n_features=2)
        fm = firing(X, rb)
        assert design_matrix(fm, Order.ZERO) is fm.normalized

    def test_first_order_single_row(self):
        rb = RuleBase(MFKind.CAUCHY, np.array([[0.3]]), np.array([[0.2]]), order=Order.FIRST)
        X = np.array([[0.3]])
        fm = firing(X, rb)  # single rule: normalized == 1
        phi = design_matrix(fm, Order.FIRST)
        np.testing.assert_allclose(phi, [[0.3], [1.0]], atol=1e-15)

    def test_first_order_prediction_matches_rulewise_oracle(self):
        rng = np.random.default_rng(77)
        X = rng.uniform(0, 1, size=(12, 2))
        y = rng.uniform(0, 1, size=12)
        rb = random_rulebase(rng, n_rules=3, n_features=2, order=Order.FIRST)
        rb, _, _ = fit_consequents(rb, X, y, 1e-4)
        yhat = predict(rb, X)
        # oracle: weighted average of per-rule affine outputs
        coeffs = rb.consequents.reshape(3, 3)  # per rule: w1, w2, bias
        fm = firing(X, rb)
        for t in range(X.shape[0]):
            total = 0.0
            for j in range(3):
                f_j = coeffs[j, 0] * X[t, 0] + coeffs[j, 1] * X[t, 1] + coeffs[j, 2]
                total += fm.normalized[j, t] * f_j
            assert abs(yhat[t] - total) < 1e-10


class TestSampleAxisLast:
    def test_forward_buffers_contiguous_and_design_is_a_view(self):
        # every per-epoch kernel runs over contiguous rows of N; a design
        # matrix that no longer views its (R, F+1, N) blocks in the scratch
        # means the reshape copies the whole matrix on every forward
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(40, 3))
        rb = random_rulebase(rng, n_rules=4, n_features=3, order=Order.FIRST)
        fm = firing(X, rb)
        assert fm.u.shape == (3, 4, 40) and fm.u.flags.c_contiguous
        raw = raw_firing(X, rb)
        for a in (raw, fm.normalized):
            assert a.shape == (4, 40) and a.flags.c_contiguous
        den = np.maximum(raw.sum(axis=0), EPS_DENOM)
        assert den.shape == fm.live.shape == (40,)
        phi = design_matrix(fm, Order.FIRST)
        assert phi.shape == (16, 40) and phi.flags.c_contiguous
        assert np.shares_memory(phi, fm.scratch)  # the (R, F+1, N) blocks in the scratch


def stale_buffer(size):
    """A flat buffer of NaN, so a result that reads its old contents shows."""
    return np.full(size, np.nan)


class TestRows:
    def test_augmented_transpose_and_buffer_shapes(self):
        X = np.arange(6.0).reshape(3, 2)
        rows = Rows.of(X, random_rulebase(np.random.default_rng(0), n_rules=4, n_features=2))
        np.testing.assert_array_equal(rows.aug, [[0.0, 2.0, 4.0], [1.0, 3.0, 5.0], [1.0, 1.0, 1.0]])
        assert [a.shape for a in (rows.u, rows.normalized, rows.live, rows.scratch)] == [
            (2, 4, 3), (4, 3), (3,), (4 * 3 * 3,)
        ]

    def test_wrong_feature_count_named(self):
        rb = random_rulebase(np.random.default_rng(0), n_rules=2, n_features=3)
        with pytest.raises(ValueError, match="X_val has 2 feature columns but the rule base has 3"):
            Rows.of(np.zeros((4, 2)), rb, "X_val")

    @pytest.mark.parametrize("order", list(Order))
    @pytest.mark.parametrize("kind", list(MFKind))
    def test_stale_buffers_do_not_show(self, kind, order):
        # rows whose buffers are views of a NaN-filled array give the bits of fresh rows
        rng = np.random.default_rng(11)
        X = rng.uniform(-0.2, 1.2, size=(50, 3))
        y = rng.uniform(0, 1, size=50)
        rb = wide_rulebase(rng, kind, order, n_rules=4, n_features=3)
        buf = stale_buffer(2 * 4 * (3 + 1) * 50)
        fresh, stale = firing(X, rb), firing(X, rb, buf)
        for name in ("u", "normalized", "live"):
            np.testing.assert_array_equal(getattr(stale, name), getattr(fresh, name), strict=True)
            assert name == "live" or np.shares_memory(getattr(stale, name), buf)
        phi = design_matrix(stale, order)
        np.testing.assert_array_equal(phi, design_matrix(fresh, order), strict=True)
        assert np.shares_memory(phi, stale.scratch if order == Order.FIRST else stale.normalized)
        g = log_grad_factor(kind, fresh.u, out=stale.scratch[: fresh.u.size].reshape(fresh.u.shape))
        np.testing.assert_array_equal(g, log_grad_factor(kind, fresh.u), strict=True)
        fitted, _, yhat = fit_consequents(rb, X, y, 1e-4)
        w, yhat_stale = refit(stale, y, 1e-4, kind, order, rb.centers, rb.scales)
        np.testing.assert_array_equal(w, fitted.consequents, strict=True)
        np.testing.assert_array_equal(yhat_stale, yhat, strict=True)

    def test_views_of_one_buffer_or_new_arrays(self):
        rb = random_rulebase(np.random.default_rng(0), n_rules=4, n_features=3)
        buf = np.zeros(2 * 4 * (3 + 1) * 20)
        rows = Rows.of(np.zeros((20, 3)), rb, buf=buf)
        views = (rows.u, rows.normalized, rows.scratch)
        assert [a.shape for a in views] == [(3, 4, 20), (4, 20), (4 * 4 * 20,)]
        assert all(np.shares_memory(a, buf) for a in views)
        assert not any(np.shares_memory(a, b) for a, b in ((rows.u, rows.normalized),
                                                           (rows.u, rows.scratch),
                                                           (rows.normalized, rows.scratch)))
        rows = Rows.of(np.zeros((21, 3)), rb, buf=buf)  # too short: new arrays
        assert not any(np.shares_memory(a, buf) for a in (rows.u, rows.normalized, rows.scratch))

    @pytest.mark.parametrize("order", list(Order))
    def test_public_calls_return_arrays_they_own(self, order):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, size=(30, 2))
        y = rng.uniform(0, 1, size=30)
        rb = random_rulebase(rng, n_rules=3, n_features=2, order=order)
        first, second = fit_consequents(rb, X, y, 1e-4), fit_consequents(rb, X, y, 1e-4)
        arrays = [
            [fitted.consequents, fm.normalized, fm.live, fm.u, yhat]
            for fitted, fm, yhat in (first, second)
        ]
        for a in arrays[0]:
            for b in arrays[1]:
                assert not np.shares_memory(a, b)
        assert not np.shares_memory(predict(first[0], X), predict(first[0], X))


class TestFitConsequents:
    def test_zero_target_zero_consequents(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, size=(15, 3))
        rb, _, _ = fit_consequents(random_rulebase(rng), X, np.zeros(15), 1e-3)
        np.testing.assert_allclose(rb.consequents, 0.0, atol=1e-14)

    def test_single_rule_fits_mean(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(20, 2))
        y = rng.uniform(0, 1, size=20)
        rb = random_rulebase(rng, n_rules=1, n_features=2)
        rb, _, _ = fit_consequents(rb, X, y, 0.0)
        assert rb.consequents[0] == pytest.approx(y.mean())

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, size=(40, 3))
        y = rng.uniform(0, 1, size=40)
        rb = random_rulebase(rng, n_rules=5, n_features=3)
        lam = 1e-4
        rb, _, _ = fit_consequents(rb, X, y, lam)
        phi = design_matrix(firing(X, rb), rb.order).T  # (N, columns)
        resid = phi.T @ (phi @ rb.consequents - y) + lam * rb.consequents
        assert np.max(np.abs(resid)) < 1e-8 * (1 + np.max(np.abs(phi.T @ y)))

    def test_antecedents_untouched(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(10, 2))
        rb0 = random_rulebase(rng, n_rules=2, n_features=2)
        rb1, _, _ = fit_consequents(rb0, X, np.linspace(0, 1, 10), 1e-4)
        assert rb1.centers is rb0.centers
        assert rb1.scales is rb0.scales

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(list(MFKind)),
        order=st.sampled_from(list(Order)),
        n_rules=st.integers(1, 5),
        n_features=st.integers(1, 3),
        n_samples=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_returned_forward_equals_predict(
        self, kind, order, n_rules, n_features, n_samples, seed
    ):
        # the trainer records train MSE from these predictions: they must be
        # predict's bits, and the firing matrices the forward's bits
        rng = np.random.default_rng(seed)
        X = rng.uniform(-0.2, 1.2, size=(n_samples, n_features))
        y = rng.uniform(0, 1, size=n_samples)
        rb = wide_rulebase(rng, kind, order, n_rules, n_features)
        fitted, fm, yhat = fit_consequents(rb, X, y, 1e-4)
        np.testing.assert_array_equal(yhat, predict(fitted, X))
        ref = firing(X, rb)
        raw = raw_firing(X, rb)
        np.testing.assert_array_equal(fm.normalized, raw / np.maximum(raw.sum(axis=0), EPS_DENOM))
        np.testing.assert_array_equal(fm.live, raw.sum(axis=0) > EPS_DENOM)
        np.testing.assert_array_equal(fm.normalized, ref.normalized)

    @pytest.mark.parametrize(
        "X, y, n_rules, shown",
        [
            (np.ones(3), np.ones(3), 2, "X must be 2-D, got ndim=1"),
            (np.array([[np.nan, 0.5], [0.5, 0.5]]), np.ones(2), 2, "X contains non-finite"),
            (np.eye(2), np.ones((2, 1)), 2, "y must be 1-D, got ndim=2"),
            (np.eye(2), np.array([1.0, np.inf]), 2, "y contains non-finite entries"),
            (np.eye(3, 2), np.ones(4), 2, "X has 3 rows but y has 4 entries"),
            (np.zeros((0, 2)), np.zeros(0), 2, "phi must have at least one row and one column"),
            (np.eye(2), np.ones(2), 0, "phi must have at least one row and one column"),
        ],
    )
    def test_malformed_input_named(self, X, y, n_rules, shown):
        rb = random_rulebase(np.random.default_rng(0), n_rules=n_rules, n_features=2)
        with pytest.raises(ValueError, match=shown):
            fit_consequents(rb, X, y, 0.1)

    def test_lse_beats_random_consequents(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, size=(30, 2))
        y = rng.uniform(0, 1, size=30)
        rb = random_rulebase(rng, n_rules=4, n_features=2)
        rb, _, _ = fit_consequents(rb, X, y, 0.0)
        phi = design_matrix(firing(X, rb), rb.order).T  # (N, columns)
        best = np.mean((phi @ rb.consequents - y) ** 2)
        for _ in range(100):
            other = rng.normal(size=rb.consequents.shape)
            assert best <= np.mean((phi @ other - y) ** 2) + 1e-12


class TestPredict:
    def test_constant_consequents_constant_output(self):
        rng = np.random.default_rng(8)
        rb = random_rulebase(rng, n_rules=5, n_features=2)
        rb = RuleBase(rb.mf_kind, rb.centers, rb.scales, np.full(5, 0.37), rb.order)
        yhat = predict(rb, rng.uniform(0, 1, size=(25, 2)))
        np.testing.assert_allclose(yhat, 0.37, atol=1e-9)

    def test_isolated_center_returns_own_consequent(self):
        centers = np.array([[0.1, 0.1], [0.9, 0.9]])
        scales = np.full((2, 2), 0.02)
        rb = RuleBase(MFKind.GAUSSIAN, centers, scales, np.array([0.2, 0.8]))
        yhat = predict(rb, np.array([[0.9, 0.9]]))
        assert yhat[0] == pytest.approx(0.8, abs=1e-6)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, size=(10, 3))
        y = rng.uniform(0, 1, size=10)
        rb, _, _ = fit_consequents(random_rulebase(rng), X, y, 1e-4)
        yhat = predict(rb, X)
        _, norm = scalar_firing_oracle(X, rb)
        ref = rb.consequents @ norm
        np.testing.assert_allclose(yhat, ref, atol=1e-12)

    def test_rule_permutation_invariance(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(0, 1, size=(18, 2))
        y = rng.uniform(0, 1, size=18)
        rb, _, _ = fit_consequents(random_rulebase(rng, n_rules=4, n_features=2), X, y, 1e-4)
        perm = np.array([2, 0, 3, 1])
        rb_p = RuleBase(
            rb.mf_kind, rb.centers[perm], rb.scales[perm], rb.consequents[perm], rb.order
        )
        np.testing.assert_allclose(predict(rb, X), predict(rb_p, X), atol=1e-12)

    def test_wrong_feature_count_rejected(self):
        # a 1-column X must not broadcast against a 2-feature model
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, size=(8, 2))
        rb, _, _ = fit_consequents(
            random_rulebase(rng, n_rules=3, n_features=2), X, X[:, 0], 1e-4
        )
        with pytest.raises(ValueError, match="X has 1 feature columns but the rule base has 2"):
            predict(rb, X[:, :1])

    def test_unfitted_rejects(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            predict(random_rulebase(rng), np.zeros((2, 3)))


class TestModelArtifact:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        rb, _, _ = fit_consequents(
            random_rulebase(rng, order=Order.FIRST),
            rng.uniform(0, 1, size=(20, 3)),
            rng.uniform(0, 1, size=20),
            1e-4,
        )
        path = tmp_path / "model.json"
        meta = {"x_min": [0.0, 0.0, 0.0], "x_max": [1.0, 1.0, 1.0], "y_min": 0.0, "y_max": 2.0}
        save_model(path, rb, scaler_meta=meta)
        rb2, meta2 = load_model(path)
        assert rb2.mf_kind == rb.mf_kind
        assert rb2.order == rb.order
        np.testing.assert_array_equal(rb2.centers, rb.centers)
        np.testing.assert_array_equal(rb2.scales, rb.scales)
        np.testing.assert_array_equal(rb2.consequents, rb.consequents)
        assert meta2 == meta

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(list(MFKind)),
        order=st.sampled_from(list(Order)),
        n_rules=st.integers(1, 5),
        n_features=st.integers(1, 4),
        fitted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_bitwise(self, kind, order, n_rules, n_features, fitted, seed):
        rng = np.random.default_rng(seed)
        rb = wide_rulebase(rng, kind, order, n_rules, n_features)
        if fitted:
            n = n_rules if order == Order.ZERO else n_rules * (n_features + 1)
            conseq = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
            rb = RuleBase(kind, rb.centers, rb.scales, conseq, order)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            save_model(path, rb)
            rb2, meta = load_model(path)
        assert (rb2.mf_kind, rb2.order, meta) == (kind, order, None)
        for a, b in ((rb2.centers, rb.centers), (rb2.scales, rb.scales)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        if fitted:
            assert rb2.consequents.tobytes() == rb.consequents.tobytes()
        else:
            assert rb2.consequents is None

    @pytest.mark.parametrize(
        "text, shown", [("5", "must be a JSON object, got 5"), ("{broken", "is not JSON: ")]
    )
    def test_corrupt_file_rejected(self, tmp_path, text, shown):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"model {path} {shown}")):
            load_model(path)

    def test_names_stored_as_members(self, tmp_path):
        rb = random_rulebase(np.random.default_rng(3), kind="gaussian", order="first")
        assert (rb.mf_kind, rb.order) == (MFKind.GAUSSIAN, Order.FIRST)
        path = tmp_path / "model.json"
        save_model(path, rb)
        rb2, _ = load_model(path)
        assert (rb2.mf_kind, rb2.order) == (MFKind.GAUSSIAN, Order.FIRST)
        np.testing.assert_array_equal(rb2.centers, rb.centers)

    @pytest.mark.parametrize(
        "fields, shown",
        [({"order": "bogus"}, "'bogus' is not a valid Order"),
         ({"kind": "triangle"}, "'triangle' is not a valid MFKind")],
    )
    def test_bad_name_rejected(self, fields, shown):
        with pytest.raises(ValueError, match=re.escape(shown)):
            random_rulebase(np.random.default_rng(0), **fields)

    @staticmethod
    def artifact(tmp_path, **fields):
        """A valid 2-rule, 2-feature first-order artifact with fields replaced."""
        doc = {
            "format": "ts-rulebase", "version": 1, "mf_kind": "cauchy", "order": "first",
            "centers": [[0.2, 0.4], [0.8, 0.6]], "scales": [[0.3, 0.3], [0.2, 0.5]],
            "consequents": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6], "scaler": None,
        }
        doc.update(fields)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
        return path

    def test_valid_artifact_fixture_loads(self, tmp_path):
        rb, _ = load_model(self.artifact(tmp_path))
        assert rb.consequents.shape == (6,)
        rb, _ = load_model(self.artifact(tmp_path, order="zero", consequents=[0.5, 0.7]))
        assert rb.order == Order.ZERO

    def test_non_finite_rejected(self, tmp_path):
        for field, value in (
            ("centers", [[float("nan"), 0.4], [0.8, 0.6]]),
            ("scales", [[0.3, float("inf")], [0.2, 0.5]]),
            ("consequents", [0.1, 0.2, float("nan"), 0.4, 0.5, 0.6]),
        ):
            path = self.artifact(tmp_path, **{field: value})
            with pytest.raises(ValueError, match=f"{re.escape(str(path))}: {field} must be"):
                load_model(path)

    def test_centers_out_of_bounds_rejected(self, tmp_path):
        for bad in (-0.1, 1.5):
            path = self.artifact(tmp_path, centers=[[0.2, bad], [0.8, 0.6]])
            with pytest.raises(ValueError, match=r"centers must be finite and in \[0, 1\]"):
                load_model(path)

    def test_scales_out_of_bounds_rejected(self, tmp_path):
        for bad in (-0.3, 0.5 * SCALE_MIN, 5.0):
            path = self.artifact(tmp_path, scales=[[0.3, 0.3], [bad, 0.5]])
            with pytest.raises(ValueError, match=f"{re.escape(str(path))}: scales must be finite and in"):
                load_model(path)

    def test_consequent_length_rejected(self, tmp_path):
        # first-order needs R * (F + 1) = 6 values, zero-order R = 2
        for order, values in (("first", [0.1, 0.2, 0.3]), ("zero", [0.1, 0.2, 0.3]),
                              ("first", [[0.1, 0.2, 0.3]] * 2)):
            path = self.artifact(tmp_path, order=order, consequents=values)
            n = 6 if order == "first" else 2
            with pytest.raises(ValueError, match=f"{re.escape(str(path))}: consequents must be {n} finite"):
                load_model(path)

    @pytest.mark.parametrize(
        "fields, shown",
        [
            ({"version": 2}, "unsupported model version 2"),
            ({"mf_kind": "triangle"}, "'triangle' is not a valid MFKind"),
            ({"centers": "x"}, "could not convert string to float"),
            ({"centers": [[0.2, 0.4]]}, "center/scale shape mismatch"),
            ({"centers": [0.2, 0.4], "scales": [0.3, 0.3]}, "center/scale shape mismatch"),
        ],
    )
    def test_malformed_artifact_named(self, tmp_path, fields, shown):
        with pytest.raises(ValueError, match=re.escape(shown)):
            load_model(self.artifact(tmp_path, **fields))

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ValueError):
            load_model(path)

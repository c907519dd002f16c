"""Forward pass against scalar-loop oracles, LSE fit, prediction, artifacts."""

import copy
import json
import os
import pickle
import re
import tempfile
import warnings
from dataclasses import replace

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
from xanfis.training import TrainConfig, train


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


def lse_fit(rb, X, y, lam):
    """rb with its LSE consequents on X, the Rows of X holding its forward, and its predictions there."""
    rows = Rows.of(X, rb)
    w, yhat = refit(rows, y, lam, rb.centers, rb.scales)
    return replace(rb, consequents=w), rows, yhat


def firing(X, rb, buf=None):
    """Rows of X holding rb's forward: normalized firing, live mask and u."""
    rows = Rows.of(X, rb, buf=buf)
    forward(rows, rb.centers, rb.scales)
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
        assert design_matrix(fm) is fm.normalized

    def test_first_order_single_row(self):
        rb = RuleBase(MFKind.CAUCHY, np.array([[0.3]]), np.array([[0.2]]), order=Order.FIRST)
        X = np.array([[0.3]])
        fm = firing(X, rb)  # single rule: normalized == 1
        phi = design_matrix(fm)
        np.testing.assert_allclose(phi, [[0.3], [1.0]], atol=1e-15)

    def test_first_order_prediction_matches_rulewise_oracle(self):
        rng = np.random.default_rng(77)
        X = rng.uniform(0, 1, size=(12, 2))
        y = rng.uniform(0, 1, size=12)
        rb = random_rulebase(rng, n_rules=3, n_features=2, order=Order.FIRST)
        rb, _, _ = lse_fit(rb, X, y, 1e-4)
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
        phi = design_matrix(fm)
        assert phi.shape == (16, 40) and phi.flags.c_contiguous
        assert np.shares_memory(phi, fm.scratch)  # the (R, F+1, N) blocks in the scratch


def span(view, base):
    """(first, end) float offsets of the C-contiguous view in the flat array base."""
    assert view.flags.c_contiguous
    first = (view.ctypes.data - base.ctypes.data) // base.itemsize
    return first, first + view.size


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
        # work (F, R, N) and b (R, N) tile the scratch; design (R, F+1, N) spans all of it
        views = (rows.work, rows.b, rows.design)
        assert [a.shape for a in views] == [(2, 4, 3), (4, 3), (4, 3, 3)]
        assert all(np.shares_memory(a, rows.scratch) for a in views)
        assert [span(a, rows.scratch) for a in views] == [(0, 24), (24, 36), (0, 36)]

    def test_wrong_feature_count_named(self):
        rb = random_rulebase(np.random.default_rng(0), n_rules=2, n_features=3)
        with pytest.raises(ValueError, match="X_val has 2 feature columns but the rule base has 3"):
            Rows.of(np.zeros((4, 2)), rb, "X_val")

    @pytest.mark.parametrize("order", list(Order))
    @pytest.mark.parametrize("kind", list(MFKind))
    def test_carry_their_rule_base_kind_and_order(self, kind, order):
        # the kernels read kind and order from the rows, validation rows over a training scratch too
        rng = np.random.default_rng(13)
        X, X_val = rng.uniform(0, 1, size=(40, 3)), rng.uniform(0, 1, size=(20, 3))
        wide = wide_rulebase(rng, kind, order, n_rules=4, n_features=3)
        rb = RuleBase(kind.value, wide.centers, wide.scales, order=order.value)  # named by strings
        rb, rows, _ = lse_fit(rb, X, X.sum(axis=1), 1e-4)
        val_rows = Rows.of(X_val, rb, "X_val", buf=rows.scratch)
        assert np.shares_memory(val_rows.u, rows.scratch)
        for r in (rows, val_rows):
            assert (r.kind, r.order) == (kind, order)
            assert (type(r.kind), type(r.order)) == (MFKind, Order)
        yhat = rb.consequents @ forward(val_rows, rb.centers, rb.scales)
        np.testing.assert_array_equal(yhat, predict(rb, X_val), strict=True)

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
        phi = design_matrix(stale)
        np.testing.assert_array_equal(phi, design_matrix(fresh), strict=True)
        assert np.shares_memory(phi, stale.scratch if order == Order.FIRST else stale.normalized)
        g = log_grad_factor(kind, fresh.u, out=stale.work)
        np.testing.assert_array_equal(g, log_grad_factor(kind, fresh.u), strict=True)
        fitted, _, yhat = lse_fit(rb, X, y, 1e-4)
        w, yhat_stale = refit(stale, y, 1e-4, rb.centers, rb.scales)
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
        # the scratch's views stay inside it, so inside buf
        assert [span(a, buf) for a in (rows.scratch, rows.work, rows.b, rows.design)] == [
            (320, 640), (320, 560), (560, 640), (320, 640)
        ]
        rows = Rows.of(np.zeros((21, 3)), rb, buf=buf)  # too short: new arrays
        assert not any(np.shares_memory(a, buf) for a in (rows.u, rows.normalized, rows.scratch))

    @pytest.mark.parametrize("order", list(Order))
    def test_public_calls_return_arrays_they_own(self, order):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, size=(30, 2))
        y = rng.uniform(0, 1, size=30)
        rb = random_rulebase(rng, n_rules=3, n_features=2, order=order)
        first, second = (train(X, y, X, y, rb, TrainConfig(max_epochs=0)).rb for _ in range(2))
        assert not np.shares_memory(first.consequents, second.consequents)
        assert not np.shares_memory(predict(first, X), predict(first, X))


class TestFitConsequents:
    def test_zero_target_zero_consequents(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, size=(15, 3))
        rb, _, _ = lse_fit(random_rulebase(rng), X, np.zeros(15), 1e-3)
        np.testing.assert_allclose(rb.consequents, 0.0, atol=1e-14)

    def test_single_rule_fits_mean(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(20, 2))
        y = rng.uniform(0, 1, size=20)
        rb = random_rulebase(rng, n_rules=1, n_features=2)
        rb, _, _ = lse_fit(rb, X, y, 0.0)
        assert rb.consequents[0] == pytest.approx(y.mean())

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, size=(40, 3))
        y = rng.uniform(0, 1, size=40)
        rb = random_rulebase(rng, n_rules=5, n_features=3)
        lam = 1e-4
        rb, _, _ = lse_fit(rb, X, y, lam)
        phi = design_matrix(firing(X, rb)).T  # (N, columns)
        resid = phi.T @ (phi @ rb.consequents - y) + lam * rb.consequents
        assert np.max(np.abs(resid)) < 1e-8 * (1 + np.max(np.abs(phi.T @ y)))

    def test_antecedents_untouched(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(10, 2))
        rb0 = random_rulebase(rng, n_rules=2, n_features=2)
        y = np.linspace(0, 1, 10)
        # train with no epochs is the public way to fit consequents alone: the kernel's bits
        rb1 = train(X, y, X, y, rb0, TrainConfig(max_epochs=0, lam=1e-4)).rb
        assert rb1.centers is rb0.centers
        assert rb1.scales is rb0.scales
        np.testing.assert_array_equal(rb1.consequents, lse_fit(rb0, X, y, 1e-4)[0].consequents, strict=True)

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
        fitted, fm, yhat = lse_fit(rb, X, y, 1e-4)
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
            (np.zeros((0, 2)), np.zeros(0), 2, "X has 0 rows"),
            (np.eye(2), np.ones(2), 0, "a rule base needs at least one rule"),
        ],
    )
    def test_malformed_input_named(self, X, y, n_rules, shown):
        # train with no epochs is the public way to fit consequents; it names its rows X_train, y_train
        shown = re.sub(r"\b([Xy])\b", r"\1_train", shown)
        with pytest.raises(ValueError, match=re.escape(shown)):  # a rule base with no rule fails where built
            rb = random_rulebase(np.random.default_rng(0), n_rules=n_rules, n_features=2)
            train(X, y, X, y, rb, TrainConfig(max_epochs=0, lam=0.1))

    def test_lse_beats_random_consequents(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, size=(30, 2))
        y = rng.uniform(0, 1, size=30)
        rb = random_rulebase(rng, n_rules=4, n_features=2)
        rb, _, _ = lse_fit(rb, X, y, 0.0)
        phi = design_matrix(firing(X, rb)).T  # (N, columns)
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
        rb, _, _ = lse_fit(random_rulebase(rng), X, y, 1e-4)
        yhat = predict(rb, X)
        _, norm = scalar_firing_oracle(X, rb)
        ref = rb.consequents @ norm
        np.testing.assert_allclose(yhat, ref, atol=1e-12)

    def test_rule_permutation_invariance(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(0, 1, size=(18, 2))
        y = rng.uniform(0, 1, size=18)
        rb, _, _ = lse_fit(random_rulebase(rng, n_rules=4, n_features=2), X, y, 1e-4)
        perm = np.array([2, 0, 3, 1])
        rb_p = RuleBase(
            rb.mf_kind, rb.centers[perm], rb.scales[perm], rb.consequents[perm], rb.order
        )
        np.testing.assert_allclose(predict(rb, X), predict(rb_p, X), atol=1e-12)

    def test_wrong_feature_count_rejected(self):
        # a 1-column X must not broadcast against a 2-feature model
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, size=(8, 2))
        rb, _, _ = lse_fit(
            random_rulebase(rng, n_rules=3, n_features=2), X, X[:, 0], 1e-4
        )
        with pytest.raises(ValueError, match="X has 1 feature columns but the rule base has 2"):
            predict(rb, X[:, :1])

    def test_unfitted_rejects(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            predict(random_rulebase(rng), np.zeros((2, 3)))


class TestRuleBaseChecked:
    @pytest.mark.parametrize(
        "call, changes, shown",
        [
            ("predict", {"consequents": np.ones((1, 2))}, "consequents must be 2 finite values"),
            ("predict", {"consequents": np.ones(3)}, "consequents must be 2 finite values"),
            ("predict", {"scales": np.array([[0.0], [0.3]])}, "scales must be finite"),
            ("predict", {"centers": np.array([[np.nan], [0.75]])}, "centers must be finite"),
            ("fit", {"centers": np.array([[np.nan], [0.75]])}, "centers must be finite"),
            ("fit", {"scales": np.array([[5.0], [0.3]])}, "scales must be finite"),
        ],
    )
    def test_malformed_rule_base_rejected(self, call, changes, shown):
        X = np.linspace(0.0, 1.0, 20)[:, None]
        rb = RuleBase(
            MFKind.CAUCHY, np.array([[0.25], [0.75]]), np.full((2, 1), 0.3), np.array([0.0, 1.0])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{shown}"):  # raised by replace, before the call
                rb = replace(rb, **changes)
                if call == "predict":
                    predict(rb, X)
                else:
                    lse_fit(rb, X, X[:, 0], 0.1)

    def test_no_rule_fails_where_built(self):
        with pytest.raises(ValueError, match="^a rule base needs at least one rule$"):
            RuleBase(MFKind.CAUCHY, np.zeros((0, 2)), np.zeros((0, 2)))

    def test_out_of_range_center_fails_where_built(self):
        with pytest.raises(ValueError, match=r"^centers must be finite and in \[0, 1\]"):
            RuleBase(MFKind.CAUCHY, [[2.0]], [[0.1]])

    @pytest.mark.parametrize(
        "centers, consequents, shown",
        [
            ([["0.25", 0.5], [0.75, 0.5]], None, "centers must be float, got '0.25'"),
            ([[0.25, 0.5], [0.75, True]], None, "centers must be float, got True"),
            ([[0.25, None], [0.75, 0.5]], None, "centers must be float, got None"),
            ([[0.25, 0.5], [0.75, 0.5]], [0.1, "1"], "consequents must be float, got '1'"),
            # an array is checked by its dtype, with as_array's rule and text
            (np.array([["0.25", "0.5"], ["0.75", "1"]]), None, "centers must hold numbers, got <U4 entries"),
            (np.array([[True, True], [True, True]]), None, "centers must hold numbers, got bool entries"),
            (np.full((2, 2), 0.5, dtype=object), None, "centers must hold numbers, got object entries"),
            (
                [[0.25, 0.5], [0.75, 0.5]], np.array(["0.1", "1"]),
                "consequents must hold numbers, got <U3 entries",
            ),
        ],
        ids=["str", "bool", "none", "str_consequent", "str_array", "bool_array", "object_array",
             "str_array_consequent"],
    )
    def test_leaf_that_is_not_a_number_fails_where_built(self, centers, consequents, shown):
        with pytest.raises(ValueError, match=f"^{re.escape(shown)}$"):
            RuleBase(MFKind.CAUCHY, centers, [[0.3, 0.3], [0.3, 0.3]], consequents)


class TestRuleBaseReadOnly:
    def test_caller_array_changed_later_leaves_rule_base_unchanged(self):
        centers, scales, consequents = np.array([[0.25], [0.75]]), np.full((2, 1), 0.3), np.ones(2)
        rb = RuleBase(MFKind.CAUCHY, centers, scales, consequents)
        centers[0, 0], scales[0, 0], consequents[0] = 5.0, 0.0, np.nan
        assert (rb.centers[0, 0], rb.scales[0, 0], rb.consequents[0]) == (0.25, 0.3, 1.0)

    @pytest.mark.parametrize("name", ["centers", "scales", "consequents"])
    def test_arrays_cannot_be_written(self, name):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(10, 3))
        rb, _, _ = lse_fit(random_rulebase(rng), X, X.sum(axis=1), 1e-4)
        with pytest.raises(ValueError, match="read-only"):
            getattr(rb, name)[0] = 0.5

    @pytest.mark.parametrize(
        "clone", [lambda rb: pickle.loads(pickle.dumps(rb)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_copies_rebuilt_read_only(self, clone):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(10, 3))
        rb, _, _ = lse_fit(random_rulebase(rng, order=Order.FIRST), X, X.sum(axis=1), 1e-4)
        again = clone(rb)
        assert (again.mf_kind, again.order) == (rb.mf_kind, rb.order)
        for name in ("centers", "scales", "consequents"):
            assert not getattr(again, name).flags.writeable
            np.testing.assert_array_equal(getattr(again, name), getattr(rb, name))

    def test_tampered_state_fails_where_rebuilt(self):
        rb = RuleBase(MFKind.CAUCHY, [[0.25], [0.75]], [[0.3], [0.3]])
        build, (kind, centers, *rest) = rb.__reduce__()
        centers = centers.copy()
        centers[0, 0] = 7.0
        with pytest.raises(ValueError, match=r"^centers must be finite and in \[0, 1\]"):
            build(kind, centers, *rest)


class TestRuleBaseCoerced:
    @pytest.mark.parametrize(
        "convert", [np.ndarray.tolist, lambda a: a.astype(np.int64)], ids=["lists", "ints"]
    )
    def test_lists_and_ints_become_float64(self, convert):
        # integer-valued parameters, so the int64 copies hold the same values
        centers, scales = np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones((2, 2))
        consequents = np.array([1.0, 2.0])
        X = np.random.default_rng(4).uniform(size=(10, 2))
        y = X.sum(axis=1)
        rb = RuleBase(MFKind.CAUCHY, convert(centers), convert(scales), convert(consequents))
        assert rb.centers.dtype == rb.scales.dtype == rb.consequents.dtype == np.float64
        ref = RuleBase(MFKind.CAUCHY, centers, scales, consequents)
        np.testing.assert_array_equal(predict(rb, X), predict(ref, X))
        fitted, _, yhat = lse_fit(replace(rb, consequents=None), X, y, 1e-4)
        np.testing.assert_array_equal(yhat, lse_fit(ref, X, y, 1e-4)[2])
        assert fitted.centers.dtype == np.float64

    def test_float64_arrays_kept_not_copied(self):
        rb = random_rulebase(np.random.default_rng(0))
        again = replace(rb, consequents=np.ones(rb.n_rules))
        assert again.centers is rb.centers and again.scales is rb.scales


class TestModelArtifact:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        rb, _, _ = lse_fit(
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
        [({"order": "bogus"}, "order must be one of ['zero', 'first'], got 'bogus'"),
         ({"kind": "triangle"}, "mf_kind must be one of ['gaussian', 'cauchy'], got 'triangle'")],
        ids=["order-bogus", "kind-triangle"],
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
            ({"mf_kind": "triangle"}, "mf_kind must be one of ['gaussian', 'cauchy'], got 'triangle'"),
            ({"centers": "x"}, "model.json: centers must be float, got 'x'"),
            ({"centers": [[0.2, 0.4]]}, "center/scale shape mismatch"),
            ({"centers": [0.2, 0.4], "scales": [0.3, 0.3]}, "center/scale shape mismatch"),
            ({"centers": [[0.2], [0.4, 0.5]]}, "corrupt model file"),
            ({"consequents": {"w": 1.0}}, "corrupt model file"),
            ({"scales": None}, "corrupt model file"),
            ({"version": True}, "unsupported model version True"),
            ({"version": 1.0}, "unsupported model version 1.0"),
            ({"centers": [[0.2, 0.4], [True, 0.6]]}, "model.json: centers must be float, got True"),
            ({"scales": [[0.3, "0.3"], [0.2, 0.5]]}, "model.json: scales must be float, got '0.3'"),
            ({"consequents": [0.1, 0.2, "1", 0.4, 0.5, 0.6]},
             "model.json: consequents must be float, got '1'"),
            ({"order": "zero", "consequents": [0.5, False]},
             "model.json: consequents must be float, got False"),
        ],
        ids=["version-2", "mf_kind-triangle", "centers-str", "centers-one_row", "centers-flat",
             "centers-ragged", "consequents-dict", "scales-none", "version-bool", "version-float",
             "centers-bool", "scales-str", "consequents-str", "consequents-bool"],
    )
    def test_malformed_artifact_named(self, tmp_path, fields, shown):
        with pytest.raises(ValueError, match=re.escape(shown)):
            load_model(self.artifact(tmp_path, **fields))

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ValueError):
            load_model(path)

"""Training passes: gradient oracles, adjacency, X-pass, modes, early stop."""

import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xanfis.inference
import xanfis.numerics
import xanfis.training
from xanfis.inference import (
    EPS_DENOM,
    Order,
    RuleBase,
    Rows,
    membership_tensor,
    mse_antecedent_gradients,
    predict,
)
from xanfis.membership import (
    SCALE_MIN,
    MFKind,
    log_grad_factor,
    product_firing,
    project_bounds_arrays,
)
from xanfis.training import (
    D_SING,
    EpochTrace,
    Mode,
    TrainConfig,
    _clipped_step,
    adjacency_pairs,
    mean_distinguishability,
    pair_gradient,
    train,
    traces_to_csv,
    trajectory_to_csv,
)

from oracles import firing, lse_fit, raw_firing


def make_problem(rng, n_rules, n_features, kind, n_samples=40, order=Order.ZERO):
    X = rng.uniform(0, 1, size=(n_samples, n_features))
    y = rng.uniform(0, 1, size=n_samples)
    centers = rng.uniform(0.05, 0.95, size=(n_rules, n_features))
    scales = rng.uniform(0.05, 0.8, size=(n_rules, n_features))
    rb = RuleBase(mf_kind=kind, centers=centers, scales=scales, order=order)
    rb, fm, yhat = lse_fit(rb, X, y, 1e-4)
    return X, y, rb, fm, yhat


def gradients(rb, fm, y, yhat):
    """mse_antecedent_gradients of fitted rb, with fm and yhat its forward and predictions."""
    return mse_antecedent_gradients(fm, y, yhat, rb.scales, rb.consequents)


def reference_chain_rule(rb, X, y):
    """MSE antecedent gradients through the raw firing and its floored column sum.

    d yhat_t / d raw_jt = (f_j(x_t) - live_t * yhat_t) / den_t, times
    raw_jt * d log mu / d theta, with yhat re-summed from the rule outputs.
    """
    rows = Rows.of(X, rb)
    u = membership_tensor(rows, rb.centers, rb.scales)
    raw = product_firing(rb.mf_kind, u)
    total = raw.sum(axis=0)
    den = np.maximum(total, EPS_DENOM)
    if rb.order == Order.ZERO:
        fout = rb.consequents[:, None]
    else:
        fout = rb.consequents.reshape(rb.n_rules, -1) @ rows.aug
    yhat = (raw / den * fout).sum(axis=0)
    upstream = (2.0 / X.shape[0]) * (yhat - y)
    coef = (fout - np.where(total > EPS_DENOM, yhat, 0.0)) / den
    with np.errstate(under="ignore"):
        w = upstream * coef * raw * log_grad_factor(rb.mf_kind, u)
    grad_c = w.sum(axis=-1).T / rb.scales
    grad_s = np.einsum("frt,frt->fr", w, u).T / rb.scales
    return grad_c, grad_s


def dead_row_problem(rng, kind, order, n_rules=3, n_features=3):
    """Narrow, overlapping sets near 0.2: rows near 0.2 are live, rows near 1 are dead."""
    centers = 0.2 + rng.uniform(-0.003, 0.003, size=(n_rules, n_features))
    scales = rng.uniform(0.002, 0.003, size=(n_rules, n_features))
    near = 0.2 + rng.uniform(-0.004, 0.004, size=(24, n_features))
    far = rng.uniform(0.9, 1.0, size=(16, n_features))
    X = np.concatenate([near, far])[rng.permutation(40)]
    y = rng.uniform(0, 1, size=40)
    rb = RuleBase(mf_kind=kind, centers=centers, scales=scales, order=order)
    rb, fm, yhat = lse_fit(rb, X, y, 1e-4)
    return X, y, rb, fm, yhat


def mse_with_frozen_consequents(rb, X, y):
    err = predict(rb, X) - y
    return float(np.mean(err * err))


def fd_mse_gradients(rb, X, y, h=1e-6):
    """Central differences of the MSE over every antecedent parameter."""
    gc = np.zeros_like(rb.centers)
    gs = np.zeros_like(rb.scales)
    for j in range(rb.n_rules):
        for f in range(rb.n_features):
            for which, out in (("centers", gc), ("scales", gs)):
                plus = rb.centers.copy(), rb.scales.copy()
                minus = rb.centers.copy(), rb.scales.copy()
                arr_i = 0 if which == "centers" else 1
                plus[arr_i][j, f] += h
                minus[arr_i][j, f] -= h
                rb_p = RuleBase(rb.mf_kind, plus[0], plus[1], rb.consequents, rb.order)
                rb_m = RuleBase(rb.mf_kind, minus[0], minus[1], rb.consequents, rb.order)
                out[j, f] = (
                    mse_with_frozen_consequents(rb_p, X, y)
                    - mse_with_frozen_consequents(rb_m, X, y)
                ) / (2 * h)
    return gc, gs


def rel_err(analytic, reference):
    denom = max(np.max(np.abs(reference)), 1e-10)
    return np.max(np.abs(analytic - reference)) / denom


class TestMSEGradients:
    @pytest.mark.parametrize("order", list(Order))
    @pytest.mark.parametrize("kind", list(MFKind))
    def test_stale_scratch_does_not_show(self, kind, order):
        X, y, rb, fm, yhat = make_problem(np.random.default_rng(4), 4, 3, kind, order=order)
        fresh = gradients(rb, fm, y, yhat)
        fm.scratch.fill(np.nan)  # stale contents must not show
        for a, b in zip(gradients(rb, fm, y, yhat), fresh):
            np.testing.assert_array_equal(a, b, strict=True)
        assert not np.isnan(fm.scratch).any()  # w and b filled the whole scratch

    def test_perfect_fit_zero_gradient(self):
        # single rule, constant target: LSE fit is exact
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(20, 2))
        y = np.full(20, 0.4)
        rb = RuleBase(MFKind.CAUCHY, np.array([[0.5, 0.5]]), np.array([[0.3, 0.3]]))
        rb, fm, yhat = lse_fit(rb, X, y, 0.0)
        gc, gs = gradients(rb, fm, y, yhat)
        np.testing.assert_allclose(gc, 0.0, atol=1e-12)
        np.testing.assert_allclose(gs, 0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", [MFKind.GAUSSIAN, MFKind.CAUCHY])
    @pytest.mark.parametrize("order", [Order.ZERO, Order.FIRST])
    def test_matches_finite_differences(self, kind, order):
        rng = np.random.default_rng(42)
        for _ in range(10):
            X, y, rb, fm, yhat = make_problem(rng, 3, 2, kind, order=order)
            gc, gs = gradients(rb, fm, y, yhat)
            fd_c, fd_s = fd_mse_gradients(rb, X, y)
            assert rel_err(gc, fd_c) < 1e-4
            assert rel_err(gs, fd_s) < 1e-4

    @pytest.mark.parametrize("kind", [MFKind.GAUSSIAN, MFKind.CAUCHY])
    @pytest.mark.parametrize("order", [Order.ZERO, Order.FIRST])
    def test_matches_raw_firing_chain_rule(self, kind, order):
        # the gradient from normalized firing and the refit's predictions is
        # the raw-firing chain rule, on all-live data and with dead rows; the
        # tolerance is relative to each gradient's largest entry, since the
        # two yhat sums round apart and entries that cancel over samples
        # magnify that past 1e-12 of their own size
        rng = np.random.default_rng(11)
        for _ in range(5):
            for X, y, rb, fm, yhat in (
                make_problem(rng, 4, 3, kind, order=order),
                dead_row_problem(rng, kind, order),
            ):
                for grad, ref in zip(
                    gradients(rb, fm, y, yhat), reference_chain_rule(rb, X, y)
                ):
                    np.testing.assert_allclose(grad, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
            assert 0 < fm.live.sum() < len(X)  # the dead-row problem, checked last

    def test_backward_step_arithmetic_with_clipping(self):
        # a +10 raw gradient entry is clipped to +1, so the parameter
        # moves down by exactly lr * 1
        cfg = TrainConfig(mode=Mode.ANFIS, lr_backward=0.1)
        centers = np.array([[0.5]])
        grad = np.array([[10.0]])
        stepped = _clipped_step(centers, grad, cfg.lr_backward)
        assert stepped[0, 0] == pytest.approx(0.5 - 0.1 * 1.0, abs=0)

    def test_backward_step_projects_bounds(self, monkeypatch):
        rng = np.random.default_rng(7)
        X, y, rb, _, _ = make_problem(rng, 4, 2, MFKind.CAUCHY)
        monkeypatch.setattr(xanfis.training, "CLIP", 10.0)
        cfg = TrainConfig(mode=Mode.ANFIS, lr_backward=5.0)
        centers, scales = one_epoch(rb, X, y, cfg)
        assert np.all(centers >= 0.0) and np.all(centers <= 1.0)
        assert np.all(scales >= SCALE_MIN) and np.all(scales <= 1.0)

    def test_dead_rows_contribute_nothing(self):
        # Gaussian sets at SCALE_MIN: rows near the centers fire, rows far
        # from both underflow to raw == 0 and are dead; they add nothing, so
        # N * (gradient over all rows) equals N_live * (gradient over live rows)
        rng = np.random.default_rng(3)
        rb = RuleBase(MFKind.GAUSSIAN, np.array([[0.2], [0.21]]), np.full((2, 1), SCALE_MIN))
        near = 0.205 + rng.uniform(-0.004, 0.004, size=(12, 1))
        far = rng.uniform(0.5, 1.0, size=(8, 1))
        X = np.concatenate([near, far])[rng.permutation(20)]
        y = rng.uniform(0, 1, size=20)
        rb, fm, yhat = lse_fit(rb, X, y, 1e-4)
        live = fm.live
        assert live.sum() == 12 and np.all(raw_firing(X, rb)[:, ~live] == 0.0)
        gc, gs = gradients(rb, fm, y, yhat)
        assert np.all(np.isfinite(gc)) and np.all(np.isfinite(gs))
        assert np.all(gc != 0.0) and np.all(gs != 0.0)
        gc_live, gs_live = gradients(rb, firing(X[live], rb), y[live], yhat[live])
        np.testing.assert_allclose(20 * gc, 12 * gc_live, rtol=1e-12)
        np.testing.assert_allclose(20 * gs, 12 * gs_live, rtol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        kind=st.sampled_from(list(MFKind)),
        order=st.sampled_from(list(Order)),
        mode=st.sampled_from(list(Mode)),
        n_rules=st.integers(1, 5),
        n_features=st.integers(1, 3),
        lr=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bounds_after_every_step(self, kind, order, mode, n_rules, n_features, lr, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(30, n_features))
        y = rng.uniform(0, 1, size=30)
        centers = rng.uniform(0, 1, size=(n_rules, n_features))
        scales = 10.0 ** rng.uniform(np.log10(SCALE_MIN), 0, size=(n_rules, n_features))
        scales[rng.uniform(size=scales.shape) < 0.2] = SCALE_MIN
        rb = RuleBase(kind, centers, scales, order=order)
        cfg = TrainConfig(mode=mode, lr_backward=lr, lr_xpass=lr, max_epochs=3, patience=4)
        with pytest.MonkeyPatch.context() as mp:  # a fixture would span every example
            mp.setattr(xanfis.training, "CLIP", 10.0)
            result = train(X[:20], y[:20], X[20:], y[20:], rb, cfg)
        # a NaN step or a singular refit would end the run early with fewer snapshots
        assert result.stop_reason == "max_epochs" and len(result.traces) == cfg.max_epochs + 1
        for t in result.traces:
            assert np.all((t.centers >= 0.0) & (t.centers <= 1.0))
            assert np.all((t.scales >= SCALE_MIN) & (t.scales <= 1.0))


def one_epoch(rb0, X, y, cfg):
    """The (centers, scales) that train's epoch 1 steps to from rb0, on X for training and validation."""
    cfg = replace(cfg, max_epochs=1, patience=2)
    t = train(X, y, X, y, rb0, cfg).traces[1]
    return t.centers, t.scales


def xpass_step(rb, cfg):
    """(centers, scales) after the loop's explainability step on rb: clipped, projected, scales frozen."""
    grad = pair_gradient(adjacency_pairs(rb.centers, rb.scales), cfg.d_target)
    return project_bounds_arrays(_clipped_step(rb.centers, grad, cfg.lr_xpass), rb.scales)


def clip_via_step(grad):
    """The clipped gradient that one unit-rate step from zero applies."""
    grad = np.asarray(grad, dtype=np.float64)
    return -_clipped_step(np.zeros_like(grad), grad, 1.0)


class TestClippedStep:
    def test_basic(self):
        np.testing.assert_array_equal(clip_via_step([-2.0, 0.5, 3.0]), [-1.0, 0.5, 1.0])

    def test_identity_inside_bounds(self):
        v = np.array([-0.9, 0.0, 0.99])
        np.testing.assert_array_equal(clip_via_step(v), v)

    def test_boundary_fixed_points(self):
        np.testing.assert_array_equal(clip_via_step([-1.0, 1.0]), [-1.0, 1.0])


class TestTrainConfig:
    @pytest.mark.parametrize(
        "knobs, shown",
        [
            ({"mode": "xanfis"}, "mode must be one of ['anfis', 'mo_anfis', 'x_anfis'], got 'xanfis'"),
            ({"lr_backward": math.nan}, "lr_backward must be finite, got nan"),
            ({"lam": math.nan}, "lam must be finite, got nan"),
            ({"max_epochs": 3.0}, "max_epochs must be int, got 3.0"),
            ({"patience": 2.5}, "patience must be int, got 2.5"),
            ({"lr_xpass": math.inf}, "lr_xpass must be finite, got inf"),
            ({"d_target": True}, "d_target must be float, got True"),
        ],
    )
    def test_bad_value_rejected_where_built(self, knobs, shown):
        with pytest.raises(ValueError, match=re.escape(shown)):
            TrainConfig(**{"mode": Mode.X_ANFIS, "max_epochs": 3, **knobs})

    def test_replace_rechecks(self):
        with pytest.raises(ValueError, match=re.escape("patience must be >= 1, got 0")):
            replace(TrainConfig(), patience=0)


class TestAdjacency:
    def test_single_feature_sorting(self):
        # pairs (1, 2) and (2, 0)
        order, dc, d = adjacency_pairs(np.array([[0.7], [0.1], [0.4]]), np.full((3, 1), 0.2))
        np.testing.assert_array_equal(order, [[1, 2, 0]])
        np.testing.assert_allclose(dc, [[-0.3, -0.3]])
        np.testing.assert_allclose(d, [[0.3, 0.3]])

    def test_pair_count(self):
        # one row of R = 2 rules per feature: one pair per feature
        order, dc, d = adjacency_pairs(np.zeros((2, 3)), np.ones((2, 3)))
        assert order.shape == (3, 2) and dc.shape == d.shape == (3, 1)

    def test_tie_break_by_rule_index(self):
        order, _, _ = adjacency_pairs(np.array([[0.5], [0.5], [0.2]]), np.full((3, 1), 0.2))
        np.testing.assert_array_equal(order, [[2, 0, 1]])


def loop_pairs(centers):
    """Reference pairing: (feature, lo, hi) per feature, lexsort by center then rule."""
    r, f = centers.shape
    pairs = []
    for feat in range(f):
        order = np.lexsort((np.arange(r), centers[:, feat]))
        pairs.extend((feat, int(lo), int(hi)) for lo, hi in zip(order[:-1], order[1:]))
    return pairs


def loop_distinguishability(centers, scales):
    """Reference mean D: one np.hypot per pair, then (overall, per-feature) means."""
    r, f = centers.shape
    dists = np.array(
        [
            np.hypot(centers[lo, k] - centers[hi, k], scales[lo, k] - scales[hi, k])
            for k, lo, hi in loop_pairs(centers)
        ]
    )
    return float(np.mean(dists)), dists.reshape(f, r - 1).mean(axis=1).tolist()


def loop_xpass_gradients(centers, scales, d_target):
    """Reference x-pass gradient: sequential += / -= per pair, D_SING pairs skipped."""
    grad = np.zeros_like(centers)
    for k, lo, hi in loop_pairs(centers):
        dc = centers[lo, k] - centers[hi, k]
        d = np.hypot(dc, scales[lo, k] - scales[hi, k])
        if d < D_SING:
            continue
        coef = (d - d_target) / d
        grad[lo, k] += coef * dc
        grad[hi, k] -= coef * dc
    return grad


class TestSortedAxisMatchesLoops:
    @settings(max_examples=200, deadline=None)
    @given(
        n_rules=st.integers(2, 20),
        n_features=st.integers(1, 8),
        grid=st.sampled_from([2, 4, 10, 1000]),
        d_target=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_loop_oracle(self, n_rules, n_features, grid, d_target, seed):
        # centers on a coarse grid tie often; scales from a few levels near
        # SCALE_MIN make some tied pairs coincide or sit closer than D_SING
        rng = np.random.default_rng(seed)
        shape = (n_rules, n_features)
        centers = rng.integers(0, grid + 1, size=shape) / grid
        levels = np.array([SCALE_MIN, SCALE_MIN + 0.5 * D_SING, SCALE_MIN + 0.1, 0.5, 1.0])
        scales = levels[rng.integers(0, len(levels), size=shape)]
        rb = RuleBase(MFKind.CAUCHY, centers, scales)
        ref_mean, ref_per_feature = loop_distinguishability(centers, scales)
        assert mean_distinguishability(rb) == ref_mean
        _, _, d = adjacency_pairs(centers, scales)
        assert d.mean(axis=1).tolist() == ref_per_feature
        np.testing.assert_array_equal(
            pair_gradient(adjacency_pairs(centers, scales), d_target),
            loop_xpass_gradients(centers, scales, d_target),
        )


def two_rule_distinguishability(centers, scales):
    rb = RuleBase(MFKind.CAUCHY, np.array(centers), np.array(scales))
    mean_d = mean_distinguishability(rb)
    _, _, d = adjacency_pairs(rb.centers, rb.scales)
    assert d.mean(axis=1).tolist() == [mean_d]
    return mean_d


class TestDistinguishability:
    def test_identical_sets(self):
        assert two_rule_distinguishability([[0.4], [0.4]], [[0.2], [0.2]]) == 0.0

    def test_center_only(self):
        assert two_rule_distinguishability([[0.2], [0.5]], [[0.1], [0.1]]) == pytest.approx(0.3)

    def test_center_and_scale(self):
        assert two_rule_distinguishability([[0.3], [0.6]], [[0.1], [0.5]]) == pytest.approx(0.5)


class TestXPass:
    def test_at_target_no_update(self):
        centers = np.array([[0.25], [0.75]])
        scales = np.array([[0.1], [0.1]])
        grad = pair_gradient(adjacency_pairs(centers, scales), 0.5)
        np.testing.assert_array_equal(grad, 0.0)
        rb = RuleBase(MFKind.CAUCHY, centers, scales)
        out_centers, _ = xpass_step(rb, TrainConfig(mode=Mode.X_ANFIS, d_target=0.5))
        np.testing.assert_array_equal(out_centers, centers)

    def test_worked_pair(self):
        # pair at D=0.2 with target 0.5: gradients +-0.3, one step with
        # lr 0.1 moves the centers to 0.37 and 0.63
        centers = np.array([[0.4], [0.6]])
        scales = np.array([[0.1], [0.1]])
        grad = pair_gradient(adjacency_pairs(centers, scales), 0.5)
        assert grad[0, 0] == pytest.approx(0.3, abs=1e-14)
        assert grad[1, 0] == pytest.approx(-0.3, abs=1e-14)
        rb = RuleBase(MFKind.CAUCHY, centers, scales)
        out_centers, _ = xpass_step(rb, TrainConfig(mode=Mode.X_ANFIS, lr_xpass=0.1, d_target=0.5))
        assert out_centers[0, 0] == pytest.approx(0.37, abs=1e-14)
        assert out_centers[1, 0] == pytest.approx(0.63, abs=1e-14)

    def test_scales_never_updated(self):
        rng = np.random.default_rng(3)
        centers = rng.uniform(0, 1, size=(5, 2))
        scales = rng.uniform(0.05, 0.5, size=(5, 2))
        rb = RuleBase(MFKind.CAUCHY, centers, scales)
        _, out_scales = xpass_step(rb, TrainConfig(mode=Mode.X_ANFIS))
        np.testing.assert_array_equal(out_scales, scales)

    def test_direction_for_isolated_pair(self):
        for d0, expect_wider in ((0.2, True), (0.8, False)):
            centers = np.array([[0.5 - d0 / 2], [0.5 + d0 / 2]])
            scales = np.full((2, 1), 0.2)
            rb = RuleBase(MFKind.CAUCHY, centers, scales)
            out_centers, _ = xpass_step(rb, TrainConfig(mode=Mode.X_ANFIS, d_target=0.5))
            gap = out_centers[1, 0] - out_centers[0, 0]
            assert (gap > d0) == expect_wider

    def test_coincident_pair_skipped(self):
        centers = np.array([[0.5], [0.5]])
        scales = np.array([[0.2], [0.2]])
        grad = pair_gradient(adjacency_pairs(centers, scales), 0.5)
        np.testing.assert_array_equal(grad, 0.0)

    def test_matches_finite_differences_with_frozen_pairing(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(20):
            r, f = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            centers = rng.uniform(0, 1, size=(r, f))
            scales = rng.uniform(0.05, 0.5, size=(r, f))
            d_target = 0.5
            # pairs frozen at the unperturbed centers: consecutive entries
            # of each feature's row of the (F, R) rule order
            order, _, _ = adjacency_pairs(centers, scales)

            def loss(c):
                total = 0.0
                for k, row in enumerate(order):
                    for lo, hi in zip(row[:-1], row[1:]):
                        d = math.hypot(c[lo, k] - c[hi, k], scales[lo, k] - scales[hi, k])
                        total += 0.5 * (d - d_target) ** 2
                return total

            grad = pair_gradient(adjacency_pairs(centers, scales), d_target)
            fd = np.zeros_like(centers)
            for j in range(r):
                for k in range(f):
                    cp = centers.copy()
                    cm = centers.copy()
                    cp[j, k] += h
                    cm[j, k] -= h
                    fd[j, k] = (loss(cp) - loss(cm)) / (2 * h)
            assert rel_err(grad, fd) < 1e-5


class TestMOPass:
    # each test reads the state train's MO-ANFIS epoch 1 steps to

    def test_weight_zero_equals_backward(self):
        rng = np.random.default_rng(21)
        X, y, rb, _, _ = make_problem(rng, 4, 2, MFKind.CAUCHY)
        out_mo = one_epoch(rb, X, y, TrainConfig(mode=Mode.MO_ANFIS, mo_weight=0.0))
        out_bw = one_epoch(rb, X, y, TrainConfig(mode=Mode.ANFIS))
        for a, b in zip(out_mo, out_bw):
            np.testing.assert_array_equal(a, b)

    def test_no_update_at_joint_optimum(self):
        # perfect fit and every adjacent pair exactly at target; at unit
        # rate inside the clip range the step is the gradient itself
        X = np.array([[0.1], [0.5], [0.9]])
        y = np.full(3, 0.25)
        rb = RuleBase(MFKind.CAUCHY, np.array([[0.25], [0.75]]), np.array([[0.2], [0.2]]))
        cfg = TrainConfig(
            mode=Mode.MO_ANFIS, mo_weight=1.0, d_target=0.5, lr_backward=1.0, lam=0.0
        )
        centers, scales = one_epoch(rb, X, y, cfg)
        np.testing.assert_allclose(rb.centers - centers, 0.0, atol=1e-12)
        np.testing.assert_allclose(rb.scales - scales, 0.0, atol=1e-12)

    def test_gradient_additivity(self, monkeypatch):
        # centers step on MSE + weight * pair penalty, scales on MSE alone;
        # a small rate inside a wide clip range leaves clipping and
        # projection inactive, so the step is exactly -lr * gradient
        monkeypatch.setattr(xanfis.training, "CLIP", 1e6)
        rng = np.random.default_rng(22)
        for _ in range(10):
            X, y, rb, fm, yhat = make_problem(rng, 4, 3, MFKind.CAUCHY)
            cfg = TrainConfig(mode=Mode.MO_ANFIS, mo_weight=1.0, lr_backward=1e-3)
            centers, scales = one_epoch(rb, X, y, cfg)
            gc_mse, gs_mse = gradients(rb, fm, y, yhat)
            gx = pair_gradient(adjacency_pairs(rb.centers, rb.scales), cfg.d_target)
            np.testing.assert_array_equal(centers, rb.centers - 1e-3 * (gc_mse + 1.0 * gx))
            np.testing.assert_array_equal(scales, rb.scales - 1e-3 * gs_mse)


def small_problem(seed=0, n=60):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 2))
    y = np.sin(3 * X[:, 0]) * 0.3 + 0.4 * X[:, 1] + 0.05 * rng.normal(size=n)
    centers = rng.uniform(0.1, 0.9, size=(3, 2))
    scales = rng.uniform(0.1, 0.4, size=(3, 2))
    rb0 = RuleBase(MFKind.CAUCHY, centers, scales)
    return X[:40], y[:40], X[40:], y[40:], rb0


class TestTrainLoop:
    def test_zero_epoch_budget(self):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        cfg = TrainConfig(mode=Mode.ANFIS, max_epochs=0)
        result = train(X_tr, y_tr, X_val, y_val, rb0, cfg)
        rb, traces, stop_reason = result
        assert result[1] is result.traces  # a tuple with the traces at index 1
        assert len(traces) == 1 and traces[0].epoch == 0
        assert stop_reason == "max_epochs"
        assert rb.consequents is not None
        np.testing.assert_array_equal(rb.centers, rb0.centers)

    # the patience check ends every epoch, the last one included: patience
    # running out on the last epoch (max_epochs 7) is a "patience" stop
    @pytest.mark.parametrize(
        "max_epochs, reason, last_epoch",
        [(100, "patience", 7), (7, "patience", 7), (6, "max_epochs", 6)],
    )
    def test_constant_validation_stops_after_patience(
        self, monkeypatch, max_epochs, reason, last_epoch
    ):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        import xanfis.training as tr

        monkeypatch.setattr(tr, "_mse", lambda yhat, y: 0.5)
        cfg = TrainConfig(mode=Mode.ANFIS, max_epochs=max_epochs, patience=7)
        rb, traces, stop_reason = tr.train(X_tr, y_tr, X_val, y_val, rb0, cfg)
        assert traces[-1].epoch == last_epoch and len(traces) == last_epoch + 1
        assert stop_reason == reason
        # no epoch beat epoch 0, so epoch 0's model is the best
        np.testing.assert_array_equal(rb.centers, rb0.centers)

    def test_strict_improvement_runs_full_budget(self, monkeypatch):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        import xanfis.training as tr

        counter = {"n": 0}

        def fake_mse(yhat, y):
            counter["n"] += 1
            return 1.0 / counter["n"]

        monkeypatch.setattr(tr, "_mse", fake_mse)
        cfg = TrainConfig(mode=Mode.ANFIS, max_epochs=12, patience=3)
        _, traces, stop_reason = tr.train(X_tr, y_tr, X_val, y_val, rb0, cfg)
        assert traces[-1].epoch == 12
        assert stop_reason == "max_epochs"

    def test_best_validation_snapshot_returned(self):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem(seed=5)
        cfg = TrainConfig(mode=Mode.ANFIS, max_epochs=30, patience=30)
        rb, traces, _ = train(X_tr, y_tr, X_val, y_val, rb0, cfg)
        best = min(traces, key=lambda t: t.val_mse)
        err = predict(rb, X_val) - y_val
        assert float(np.mean(err * err)) == pytest.approx(best.val_mse, abs=1e-15)

    def test_epochs_strictly_increasing_and_traces_complete(self):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem(seed=6)
        cfg = TrainConfig(mode=Mode.X_ANFIS, max_epochs=15, patience=15)
        _, traces, _ = train(X_tr, y_tr, X_val, y_val, rb0, cfg)
        epochs = [t.epoch for t in traces]
        assert epochs == list(range(len(traces)))
        assert all(t.centers is not None for t in traces)

    @pytest.mark.parametrize("order", list(Order))
    def test_epochs_reuse_one_workspace(self, monkeypatch, order):
        # every epoch's training forward writes u into the same buffer and every
        # backward works in the same scratch; the validation forward's u lies in it
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        rb0 = RuleBase(rb0.mf_kind, rb0.centers, rb0.scales, order=order)
        seen = {"train_u": set(), "val_u": set(), "scratch": set()}
        val_u = []
        real_tensor = xanfis.inference.membership_tensor
        real_gradients = xanfis.training.mse_antecedent_gradients

        def tensor(rows, centers, scales):
            u = real_tensor(rows, centers, scales)
            seen["train_u" if u.shape[-1] == len(X_tr) else "val_u"].add(u.ctypes.data)
            if u.shape[-1] == len(X_val):
                val_u[:] = [u]
            return u

        def gradients(rows, *args):
            seen["scratch"].add(rows.scratch.ctypes.data)
            assert np.shares_memory(rows.scratch, val_u[0])
            return real_gradients(rows, *args)

        monkeypatch.setattr(xanfis.inference, "membership_tensor", tensor)
        monkeypatch.setattr(xanfis.training, "mse_antecedent_gradients", gradients)
        cfg = TrainConfig(mode=Mode.X_ANFIS, max_epochs=6, patience=6)
        assert len(train(X_tr, y_tr, X_val, y_val, rb0, cfg).traces) == 7
        assert [len(v) for v in seen.values()] == [1, 1, 1]

    def test_one_train_forward_per_epoch(self, monkeypatch):
        # per epoch: the refit's training forward and the validation predict
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        real = xanfis.inference.membership_tensor
        calls = {"n": 0}

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(xanfis.inference, "membership_tensor", counting)
        for mode in Mode:
            calls["n"] = 0
            cfg = TrainConfig(mode=mode, max_epochs=6, patience=6)
            _, traces, _ = train(X_tr, y_tr, X_val, y_val, rb0, cfg)
            assert len(traces) == 7
            assert calls["n"] == 2 * 6 + 2

    @pytest.mark.parametrize("order", list(Order))
    def test_inputs_checked_once_per_run(self, monkeypatch, order):
        # the four arrays once, at train's entry; no epoch re-checks anything,
        # ridge_solve and the other kernels included
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        rb0 = RuleBase(rb0.mf_kind, rb0.centers, rb0.scales, order=order)
        calls = {"n": 0}

        def counting(real):
            def wrapped(*args, **kwargs):
                calls["n"] += 1
                return real(*args, **kwargs)

            return wrapped

        real = xanfis.numerics.as_array
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "xanfis":
                continue
            for attr, obj in list(vars(mod).items()):
                if obj is real:
                    monkeypatch.setattr(mod, attr, counting(real))

        def scans(mode, epochs):
            calls["n"] = 0
            cfg = TrainConfig(mode=mode, max_epochs=epochs, patience=epochs + 1)
            _, traces, _ = train(X_tr, y_tr, X_val, y_val, rb0, cfg)
            assert len(traces) == epochs + 1
            return calls["n"]

        for mode in Mode:
            assert scans(mode, 6) == scans(mode, 0) == 4

    @pytest.mark.parametrize("part", ["train", "val"])
    def test_row_count_mismatch_rejected_before_epoch_0(self, monkeypatch, part):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        arrays = {"train": (X_tr, y_tr[:1], X_val, y_val), "val": (X_tr, y_tr, X_val, y_val[:1])}
        n_rows = {"train": 40, "val": 20}[part]
        forwards = {"n": 0}
        real = xanfis.inference.membership_tensor

        def counting(X, rb):
            forwards["n"] += 1
            return real(X, rb)

        monkeypatch.setattr(xanfis.inference, "membership_tensor", counting)
        with pytest.raises(ValueError, match=f"X_{part} has {n_rows} rows but y_{part} has 1 entries"):
            train(*arrays[part], rb0, TrainConfig(mode=Mode.ANFIS, max_epochs=3))
        assert forwards["n"] == 0

    def test_singular_refit_is_divergence(self):
        # rule 0 sits at SCALE_MIN beyond every sample, so its design column
        # is exactly 0 and the lambda-0 normal equations are singular
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        centers, scales = rb0.centers.copy(), rb0.scales.copy()
        centers[0], scales[0] = 1.0, SCALE_MIN
        rb0 = RuleBase(MFKind.GAUSSIAN, centers, scales)
        cfg = TrainConfig(mode=Mode.ANFIS, lam=0.0, max_epochs=5)
        rb, traces, stop_reason = train(0.9 * X_tr, y_tr, X_val, y_val, rb0, cfg)
        assert stop_reason == "singular"
        assert traces == []  # failed at epoch 0
        assert rb is rb0

    def test_non_finite_loss_stops_at_its_epoch(self, monkeypatch):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        import xanfis.training as tr

        calls = {"n": 0}
        real = tr._mse

        def poisoned(yhat, y):
            # calls 1-4 are epochs 0 and 1 (train, then validation); epoch 1's
            # validation MSE is made the worst, so the best model is epoch 0's
            calls["n"] += 1
            if calls["n"] >= 5:
                return float("nan")
            return 1e9 if calls["n"] == 4 else real(yhat, y)

        monkeypatch.setattr(tr, "_mse", poisoned)
        cfg = TrainConfig(mode=Mode.ANFIS, max_epochs=10)
        rb, traces, stop_reason = tr.train(X_tr, y_tr, X_val, y_val, rb0, cfg)
        assert stop_reason == "non_finite"
        assert len(traces) == 2  # epochs 0 and 1 recorded, epoch 2 failed
        # the last finite model, epoch 1's fitted state, not the best (epoch 0's)
        assert rb.consequents is not None
        assert not np.array_equal(traces[0].centers, traces[1].centers)
        np.testing.assert_array_equal(rb.centers, traces[1].centers)
        np.testing.assert_array_equal(rb.scales, traces[1].scales)
        np.testing.assert_array_equal(rb.consequents, traces[-1].consequents)


def reference_train(X_tr, y_tr, X_val, y_val, rb0, cfg):
    """The alternating loop written from the public kernels, a RuleBase per step and numpy's wrappers.

    Returns one (epoch, train_mse, val_mse, mean_D, centers, scales) per
    epoch and each epoch's fitted RuleBase; no early stop.
    """
    rb, records, models = rb0, [], []
    for epoch in range(cfg.max_epochs + 1):
        if epoch:
            gc, gs = gradients(rb, fm, y_tr, yhat)
            if cfg.mode == Mode.MO_ANFIS and cfg.mo_weight != 0.0:
                pairs = adjacency_pairs(rb.centers, rb.scales)
                gc = gc + cfg.mo_weight * pair_gradient(pairs, cfg.d_target)
            step, clip = cfg.lr_backward, xanfis.training.CLIP
            centers = np.clip(rb.centers - step * np.clip(gc, -clip, clip), 0.0, 1.0)
            scales = np.clip(rb.scales - step * np.clip(gs, -clip, clip), SCALE_MIN, 1.0)
            if cfg.mode == Mode.X_ANFIS:
                gx = pair_gradient(adjacency_pairs(centers, scales), cfg.d_target)
                gx = np.clip(gx, -clip, clip)
                centers = np.clip(centers - cfg.lr_xpass * gx, 0.0, 1.0)
            rb = RuleBase(rb.mf_kind, centers, scales, order=rb.order)
        rb, fm, yhat = lse_fit(rb, X_tr, y_tr, cfg.lam)
        _, _, d = adjacency_pairs(rb.centers, rb.scales)
        records.append((
            epoch,
            float(np.mean((yhat - y_tr) ** 2)),
            float(np.mean((predict(rb, X_val) - y_val) ** 2)),
            float(np.mean(d)),
            rb.centers,
            rb.scales,
        ))
        models.append(rb)
    return records, models


class TestTrainMatchesPublicKernels:
    # the trainer runs the kernels on per-run arrays; a loop over the public
    # API, one RuleBase per step, must give the same bits
    @pytest.mark.parametrize("order", list(Order))
    @pytest.mark.parametrize("kind", list(MFKind))
    @pytest.mark.parametrize("mode", list(Mode))
    def test_traces_and_model_bit_identical(self, mode, kind, order):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem(seed=3)
        rb0 = RuleBase(kind, rb0.centers, rb0.scales, order=order)
        cfg = TrainConfig(mode=mode, max_epochs=5, patience=6)
        rb, traces, stop_reason = train(X_tr, y_tr, X_val, y_val, rb0, cfg)
        records, models = reference_train(X_tr, y_tr, X_val, y_val, rb0, cfg)
        assert stop_reason == "max_epochs" and len(traces) == len(records) == 6
        for t, (epoch, train_mse, val_mse, mean_d, centers, scales) in zip(traces, records):
            assert (t.epoch, t.train_mse, t.val_mse, t.mean_D) == (epoch, train_mse, val_mse, mean_d)
            np.testing.assert_array_equal(t.centers, centers, strict=True)
            np.testing.assert_array_equal(t.scales, scales, strict=True)
        for t, model in zip(traces, models):
            np.testing.assert_array_equal(t.consequents, model.consequents, strict=True)
        best = models[min(range(6), key=lambda k: records[k][2])]
        for name in ("centers", "scales", "consequents"):
            np.testing.assert_array_equal(getattr(rb, name), getattr(best, name), strict=True)
        assert (rb.mf_kind, rb.order) == (kind, order)

    def test_one_adjacency_pass_per_state_in_mo_anfis(self, monkeypatch):
        # the traced mean D of state k and the pair gradient of epoch k+1 share
        # one sort; X-ANFIS sorts once more, for the stepped state
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        real = xanfis.training.adjacency_pairs
        calls = {"n": 0}

        def counting(centers, scales):
            calls["n"] += 1
            return real(centers, scales)

        monkeypatch.setattr(xanfis.training, "adjacency_pairs", counting)
        for mode, per_epoch in ((Mode.ANFIS, 1), (Mode.MO_ANFIS, 1), (Mode.X_ANFIS, 2)):
            calls["n"] = 0
            train(X_tr, y_tr, X_val, y_val, rb0, TrainConfig(mode=mode, max_epochs=6, patience=7))
            assert calls["n"] == 1 + per_epoch * 6, mode

    def test_one_pair_gradient_per_penalty_pass(self, monkeypatch):
        # both antecedent passes reach the penalty gradient through pair_gradient:
        # MO-ANFIS in its backward step, X-ANFIS in its explainability pass
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        real = xanfis.training.pair_gradient
        calls = {"n": 0}

        def counting(pairs, d_target):
            calls["n"] += 1
            return real(pairs, d_target)

        monkeypatch.setattr(xanfis.training, "pair_gradient", counting)
        for mode, per_epoch in ((Mode.ANFIS, 0), (Mode.MO_ANFIS, 1), (Mode.X_ANFIS, 1)):
            calls["n"] = 0
            train(X_tr, y_tr, X_val, y_val, rb0, TrainConfig(mode=mode, max_epochs=3, patience=4))
            assert calls["n"] == per_epoch * 3, mode


class TestTrainRejectsBadInput:
    # each input below used to reach the epochs: a broadcast, an IndexError,
    # a RuntimeWarning, a non_finite stop or a run on out-of-range centers
    @pytest.mark.parametrize(
        "centers, scales",
        [(np.full((3, 2), 0.5), np.full((3, 1), 0.2)), (np.full(3, 0.5), np.full(3, 0.2))],
    )
    def test_center_scale_shape_mismatch(self, centers, scales):
        with pytest.raises(ValueError, match="center/scale shape mismatch"):
            RuleBase(MFKind.CAUCHY, centers, scales)

    @pytest.mark.parametrize(
        "field, value, shown",
        [
            ("scales", 0.0, "scales must be finite and in [0.001, 1.0]"),
            ("centers", np.nan, "centers must be finite and in [0, 1]"),
            ("centers", 5.0, "centers must be finite and in [0, 1]"),
        ],
    )
    def test_rule_base_values_checked_once(self, monkeypatch, field, value, shown):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        arrays = {"centers": rb0.centers.copy(), "scales": rb0.scales.copy()}
        arrays[field][1, 0] = value
        monkeypatch.setattr(xanfis.inference, "membership_tensor", None)  # no forward runs
        with pytest.raises(ValueError, match=re.escape(shown)):  # where the rule base is built
            rb0 = RuleBase(MFKind.CAUCHY, arrays["centers"], arrays["scales"])
            train(X_tr, y_tr, X_val, y_val, rb0, TrainConfig(max_epochs=3))

    def test_no_rules_rejected(self):
        X_tr, y_tr, X_val, y_val, _ = small_problem()
        with pytest.raises(ValueError, match="a rule base needs at least one rule"):
            rb0 = RuleBase(MFKind.CAUCHY, np.zeros((0, 2)), np.zeros((0, 2)))
            train(X_tr, y_tr, X_val, y_val, rb0, TrainConfig(max_epochs=3))

    @pytest.mark.parametrize("part", ["train", "val"])
    def test_empty_rows_rejected(self, part):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        arrays = {"train": (X_tr[:0], y_tr[:0], X_val, y_val), "val": (X_tr, y_tr, X_val[:0], y_val[:0])}
        with pytest.raises(ValueError, match=f"X_{part} has 0 rows"):
            train(*arrays[part], rb0, TrainConfig(max_epochs=3))

    def test_feature_count_mismatch_named(self):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        with pytest.raises(ValueError, match="X_val has 1 feature columns but the rule base has 2"):
            train(X_tr, y_tr, X_val[:, :1], y_val, rb0, TrainConfig(max_epochs=3))


def trace_bits(traces):
    return [
        (t.epoch, t.train_mse, t.val_mse, t.mean_D,
         t.centers.tobytes(), t.scales.tobytes())
        for t in traces
    ]


class TestUnreadKnobs:
    # changing one mode knob leaves the trace bit-identical exactly when the
    # predicate the CLI warns from says a run does not read that knob
    @pytest.mark.parametrize(
        "knob, values",
        [("d_target", (0.3, 0.7)), ("mo_weight", (1.0, 2.0)), ("lr_xpass", (0.1, 0.2))],
    )
    @pytest.mark.parametrize("switch_on", [False, True])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_trainer_reads_what_the_predicate_says(self, mode, switch_on, knob, values):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        base = TrainConfig(
            mode=mode, mo_weight=1.0 * switch_on, lr_xpass=0.1 * switch_on, max_epochs=3, patience=4
        )
        cfgs = [replace(base, **{knob: value}) for value in values]
        unread = {knob in cfg.unread_knobs() for cfg in cfgs}
        assert len(unread) == 1
        traces = [trace_bits(train(X_tr, y_tr, X_val, y_val, rb0, cfg).traces) for cfg in cfgs]
        assert len(traces[0]) == 4
        assert (traces[0] == traces[1]) == unread.pop()


class TestModeDegeneracy:
    def test_xanfis_with_zero_lr_equals_anfis(self):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem(seed=9)
        base = dict(max_epochs=30, patience=50, lr_backward=0.1)
        rb_a, tr_a, _ = train(X_tr, y_tr, X_val, y_val, rb0, TrainConfig(mode=Mode.ANFIS, **base))
        rb_x, tr_x, _ = train(
            X_tr, y_tr, X_val, y_val, rb0, TrainConfig(mode=Mode.X_ANFIS, lr_xpass=0.0, **base)
        )
        rb_m, tr_m, _ = train(
            X_tr, y_tr, X_val, y_val, rb0, TrainConfig(mode=Mode.MO_ANFIS, mo_weight=0.0, **base)
        )
        for t_a, t_x, t_m in zip(tr_a, tr_x, tr_m):
            assert (t_a.train_mse, t_a.val_mse, t_a.mean_D) == (
                t_x.train_mse, t_x.val_mse, t_x.mean_D
            ) == (t_m.train_mse, t_m.val_mse, t_m.mean_D)
        np.testing.assert_array_equal(rb_a.centers, rb_x.centers)
        np.testing.assert_array_equal(rb_a.scales, rb_x.scales)
        np.testing.assert_array_equal(rb_a.centers, rb_m.centers)
        np.testing.assert_array_equal(rb_a.scales, rb_m.scales)

    def test_determinism_bitwise(self):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem(seed=10)
        cfg = TrainConfig(mode=Mode.X_ANFIS, max_epochs=20, patience=20)
        rb1, tr1, _ = train(X_tr, y_tr, X_val, y_val, rb0, cfg)
        rb2, tr2, _ = train(X_tr, y_tr, X_val, y_val, rb0, cfg)
        np.testing.assert_array_equal(rb1.centers, rb2.centers)
        np.testing.assert_array_equal(rb1.consequents, rb2.consequents)
        assert [(t.train_mse, t.val_mse) for t in tr1] == [
            (t.train_mse, t.val_mse) for t in tr2
        ]

    def test_bounds_hold_every_epoch(self):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem(seed=11)
        cfg = TrainConfig(mode=Mode.X_ANFIS, max_epochs=25, patience=25)
        _, traces, _ = train(X_tr, y_tr, X_val, y_val, rb0, cfg)
        for t in traces:
            assert np.all(t.centers >= 0.0) and np.all(t.centers <= 1.0)
            assert np.all(t.scales >= SCALE_MIN) and np.all(t.scales <= 1.0)


class TestTraceExport:
    def test_trace_csv_round_trip(self, tmp_path):
        snap = np.array([[0.5]])
        traces = [
            EpochTrace(epoch=0, train_mse=0.5, val_mse=0.6, mean_D=0.1,
                       centers=snap, scales=snap),
            EpochTrace(epoch=1, train_mse=0.25, val_mse=0.3, mean_D=0.2,
                       centers=snap, scales=snap),
        ]
        path = tmp_path / "trace.csv"
        traces_to_csv(traces, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_mse,val_mse,mean_D"
        assert lines[1] == "0,0.5,0.6,0.1"
        assert len(lines) == 3

    def test_trajectory_csv_shape(self, tmp_path):
        snap_c = np.array([[0.1, 0.2], [0.3, 0.4]])
        snap_s = np.array([[0.5, 0.6], [0.7, 0.8]])
        traces = [
            EpochTrace(0, 0.1, 0.1, 0.0, centers=snap_c, scales=snap_s)
        ]
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traces, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,rule,feature,center,scale"
        assert lines[1:] == ["0,0,0,0.1,0.5", "0,0,1,0.2,0.6", "0,1,0,0.3,0.7", "0,1,1,0.4,0.8"]

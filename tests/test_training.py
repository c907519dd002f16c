"""Training passes: gradient oracles, adjacency, X-pass, modes, early stop."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xanfis.inference
import xanfis.numerics
from xanfis.inference import Order, RuleBase, firing_strengths, fit_consequents, predict
from xanfis.membership import SCALE_MIN, MFKind
from xanfis.training import (
    D_SING,
    DivergenceError,
    EpochTrace,
    Mode,
    TrainConfig,
    _clipped_step,
    adjacency_pairs,
    backward_pass,
    mean_distinguishability,
    mse_antecedent_gradients,
    train,
    traces_to_csv,
    trajectory_to_csv,
    xpass_gradients,
    xpass_update,
)


def make_problem(rng, n_rules, n_features, kind, n_samples=40, order=Order.ZERO):
    X = rng.uniform(0, 1, size=(n_samples, n_features))
    y = rng.uniform(0, 1, size=n_samples)
    centers = rng.uniform(0.05, 0.95, size=(n_rules, n_features))
    scales = rng.uniform(0.05, 0.8, size=(n_rules, n_features))
    rb = RuleBase(mf_kind=kind, centers=centers, scales=scales, order=order)
    rb, fm, _ = fit_consequents(rb, X, y, 1e-4)
    return X, y, rb, fm


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
    def test_perfect_fit_zero_gradient(self):
        # single rule, constant target: LSE fit is exact
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(20, 2))
        y = np.full(20, 0.4)
        rb = RuleBase(MFKind.CAUCHY, np.array([[0.5, 0.5]]), np.array([[0.3, 0.3]]))
        rb, fm, _ = fit_consequents(rb, X, y, 0.0)
        gc, gs = mse_antecedent_gradients(rb, fm, X, y)
        np.testing.assert_allclose(gc, 0.0, atol=1e-12)
        np.testing.assert_allclose(gs, 0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", [MFKind.GAUSSIAN, MFKind.CAUCHY])
    @pytest.mark.parametrize("order", [Order.ZERO, Order.FIRST])
    def test_matches_finite_differences(self, kind, order):
        rng = np.random.default_rng(42)
        for _ in range(10):
            X, y, rb, fm = make_problem(rng, 3, 2, kind, order=order)
            gc, gs = mse_antecedent_gradients(rb, fm, X, y)
            fd_c, fd_s = fd_mse_gradients(rb, X, y)
            assert rel_err(gc, fd_c) < 1e-4
            assert rel_err(gs, fd_s) < 1e-4

    def test_backward_step_arithmetic_with_clipping(self):
        # a +10 raw gradient entry is clipped to +1, so the parameter
        # moves down by exactly lr * 1
        cfg = TrainConfig(mode=Mode.ANFIS, lr_backward=0.1)
        centers = np.array([[0.5]])
        grad = np.array([[10.0]])
        stepped = _clipped_step(centers, grad, cfg.lr_backward, cfg)
        assert stepped[0, 0] == pytest.approx(0.5 - 0.1 * 1.0, abs=0)

    def test_backward_pass_projects_bounds(self):
        rng = np.random.default_rng(7)
        X, y, rb, fm = make_problem(rng, 4, 2, MFKind.CAUCHY)
        cfg = TrainConfig(mode=Mode.ANFIS, lr_backward=5.0, clip_lo=-10, clip_hi=10)
        out = backward_pass(rb, fm, X, y, cfg)
        assert np.all(out.centers >= 0.0) and np.all(out.centers <= 1.0)
        assert np.all(out.scales >= SCALE_MIN) and np.all(out.scales <= 1.0)


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
        rb, fm, _ = fit_consequents(rb, X, y, 1e-4)
        live = fm.live
        assert live.sum() == 12 and np.all(fm.raw[~live] == 0.0)
        gc, gs = mse_antecedent_gradients(rb, fm, X, y)
        assert np.all(np.isfinite(gc)) and np.all(np.isfinite(gs))
        assert np.all(gc != 0.0) and np.all(gs != 0.0)
        gc_live, gs_live = mse_antecedent_gradients(
            rb, firing_strengths(X[live], rb), X[live], y[live]
        )
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
        cfg = TrainConfig(mode=mode, lr_backward=lr, lr_xpass=lr, clip_lo=-10.0, clip_hi=10.0)

        def assert_in_bounds(state):
            assert np.all((state.centers >= 0.0) & (state.centers <= 1.0))
            assert np.all((state.scales >= SCALE_MIN) & (state.scales <= 1.0))

        for _ in range(3):
            rb, fm, _ = fit_consequents(rb, X, y, 1e-4)
            rb = backward_pass(rb, fm, X, y, cfg)
            assert_in_bounds(rb)
            rb = xpass_update(rb, cfg)
            assert_in_bounds(rb)


def clip_via_step(grad):
    """The clipped gradient that one unit-rate step from zero applies."""
    grad = np.asarray(grad, dtype=np.float64)
    return -_clipped_step(np.zeros_like(grad), grad, 1.0, TrainConfig())


class TestClippedStep:
    def test_basic(self):
        np.testing.assert_array_equal(clip_via_step([-2.0, 0.5, 3.0]), [-1.0, 0.5, 1.0])

    def test_identity_inside_bounds(self):
        v = np.array([-0.9, 0.0, 0.99])
        np.testing.assert_array_equal(clip_via_step(v), v)

    def test_boundary_fixed_points(self):
        np.testing.assert_array_equal(clip_via_step([-1.0, 1.0]), [-1.0, 1.0])


class TestTrainConfig:
    def test_clip_bounds_out_of_order(self):
        for lo, hi in ((1.0, -1.0), (0.5, 0.5)):
            with pytest.raises(ValueError, match="clip_lo"):
                TrainConfig(clip_lo=lo, clip_hi=hi).validate()


class TestAdjacency:
    def test_single_feature_sorting(self):
        # pairs (1, 2) and (2, 0)
        order = adjacency_pairs(np.array([[0.7], [0.1], [0.4]]))
        np.testing.assert_array_equal(order, [[1, 2, 0]])

    def test_pair_count(self):
        # one row of R = 2 rules per feature: one pair per feature
        order = adjacency_pairs(np.zeros((2, 3)))
        assert order.shape == (3, 2)

    def test_tie_break_by_rule_index(self):
        order = adjacency_pairs(np.array([[0.5], [0.5], [0.2]]))
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
        mean_d, per_feature = mean_distinguishability(rb)
        ref_mean, ref_per_feature = loop_distinguishability(centers, scales)
        assert mean_d == ref_mean
        assert per_feature == ref_per_feature
        np.testing.assert_array_equal(
            xpass_gradients(centers, scales, d_target),
            loop_xpass_gradients(centers, scales, d_target),
        )


def two_rule_distinguishability(centers, scales):
    rb = RuleBase(MFKind.CAUCHY, np.array(centers), np.array(scales))
    mean_d, per_feature = mean_distinguishability(rb)
    assert per_feature == [mean_d]
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
        grad = xpass_gradients(centers, scales, d_target=0.5)
        np.testing.assert_array_equal(grad, 0.0)
        rb = RuleBase(MFKind.CAUCHY, centers, scales)
        out = xpass_update(rb, TrainConfig(mode=Mode.X_ANFIS, d_target=0.5))
        np.testing.assert_array_equal(out.centers, centers)

    def test_worked_pair(self):
        # pair at D=0.2 with target 0.5: gradients +-0.3, one step with
        # lr 0.1 moves the centers to 0.37 and 0.63
        centers = np.array([[0.4], [0.6]])
        scales = np.array([[0.1], [0.1]])
        grad = xpass_gradients(centers, scales, d_target=0.5)
        assert grad[0, 0] == pytest.approx(0.3, abs=1e-14)
        assert grad[1, 0] == pytest.approx(-0.3, abs=1e-14)
        rb = RuleBase(MFKind.CAUCHY, centers, scales)
        out = xpass_update(rb, TrainConfig(mode=Mode.X_ANFIS, lr_xpass=0.1, d_target=0.5))
        assert out.centers[0, 0] == pytest.approx(0.37, abs=1e-14)
        assert out.centers[1, 0] == pytest.approx(0.63, abs=1e-14)

    def test_scales_never_updated(self):
        rng = np.random.default_rng(3)
        centers = rng.uniform(0, 1, size=(5, 2))
        scales = rng.uniform(0.05, 0.5, size=(5, 2))
        rb = RuleBase(MFKind.CAUCHY, centers, scales)
        out = xpass_update(rb, TrainConfig(mode=Mode.X_ANFIS))
        np.testing.assert_array_equal(out.scales, scales)

    def test_direction_for_isolated_pair(self):
        for d0, expect_wider in ((0.2, True), (0.8, False)):
            centers = np.array([[0.5 - d0 / 2], [0.5 + d0 / 2]])
            scales = np.full((2, 1), 0.2)
            rb = RuleBase(MFKind.CAUCHY, centers, scales)
            out = xpass_update(rb, TrainConfig(mode=Mode.X_ANFIS, d_target=0.5))
            gap = out.centers[1, 0] - out.centers[0, 0]
            assert (gap > d0) == expect_wider

    def test_coincident_pair_skipped(self):
        centers = np.array([[0.5], [0.5]])
        scales = np.array([[0.2], [0.2]])
        grad = xpass_gradients(centers, scales, d_target=0.5)
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
            order = adjacency_pairs(centers)

            def loss(c):
                total = 0.0
                for k, row in enumerate(order):
                    for lo, hi in zip(row[:-1], row[1:]):
                        d = math.hypot(c[lo, k] - c[hi, k], scales[lo, k] - scales[hi, k])
                        total += 0.5 * (d - d_target) ** 2
                return total

            grad = xpass_gradients(centers, scales, d_target)
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
    def test_weight_zero_equals_backward(self):
        rng = np.random.default_rng(21)
        X, y, rb, fm = make_problem(rng, 4, 2, MFKind.CAUCHY)
        out_mo = backward_pass(rb, fm, X, y, TrainConfig(mode=Mode.MO_ANFIS, mo_weight=0.0))
        out_bw = backward_pass(rb, fm, X, y, TrainConfig(mode=Mode.ANFIS))
        np.testing.assert_array_equal(out_mo.centers, out_bw.centers)
        np.testing.assert_array_equal(out_mo.scales, out_bw.scales)

    def test_no_update_at_joint_optimum(self):
        # perfect fit and every adjacent pair exactly at target; at unit
        # rate inside the clip range the step is the gradient itself
        X = np.array([[0.1], [0.5], [0.9]])
        y = np.full(3, 0.25)
        rb = RuleBase(MFKind.CAUCHY, np.array([[0.25], [0.75]]), np.array([[0.2], [0.2]]))
        rb, fm, _ = fit_consequents(rb, X, y, 0.0)
        cfg = TrainConfig(mode=Mode.MO_ANFIS, mo_weight=1.0, d_target=0.5, lr_backward=1.0)
        out = backward_pass(rb, fm, X, y, cfg)
        np.testing.assert_allclose(rb.centers - out.centers, 0.0, atol=1e-12)
        np.testing.assert_allclose(rb.scales - out.scales, 0.0, atol=1e-12)

    def test_gradient_additivity(self):
        # centers step on MSE + weight * pair penalty, scales on MSE alone;
        # a small rate inside a wide clip range leaves clipping and
        # projection inactive, so the step is exactly -lr * gradient
        rng = np.random.default_rng(22)
        for _ in range(10):
            X, y, rb, fm = make_problem(rng, 4, 3, MFKind.CAUCHY)
            cfg = TrainConfig(
                mode=Mode.MO_ANFIS, mo_weight=1.0, lr_backward=1e-3, clip_lo=-1e6, clip_hi=1e6
            )
            out = backward_pass(rb, fm, X, y, cfg)
            gc_mse, gs_mse = mse_antecedent_gradients(rb, fm, X, y)
            gx = xpass_gradients(rb.centers, rb.scales, cfg.d_target)
            np.testing.assert_array_equal(out.centers, rb.centers - 1e-3 * (gc_mse + 1.0 * gx))
            np.testing.assert_array_equal(out.scales, rb.scales - 1e-3 * gs_mse)


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
        rb, traces = train(X_tr, y_tr, X_val, y_val, rb0, cfg)
        assert len(traces) == 1 and traces[0].epoch == 0
        assert rb.consequents is not None
        np.testing.assert_array_equal(rb.centers, rb0.centers)

    def test_constant_validation_stops_after_patience(self, monkeypatch):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        import xanfis.training as tr

        monkeypatch.setattr(tr, "_mse", lambda yhat, y: 0.5)
        cfg = TrainConfig(mode=Mode.ANFIS, max_epochs=100, patience=7)
        _, traces = tr.train(X_tr, y_tr, X_val, y_val, rb0, cfg)
        assert traces[-1].epoch == 7

    def test_strict_improvement_runs_full_budget(self, monkeypatch):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        import xanfis.training as tr

        counter = {"n": 0}

        def fake_mse(yhat, y):
            counter["n"] += 1
            return 1.0 / counter["n"]

        monkeypatch.setattr(tr, "_mse", fake_mse)
        cfg = TrainConfig(mode=Mode.ANFIS, max_epochs=12, patience=3)
        _, traces = tr.train(X_tr, y_tr, X_val, y_val, rb0, cfg)
        assert traces[-1].epoch == 12

    def test_best_validation_snapshot_returned(self):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem(seed=5)
        cfg = TrainConfig(mode=Mode.ANFIS, max_epochs=30, patience=30)
        rb, traces = train(X_tr, y_tr, X_val, y_val, rb0, cfg)
        best = min(traces, key=lambda t: t.val_mse)
        err = predict(rb, X_val) - y_val
        assert float(np.mean(err * err)) == pytest.approx(best.val_mse, abs=1e-15)

    def test_epochs_strictly_increasing_and_traces_complete(self):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem(seed=6)
        cfg = TrainConfig(mode=Mode.X_ANFIS, max_epochs=15, patience=15)
        _, traces = train(X_tr, y_tr, X_val, y_val, rb0, cfg)
        epochs = [t.epoch for t in traces]
        assert epochs == list(range(len(traces)))
        assert all(t.centers_snapshot is not None for t in traces)

    def test_one_train_forward_per_epoch(self, monkeypatch):
        # per epoch: the refit's training forward and the validation predict
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        real = xanfis.inference.membership_tensor
        calls = {"n": 0}

        def counting(X, rb):
            calls["n"] += 1
            return real(X, rb)

        monkeypatch.setattr(xanfis.inference, "membership_tensor", counting)
        for mode in Mode:
            calls["n"] = 0
            cfg = TrainConfig(mode=mode, max_epochs=6, patience=6)
            _, traces = train(X_tr, y_tr, X_val, y_val, rb0, cfg)
            assert len(traces) == 7
            assert calls["n"] == 2 * 6 + 2

    @pytest.mark.parametrize("order", list(Order))
    def test_four_validation_scans_per_epoch(self, monkeypatch, order):
        # per epoch: X in fit_consequents, phi and y in ridge_solve, X_val in
        # predict; the kernels below the entry points re-check nothing
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        rb0 = RuleBase(rb0.mf_kind, rb0.centers, rb0.scales, order=order)
        calls = {"n": 0}

        def counting(real):
            def wrapped(*args, **kwargs):
                calls["n"] += 1
                return real(*args, **kwargs)

            return wrapped

        for real in (xanfis.numerics.as_matrix, xanfis.numerics.as_vector):
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] != "xanfis":
                    continue
                for attr, obj in list(vars(mod).items()):
                    if obj is real:
                        monkeypatch.setattr(mod, attr, counting(real))

        def scans(mode, epochs):
            calls["n"] = 0
            cfg = TrainConfig(mode=mode, max_epochs=epochs, patience=epochs + 1)
            _, traces = train(X_tr, y_tr, X_val, y_val, rb0, cfg)
            assert len(traces) == epochs + 1
            return calls["n"]

        for mode in Mode:
            assert scans(mode, 6) - scans(mode, 0) == 4 * 6

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
        with pytest.raises(DivergenceError, match="singular LSE refit at epoch 0") as exc_info:
            train(0.9 * X_tr, y_tr, X_val, y_val, rb0, cfg)
        assert exc_info.value.last_rb is rb0
        assert exc_info.value.traces == []

    def test_divergence_error_names_epoch(self, monkeypatch):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem()
        import xanfis.training as tr

        calls = {"n": 0}
        real = tr._mse

        def poisoned(yhat, y):
            calls["n"] += 1
            if calls["n"] >= 5:
                return float("nan")
            return real(yhat, y)

        monkeypatch.setattr(tr, "_mse", poisoned)
        with pytest.raises(DivergenceError, match="epoch 2") as exc_info:
            tr.train(X_tr, y_tr, X_val, y_val, rb0, TrainConfig(mode=Mode.ANFIS, max_epochs=10))
        assert exc_info.value.epoch == 2
        assert exc_info.value.last_rb is not None
        assert len(exc_info.value.traces) == 2  # epochs 0 and 1 recorded


class TestModeDegeneracy:
    def test_xanfis_with_zero_lr_equals_anfis(self):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem(seed=9)
        base = dict(max_epochs=30, patience=50, lr_backward=0.1)
        rb_a, tr_a = train(X_tr, y_tr, X_val, y_val, rb0, TrainConfig(mode=Mode.ANFIS, **base))
        rb_x, tr_x = train(
            X_tr, y_tr, X_val, y_val, rb0, TrainConfig(mode=Mode.X_ANFIS, lr_xpass=0.0, **base)
        )
        rb_m, tr_m = train(
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
        rb1, tr1 = train(X_tr, y_tr, X_val, y_val, rb0, cfg)
        rb2, tr2 = train(X_tr, y_tr, X_val, y_val, rb0, cfg)
        np.testing.assert_array_equal(rb1.centers, rb2.centers)
        np.testing.assert_array_equal(rb1.consequents, rb2.consequents)
        assert [(t.train_mse, t.val_mse) for t in tr1] == [
            (t.train_mse, t.val_mse) for t in tr2
        ]

    def test_bounds_hold_every_epoch(self):
        X_tr, y_tr, X_val, y_val, rb0 = small_problem(seed=11)
        cfg = TrainConfig(mode=Mode.X_ANFIS, max_epochs=25, patience=25)
        _, traces = train(X_tr, y_tr, X_val, y_val, rb0, cfg)
        for t in traces:
            assert np.all(t.centers_snapshot >= 0.0) and np.all(t.centers_snapshot <= 1.0)
            assert np.all(t.scales_snapshot >= SCALE_MIN) and np.all(t.scales_snapshot <= 1.0)


class TestTraceExport:
    def test_trace_csv_round_trip(self, tmp_path):
        traces = [
            EpochTrace(epoch=0, train_mse=0.5, val_mse=0.6, mean_D=0.1),
            EpochTrace(epoch=1, train_mse=0.25, val_mse=0.3, mean_D=0.2),
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
            EpochTrace(0, 0.1, 0.1, 0.0, centers_snapshot=snap_c, scales_snapshot=snap_s)
        ]
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traces, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,rule,feature,center,scale"
        assert len(lines) == 1 + 4  # 2 rules x 2 features

    def test_trajectory_requires_snapshots(self, tmp_path):
        with pytest.raises(ValueError):
            trajectory_to_csv([EpochTrace(0, 0.1, 0.1, 0.0)], tmp_path / "x.csv")

"""Regression metrics, distinguishability, Pareto front."""

from collections import namedtuple

import numpy as np
import pytest

from xanfis.inference import RuleBase
from xanfis.membership import MFKind
from xanfis.metrics import (
    evaluate_model,
    mean_distinguishability,
    pareto_front,
    regression_metrics,
)
from xanfis.training import Mode, TrainConfig, adjacency_pairs, train


class TestRegressionMetrics:
    def test_perfect_fit(self):
        y = np.array([0.1, 0.5, 0.9])
        assert regression_metrics(y, y) == (0.0, 0.0, 0.0, 1.0)

    def test_mean_predictor_r2_zero(self):
        y = np.array([0.0, 1.0, 2.0, 3.0])
        yhat = np.full(4, y.mean())
        *_, r2 = regression_metrics(y, yhat)
        assert r2 == pytest.approx(0.0)

    def test_hand_arithmetic(self):
        mse, rmse, mae, r2 = regression_metrics([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
        assert mse == pytest.approx(1 / 3)
        assert rmse == pytest.approx(0.5773502691896258)
        assert mae == pytest.approx(1 / 3)
        assert r2 == pytest.approx(0.5)

    def test_constant_target_rejected(self):
        with pytest.raises(ValueError):
            regression_metrics([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            regression_metrics([1.0, 2.0], [1.0])

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="need at least 2 samples"):
            regression_metrics([1.0], [1.0])

    def test_rmse_is_sqrt_mse(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=50)
        yhat = rng.normal(size=50)
        mse, rmse, *_ = regression_metrics(y, yhat)
        assert rmse == pytest.approx(np.sqrt(mse), abs=1e-15)


def rulebase(centers, scales):
    centers = np.asarray(centers, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)
    return RuleBase(MFKind.CAUCHY, centers, scales)


def per_feature_means(rb):
    """Mean D of each feature's adjacent pairs."""
    return adjacency_pairs(rb.centers, rb.scales)[2].mean(axis=1)


class TestMeanDistinguishability:
    def test_identical_sets_zero(self):
        rb = rulebase(np.full((3, 2), 0.5), np.full((3, 2), 0.2))
        assert mean_distinguishability(rb) == 0.0
        assert per_feature_means(rb).tolist() == [0.0, 0.0]

    def test_evenly_spaced_single_feature(self):
        rb = rulebase([[0.0], [0.5], [1.0]], [[0.2], [0.2], [0.2]])
        assert mean_distinguishability(rb) == pytest.approx(0.5)
        assert per_feature_means(rb)[0] == pytest.approx(0.5)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            r, f = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            centers = rng.uniform(0, 1, size=(r, f))
            scales = rng.uniform(0.01, 0.9, size=(r, f))
            rb = rulebase(centers, scales)
            mean_d, per_feature = mean_distinguishability(rb), per_feature_means(rb)
            # oracle: sort each feature's sets, enumerate neighbours
            dists = []
            for k in range(f):
                order = np.argsort(centers[:, k], kind="stable")
                feat = []
                for a, b in zip(order[:-1], order[1:]):
                    feat.append(
                        np.hypot(
                            centers[a, k] - centers[b, k], scales[a, k] - scales[b, k]
                        )
                    )
                dists.extend(feat)
                assert per_feature[k] == pytest.approx(np.mean(feat), abs=1e-12)
            assert mean_d == pytest.approx(np.mean(dists), abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(14)
        centers = rng.uniform(0, 1, size=(5, 3))
        scales = rng.uniform(0.05, 0.5, size=(5, 3))
        perm = rng.permutation(5)
        a = mean_distinguishability(rulebase(centers, scales))
        b = mean_distinguishability(rulebase(centers[perm], scales[perm]))
        assert a == pytest.approx(b, abs=1e-12)

    def test_single_rule_is_zero(self):
        # one rule has no adjacent pairs; its mean D is 0.0, the value train traces
        assert mean_distinguishability(rulebase([[0.5, 0.3]], [[0.2, 0.4]])) == 0.0

    @pytest.mark.parametrize("mode", list(Mode))
    def test_single_rule_model_reports_the_trace_mean_d(self, mode):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(60, 2))
        y = X.sum(axis=1)
        rb0 = rulebase([[0.5, 0.3]], [[0.2, 0.4]])
        rb, traces, _ = train(X[:40], y[:40], X[40:50], y[40:50], rb0,
                              TrainConfig(mode=mode, max_epochs=3))
        assert len(traces) == 4
        assert evaluate_model(rb, X[50:], y[50:]).mean_D == traces[-1].mean_D == 0.0


#: a sweep point as pareto_front ranks it: a run id and its (r2, mean_D) key
Point = namedtuple("Point", "run_id r2 mean_D")


def sweep_front(points):
    return pareto_front(points, key=lambda p: (p.r2, p.mean_D))


def brute_force_front(points):
    """O(n^2) domination filter."""
    front = []
    for p in points:
        dominated = False
        for q in points:
            if (
                q.r2 >= p.r2
                and q.mean_D >= p.mean_D
                and (q.r2 > p.r2 or q.mean_D > p.mean_D)
            ):
                dominated = True
                break
        if not dominated:
            front.append(p)
    return front


class TestParetoFront:
    def test_worked_example(self):
        pts = [
            Point("a", 1.0, 1.0),
            Point("b", 2.0, 0.5),
            Point("c", 0.5, 2.0),
            Point("d", 0.9, 0.9),
        ]
        front = sweep_front(pts)
        assert [p.run_id for p in front] == ["b", "a", "c"]

    def test_single_point(self):
        pts = [Point("only", 0.3, 0.3)]
        assert sweep_front(pts) == pts

    def test_duplicates_kept(self):
        pts = [Point("a", 1.0, 1.0), Point("b", 1.0, 1.0)]
        front = sweep_front(pts)
        assert {p.run_id for p in front} == {"a", "b"}

    def test_matches_brute_force_on_random_points(self):
        rng = np.random.default_rng(17)
        pts = [
            Point(f"p{i}", float(rng.uniform(-1, 1)), float(rng.uniform(0, 1)))
            for i in range(200)
        ]
        # inject exact ties
        pts[50] = Point("p50", pts[10].r2, pts[10].mean_D)
        pts[60] = Point("p60", pts[10].r2, 0.0)
        # tie-heavy: shared r2 with a different mean_D, shared mean_D with a different r2
        grid = [0.1, 0.2, 0.3, 0.5]
        ties = [
            Point(f"t{i}", float(rng.choice(grid)), float(rng.choice(grid)))
            for i in range(40)
        ]
        for case in (pts, ties):
            fast = {p.run_id for p in sweep_front(case)}
            slow = {p.run_id for p in brute_force_front(case)}
            assert fast == slow

    def test_output_sorted_by_r2_descending(self):
        rng = np.random.default_rng(18)
        pts = [
            Point(f"p{i}", float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            for i in range(100)
        ]
        front = sweep_front(pts)
        r2s = [p.r2 for p in front]
        assert r2s == sorted(r2s, reverse=True)

    def test_no_dominated_pair_in_output(self):
        rng = np.random.default_rng(19)
        pts = [
            Point(f"p{i}", float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            for i in range(150)
        ]
        front = sweep_front(pts)
        for p in front:
            for q in front:
                dominates = (
                    q.r2 >= p.r2
                    and q.mean_D >= p.mean_D
                    and (q.r2 > p.r2 or q.mean_D > p.mean_D)
                )
                assert not dominates

    def test_nan_r2_rejected_by_run_id(self):
        pts = [Point("ok", 0.5, 0.1), Point("no-model", float("nan"), 0.2)]
        with pytest.raises(ValueError, match="no-model"):
            sweep_front(pts)

    def test_non_finite_mean_d_rejected_by_run_id(self):
        # a NaN mean_D compares false against every bound, so unchecked it
        # would silently drop the point instead of rejecting it
        for bad_d in (float("nan"), float("inf")):
            pts = [Point("a", 0.6, bad_d), Point("b", 0.5, 0.1)]
            with pytest.raises(ValueError, match="point\\(s\\): a$"):
                sweep_front(pts)

"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.

Criteria 3 and 4 use the Combined Cycle Power Plant CSV when the
XANFIS_CCPP_CSV environment variable points at it (header columns
AT,V,AP,RH,PE); otherwise they fall back to the built-in sinc2d
generator as specified.  Two clauses, 3b and 4a, fail at desk scale on
the 2-feature fallback and are left failing; whether 3b holds on the CSV
is not measured here.  See the notes in the assertions and README
"Desk-scale limits".
"""

import math
import os
import time
from collections import namedtuple

import numpy as np
import pytest

from xanfis.cli import main
from xanfis.data import DatasetManifest, load_csv, split_scale, synth_regression
from xanfis.fcm_init import FCMConfig, fcm_fit
from xanfis.inference import (
    EPS_DENOM,
    RuleBase,
    Rows,
    design_matrix,
    forward,
    membership_tensor,
    mse_antecedent_gradients,
    predict,
)
from xanfis.membership import SCALE_MIN, MFKind, product_firing, project_bounds_arrays
from xanfis.metrics import mean_distinguishability, pareto_front, regression_metrics
from xanfis.training import (
    Mode,
    TrainConfig,
    _clipped_step,
    adjacency_pairs,
    pair_gradient,
    train,
)

from oracles import lse_fit


SCALES = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def acceptance_dataset(seed):
    path = os.environ.get("XANFIS_CCPP_CSV")
    if path:
        manifest = DatasetManifest(
            csv_path=path,
            target_column="PE",
            feature_columns=["AT", "V", "AP", "RH"],
        )
        return load_csv(manifest)
    return synth_regression("sinc2d", 2000, 0.05, seed=seed)


def run_one(mode, mf, rules, seed, init_scale=None, max_epochs=500, patience=20):
    X, y = acceptance_dataset(seed)
    split = split_scale(X, y, seed=seed)
    fcm = fcm_fit(split.X_train, FCMConfig(n_clusters=rules, seed=seed))
    if init_scale is None:
        scales = fcm.scales
    else:
        scales = np.full(fcm.centers.shape, init_scale)
    rb0 = RuleBase(mf_kind=mf, centers=fcm.centers, scales=scales)
    cfg = TrainConfig(mode=mode, max_epochs=max_epochs, patience=patience)
    rb, traces, _ = train(split.X_train, split.y_train, split.X_val, split.y_val, rb0, cfg)
    _, _, _, r2 = regression_metrics(split.y_test, predict(rb, split.X_test))
    mean_d = mean_distinguishability(rb)
    return {
        "mode": mode, "mf": mf, "rules": rules, "seed": seed,
        "r2": r2, "mean_D": mean_d, "rb": rb, "traces": traces, "split": split,
    }


@pytest.fixture(scope="module")
def init_study_runs():
    runs = {}
    for mf in (MFKind.GAUSSIAN, MFKind.CAUCHY):
        for scale in SCALES:
            runs[(mf, scale)] = run_one(Mode.ANFIS, mf, rules=10, seed=0, init_scale=scale)
    return runs


@pytest.fixture(scope="module")
def tradeoff_runs():
    runs = {"anfis": [], "x_anfis": []}
    for seed in range(5):
        runs["anfis"].append(run_one(Mode.ANFIS, MFKind.CAUCHY, rules=5, seed=seed))
        runs["x_anfis"].append(run_one(Mode.X_ANFIS, MFKind.CAUCHY, rules=5, seed=seed))
    return runs


class TestCCPPBranch:
    """acceptance_dataset's CCPP branch, on a CSV of that schema made from friedman rows."""

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"], ids=["plain", "bom"])
    def test_reads_four_features(self, tmp_path, monkeypatch, encoding):
        X, y = synth_regression("friedman", 50, 0.05, seed=0)
        rows = np.column_stack([X[:, :4], y])
        path = tmp_path / "ccpp.csv"
        lines = ["AT,V,AP,RH,PE", *(",".join(map(repr, row)) for row in rows.tolist())]
        path.write_text("\n".join(lines) + "\n", encoding=encoding)
        monkeypatch.setenv("XANFIS_CCPP_CSV", str(path))
        X4, y4 = acceptance_dataset(seed=0)
        assert X4.shape == (50, 4)
        np.testing.assert_array_equal(np.column_stack([X4, y4]), rows)


class TestCriterion1GradientCorrectness:
    def test_analytic_gradients_match_finite_differences(self):
        started = time.time()
        rng = np.random.default_rng(2024)
        h = 1e-6
        worst_mse = 0.0
        worst_xpass = 0.0
        for _ in range(200):
            kind = (MFKind.GAUSSIAN, MFKind.CAUCHY)[int(rng.integers(2))]
            r = (2, 5)[int(rng.integers(2))]
            f = (1, 3)[int(rng.integers(2))]
            n = 25
            X = rng.uniform(0, 1, size=(n, f))
            y = rng.uniform(0, 1, size=n)
            centers = rng.uniform(0.05, 0.95, size=(r, f))
            scales = rng.uniform(0.05, 0.8, size=(r, f))
            rb, fm, yhat = lse_fit(RuleBase(kind, centers, scales), X, y, 1e-4)

            gc, gs = mse_antecedent_gradients(fm, y, yhat, rb.scales, rb.consequents)
            fd_c = np.zeros_like(gc)
            fd_s = np.zeros_like(gs)

            def frozen_mse(c, s):
                probe = RuleBase(kind, c, s, rb.consequents, rb.order)
                err = predict(probe, X) - y
                return float(np.mean(err * err))

            for j in range(r):
                for k in range(f):
                    cp, cm = centers.copy(), centers.copy()
                    cp[j, k] += h
                    cm[j, k] -= h
                    fd_c[j, k] = (frozen_mse(cp, scales) - frozen_mse(cm, scales)) / (2 * h)
                    sp, sm = scales.copy(), scales.copy()
                    sp[j, k] += h
                    sm[j, k] -= h
                    fd_s[j, k] = (frozen_mse(centers, sp) - frozen_mse(centers, sm)) / (2 * h)
            denom = max(np.max(np.abs(fd_c)), np.max(np.abs(fd_s)), 1e-10)
            err = max(np.max(np.abs(gc - fd_c)), np.max(np.abs(gs - fd_s))) / denom
            worst_mse = max(worst_mse, err)

            # pairs frozen at the unperturbed centers: consecutive entries
            # of each feature's row of the (F, R) rule order
            order, _, _ = adjacency_pairs(centers, scales)
            gx = pair_gradient(adjacency_pairs(centers, scales), 0.5)

            def xpass_loss(c):
                total = 0.0
                for k, row in enumerate(order):
                    for lo, hi in zip(row[:-1], row[1:]):
                        d = math.hypot(c[lo, k] - c[hi, k], scales[lo, k] - scales[hi, k])
                        total += 0.5 * (d - 0.5) ** 2
                return total

            fd_x = np.zeros_like(gx)
            for j in range(r):
                for k in range(f):
                    cp, cm = centers.copy(), centers.copy()
                    cp[j, k] += h
                    cm[j, k] -= h
                    fd_x[j, k] = (xpass_loss(cp) - xpass_loss(cm)) / (2 * h)
            denom_x = max(np.max(np.abs(fd_x)), 1e-10)
            worst_xpass = max(worst_xpass, np.max(np.abs(gx - fd_x)) / denom_x)

        elapsed = time.time() - started
        report(
            1,
            worst_mse < 1e-4 and worst_xpass < 1e-4 and elapsed < 60,
            f"200 configs, worst rel err mse={worst_mse:.2e} xpass={worst_xpass:.2e}, "
            f"{elapsed:.1f}s",
        )


class TestCriterion2LSEOptimality:
    def test_normal_equation_residual_every_epoch(self):
        X, y = acceptance_dataset(seed=0)
        split = split_scale(X, y, seed=0)
        fcm = fcm_fit(split.X_train, FCMConfig(n_clusters=5, seed=0))
        rb0 = RuleBase(MFKind.CAUCHY, fcm.centers, fcm.scales)
        cfg = TrainConfig(mode=Mode.X_ANFIS, lam=1e-4, max_epochs=49, patience=50)
        traces = train(split.X_train, split.y_train, split.X_val, split.y_val, rb0, cfg).traces
        worst = 0.0
        for t in traces:  # each epoch's state, refit as train refits it
            rb = RuleBase(rb0.mf_kind, t.centers, t.scales)
            rb, fm, _ = lse_fit(rb, split.X_train, split.y_train, cfg.lam)
            phi = design_matrix(fm).T  # (N, columns)
            resid = phi.T @ (phi @ rb.consequents - split.y_train) + cfg.lam * rb.consequents
            bound = 1e-8 * (1.0 + np.max(np.abs(phi.T @ split.y_train)))
            worst = max(worst, np.max(np.abs(resid)) / bound)
        # a run that stops early (singular refit, non-finite loss) checks fewer states and fails
        report(
            2,
            worst < 1.0 and len(traces) == cfg.max_epochs + 1,
            f"{len(traces)} epochs, worst residual at {worst:.2e} of the bound",
        )


class TestCriterion3InitializationStability:
    def test_cauchy_r2_spread(self, init_study_runs):
        r2s = [init_study_runs[(MFKind.CAUCHY, s)]["r2"] for s in SCALES]
        spread = max(r2s) - min(r2s)
        report(
            "3a",
            spread < 0.05,
            f"Cauchy R2 spread over scales {SCALES} is {spread:.4f} "
            f"(values {[round(v, 4) for v in r2s]})",
        )

    def test_gaussian_collapse_at_small_scales(self, init_study_runs):
        ref = init_study_runs[(MFKind.GAUSSIAN, 0.25)]["r2"]
        drops = {
            s: ref - init_study_runs[(MFKind.GAUSSIAN, s)]["r2"] for s in (0.0625, 0.03125)
        }
        ok = all(d > 0.3 for d in drops.values())
        report(
            "3b",
            ok,
            f"Gaussian R2 drop vs scale 0.25: {drops} (gate: > 0.3; sinc2d has "
            "0% dead rows at epoch 0 at both scales; friedman, with 5 features "
            "and 86.6% dead rows at 0.0625, still drops by only 0.10 there; the "
            "CCPP outcome is not measured here — see README \"Desk-scale limits\")",
        )


class TestCauchyStabilityOnFriedman:
    """The Gaussian collapse that 3b's 2-feature fallback does not show, on the built-in 5-feature set.

    Not a criterion: 3b keeps its gate and fixture.  At scale 0.03125 the
    Gaussian run ends with one rule holding the whole firing mass and a
    constant model; the Cauchy run from the same centers trains.
    """

    def test_gaussian_collapses_where_cauchy_trains(self):
        split = split_scale(*synth_regression("friedman", 2000, 0.05, seed=0), seed=0)
        centers = fcm_fit(split.X_train, FCMConfig(n_clusters=10, seed=0)).centers
        cfg = TrainConfig(max_epochs=60)
        r2, share = {}, {}
        for mf in MFKind:
            rb0 = RuleBase(mf, centers, np.full(centers.shape, 0.03125))
            rb = train(split.X_train, split.y_train, split.X_val, split.y_val, rb0, cfg).rb
            r2[mf] = regression_metrics(split.y_test, predict(rb, split.X_test))[3]
            normalized = lse_fit(rb, split.X_train, split.y_train, cfg.lam)[1].normalized
            share[mf] = float(np.max(normalized.sum(axis=1))) / normalized.shape[1]
        detail = f"r2 {r2}, top-rule share {share}"
        assert r2[MFKind.GAUSSIAN] < 0.1 and share[MFKind.GAUSSIAN] > 0.99, detail
        assert r2[MFKind.CAUCHY] > 0.5, detail


class TestCriterion4TradeOff:
    def test_xanfis_distinguishability(self, tradeoff_runs):
        x_d = float(np.mean([r["mean_D"] for r in tradeoff_runs["x_anfis"]]))
        report(
            "4a",
            x_d >= 0.40,
            f"X-ANFIS mean D = {x_d:.3f} (gate >= 0.40; with 5 rules, bounded "
            "centers and scales frozen in the explainability pass, the "
            "adjacent-gap mean cannot exceed 1/(R-1)=0.25 plus small scale "
            "offsets — see README)",
        )

    def test_xanfis_accuracy_near_anfis(self, tradeoff_runs):
        x_r2 = float(np.mean([r["r2"] for r in tradeoff_runs["x_anfis"]]))
        a_r2 = float(np.mean([r["r2"] for r in tradeoff_runs["anfis"]]))
        gap = abs(x_r2 - a_r2)
        report(
            "4b", gap <= 0.08,
            f"mean R2: X-ANFIS {x_r2:.3f} vs ANFIS {a_r2:.3f}, gap {gap:.3f} <= 0.08",
        )

    def test_plain_anfis_low_distinguishability(self, tradeoff_runs):
        a_d = float(np.mean([r["mean_D"] for r in tradeoff_runs["anfis"]]))
        report("4c", a_d < 0.25, f"single-objective ANFIS mean D = {a_d:.3f} < 0.25")


class TestCriterion5ModeDegeneracy:
    def test_bitwise_identical_traces(self):
        X, y = acceptance_dataset(seed=0)
        split = split_scale(X, y, seed=0)
        fcm = fcm_fit(split.X_train, FCMConfig(n_clusters=5, seed=0))
        rb0 = RuleBase(MFKind.CAUCHY, fcm.centers, fcm.scales)
        base = dict(max_epochs=30, patience=31)
        runs = {
            "anfis": TrainConfig(mode=Mode.ANFIS, **base),
            "x_zero": TrainConfig(mode=Mode.X_ANFIS, lr_xpass=0.0, **base),
            "mo_zero": TrainConfig(mode=Mode.MO_ANFIS, mo_weight=0.0, **base),
        }
        outputs = {
            name: train(split.X_train, split.y_train, split.X_val, split.y_val, rb0, cfg)
            for name, cfg in runs.items()
        }
        ref_rb, ref_traces, _ = outputs["anfis"]
        ok = True
        for name in ("x_zero", "mo_zero"):
            rb, traces, _ = outputs[name]
            ok &= len(traces) == len(ref_traces)
            ok &= all(
                (t.train_mse, t.val_mse, t.mean_D) == (r.train_mse, r.val_mse, r.mean_D)
                for t, r in zip(traces, ref_traces)
            )
            ok &= np.array_equal(rb.centers, ref_rb.centers)
            ok &= np.array_equal(rb.scales, ref_rb.scales)
            ok &= np.array_equal(rb.consequents, ref_rb.consequents)
        report(5, ok, "X-ANFIS(lr_x=0) and MO-ANFIS(weight=0) match ANFIS bitwise over 30 epochs")


class TestCriterion6ParetoOracle:
    def test_front_equals_brute_force_on_500_points(self):
        Point = namedtuple("Point", "run_id r2 mean_D")
        rng = np.random.default_rng(77)
        pts = [
            Point(f"p{i:03d}", float(rng.uniform(-1, 1)), float(rng.uniform(0, 0.6)))
            for i in range(500)
        ]
        for i in range(0, 500, 97):  # exact duplicates and ties
            pts[i + 1] = Point(f"p{i + 1:03d}", pts[i].r2, pts[i].mean_D)
        fast = sorted(p.run_id for p in pareto_front(pts, key=lambda p: (p.r2, p.mean_D)))
        slow = []
        for p in pts:
            dominated = any(
                q.r2 >= p.r2 and q.mean_D >= p.mean_D and (q.r2 > p.r2 or q.mean_D > p.mean_D)
                for q in pts
            )
            if not dominated:
                slow.append(p.run_id)
        report(6, fast == sorted(slow), f"front of 500 points matches the O(n^2) filter ({len(fast)} points)")


class TestCriterion7XPassUnit:
    def test_worked_pair(self):
        centers = np.array([[0.4], [0.6]])
        scales = np.array([[0.1], [0.1]])
        grad = pair_gradient(adjacency_pairs(centers, scales), 0.5)
        # the training loop's explainability step: clipped, projected, scales frozen
        cfg = TrainConfig(mode=Mode.X_ANFIS, lr_xpass=0.1, d_target=0.5)
        out, _ = project_bounds_arrays(_clipped_step(centers, grad, cfg.lr_xpass), scales)
        ok = (
            abs(grad[0, 0] - 0.3) < 1e-14
            and abs(grad[1, 0] + 0.3) < 1e-14
            and abs(out[0, 0] - 0.37) < 1e-14
            and abs(out[1, 0] - 0.63) < 1e-14
        )
        report(
            7,
            ok,
            f"pair (0.4, 0.6) at D=0.2: gradients ({grad[0,0]:+.17g}, {grad[1,0]:+.17g}),"
            f" centers after one step ({out[0,0]:.17g}, {out[1,0]:.17g})",
        )


class TestCriterion8CLIDeterminism:
    def test_all_commands_byte_identical(self, tmp_path):
        ok = True
        checked = []

        def run_twice(label, args_fn, files):
            nonlocal ok
            dirs = [tmp_path / f"{label}_{i}" for i in (1, 2)]
            for d in dirs:
                assert main(args_fn(str(d))) == 0
            for name in files:
                a = (dirs[0] / name).read_bytes()
                b = (dirs[1] / name).read_bytes()
                ok &= a == b
                checked.append(f"{label}/{name}")

        common = [
            "--synth", "sinc2d", "--synth-n", "400", "--rules", "3", "--epochs", "15",
        ]
        run_twice(
            "train",
            lambda out: ["train", *common, "--seeds", "0,1", "--mode", "x_anfis",
                         "--trajectory", "--out", out],
            ["metrics.csv", "aggregate.csv", "model_seed0000.json",
             "trace_seed0001.csv", "trajectory_seed0000.csv"],
        )
        run_twice(
            "study",
            lambda out: ["init-study", *common, "--seeds", "0", "--scales", "0.5,0.0625",
                         "--out", out],
            ["summary.csv", "trace_gaussian_0.0625.csv", "trajectory_cauchy_0.5.csv"],
        )
        run_twice(
            "sweep",
            lambda out: ["pareto-sweep", *common, "--seeds", "0", "--weights-count", "4",
                         "--weights-range", "0.01:10", "--out", out],
            ["points.csv", "front.csv"],
        )
        model = tmp_path / "train_1" / "model_seed0000.json"
        run_twice(
            "export",
            lambda out: ["export-partition", "--model", str(model), "--samples", "33", "--out", out],
            ["centers.csv", "curves.csv"],
        )
        report(8, ok, f"byte-identical outputs for {len(checked)} files across 4 commands")


class TestCriterion9Invariants:
    def test_partition_of_unity_and_bounds_every_epoch(self, init_study_runs, tradeoff_runs):
        all_runs = list(init_study_runs.values()) + [
            r for rs in tradeoff_runs.values() for r in rs
        ]
        epochs_checked = 0
        worst_rowsum = 0.0
        ok = True
        for run in all_runs:
            split = run["split"]
            for t in run["traces"]:
                c, s = t.centers, t.scales
                ok &= bool(np.all(c >= 0.0) and np.all(c <= 1.0))
                ok &= bool(np.all(s >= SCALE_MIN) and np.all(s <= 1.0))
                rb = RuleBase(run["rb"].mf_kind, c, s)
                fm = Rows.of(split.X_train, rb)
                raw = product_firing(rb.mf_kind, membership_tensor(fm, c, s))
                forward(fm, c, s)
                live = raw.max(axis=0) > EPS_DENOM
                if np.any(live):
                    dev = np.max(np.abs(fm.normalized[:, live].sum(axis=0) - 1.0))
                    worst_rowsum = max(worst_rowsum, dev)
                    ok &= bool(dev < 1e-9)
                epochs_checked += 1
        report(
            9,
            ok and epochs_checked > 0,
            f"{epochs_checked} epochs over {len(all_runs)} runs: bounds hold, "
            f"worst live-row sum deviation {worst_rowsum:.2e}",
        )

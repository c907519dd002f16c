"""Command harness: file contracts, grids, determinism, error paths."""

import argparse
import concurrent.futures
import csv
import json
import os
import pickle
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

import xanfis.cli
from xanfis.cli import (
    COMMANDS,
    ExperimentConfig,
    build_config,
    build_parser,
    cmd_export_partition,
    cmd_init_study,
    cmd_pareto_sweep,
    cmd_train,
    main,
    pareto_sweep_runs,
    weight_grid,
)
from xanfis.data import DatasetManifest, synth_regression
from xanfis.fcm_init import FCMConfig
from xanfis.inference import Order, load_model
from xanfis.membership import SCALE_MAX, SCALE_MIN, MFKind, membership_values
from xanfis.metrics import evaluate_model, mean_distinguishability
from xanfis.numerics import RandomStream
from xanfis.training import Mode, TrainConfig


def fast_cfg(out, **kw):
    base = dict(
        synth="sinc2d",
        synth_n=300,
        synth_noise=0.05,
        rules=3,
        max_epochs=10,
        patience=10,
        out=str(out),
        seeds=[0, 1, 2],
    )
    base.update(kw)
    return ExperimentConfig(**base)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def dir_bytes(path):
    """Every file of an output directory, by name."""
    return {p.name: p.read_bytes() for p in path.iterdir()}


class TestWeightGrid:
    def test_log_spaced_with_exact_endpoints(self):
        grid = weight_grid(20, 0.01, 10.0)
        assert len(grid) == 20
        assert grid[0] == 0.01
        assert grid[-1] == 10.0
        ratios = grid[1:] / grid[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)

    def test_single_weight(self):
        np.testing.assert_array_equal(weight_grid(1, 0.5, 2.0), [0.5])
        grid = weight_grid(1, 1, 2)  # float64 like every grid: an integer lo is written as 1.0
        assert grid.dtype == np.float64 and grid.tolist() == [1.0]

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            weight_grid(0, 0.01, 10)
        with pytest.raises(ValueError):
            weight_grid(5, -1.0, 10)
        with pytest.raises(ValueError, match=re.escape("weight count must be int, got 2.0")):
            weight_grid(2.0, 0.1, 1.0)
        with pytest.raises(ValueError, match=re.escape("weights_lo must be float, got '0.1'")):
            weight_grid(5, "0.1", 10.0)
        with pytest.raises(ValueError, match=re.escape("weights_hi must be finite, got inf")):
            weight_grid(5, 0.1, float("inf"))
        with pytest.raises(ValueError, match=re.escape("weights_lo must be float, got True")):
            weight_grid(5, True, 10.0)


class TestTrainCommand:
    @pytest.mark.parametrize(
        "knobs",
        [{}, {"lr_backward": np.float64(0.1), "d_target": np.float64(0.5)}],
        ids=["defaults", "numpy_scalars"],
    )
    def test_file_contract(self, tmp_path, knobs):
        out = tmp_path / "runs"
        records = cmd_train(fast_cfg(out, mode="x_anfis", **knobs))
        assert len(records) == 3
        for seed in (0, 1, 2):
            assert (out / f"model_seed{seed:04d}.json").exists()
            assert (out / f"trace_seed{seed:04d}.csv").exists()
        rows = read_rows(out / "metrics.csv")
        assert len(rows) == 3
        assert rows[0]["mode"] == "x_anfis"
        # a numpy float knob is written as the float it holds
        assert {(r["lr_backward"], r["d_target"]) for r in rows} == {("0.1", "0.5")}
        agg = read_rows(out / "aggregate.csv")
        assert [r["metric"] for r in agg] == ["r2", "mean_D"]
        assert all(r["ci_lo"] != "" for r in agg)

    def test_model_artifact_readable(self, tmp_path):
        out = tmp_path / "runs"
        cfg = fast_cfg(out, seeds=[0])
        cmd_train(cfg)
        rb, scaler_meta = load_model(out / "model_seed0000.json")
        assert rb.centers.shape == (3, 2)
        # the scaler block holds the training ranges; the metrics are on the scaled target
        split, _ = xanfis.cli.prepare_seed(0, cfg, None)
        assert scaler_meta == split.scaler.to_dict()
        (row,) = read_rows(out / "metrics.csv")
        assert float(row["mse"]) == evaluate_model(rb, split.X_test, split.y_test).mse
        # one run: a mean without a CI
        agg = {r["metric"]: r for r in read_rows(out / "aggregate.csv")}
        assert float(agg["r2"]["mean"]) == float(row["r2"])
        assert (agg["r2"]["ci_lo"], agg["r2"]["ci_hi"], agg["r2"]["n"]) == ("", "", "1")

    def test_trajectory_flag_writes_files(self, tmp_path):
        out = tmp_path / "runs"
        cmd_train(fast_cfg(out, seeds=[0], trajectory=True))
        rows = read_rows(out / "trajectory_seed0000.csv")
        assert {r["epoch"] for r in rows} == {str(i) for i in range(11)}

    def test_unwritable_out_dir_fails_before_training(self, tmp_path):
        # a file where the directory should be blocks creation even for root
        blocked = tmp_path / "blocked"
        blocked.write_text("in the way")
        with pytest.raises(ValueError, match="not writable"):
            cmd_train(fast_cfg(blocked / "runs"))

    def test_workers_two_matches_serial(self, tmp_path):
        # per-run files are written by the process that ran the run
        serial = cmd_train(fast_cfg(tmp_path / "a", workers=1, trajectory=True))
        parallel = cmd_train(fast_cfg(tmp_path / "b", workers=2, trajectory=True))
        for r1, r2 in zip(serial, parallel):
            assert r1.run_id == r2.run_id
            assert r1.report.r2 == r2.report.r2
        files = dir_bytes(tmp_path / "a")
        assert len(files) == 2 + 3 * 3  # metrics, aggregate; model, trace, trajectory per seed
        assert files == dir_bytes(tmp_path / "b")

    def test_pool_capped_at_run_count(self, tmp_path, monkeypatch):
        # a process pool starts all its workers up front: one run needs none; the
        # seeds' splits and FCM fits go through the pool, then the runs
        sizes, mapped = [], []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            @staticmethod
            def map(fn, *iterables):
                mapped.append(fn)
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cmd_train(fast_cfg(tmp_path / "one", seeds=[0], workers=8))
        cmd_train(fast_cfg(tmp_path / "three", seeds=[0, 1, 2], workers=8))
        cmd_train(fast_cfg(tmp_path / "serial", seeds=[0, 1], workers=1))
        assert sizes == [3]
        assert mapped == [xanfis.cli.prepare_seed, xanfis.cli.run_experiment]

    def test_metrics_rows_in_numeric_seed_order(self, tmp_path):
        # as strings, seed10000 sorts before seed9999
        out = tmp_path / "runs"
        cmd_train(fast_cfg(out, seeds=[10000, 9999], max_epochs=2))
        assert [r["run_id"] for r in read_rows(out / "metrics.csv")] == ["seed9999", "seed10000"]

    def test_error_leaves_files_of_finished_runs(self, tmp_path, monkeypatch):
        write_trace = xanfis.cli.traces_to_csv
        calls = []

        def fail_second(traces, path):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            write_trace(traces, path)

        monkeypatch.setattr(xanfis.cli, "traces_to_csv", fail_second)
        out = tmp_path / "runs"
        with pytest.raises(OSError, match="disk full"):
            cmd_train(fast_cfg(out, seeds=[0, 1], workers=1, max_epochs=2))
        assert (out / "model_seed0000.json").exists()
        assert (out / "trace_seed0000.csv").exists()
        assert not (out / "metrics.csv").exists()


class TestInitStudyCommand:
    def test_kind_by_scale_grid(self, tmp_path):
        out = tmp_path / "study"
        records = cmd_init_study(fast_cfg(out, seeds=[0], scales=[0.5, 0.25, 0.125]))
        assert len(records) == 6  # two kinds x three scales
        rows = read_rows(out / "summary.csv")
        assert [(r["mf"], r["init_scale"]) for r in rows] == [
            (kind, scale) for kind in ("cauchy", "gaussian") for scale in ("0.5", "0.25", "0.125")
        ]
        for scale in ("0.5", "0.25", "0.125"):
            assert (out / f"trajectory_gaussian_{scale}.csv").exists()
            assert (out / f"trajectory_cauchy_{scale}.csv").exists()

    def test_initial_scales_come_from_override(self, tmp_path):
        out = tmp_path / "study"
        cmd_init_study(fast_cfg(out, seeds=[0], scales=[0.25]))
        rows = read_rows(out / "trajectory_cauchy_0.25.csv")
        first_epoch = [r for r in rows if r["epoch"] == "0"]
        assert all(float(r["scale"]) == 0.25 for r in first_epoch)

    def test_empty_scales_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nonempty"):
            cmd_init_study(fast_cfg(tmp_path / "s", scales=[]))

    def test_scale_bounds_accepted(self, tmp_path):
        out = tmp_path / "study"
        cmd_init_study(fast_cfg(out, seeds=[0], max_epochs=2, scales=[SCALE_MIN, SCALE_MAX]))
        assert {r["init_scale"] for r in read_rows(out / "summary.csv")} == {"0.001", "1.0"}

    def test_workers_two_matches_serial(self, tmp_path):
        for name, workers in (("a", 1), ("b", 2)):
            cfg = fast_cfg(tmp_path / name, seeds=[0], scales=[0.5, 0.125], workers=workers)
            cmd_init_study(cfg)
        files = dir_bytes(tmp_path / "a")
        assert len(files) == 1 + 3 * 2 * 2  # summary; model, trace, trajectory per kind x scale
        assert files == dir_bytes(tmp_path / "b")

    def test_colliding_file_stems_rejected(self, tmp_path):
        # both scales print as 0.1 under %g, so their trace files would collide
        out = tmp_path / "s"
        with pytest.raises(ValueError, match="share output file names: 0.1"):
            cmd_init_study(fast_cfg(out, seeds=[0], scales=[0.1, 0.5, 0.1000001]))
        assert not out.exists()


class TestParetoSweepCommand:
    def test_points_and_front_files(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = fast_cfg(out, seeds=[0], weights_count=5, weights_lo=0.01, weights_hi=10.0)
        records, front = cmd_pareto_sweep(cfg)
        points = read_rows(out / "points.csv")
        assert len(points) == 7  # 5 weights + 2 reference rows
        assert points[-2]["mode"] == "anfis" and points[-2]["run_id"] == "ref_anfis"
        assert points[-1]["mode"] == "x_anfis"
        front_rows = read_rows(out / "front.csv")
        point_keys = {(r["run_id"], r["r2"], r["mean_D"]) for r in points}
        assert all((r["run_id"], r["r2"], r["mean_D"]) in point_keys for r in front_rows)
        assert all(r["mode"] == "mo_anfis" for r in front_rows)

    def test_front_file_sorted_by_r2_descending(self, tmp_path):
        # with this seed and grid the sweep order of the front is not its r2 order
        out = tmp_path / "sweep"
        cfg = fast_cfg(out, seeds=[0], weights_count=6, weights_lo=0.01, weights_hi=10.0)
        _, front = cmd_pareto_sweep(cfg)
        rows = read_rows(out / "front.csv")
        r2 = [float(r["r2"]) for r in rows]
        assert len(r2) >= 2 and r2 == sorted(r2, reverse=True)
        assert [r["run_id"] for r in rows] == [p.run_id for p in front]

    def test_runs_without_a_model_stay_off_the_front(self, tmp_path):
        # every run's first lambda-0 refit is singular (60 columns, 35 rows):
        # all are listed with r2 nan and none is on the front
        out = tmp_path / "sweep"
        cfg = fast_cfg(
            out, seeds=[0], synth_n=50, rules=20, order="first", lam=0.0,
            weights_count=3, weights_lo=0.01, weights_hi=10.0,
        )
        records, front = cmd_pareto_sweep(cfg)
        assert all(r.diverged for r in records) and front == []
        assert [r["r2"] for r in read_rows(out / "points.csv")] == ["nan"] * 5
        assert read_rows(out / "front.csv") == []

    def test_scales_derived_once_per_seed(self, tmp_path, monkeypatch):
        calls = []
        fit = xanfis.cli.fcm_fit
        monkeypatch.setattr(xanfis.cli, "fcm_fit", lambda *a: calls.append(a) or fit(*a))
        cfg = fast_cfg(tmp_path / "sweep", seeds=[0], max_epochs=2, weights_count=4)
        records, _ = cmd_pareto_sweep(cfg)
        assert len(records) == 6 and len(calls) == 1

    def test_workers_two_matches_serial(self, tmp_path):
        for name, workers in (("a", 1), ("b", 2)):
            cfg = fast_cfg(tmp_path / name, seeds=[0], max_epochs=3, weights_count=3,
                           workers=workers, trajectory=True)
            cmd_pareto_sweep(cfg)
        files = dir_bytes(tmp_path / "a")
        assert files == dir_bytes(tmp_path / "b")
        points = {r["run_id"]: r for r in read_rows(tmp_path / "a" / "points.csv")}
        per_run = {
            f"{kind}_{run_id}.{ext}" for run_id in points
            for kind, ext in (("model", "json"), ("trace", "csv"), ("trajectory", "csv"))
        }
        assert set(files) == per_run | {"points.csv", "front.csv"}
        rb, _ = load_model(tmp_path / "a" / "model_ref_x_anfis.json")
        assert repr(mean_distinguishability(rb)) == points["ref_x_anfis"]["mean_D"]

    def test_front_matches_brute_force(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = fast_cfg(out, seeds=[1], weights_count=6, weights_lo=0.01, weights_hi=10.0)
        _, front = cmd_pareto_sweep(cfg)
        points = [r for r in read_rows(out / "points.csv") if r["mode"] == "mo_anfis"]
        vals = [(r["run_id"], float(r["r2"]), float(r["mean_D"])) for r in points]
        survivors = set()
        for rid, r2, d in vals:
            dominated = any(
                q2 >= r2 and qd >= d and (q2 > r2 or qd > d) for _, q2, qd in vals
            )
            if not dominated:
                survivors.add(rid)
        assert {p.run_id for p in front} == survivors


class TestExportPartitionCommand:
    def test_counts_and_round_trip(self, tmp_path):
        for mf in ("cauchy", "gaussian"):
            out = tmp_path / mf
            cmd_train(fast_cfg(out, seeds=[0], rules=4, mf=mf))
            model = out / "model_seed0000.json"
            centers_csv, curves_csv = cmd_export_partition(model, 17, out / "export")
            centers = read_rows(centers_csv)
            assert len(centers) == 4 * 2  # rules x features
            curves = read_rows(curves_csv)
            assert len(curves) == 4 * 2 * 17
            rb, _ = load_model(model)
            for row in curves:  # each point against the one-curve evaluation
                j, k = int(row["rule"]), int(row["feature"])
                expect = float(
                    membership_values(rb.mf_kind, float(row["x"]), rb.centers[j, k], rb.scales[j, k])
                )
                assert float(row["membership"]) == expect

    def test_corrupt_model_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        with pytest.raises(ValueError):
            cmd_export_partition(bad, 10, tmp_path / "out")

    def test_malformed_model_fails_before_writing(self, tmp_path, capsys):
        # NaN center, scales -0.3 and 5.0, 3 consequents for a 2-rule first-order model
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "format": "ts-rulebase", "version": 1, "mf_kind": "cauchy", "order": "first",
            "centers": [[float("nan"), 0.4], [0.8, 0.6]], "scales": [[-0.3, 0.3], [5.0, 0.5]],
            "consequents": [0.1, 0.2, 0.3], "scaler": None,
        }))
        out = tmp_path / "export"
        assert main(["export-partition", "--model", str(bad), "--out", str(out)]) == 1
        assert "centers must be finite" in capsys.readouterr().err
        assert not (out / "curves.csv").exists()
        assert not out.exists()

    def test_non_int_samples_rejected_before_writing(self, tmp_path):
        # int() wrote 2 samples per curve
        runs = tmp_path / "runs"
        cmd_train(fast_cfg(runs, seeds=[0], max_epochs=2))
        out = tmp_path / "export"
        with pytest.raises(ValueError, match=re.escape("samples must be int, got 2.5")):
            cmd_export_partition(runs / "model_seed0000.json", 2.5, out)
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_nonpositive_samples_fail_before_writing(self, tmp_path, capsys, samples):
        runs = tmp_path / "runs"
        cmd_train(fast_cfg(runs, seeds=[0], max_epochs=2))
        out = tmp_path / "export"
        args = ["export-partition", "--model", str(runs / "model_seed0000.json"),
                "--samples", samples, "--out", str(out)]
        assert main(args) == 1
        assert f"samples must be >= 1, got {samples}" in capsys.readouterr().err
        assert not out.exists()


class TestMainEntry:
    def test_train_exit_zero_and_idempotent(self, tmp_path):
        args = [
            "train", "--synth", "sinc2d", "--synth-n", "300", "--rules", "3",
            "--seeds", "0", "--epochs", "8", "--out",
        ]
        assert main(args + [str(tmp_path / "r1")]) == 0
        assert main(args + [str(tmp_path / "r2")]) == 0
        for name in ("metrics.csv", "aggregate.csv", "model_seed0000.json", "trace_seed0000.csv"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, name

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "synth": "sinc2d",
                    "synth_n": 300,
                    "rules": 3,
                    "seeds": [0],
                    "max_epochs": 5,
                    "out": str(tmp_path / "from_config"),
                }
            )
        )
        out = tmp_path / "flag_wins"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert not (tmp_path / "from_config").exists()

    @pytest.mark.parametrize(
        "command, extra, config, warned",
        [
            ("train", ["--mode", "anfis", "--lr-xpass", "0.2"], {}, ["lr_xpass"]),
            ("train", ["--mode", "mo_anfis", "--lr-xpass", "0.2"], {}, ["lr_xpass"]),
            ("train", ["--mode", "x_anfis", "--lr-xpass", "0.2"], {}, []),
            ("train", ["--mo-weight", "3"], {}, ["mo_weight"]),
            ("train", ["--mode", "x_anfis"], {"mo_weight": 3.0}, ["mo_weight"]),
            ("train", ["--mode", "mo_anfis", "--mo-weight", "3"], {}, []),
            ("train", ["--mode", "anfis"], {}, []),
            ("init-study", ["--mode", "x_anfis", "--scales", "0.5", "--lr-xpass", "0.2"], {},
             ["lr_xpass", "mode"]),
            ("init-study", ["--mf", "gaussian", "--mode", "x_anfis", "--mo-weight", "5",
                            "--scales", "0.5"], {}, ["mf", "mo_weight", "mode"]),
            ("init-study", ["--scales", "0.5"], {"mf": "gaussian"}, ["mf"]),
            ("init-study", ["--scales", "0.5", "--lr", "0.2"], {}, []),
            ("init-study", ["--scales", "0.5", "--trajectory"], {}, ["trajectory"]),
            ("init-study", ["--scales", "0.5"], {"trajectory": False}, ["trajectory"]),
            ("pareto-sweep", ["--weights-count", "2", "--lr-xpass", "0.2"], {}, []),
            ("pareto-sweep", ["--weights-count", "2", "--mode", "x_anfis", "--mo-weight", "5"],
             {}, ["mo_weight", "mode"]),
            ("pareto-sweep", ["--weights-count", "2", "--mf", "gaussian"], {}, []),
            ("train", ["--mode", "anfis", "--d-target", "0.3"], {}, ["d_target"]),
            ("train", ["--mode", "mo_anfis", "--d-target", "0.3"], {}, []),
            ("train", ["--mode", "x_anfis", "--d-target", "0.3"], {}, []),
            ("init-study", ["--scales", "0.5", "--d-target", "0.3"], {}, ["d_target"]),
            ("pareto-sweep", ["--weights-count", "2", "--d-target", "0.3"], {}, []),
            ("train", [], {"weights_count": 5, "scales": [0.5]}, ["scales", "weights_count"]),
            ("pareto-sweep", ["--weights-count", "2"], {"scales": [0.5]}, ["scales"]),
            ("init-study", ["--scales", "0.5"], {"weights_count": 3, "weights_lo": 0.1},
             ["weights_count", "weights_lo"]),
            ("train", ["--manifest", "m.json", "--synth-n", "300", "--synth-noise", "0.1"], {},
             ["synth_n", "synth_noise"]),
            ("train", ["--synth-noise", "0.1"], {}, []),
            ("train", ["--mode", "x_anfis", "--lr-xpass", "0", "--d-target", "0.3"], {},
             ["d_target"]),
            ("train", ["--mode", "mo_anfis", "--mo-weight", "0", "--d-target", "0.3"], {},
             ["d_target"]),
            ("pareto-sweep", ["--weights-count", "2", "--lr-xpass", "0", "--d-target", "0.3"], {},
             []),
        ],
    )
    def test_explicit_knob_warns_when_no_run_uses_it(
        self, tmp_path, capsys, monkeypatch, command, extra, config, warned
    ):
        # a flag or a config key counts; init-study runs only anfis, in both kinds; pareto-sweep
        # sets each run's mode and weight, and its ref_x_anfis run takes lr_xpass; d_target is
        # read in mo_anfis and x_anfis while the mode's switch (mo_weight, lr_xpass) is above 0;
        # a key only another command has a flag for is ignored; every row but the manifest one
        # gives --synth-n with --synth
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        data = ["--synth", "sinc2d", "--synth-n", "300"]
        if "--manifest" in extra:
            monkeypatch.chdir(tmp_path)
            write_manifest(*synth_regression("sinc2d", 300, 0.05, seed=0))
            data = []
        args = [
            command, "--config", str(cfg_path), *data,
            "--rules", "3", "--seeds", "0", "--epochs", "5", *extra, "--out", str(tmp_path / "w"),
        ]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert re.findall(r"^warning: (\w+) is ignored: ", err, re.MULTILINE) == warned
        if "lr_xpass" in warned:
            assert "warning: lr_xpass is ignored: no run is in x_anfis mode\n" in err
        if "trajectory" in warned:
            shown = "warning: trajectory is ignored: init-study sets each run's trajectory\n"
            assert shown in err
        if "d_target" in warned and "0" not in extra:
            assert "warning: d_target is ignored: no run is in mo_anfis or x_anfis mode\n" in err
        if "d_target" in warned and "0" in extra:  # the mode's switch is given as 0
            switch = extra[extra.index("0") - 1].removeprefix("--").replace("-", "_")
            assert f"warning: d_target is ignored: {switch} is 0\n" in err
        if "scales" in warned:
            assert f"warning: scales is ignored: {command} has no flag for it\n" in err
        if "synth_n" in warned:
            assert "warning: synth_n is ignored: the data come from a manifest\n" in err

    @pytest.mark.parametrize(
        "command, extra, config, shown",
        [
            ("train", ["--d-target", "2"], {}, "d_target must be in (0, 1], got 2.0"),
            ("train", [], {"weights_count": 0}, "weight count must be >= 1, got 0"),
            ("train", [], {"scales": ["0.5"]}, "scales must be numbers, got ['0.5']"),
            ("init-study", ["--scales", "5", "--mo-weight", "3"], {},
             "init scale 5 is outside [0.001, 1]"),
            ("init-study", ["--scales", "0.5,0.50", "--d-target", "0.3"], {},
             "init scales share output file names: 0.5"),
        ],
    )
    def test_rejected_knob_is_not_called_ignored(
        self, tmp_path, capsys, command, extra, config, shown
    ):
        # no run reads these knobs, but a value the command rejects, in its config or in the
        # runs it would build, is an error, and only that
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "w"
        args = [command, "--config", str(cfg_path), "--synth", "sinc2d", *extra, "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {shown}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra", [("train", []), ("init-study", ["--scales", "0.5"]), ("pareto-sweep", [])]
    )
    def test_every_field_the_runs_override_is_warned(
        self, tmp_path, capsys, monkeypatch, command, extra
    ):
        # every field given explicitly at its default: a field that each run the command
        # builds holds at another value is ignored, and a warning must name it
        class Built(Exception):
            pass

        built = []

        def capture(runs, cfg):
            built.extend(runs)
            raise Built

        monkeypatch.setattr(xanfis.cli, "_run_all", capture)
        defaults = ExperimentConfig(synth="sinc2d")
        skipped = {"manifest", "synth", "out", "seeds", "scales"}
        doc = {f.name: getattr(defaults, f.name) for f in fields(ExperimentConfig)}
        doc = {name: value for name, value in doc.items() if name not in skipped}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        args = ["--config", str(cfg_path), "--synth", "sinc2d", "--seeds", "0", *extra]
        with pytest.raises(Built):
            main([command, *args, "--out", str(tmp_path / "w")])
        warned = re.findall(r"^warning: (\w+) is ignored: ", capsys.readouterr().err, re.MULTILINE)
        overridden = [k for k in doc if all(getattr(run.cfg, k) != doc[k] for run in built)]
        assert built and set(overridden) <= set(warned), overridden

    @pytest.mark.parametrize(
        "command, flag, value, shown",
        [
            ("train", "--seeds", "a,b", "expected comma-separated integers, got 'a,b'"),
            ("init-study", "--scales", "1,abc", "expected comma-separated numbers, got '1,abc'"),
            ("pareto-sweep", "--weights-range", "5", "expected LO:HI, got '5'"),
            ("pareto-sweep", "--weights-range", "0.1,1", "expected LO:HI, got '0.1,1'"),
        ],
    )
    def test_malformed_flag_value_is_a_usage_error(
        self, tmp_path, capsys, command, flag, value, shown
    ):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--synth", "sinc2d", flag, value, "--out", str(out)])
        assert exit_info.value.code == 2
        assert f"argument {flag}: {shown}" in capsys.readouterr().err
        assert not out.exists()

    def test_commands_table_matches_the_parser(self):
        # every subcommand that trains has a row, and each field a row sets per run is a
        # config field: a misspelt one would silently drop its "sets each run's" warning
        (subcommands,) = [
            action.choices for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(COMMANDS) == set(subcommands) - {"export-partition"}
        config_fields = {f.name for f in fields(ExperimentConfig)}
        for name, (_, _, per_run) in COMMANDS.items():
            assert set(per_run) <= config_fields, name

    def test_unknown_config_key_fails(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synth": "sinc2d", "bogus_key": 1}))
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert code == 1

    def test_duplicate_seeds_rejected(self, tmp_path, capsys):
        # seed 0 twice would write two seed0000 rows over one model file
        out = tmp_path / "dup"
        args = ["train", "--synth", "sinc2d", "--seeds", "0,1,0", "--out", str(out)]
        assert main(args) == 1
        assert "duplicate seeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra", [("init-study", ["--scales", "0.5"]), ("pareto-sweep", [])]
    )
    def test_one_seed_commands_reject_seed_lists(self, tmp_path, capsys, command, extra):
        # these commands run one seed; a list would silently drop all but the first
        out = tmp_path / "x"
        args = [command, "--synth", "sinc2d", "--seeds", "5,7", *extra, "--out", str(out)]
        assert main(args) == 1
        assert f"{command} runs one seed, got seeds [5, 7]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra", [("init-study", ["--scales", "0.5"]), ("pareto-sweep", [])]
    )
    def test_one_seed_commands_run_seed_zero_by_default(self, command, extra):
        args = build_parser().parse_args([command, "--synth", "sinc2d", *extra, "--out", "o"])
        cfg, _ = build_config(args)
        assert {run.seed for run in COMMANDS[command][1](cfg)} == {0}

    def test_one_seed_commands_reject_seed_lists_from_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synth": "sinc2d", "seeds": [0, 1]}))
        out = tmp_path / "x"
        assert main(["pareto-sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "pareto-sweep runs one seed, got seeds [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scales, shown",
        [("1,0", "0"), ("1,nan", "nan"), ("-0.5", "-0.5"), ("5", "5"), ("inf", "inf"),
         ("1e-9", "1e-09")],
    )
    def test_init_study_rejects_scales_outside_bounds(self, tmp_path, capsys, scales, shown):
        out = tmp_path / "study"
        args = [
            "init-study", "--synth", "sinc2d", "--synth-n", "300", "--rules", "4",
            "--epochs", "5", "--seeds", "0", "--scales", scales, "--out", str(out),
        ]
        assert main(args) == 1
        assert f"init scale {shown} is outside [0.001, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_init_study_records_singular_runs(self, tmp_path, capsys):
        # lambda 0 with small Gaussian widths makes some LSE refits singular;
        # those runs are recorded as diverged and the study still succeeds
        out = tmp_path / "study"
        args = [
            "init-study", "--synth", "friedman", "--rules", "5", "--lambda", "0",
            "--scales", "0.03125,0.0625,0.125", "--epochs", "30", "--seeds", "0",
            "--out", str(out),
        ]
        assert main(args) == 0, capsys.readouterr().err
        rows = read_rows(out / "summary.csv")
        assert len(rows) == 6
        assert any(r["diverged"] == "1" for r in rows)
        # a diverged run keeps the metrics of its last finite model
        assert all(np.isfinite(float(r["r2"])) for r in rows if r["diverged"] == "1")
        # epochs_run is the last completed epoch: this run's epoch 1 refit is singular
        (row,) = [r for r in rows if r["run_id"] == "gaussian_0.03125"]
        assert (row["diverged"], row["epochs_run"]) == ("1", "0")
        assert float(row["r2"]) == pytest.approx(-6.43, abs=0.005)
        assert [r["epoch"] for r in read_rows(out / "trace_gaussian_0.03125.csv")] == ["0"]
        for kind in ("gaussian", "cauchy"):
            for scale in ("0.03125", "0.0625", "0.125"):
                assert (out / f"trace_{kind}_{scale}.csv").exists()
                assert (out / f"trajectory_{kind}_{scale}.csv").exists()

    def test_train_run_failing_at_epoch_zero_is_recorded(self, tmp_path, capsys):
        # 20 first-order rules (60 columns) on 35 training rows at lambda 0:
        # the very first refit is singular, so no model is ever fitted
        out = tmp_path / "r"
        args = [
            "train", "--synth", "sinc2d", "--synth-n", "50", "--rules", "20",
            "--order", "first", "--lambda", "0", "--seeds", "0", "--epochs", "5",
            "--trajectory", "--out", str(out),
        ]
        assert main(args) == 1
        assert "diverged runs: seed0000" in capsys.readouterr().err
        # no epoch was recorded: the per-run CSVs hold only their header row
        assert (out / "trace_seed0000.csv").read_bytes() == b"epoch,train_mse,val_mse,mean_D\r\n"
        assert (out / "trajectory_seed0000.csv").read_bytes() == (
            b"epoch,rule,feature,center,scale\r\n"
        )
        (row,) = read_rows(out / "metrics.csv")
        assert (row["diverged"], row["epochs_run"]) == ("1", "0")
        assert all(row[k] == "nan" for k in ("mse", "rmse", "mae", "r2"))
        rb, _ = load_model(out / "model_seed0000.json")
        assert rb.consequents is None
        assert float(row["mean_D"]) == mean_distinguishability(rb)
        agg = {r["metric"]: r for r in read_rows(out / "aggregate.csv")}
        assert (agg["r2"]["mean"], agg["r2"]["n"]) == ("", "0")
        # an unfitted model still exports its partition: 20 rules x 2 features
        export = tmp_path / "export"
        args = ["export-partition", "--model", str(out / "model_seed0000.json"),
                "--samples", "5", "--out", str(export)]
        assert main(args) == 0
        assert len((export / "centers.csv").read_bytes().splitlines()) == 1 + 40
        assert len((export / "curves.csv").read_bytes().splitlines()) == 1 + 40 * 5

    def test_missing_data_source_fails(self, tmp_path):
        code = main(["train", "--seeds", "0", "--out", str(tmp_path / "x")])
        assert code == 1

    def test_init_study_requires_scales(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["init-study", "--synth", "sinc2d", "--out", str(out)]) == 1
        assert "error: init-study needs a nonempty list" in capsys.readouterr().err
        assert not out.exists()

    def test_parser_covers_spec_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "pareto-sweep", "--synth", "sinc2d", "--mode", "mo_anfis",
                "--rules", "5", "--seeds", "0,1", "--weights-count", "9",
                "--weights-range", "0.01:10", "--mf", "cauchy",
                "--out", "o", "--workers", "2", "--trajectory",
            ]
        )
        assert args.weights_count == 9
        assert args.weights_range == (0.01, 10.0)
        assert args.trajectory is True
        cfg, explicit = build_config(args)
        assert cfg.weights_lo == 0.01 and cfg.weights_hi == 10.0
        assert cfg.seeds == [0, 1]


def write_manifest(X, y):
    """d.csv with columns a, b, y and the manifest m.json naming it, in the working directory."""
    np.savetxt("d.csv", np.column_stack([X, y]), delimiter=",", header="a,b,y", comments="")
    doc = {"csv_path": "d.csv", "target_column": "y", "feature_columns": ["a", "b"]}
    with open("m.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


#: manifest files the config-validation cases name (relative to the test's directory)
MANIFESTS = {
    "broken.json": "{broken",
    "no_csv.json": json.dumps({"target_column": "y", "feature_columns": ["a"]}),
    "str_features.json": json.dumps(
        {"csv_path": "d.csv", "target_column": "y", "feature_columns": "ab"}
    ),
    "target_feature.json": json.dumps(
        {"csv_path": "d.csv", "target_column": "y", "feature_columns": ["a", "y"]}
    ),
    "list.json": "[]",
}


class TestConfigValidation:
    @pytest.mark.parametrize(
        "args, doc, shown",
        [
            (["--lr", "-1"], {}, "lr_backward must be positive, got -1.0"),
            (["--rules", "1"], {}, "rules must be >= 2, got 1"),
            (["--d-target", "2"], {}, "d_target must be in (0, 1], got 2.0"),
            (["--patience", "0"], {}, "patience must be >= 1, got 0"),
            (["--workers", "0"], {}, "workers must be >= 1, got 0"),
            (["--workers", "-2"], {}, "workers must be >= 1, got -2"),
            ([], {"mode": "foo"}, "mode must be one of ['anfis', 'mo_anfis', 'x_anfis'], got 'foo'"),
            ([], {"order": "second"}, "order must be one of ['zero', 'first'], got 'second'"),
            ([], {"mf": 3}, "mf must be one of ['gaussian', 'cauchy'], got 3"),
            ([], {"rules": 4.0}, "rules must be int, got 4.0"),
            ([], {"lr_backward": "0.1"}, "lr_backward must be float, got '0.1'"),
            ([], {"seeds": "0"}, "seeds must be list, got '0'"),
            ([], {"trajectory": "no"}, "trajectory must be bool, got 'no'"),
            ([], {"max_epochs": True}, "max_epochs must be int, got True"),
            ([], {"fcm_max_iter": 0}, "fcm_max_iter must be >= 1, got 0"),
            ([], {"clip_lo": -10.0}, "unknown config keys: ['clip_lo']"),
            ([], {"clip_hi": 10.0}, "unknown config keys: ['clip_hi']"),
            ([], {"fcm_fuzziness": 500.0}, "unknown config keys: ['fcm_fuzziness']"),
            ([], {"synth_n": 300.5}, "synth_n must be int, got 300.5"),
            ([], {"synth_n": 10}, "need n >= 50, got 10"),
            ([], {"synth": "sinc"}, "unknown synthetic dataset 'sinc'"),
            ([], {"lam": float("nan")}, "lam must be finite, got nan"),
            ([], {"seeds": [0, True]}, "seeds must be a nonempty list of integers, got [0, True]"),
            ([], {"scales": ["0.5"]}, "scales must be numbers, got ['0.5']"),
            (["--manifest", "no_csv.json"], {},
             "config must name exactly one data source (manifest or synth)"),
            ([], {"synth": None}, "config must name exactly one data source (manifest or synth)"),
            (["--manifest", "nowhere.json"], {"synth": None},
             "[Errno 2] No such file or directory: 'nowhere.json'"),
            (["--manifest", "broken.json"], {"synth": None}, "manifest broken.json is not JSON"),
            (["--manifest", "no_csv.json"], {"synth": None},
             "manifest no_csv.json: DatasetManifest.__init__() missing 1 required positional "
             "argument: 'csv_path'"),
            (["--manifest", "str_features.json"], {"synth": None},
             "manifest str_features.json: feature_columns must be list, got 'ab'"),
            (["--manifest", "target_feature.json"], {"synth": None},
             "manifest target_feature.json: target column 'y' is also listed as a feature"),
            ([], {"fcm_tol": 0.0}, "fcm_tol must be positive, got 0.0"),
            ([], {"weights_lo": 5.0, "weights_hi": 1.0},
             "weight range must satisfy 0 < lo <= hi, got [5.0, 1.0]"),
            ([], {"weights_lo": 0.0}, "weight range must satisfy 0 < lo <= hi, got [0.0, 10.0]"),
            (["--lr-xpass", "-1"], {}, "lr_xpass must be nonnegative, got -1.0"),
            (["--lambda", "-1"], {}, "lambda must be nonnegative, got -1.0"),
            (["--epochs", "-1"], {}, "max_epochs must be nonnegative, got -1"),
            (["--mo-weight", "-1"], {}, "mo_weight must be nonnegative, got -1.0"),
            (["--manifest", "list.json"], {"synth": None},
             "manifest list.json must be a JSON object, got []"),
        ],
    )
    def test_bad_value_rejected_before_out_dir(
        self, tmp_path, capsys, monkeypatch, args, doc, shown
    ):
        monkeypatch.chdir(tmp_path)
        for name, text in MANIFESTS.items():
            (tmp_path / name).write_text(text)
        cfg_path = tmp_path / "cfg.json"
        base = {"synth": "sinc2d", "synth_n": 300, "rules": 4, "max_epochs": 3, "seeds": [0]}
        cfg_path.write_text(json.dumps({**base, **doc}))
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg_path), *args, "--out", str(out)]) == 1
        assert f"error: {shown}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_list_seeds_rejected_by_one_seed_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synth": "sinc2d", "seeds": 5}))
        out = tmp_path / "x"
        assert main(["pareto-sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "error: seeds must be list, got 5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, shown",
        [("5", "must be a JSON object, got 5"), ("[]", "must be a JSON object, got []"),
         ("not json", "is not JSON: ")],
    )
    def test_config_not_a_json_object_rejected(self, tmp_path, capsys, text, shown):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(text)
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert f"error: config {cfg_path} {shown}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra",
        [("train", []), ("init-study", ["--scales", "0.5"]), ("pareto-sweep", [])],
    )
    def test_missing_csv_rejected_before_out_dir(
        self, tmp_path, capsys, monkeypatch, command, extra
    ):
        monkeypatch.chdir(tmp_path)
        doc = {"csv_path": "nope.csv", "target_column": "y", "feature_columns": ["a"]}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        out = tmp_path / "x"
        args = [command, "--manifest", "m.json", "--seeds", "0", *extra, "--out", str(out)]
        assert main(args) == 1
        assert "error: cannot open nope.csv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "first_row, shown",
        [
            # 1_000 sends the file to the row-by-row read, whose csv.reader has a field limit
            pytest.param("1_000,0.5," + "n" * 200_000,
                         "d.csv: row 2: field larger than field limit (131072)", id="long-note"),
            pytest.param("0.5,0.25,caf\xe9",
                         "d.csv: not UTF-8 text (byte 0xe9: invalid continuation byte)",
                         id="latin-1"),
        ],
    )
    def test_unreadable_csv_named_before_out_dir(self, tmp_path, capsys, monkeypatch,
                                                 first_row, shown):
        monkeypatch.chdir(tmp_path)
        rows = ["a,y,note", first_row] + [f"{i / 60},{i * 7 % 60 / 60},x" for i in range(59)]
        (tmp_path / "d.csv").write_bytes(("\n".join(rows) + "\n").encode("latin-1"))
        doc = {"csv_path": "d.csv", "target_column": "y", "feature_columns": ["a"]}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        out = tmp_path / "x"
        assert main(["train", "--manifest", "m.json", "--seeds", "0", "--out", str(out)]) == 1
        assert f"error: {shown}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields, shown",
        [
            ({"has_header": "false"}, "has_header must be bool, got 'false'"),
            ({"has_headr": False},
             "DatasetManifest.__init__() got an unexpected keyword argument 'has_headr'"),
            ({"target_column": -1, "feature_columns": [True]},
             "column -1 is neither a name nor a non-negative index"),
            ({"csv_path": 0}, "csv_path must be str, got 0"),
            ({"delimiter": ";;"}, "delimiter must be one character, got ';;'"),
            ({"delimiter": 5}, "delimiter must be str, got 5"),
            ({"target_column": 1.5}, "target_column must be str | int, got 1.5"),
            ({"feature_columns": [["a"]]},
             "column ['a'] is neither a name nor a non-negative index"),
        ],
    )
    def test_bad_manifest_field_rejected_before_out_dir(
        self, tmp_path, capsys, monkeypatch, fields, shown
    ):
        monkeypatch.chdir(tmp_path)
        X, y = synth_regression("sinc2d", 100, 0.05, seed=0)
        np.savetxt("d.csv", np.column_stack([X, y]), delimiter=",", header="a,b,y", comments="")
        doc = {"csv_path": "d.csv", "target_column": "y", "feature_columns": ["a", "b"]}
        (tmp_path / "m.json").write_text(json.dumps({**doc, **fields}))
        out = tmp_path / "x"
        args = ["train", "--manifest", "m.json", "--seeds", "0", "--rules", "2",
                "--epochs", "2", "--out", str(out)]
        assert main(args) == 1
        assert f"error: manifest m.json: {shown}" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_and_csv_read_once_per_command(self, tmp_path, monkeypatch):
        X, y = synth_regression("sinc2d", 300, 0.05, seed=0)
        np.savetxt(tmp_path / "d.csv", np.column_stack([X, y]), delimiter=",",
                   header="a,b,y", comments="")
        doc = {"csv_path": str(tmp_path / "d.csv"), "target_column": "y",
               "feature_columns": ["a", "b"]}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        calls = []
        for name in ("load_csv", "load_manifest"):
            real = getattr(xanfis.cli, name)
            monkeypatch.setattr(
                xanfis.cli, name,
                lambda *a, name=name, real=real: calls.append(name) or real(*a),
            )
        args = ["train", "--manifest", str(tmp_path / "m.json"), "--seeds", "0,1,2",
                "--workers", "1", "--rules", "3", "--epochs", "2", "--out", str(tmp_path / "o")]
        assert main(args) == 0
        assert sorted(calls) == ["load_csv", "load_manifest"]
        assert len(read_rows(tmp_path / "o" / "metrics.csv")) == 3

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "case, shown",
        [
            ("non_finite", "d.csv: non-finite value inf at row 7, column 1"),
            ("constant_feature", "feature column 0 is constant on the training rows"),
            ("few_rows", "need at least 10 rows to split, got 9"),
            ("many_rules", "28 samples cannot support 29 clusters"),
            ("constant_test_target", "target column is constant on the test rows"),
            # 4 distinct rows leave an FCM cluster empty; numpy's divide warning, which
            # tier-1 turns into an error, must not show either
            ("few_distinct_rows",
             "one of 6 FCM clusters is empty: likely fewer distinct training rows than rules"),
        ],
    )
    def test_bad_data_rejected_before_out_dir(
        self, tmp_path, capsys, monkeypatch, workers, case, shown
    ):
        # each fault shows only once the CSV is read or a seed is split and clustered
        monkeypatch.chdir(tmp_path)
        X = np.random.default_rng(0).uniform(size=(40, 2))
        y = X.sum(axis=1)
        rules = "3"
        if case == "non_finite":
            X[5, 1] = np.inf
        elif case == "constant_feature":
            X[:, 0] = 0.5
        elif case == "few_rows":
            X, y = X[:9], y[:9]
        elif case == "many_rules":
            rules = "29"
        elif case == "few_distinct_rows":
            X, y, rules = np.round(X), X[:, 0] - X[:, 1], "6"
        else:
            y[RandomStream(0).permutation(40)[32:]] = 1.0  # the test rows of seed 0
        write_manifest(X, y)
        out = tmp_path / "x"
        args = ["train", "--manifest", "m.json", "--seeds", "0,1", "--rules", rules,
                "--epochs", "2", "--workers", str(workers), "--out", str(out)]
        assert main(args) == 1
        assert f"error: {shown}" in capsys.readouterr().err
        assert not out.exists()

    def test_few_valued_columns_train(self, tmp_path, monkeypatch):
        # a binary and a three-valued column: FCM's weighted mean of the binary column
        # rounds to 1 + 2.2e-16 here, which train rejects unless fcm_fit projects it
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(6)
        n, rules = int(rng.integers(50, 300)), int(rng.integers(2, 11))
        X = np.column_stack([(rng.random(n) < 0.5).astype(float), rng.integers(0, 3, n) / 2.0])
        y = X[:, 0] + X[:, 1] + rng.standard_normal(n)
        assert (n, rules) == (161, 6)
        write_manifest(X, y)
        args = ["train", "--manifest", "m.json", "--seeds", "0", "--rules", "6",
                "--epochs", "5", "--out", "o"]
        assert main(args) == 0
        (row,) = read_rows(tmp_path / "o" / "metrics.csv")
        assert row["diverged"] == "0"

    @pytest.mark.parametrize(
        "target, features, shown",
        [
            (2, ["a", "y"], "d.csv: target column 2 and feature column 'y' are both column 2"),
            ("y", ["a", "a"], "d.csv: feature column 'a' and feature column 'a' are both column 0"),
            ("y", ["a", 0], "d.csv: feature column 'a' and feature column 0 are both column 0"),
        ],
    )
    def test_column_used_twice_rejected_before_out_dir(
        self, tmp_path, capsys, monkeypatch, target, features, shown
    ):
        # each spelling passes the manifest check; only the header resolves them to one column
        monkeypatch.chdir(tmp_path)
        X, y = synth_regression("sinc2d", 100, 0.05, seed=0)
        np.savetxt("d.csv", np.column_stack([X, y]), delimiter=",", header="a,b,y", comments="")
        doc = {"csv_path": "d.csv", "target_column": target, "feature_columns": features}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        out = tmp_path / "x"
        args = ["train", "--manifest", "m.json", "--seeds", "0", "--rules", "2",
                "--epochs", "2", "--out", str(out)]
        assert main(args) == 1
        assert f"error: {shown}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [cmd_train, cmd_init_study, cmd_pareto_sweep])
    def test_commands_validate_before_writing(self, tmp_path, command):
        # a config that builds, but whose split is too small for its rules: the command rejects it
        out = tmp_path / "runs"
        cfg = fast_cfg(out, seeds=[0], scales=[0.5], rules=250)
        with pytest.raises(ValueError, match="210 samples cannot support 250 clusters"):
            command(cfg)
        assert not out.exists()


class TestConfigValue:
    @pytest.mark.parametrize(
        "value",
        [
            ExperimentConfig(synth="sinc2d"),
            TrainConfig(),
            FCMConfig(n_clusters=3),
            DatasetManifest(csv_path="d.csv", target_column="t", feature_columns=["a"]),
        ],
        ids=lambda value: type(value).__name__,
    )
    def test_fields_cannot_be_assigned(self, value):
        for f in fields(value):
            with pytest.raises(FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))

    def test_config_file_read_as_written(self, tmp_path):
        # a leading byte-order mark is skipped; a JSON integer in a float field stays an int
        cfg_path = tmp_path / "cfg.json"
        doc = {"synth": "sinc2d", "lam": 0, "d_target": 1}
        cfg_path.write_text("\ufeff" + json.dumps(doc), encoding="utf-8")
        cfg, _ = build_config(build_parser().parse_args(["train", "--config", str(cfg_path)]))
        assert (cfg.lam, cfg.d_target) == (0, 1)
        assert type(cfg.lam) is type(cfg.d_target) is int

    def test_names_become_members(self):
        cfg = ExperimentConfig(synth="sinc2d", mode="x_anfis", mf="gaussian", order="first")
        assert (cfg.mode, cfg.mf, cfg.order) == (Mode.X_ANFIS, MFKind.GAUSSIAN, Order.FIRST)
        assert [type(v) for v in (cfg.mode, cfg.mf, cfg.order)] == [Mode, MFKind, Order]

    def test_sweep_run_survives_the_pool_pickle(self, tmp_path):
        for run in pareto_sweep_runs(fast_cfg(tmp_path, weights_count=2)):
            again = pickle.loads(ForkingPickler.dumps(run))
            assert again == run
            members = (again.cfg.mode, again.cfg.mf, again.cfg.order)
            assert [type(v) for v in members] == [Mode, MFKind, Order]


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(*args):
    """Run this interpreter on args with the repository's src first on PYTHONPATH."""
    path = [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


class TestImportFootprint:
    def test_cli_import_leaves_scipy_and_the_pool_unloaded(self):
        # concurrent.futures is imported only where --workers > 1 builds a pool
        code = (
            "import sys, xanfis.cli; print(xanfis.cli.__file__); "
            "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)"
        )
        done = run_python("-c", code)
        assert done.returncode == 0, done.stderr
        module_file, scipy_loaded, pool_loaded = done.stdout.split()
        assert module_file.startswith(os.path.join(SRC, ""))
        assert (scipy_loaded, pool_loaded) == ("False", "False")


class TestModuleEntry:
    def test_invalid_config_exits_one_before_out_dir(self, tmp_path):
        out = tmp_path / "x"
        done = run_python(
            "-m", "xanfis.cli", "train", "--synth", "sinc2d", "--synth-n", "10", "--out", str(out)
        )
        assert (done.returncode, done.stderr) == (1, "error: need n >= 50, got 10\n")
        assert not out.exists()

    def test_help_exits_zero(self):
        done = run_python("-m", "xanfis.cli", "--help")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: xanfis")

"""Command harness: file contracts, grids, determinism, error paths."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from xanfis.cli import (
    ExperimentConfig,
    build_config,
    build_parser,
    cmd_export_partition,
    cmd_init_study,
    cmd_pareto_sweep,
    cmd_train,
    main,
    weight_grid,
)
from xanfis.inference import load_model
from xanfis.membership import SCALE_MAX, SCALE_MIN, membership_values
from xanfis.metrics import mean_distinguishability


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

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            weight_grid(0, 0.01, 10)
        with pytest.raises(ValueError):
            weight_grid(5, -1.0, 10)


class TestTrainCommand:
    def test_file_contract(self, tmp_path):
        out = tmp_path / "runs"
        records = cmd_train(fast_cfg(out, mode="x_anfis"))
        assert len(records) == 3
        for seed in (0, 1, 2):
            assert (out / f"model_seed{seed:04d}.json").exists()
            assert (out / f"trace_seed{seed:04d}.csv").exists()
        rows = read_rows(out / "metrics.csv")
        assert len(rows) == 3
        assert rows[0]["mode"] == "x_anfis"
        agg = read_rows(out / "aggregate.csv")
        assert [r["metric"] for r in agg] == ["r2", "mean_D"]
        assert all(r["ci_lo"] != "" for r in agg)

    def test_model_artifact_readable(self, tmp_path):
        out = tmp_path / "runs"
        cmd_train(fast_cfg(out, seeds=[0]))
        rb, scaler_meta = load_model(out / "model_seed0000.json")
        assert rb.centers.shape == (3, 2)
        assert scaler_meta is not None and "x_min" in scaler_meta

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
        serial = cmd_train(fast_cfg(tmp_path / "a", workers=1))
        parallel = cmd_train(fast_cfg(tmp_path / "b", workers=2))
        for r1, r2 in zip(serial, parallel):
            assert r1.run_id == r2.run_id
            assert r1.report.r2 == r2.report.r2
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()


class TestInitStudyCommand:
    def test_kind_by_scale_grid(self, tmp_path):
        out = tmp_path / "study"
        records = cmd_init_study(fast_cfg(out, seeds=[0]), [0.5, 0.25, 0.125])
        assert len(records) == 6  # two kinds x three scales
        rows = read_rows(out / "summary.csv")
        assert len(rows) == 6
        assert {r["mf"] for r in rows} == {"gaussian", "cauchy"}
        assert {r["init_scale"] for r in rows} == {"0.5", "0.25", "0.125"}
        for scale in ("0.5", "0.25", "0.125"):
            assert (out / f"trajectory_gaussian_{scale}.csv").exists()
            assert (out / f"trajectory_cauchy_{scale}.csv").exists()

    def test_initial_scales_come_from_override(self, tmp_path):
        out = tmp_path / "study"
        cmd_init_study(fast_cfg(out, seeds=[0]), [0.25])
        rows = read_rows(out / "trajectory_cauchy_0.25.csv")
        first_epoch = [r for r in rows if r["epoch"] == "0"]
        assert all(float(r["scale"]) == 0.25 for r in first_epoch)

    def test_empty_scales_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nonempty"):
            cmd_init_study(fast_cfg(tmp_path / "s"), [])

    def test_scale_bounds_accepted(self, tmp_path):
        out = tmp_path / "study"
        cmd_init_study(fast_cfg(out, seeds=[0], max_epochs=2), [SCALE_MIN, SCALE_MAX])
        assert {r["init_scale"] for r in read_rows(out / "summary.csv")} == {"0.001", "1.0"}

    def test_colliding_file_stems_rejected(self, tmp_path):
        # both scales print as 0.1 under %g, so their trace files would collide
        out = tmp_path / "s"
        with pytest.raises(ValueError, match="share output file names: 0.1"):
            cmd_init_study(fast_cfg(out, seeds=[0]), [0.1, 0.5, 0.1000001])
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
        out = tmp_path / "runs"
        cmd_train(fast_cfg(out, seeds=[0], rules=4))
        model = out / "model_seed0000.json"
        centers_csv, curves_csv = cmd_export_partition(model, 17, tmp_path / "export")
        centers = read_rows(centers_csv)
        assert len(centers) == 4 * 2  # rules x features
        curves = read_rows(curves_csv)
        assert len(curves) == 4 * 2 * 17
        rb, _ = load_model(model)
        for row in curves[:40]:
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

    def test_anfis_mode_warns_on_explicit_lr_xpass(self, tmp_path, capsys):
        args = [
            "train", "--synth", "sinc2d", "--synth-n", "300", "--rules", "3",
            "--seeds", "0", "--epochs", "5", "--mode", "anfis",
            "--lr-xpass", "0.2", "--out", str(tmp_path / "w"),
        ]
        assert main(args) == 0
        assert "lr_xpass is ignored" in capsys.readouterr().err

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
            "--out", str(out),
        ]
        assert main(args) == 1
        assert "diverged runs: seed0000" in capsys.readouterr().err
        (row,) = read_rows(out / "metrics.csv")
        assert (row["diverged"], row["epochs_run"]) == ("1", "0")
        assert all(row[k] == "nan" for k in ("mse", "rmse", "mae", "r2"))
        rb, _ = load_model(out / "model_seed0000.json")
        assert rb.consequents is None
        assert float(row["mean_D"]) == mean_distinguishability(rb)[0]
        agg = {r["metric"]: r for r in read_rows(out / "aggregate.csv")}
        assert (agg["r2"]["mean"], agg["r2"]["n"]) == ("", "0")

    def test_missing_data_source_fails(self, tmp_path):
        code = main(["train", "--seeds", "0", "--out", str(tmp_path / "x")])
        assert code == 1

    def test_init_study_requires_scales(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["init-study", "--synth", "sinc2d", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_parser_covers_spec_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "pareto-sweep", "--mode", "mo_anfis",
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


class TestImportFootprint:
    def test_cli_import_leaves_scipy_unloaded(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        code = "import sys, xanfis.cli; print(xanfis.cli.__file__); print('scipy' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
            capture_output=True, text=True, check=True,
        )
        module_file, scipy_loaded = done.stdout.split()
        assert module_file.startswith(os.path.join(src, ""))
        assert scipy_loaded == "False"

"""Experiment command-line harness.

Four subcommands cover the experiment families:

    train             one model per seed, metrics + aggregate CIs
    init-study        MF-kind x initialization-scale grid with trajectories
    pareto-sweep      scalarization-weight sweep plus reference runs
    export-partition  centers and membership curves of a saved model

Every output is CSV or JSON (plot-ready data; no figure rendering).  All
commands are deterministic given an identical config: rerunning writes
byte-identical files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .data import load_csv, load_manifest, split_scale, synth_regression, write_csv
from .fcm_init import FCMConfig, derive_scales, fcm_fit
from .inference import Order, RuleBase, load_model, save_model
from .membership import SCALE_MAX, SCALE_MIN, MFKind, membership_values
from .metrics import (
    EvalReport,
    ParetoPoint,
    evaluate_model,
    mean_distinguishability,
    pareto_front,
)
from .numerics import mean_ci95
from .training import (
    DivergenceError,
    Mode,
    TrainConfig,
    traces_to_csv,
    train,
    trajectory_to_csv,
)


@dataclass
class ExperimentConfig:
    # data source: exactly one of manifest / synth
    manifest: str | None = None
    synth: str | None = None
    synth_n: int = 2000
    synth_noise: float = 0.05
    # model
    mode: str = "anfis"
    mf: str = "cauchy"
    rules: int = 5
    order: str = "zero"
    # training
    lr_backward: float = 0.1
    lr_xpass: float = 0.1
    lam: float = 1e-4
    d_target: float = 0.5
    mo_weight: float = 1.0
    max_epochs: int = 500
    patience: int = 20
    clip_lo: float = -1.0
    clip_hi: float = 1.0
    # clustering
    fcm_fuzziness: float = 2.0
    fcm_tol: float = 1e-5
    fcm_max_iter: int = 300
    # experiment
    seeds: list = field(default_factory=lambda: list(range(10)))
    out: str = "runs"
    workers: int = 1
    trajectory: bool = False
    # init-study
    scales: list = field(default_factory=list)
    # pareto sweep
    weights_count: int = 20
    weights_lo: float = 0.01
    weights_hi: float = 10.0

    def train_config(self, mode=None, mo_weight=None):
        return TrainConfig(
            mode=Mode(mode or self.mode),
            lr_backward=self.lr_backward,
            lr_xpass=self.lr_xpass,
            lam=self.lam,
            d_target=self.d_target,
            mo_weight=self.mo_weight if mo_weight is None else mo_weight,
            max_epochs=self.max_epochs,
            patience=self.patience,
            clip_lo=self.clip_lo,
            clip_hi=self.clip_hi,
        )


def weight_grid(count, lo, hi):
    """count log-spaced scalarization weights from lo to hi, endpoints exact."""
    if count < 1:
        raise ValueError(f"weight count must be >= 1, got {count}")
    if not (0 < lo <= hi):
        raise ValueError(f"weight range must be positive, got [{lo}, {hi}]")
    if count == 1:
        return np.array([lo])
    grid = np.logspace(np.log10(lo), np.log10(hi), count)
    grid[0] = lo
    grid[-1] = hi
    return grid


@dataclass
class RunRecord:
    run_id: str
    mode: str
    mf: str
    seed: int
    report: EvalReport
    rb: object
    traces: list
    scaler: object
    epochs_run: int
    diverged: bool = False
    weight: float | None = None
    init_scale: float | None = None


def prepare_seed(task):
    """Dataset, split and FCM fit of one seed, shared by all of its runs.

    task: any task of the seed (only its cfg and seed are read).
    """
    cfg = task["cfg"]
    seed = int(task["seed"])
    if cfg.manifest:
        X, y = load_csv(load_manifest(cfg.manifest))
    elif cfg.synth:
        X, y = synth_regression(cfg.synth, cfg.synth_n, cfg.synth_noise, seed=seed)
    else:
        raise ValueError("config must name either a CSV manifest or a synthetic dataset")
    split = split_scale(X, y, seed=seed)
    fcm = fcm_fit(
        split.X_train,
        FCMConfig(
            n_clusters=cfg.rules,
            fuzziness=cfg.fcm_fuzziness,
            tol=cfg.fcm_tol,
            max_iter=cfg.fcm_max_iter,
            seed=seed,
        ),
    )
    return split, fcm


def run_experiment(task):
    """Train and evaluate one configured run; used by every subcommand.

    task: dict with cfg (ExperimentConfig), run_id, seed and prepared (the
    seed's (split, fcm) pair from prepare_seed), plus optional overrides
    mode / mf / mo_weight / init_scale.
    """
    cfg = task["cfg"]
    split, fcm = task["prepared"]
    mode = Mode(task.get("mode", cfg.mode))
    mf = MFKind(task.get("mf", cfg.mf))

    scales = derive_scales(split.X_train, fcm, override_scale=task.get("init_scale"))
    rb0 = RuleBase(
        mf_kind=mf, centers=fcm.centers, scales=scales, order=Order(cfg.order)
    )
    tcfg = cfg.train_config(mode=mode, mo_weight=task.get("mo_weight"))

    diverged = False
    try:
        rb, traces = train(split.X_train, split.y_train, split.X_val, split.y_val, rb0, tcfg)
    except DivergenceError as err:
        diverged = True
        rb, traces = err.last_rb, err.traces

    if rb.consequents is None:
        # failed before the first fit: no error metrics, initial antecedents' D
        nan = float("nan")
        mean_d, per_feature = mean_distinguishability(rb)
        report = EvalReport(nan, nan, nan, nan, mean_d, per_feature)
    else:
        report = evaluate_model(rb, split.X_test, split.y_test)
    return RunRecord(
        run_id=task["run_id"],
        mode=mode.value,
        mf=mf.value,
        seed=int(task["seed"]),
        report=report,
        rb=rb,
        traces=traces,
        scaler=split.scaler,
        epochs_run=max(len(traces) - 1, 0),
        diverged=diverged,
        weight=task.get("mo_weight"),
        init_scale=task.get("init_scale"),
    )


def _run_all(tasks, workers):
    """Prepare each distinct seed once, then run every task; sorted by run_id.

    Both stages go through the same map (a process pool when workers > 1),
    so the preparation of different seeds is spread over the workers too.
    """
    first_task = {}
    for task in tasks:
        first_task.setdefault(task["seed"], task)
    if workers > 1:
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    else:
        pool = contextlib.nullcontext()
    with pool as executor:
        mapper = executor.map if executor else map
        prepared = dict(zip(first_task, mapper(prepare_seed, first_task.values())))
        tasks = [{**task, "prepared": prepared[task["seed"]]} for task in tasks]
        results = list(mapper(run_experiment, tasks))
    return sorted(results, key=lambda r: r.run_id)


def _check_out_dir(out):
    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write_probe")
        with open(probe, "w", encoding="utf-8"):
            pass
        os.remove(probe)
    except OSError as err:
        raise ValueError(f"output directory {out!r} is not writable: {err}") from err


METRICS_COLUMNS = [
    "run_id", "mode", "mf", "order", "rules", "seed", "lr_backward", "lr_xpass",
    "lambda", "d_target", "mo_weight", "weight", "init_scale", "epochs_run",
    "diverged", "mse", "rmse", "mae", "r2", "mean_D",
]


def _metrics_row(cfg, rec):
    rep = rec.report
    return [
        rec.run_id, rec.mode, rec.mf, cfg.order, cfg.rules, rec.seed,
        repr(cfg.lr_backward), repr(cfg.lr_xpass), repr(cfg.lam),
        repr(cfg.d_target), repr(cfg.mo_weight),
        "" if rec.weight is None else repr(rec.weight),
        "" if rec.init_scale is None else repr(rec.init_scale),
        rec.epochs_run, int(rec.diverged),
        repr(rep.mse), repr(rep.rmse), repr(rep.mae), repr(rep.r2), repr(rep.mean_D),
    ]


def _aggregate_row(name, values):
    """Mean and 95% CI of one metric over the runs where it is finite.

    n counts those runs; no CI for a single run, no mean for none (every
    run failed before its first fit).
    """
    values = [v for v in values if np.isfinite(v)]
    if len(values) >= 2:
        mean, lo, hi = mean_ci95(values)
        return [name, repr(mean), repr(lo), repr(hi), len(values)]
    if values:
        return [name, repr(float(values[0])), "", "", 1]
    return [name, "", "", "", 0]


# --------------------------------------------------------------------
# Subcommands (library-level; the argparse layer wires flags to these)
# --------------------------------------------------------------------

def cmd_train(cfg):
    """One model per seed; writes models, traces, metrics and aggregates."""
    _check_out_dir(cfg.out)
    tasks = [
        {"cfg": cfg, "run_id": f"seed{seed:04d}", "seed": seed}
        for seed in cfg.seeds
    ]
    records = _run_all(tasks, cfg.workers)
    for rec in records:
        save_model(
            os.path.join(cfg.out, f"model_{rec.run_id}.json"),
            rec.rb,
            scaler_meta=rec.scaler.to_dict(),
        )
        traces_to_csv(rec.traces, os.path.join(cfg.out, f"trace_{rec.run_id}.csv"))
        if cfg.trajectory:
            trajectory_to_csv(
                rec.traces, os.path.join(cfg.out, f"trajectory_{rec.run_id}.csv")
            )
    write_csv(
        os.path.join(cfg.out, "metrics.csv"),
        METRICS_COLUMNS,
        (_metrics_row(cfg, rec) for rec in records),
    )
    write_csv(
        os.path.join(cfg.out, "aggregate.csv"),
        ["metric", "mean", "ci_lo", "ci_hi", "n"],
        [
            _aggregate_row("r2", [r.report.r2 for r in records]),
            _aggregate_row("mean_D", [r.report.mean_D for r in records]),
        ],
    )
    return records


def cmd_init_study(cfg, scale_list):
    """Both MF kinds across the given initialization scales (one seed).

    Every run's parameter trajectory is written; diverged runs keep their
    last finite metrics instead of aborting the study.
    """
    if not scale_list:
        raise ValueError("init-study needs a nonempty list of initialization scales")
    stems = [f"{float(scale):g}" for scale in scale_list]
    clashes = sorted({stem for stem in stems if stems.count(stem) > 1})
    if clashes:
        raise ValueError(f"init scales share output file names: {', '.join(clashes)}")
    for scale in scale_list:
        if not SCALE_MIN <= float(scale) <= SCALE_MAX:
            raise ValueError(
                f"init scale {float(scale):g} is outside [{SCALE_MIN:g}, {SCALE_MAX:g}]"
            )
    _check_out_dir(cfg.out)
    seed = cfg.seeds[0]
    tasks = []
    for kind in (MFKind.GAUSSIAN, MFKind.CAUCHY):
        for idx, scale in enumerate(scale_list):
            tasks.append(
                {
                    "cfg": cfg,
                    "run_id": f"{kind.value}_s{idx:02d}",
                    "seed": seed,
                    "mode": Mode.ANFIS.value,
                    "mf": kind.value,
                    "init_scale": float(scale),
                }
            )
    records = _run_all(tasks, cfg.workers)
    for rec in records:
        stem = f"{rec.mf}_{rec.init_scale:g}"
        traces_to_csv(rec.traces, os.path.join(cfg.out, f"trace_{stem}.csv"))
        trajectory_to_csv(rec.traces, os.path.join(cfg.out, f"trajectory_{stem}.csv"))
    write_csv(
        os.path.join(cfg.out, "summary.csv"),
        ["mf", "init_scale", "mse", "rmse", "mae", "r2", "mean_D", "epochs_run", "diverged"],
        (
            [
                rec.mf, repr(rec.init_scale), repr(rec.report.mse), repr(rec.report.rmse),
                repr(rec.report.mae), repr(rec.report.r2), repr(rec.report.mean_D),
                rec.epochs_run, int(rec.diverged),
            ]
            for rec in records
        ),
    )
    return records


def cmd_pareto_sweep(cfg):
    """Scalarization-weight sweep over cfg.weights_* plus single ANFIS / X-ANFIS references.

    Writes points.csv (sweep points then reference rows) and front.csv
    (non-dominated subset of the sweep points, sorted by r2 descending).
    """
    _check_out_dir(cfg.out)
    weights = weight_grid(cfg.weights_count, cfg.weights_lo, cfg.weights_hi)
    seed = cfg.seeds[0]
    tasks = [
        {
            "cfg": cfg,
            "run_id": f"mo_w{idx:04d}",
            "seed": seed,
            "mode": Mode.MO_ANFIS.value,
            "mo_weight": float(w),
        }
        for idx, w in enumerate(weights)
    ]
    tasks.append({"cfg": cfg, "run_id": "ref_anfis", "seed": seed, "mode": Mode.ANFIS.value})
    tasks.append({"cfg": cfg, "run_id": "ref_x_anfis", "seed": seed, "mode": Mode.X_ANFIS.value})
    records = _run_all(tasks, cfg.workers)

    sweep_records = [r for r in records if r.run_id.startswith("mo_w")]
    refs = [r for r in records if not r.run_id.startswith("mo_w")]
    points = [
        ParetoPoint(run_id=r.run_id, r2=r.report.r2, mean_D=r.report.mean_D,
                    config={"weight": r.weight, "mode": r.mode})
        for r in sweep_records
        if np.isfinite(r.report.r2)  # a run that failed before its first fit has no r2
    ]
    front = pareto_front(points)

    columns = ["run_id", "mode", "weight", "seed", "r2", "mean_D"]

    def point_row(rec):
        return [
            rec.run_id, rec.mode,
            "" if rec.weight is None else repr(rec.weight),
            rec.seed, repr(rec.report.r2), repr(rec.report.mean_D),
        ]

    write_csv(os.path.join(cfg.out, "points.csv"), columns, map(point_row, sweep_records + refs))
    by_id = {rec.run_id: rec for rec in sweep_records}
    write_csv(
        os.path.join(cfg.out, "front.csv"), columns, (point_row(by_id[p.run_id]) for p in front)
    )
    return records, front


def cmd_export_partition(model_path, samples_per_curve, out):
    """Dump a saved model's centers and sampled membership curves."""
    _check_out_dir(out)
    rb, _scaler = load_model(model_path)
    r, f = rb.centers.shape
    centers_path = os.path.join(out, "centers.csv")
    write_csv(
        centers_path,
        ["rule", "feature", "center", "scale"],
        (
            [j, k, repr(float(rb.centers[j, k])), repr(float(rb.scales[j, k]))]
            for j in range(r)
            for k in range(f)
        ),
    )
    xs = np.linspace(0.0, 1.0, int(samples_per_curve))

    def curve_rows():
        for k in range(f):
            for j in range(r):
                mu = membership_values(rb.mf_kind, xs, rb.centers[j, k], rb.scales[j, k])
                for x, m in zip(xs, mu):
                    yield [k, j, repr(float(x)), repr(float(m))]

    curves_path = os.path.join(out, "curves.csv")
    write_csv(curves_path, ["feature", "rule", "x", "membership"], curve_rows())
    return centers_path, curves_path


# --------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------

def _parse_seeds(text):
    return [int(s) for s in text.split(",") if s.strip() != ""]


def _parse_scales(text):
    return [float(s) for s in text.split(",") if s.strip() != ""]


def _parse_range(text):
    sep = ":" if ":" in text else ","
    lo, hi = text.split(sep)
    return float(lo), float(hi)


def _add_common_flags(p):
    p.add_argument("--config", help="JSON file with ExperimentConfig fields")
    p.add_argument("--manifest", help="JSON dataset manifest (CSV ingestion)")
    p.add_argument("--synth", choices=["two_blob", "sinc2d", "friedman"])
    p.add_argument("--synth-n", type=int, dest="synth_n")
    p.add_argument("--synth-noise", type=float, dest="synth_noise")
    p.add_argument("--mode", choices=[m.value for m in Mode])
    p.add_argument("--mf", choices=[k.value for k in MFKind])
    p.add_argument("--rules", type=int)
    p.add_argument("--order", choices=[o.value for o in Order])
    p.add_argument("--seeds", type=_parse_seeds, help="comma-separated seed list")
    p.add_argument("--lr", type=float, dest="lr_backward")
    p.add_argument("--lr-xpass", type=float, dest="lr_xpass")
    p.add_argument("--lambda", type=float, dest="lam")
    p.add_argument("--d-target", type=float, dest="d_target")
    p.add_argument("--mo-weight", type=float, dest="mo_weight")
    p.add_argument("--epochs", type=int, dest="max_epochs")
    p.add_argument("--patience", type=int)
    p.add_argument("--out")
    p.add_argument("--workers", type=int)
    p.add_argument("--trajectory", action="store_const", const=True, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xanfis",
        description="Neuro-fuzzy regression experiments (ANFIS / MO-ANFIS / X-ANFIS)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one model per seed")
    _add_common_flags(p_train)

    p_init = sub.add_parser("init-study", help="MF kind x init-scale stability grid")
    _add_common_flags(p_init)
    p_init.add_argument("--scales", type=_parse_scales, help="comma-separated init scales")

    p_sweep = sub.add_parser("pareto-sweep", help="scalarization weight sweep")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--weights-count", type=int, dest="weights_count")
    p_sweep.add_argument(
        "--weights-range", type=_parse_range, dest="weights_range", help="LO:HI"
    )

    p_export = sub.add_parser("export-partition", help="dump centers and MF curves")
    p_export.add_argument("--model", required=True)
    p_export.add_argument("--samples", type=int, default=201, help="points per curve")
    p_export.add_argument("--out", required=True)
    return parser


_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def build_config(args):
    """Merge config file and explicit flags; returns (config, explicit keys)."""
    doc = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
        unknown = set(doc) - _CONFIG_FIELDS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    explicit = set(doc)
    for name in _CONFIG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            doc[name] = value
            explicit.add(name)
    if getattr(args, "weights_range", None) is not None:
        doc["weights_lo"], doc["weights_hi"] = args.weights_range
        explicit.update(("weights_lo", "weights_hi"))
    cfg = ExperimentConfig(**doc)
    if not cfg.seeds:
        raise ValueError("need at least one seed")
    if len(set(cfg.seeds)) != len(cfg.seeds):
        raise ValueError(f"duplicate seeds in {cfg.seeds}: each seed names its own output files")
    return cfg, explicit


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "export-partition":
            cmd_export_partition(args.model, args.samples, args.out)
            return 0
        cfg, explicit = build_config(args)
        one_seed = args.command in ("init-study", "pareto-sweep")
        if one_seed and "seeds" in explicit and len(cfg.seeds) > 1:
            raise ValueError(f"{args.command} runs one seed, got seeds {cfg.seeds}")
        if cfg.mode == Mode.ANFIS.value and "lr_xpass" in explicit:
            print("warning: lr_xpass is ignored in anfis mode", file=sys.stderr)
        if args.command == "train":
            records = cmd_train(cfg)
            if any(r.diverged for r in records):
                bad = [r.run_id for r in records if r.diverged]
                print(f"error: diverged runs: {', '.join(bad)}", file=sys.stderr)
                return 1
            return 0
        if args.command == "init-study":
            if args.scales is not None and not args.scales:
                parser.error("--scales must list at least one value")
            scale_list = args.scales if args.scales is not None else cfg.scales
            if not scale_list:
                parser.error("init-study needs --scales or a 'scales' config entry")
            cmd_init_study(cfg, scale_list)
            return 0
        if args.command == "pareto-sweep":
            cmd_pareto_sweep(cfg)
            return 0
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, OSError, DivergenceError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
import contextlib
import operator
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import (
    SYNTH_DATASETS, check_synth, load_csv, load_manifest, read_json,
    split_scale, synth_regression, write_csv,
)
from .fcm_init import FCMConfig, fcm_fit
from .inference import Order, RuleBase, load_model, save_model
from .membership import SCALE_MAX, SCALE_MIN, MFKind, membership_values
from .metrics import EvalReport, evaluate_model, mean_distinguishability, pareto_front
from .numerics import check_value, has_type, mean_ci95
from .training import DIVERGED, Mode, TrainConfig, traces_to_csv, train, trajectory_to_csv


@dataclass(frozen=True)
class ExperimentConfig(TrainConfig):
    """Every knob of a command: the TrainConfig fields plus data, model and experiment."""

    # data source: exactly one of manifest / synth
    manifest: str | None = None
    synth: str | None = None
    synth_n: int = 2000
    synth_noise: float = 0.05
    # model
    mf: str = "cauchy"
    rules: int = 5
    order: str = "zero"
    # clustering
    fcm_tol: float = FCMConfig.tol
    fcm_max_iter: int = FCMConfig.max_iter
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

    def fcm_config(self, seed):
        """The FCM settings of this config's rules and fcm_* fields, seeded."""
        return FCMConfig(
            n_clusters=self.rules, tol=self.fcm_tol, max_iter=self.fcm_max_iter, seed=seed
        )

    def __post_init__(self):
        """Reject, naming it, any value a run would fail on or silently misuse; opens no file."""
        super().__post_init__()
        object.__setattr__(self, "mf", MFKind(check_value(self.mf, MFKind, "mf")))
        object.__setattr__(self, "order", Order(check_value(self.order, Order, "order")))
        if bool(self.manifest) == bool(self.synth):
            raise ValueError("config must name exactly one data source (manifest or synth)")
        if self.synth:
            check_synth(self.synth, self.synth_n)
        if self.rules < 2:
            raise ValueError(f"rules must be >= 2, got {self.rules}")
        try:
            self.fcm_config(seed=0)
        except ValueError as err:  # FCMConfig names tol and max_iter
            raise ValueError(f"fcm_{err}") from None
        weight_grid(self.weights_count, self.weights_lo, self.weights_hi)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not self.seeds or not all(has_type(seed, "int") for seed in self.seeds):
            raise ValueError(f"seeds must be a nonempty list of integers, got {self.seeds!r}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(
                f"duplicate seeds in {self.seeds}: each seed names its own output files"
            )
        if not all(has_type(scale, "float") for scale in self.scales):
            raise ValueError(f"scales must be numbers, got {self.scales!r}")


def weight_grid(count, lo, hi):
    """count log-spaced scalarization weights from lo to hi, endpoints exact."""
    if check_value(count, "int", "weight count") < 1:
        raise ValueError(f"weight count must be >= 1, got {count}")
    lo, hi = check_value(lo, "float", "weights_lo"), check_value(hi, "float", "weights_hi")
    if not (0 < lo <= hi):
        raise ValueError(f"weight range must satisfy 0 < lo <= hi, got [{lo}, {hi}]")
    grid = np.logspace(np.log10(lo), np.log10(hi), count)
    grid[-1] = hi
    grid[0] = lo  # last, so a one-weight grid is [lo]
    return grid


@dataclass(frozen=True)
class Run:
    """One run of a command; cfg carries its mode, mf, mo_weight and trajectory, run_id its files."""

    run_id: str
    seed: int
    cfg: ExperimentConfig
    weight: float | None = None  # the scalarization weight of a sweep point
    init_scale: float | None = None  # the init-study override of every scale
    report: EvalReport | None = None  # this and the two below: set by run_experiment
    stop_reason: str | None = None  # a training.TrainResult stop reason
    epochs_run: int | None = None

    @property
    def diverged(self):
        return int(self.stop_reason in DIVERGED)


def prepare_seed(seed, cfg, data):
    """(split, FCM fit) of seed under cfg on data, (X, y) or None if synthetic."""
    if data is None:
        data = synth_regression(cfg.synth, cfg.synth_n, cfg.synth_noise, seed=seed)
    split = split_scale(*data, seed=seed)
    return split, fcm_fit(split.X_train, cfg.fcm_config(seed))


def run_experiment(run, prepared):
    """Train, evaluate and write the files of one run on its seed's prepare_seed result."""
    split, fcm = prepared
    cfg = run.cfg
    scales = fcm.scales if run.init_scale is None else np.full(fcm.scales.shape, run.init_scale)
    rb0 = RuleBase(mf_kind=cfg.mf, centers=fcm.centers, scales=scales, order=cfg.order)
    rb, traces, stop_reason = train(
        split.X_train, split.y_train, split.X_val, split.y_val, rb0, cfg
    )
    if rb.consequents is None:
        # failed before the first fit: no error metrics, initial antecedents' D
        nan = float("nan")
        report = EvalReport(nan, nan, nan, nan, mean_distinguishability(rb))
    else:
        report = evaluate_model(rb, split.X_test, split.y_test)
    save_model(os.path.join(cfg.out, f"model_{run.run_id}.json"), rb, split.scaler.to_dict())
    traces_to_csv(traces, os.path.join(cfg.out, f"trace_{run.run_id}.csv"))
    if cfg.trajectory:
        trajectory_to_csv(traces, os.path.join(cfg.out, f"trajectory_{run.run_id}.csv"))
    return replace(run, report=report, stop_reason=stop_reason, epochs_run=max(len(traces) - 1, 0))


def _run_all(runs, cfg):
    """Run every run of a command; returns them, results filled in, in their order.

    The manifest and its CSV are read once and each distinct seed's split
    and FCM fit (centers and scales) are computed once, all before cfg.out is
    made, so a bad input or a degenerate split leaves nothing behind.
    Preparation and the runs go through the same map (a process pool of
    at most one worker per run when cfg.workers > 1), so the seeds are
    prepared in parallel too; each run writes its own files as it ends.
    """
    data = load_csv(load_manifest(cfg.manifest)) if cfg.manifest else None
    seeds = dict.fromkeys(run.seed for run in runs)
    workers = min(cfg.workers, len(runs))
    if workers > 1:
        import concurrent.futures  # loaded only when a pool is built

        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    else:
        pool = contextlib.nullcontext()
    with pool as executor:
        mapper = executor.map if executor else map
        prepared = mapper(prepare_seed, seeds, [cfg] * len(seeds), [data] * len(seeds))
        prepared = dict(zip(seeds, prepared))
        del data  # every seed is split: the raw rows are not kept through training
        _check_out_dir(cfg.out)
        return list(mapper(run_experiment, runs, [prepared[run.seed] for run in runs]))


def _check_out_dir(out):
    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write_probe")
        with open(probe, "w", encoding="utf-8"):
            pass
        os.remove(probe)
    except OSError as err:
        raise ValueError(f"output directory {out!r} is not writable: {err}") from err


#: the record attribute of each column of every command's run table
_CELLS = {
    "run_id": "run_id",
    "mode": "cfg.mode",
    "mf": "cfg.mf",
    "order": "cfg.order",
    "rules": "cfg.rules",
    "seed": "seed",
    "lr_backward": "cfg.lr_backward",
    "lr_xpass": "cfg.lr_xpass",
    "lambda": "cfg.lam",
    "d_target": "cfg.d_target",
    "mo_weight": "cfg.mo_weight",
    "weight": "weight",
    "init_scale": "init_scale",
    "epochs_run": "epochs_run",
    "diverged": "diverged",
    **{m: f"report.{m}" for m in ("mse", "rmse", "mae", "r2", "mean_D")},
}


def _write_table(path, records):
    """One CSV row per run record, one cell per _CELLS column."""
    write_csv(path, list(_CELLS), map(operator.attrgetter(*_CELLS.values()), records))


def _aggregate_row(name, values):
    """Mean and 95% CI of one metric over the runs where it is finite.

    n counts those runs; no CI for a single run, no mean for none (every
    run failed before its first fit).
    """
    values = [v for v in values if np.isfinite(v)]
    if len(values) >= 2:
        return [name, *mean_ci95(values), len(values)]
    if values:
        return [name, values[0], None, None, 1]
    return [name, None, None, None, 0]


# --------------------------------------------------------------------
# Subcommands (library-level; the argparse layer wires flags to these)
# --------------------------------------------------------------------

def train_runs(cfg):
    """train's runs of cfg: one per seed, in ascending seed order."""
    return [Run(f"seed{s:04d}", s, cfg) for s in sorted(cfg.seeds)]


def init_study_runs(cfg):
    """init-study's runs of cfg: ANFIS in both MF kinds across cfg.scales, first seed."""
    if not cfg.scales:
        raise ValueError("init-study needs a nonempty list of initialization scales")
    stems = [f"{float(scale):g}" for scale in cfg.scales]
    clashes = sorted({stem for stem in stems if stems.count(stem) > 1})
    if clashes:
        raise ValueError(f"init scales share output file names: {', '.join(clashes)}")
    for scale in map(float, cfg.scales):
        if not SCALE_MIN <= scale <= SCALE_MAX:  # NaN fails too
            raise ValueError(f"init scale {scale:g} is outside [{SCALE_MIN:g}, {SCALE_MAX:g}]")
    anfis = replace(cfg, mode=Mode.ANFIS, trajectory=True)
    return [
        Run(f"{kind.value}_{stem}", cfg.seeds[0], replace(anfis, mf=kind), init_scale=scale)
        for kind in (MFKind.CAUCHY, MFKind.GAUSSIAN)
        for scale, stem in zip(map(float, cfg.scales), stems)
    ]


def pareto_sweep_runs(cfg):
    """pareto-sweep's runs of cfg, first seed: MO-ANFIS per weight, then two references."""
    seed = cfg.seeds[0]
    weights = weight_grid(cfg.weights_count, cfg.weights_lo, cfg.weights_hi).tolist()
    return [
        *(Run(f"mo_w{i:04d}", seed, replace(cfg, mode=Mode.MO_ANFIS, mo_weight=w), weight=w)
          for i, w in enumerate(weights)),
        Run("ref_anfis", seed, replace(cfg, mode=Mode.ANFIS)),
        Run("ref_x_anfis", seed, replace(cfg, mode=Mode.X_ANFIS)),
    ]


def cmd_train(cfg):
    """One model per seed; writes models, traces, metrics and aggregates."""
    records = _run_all(train_runs(cfg), cfg)
    _write_table(os.path.join(cfg.out, "metrics.csv"), records)
    write_csv(
        os.path.join(cfg.out, "aggregate.csv"), ["metric", "mean", "ci_lo", "ci_hi", "n"],
        [_aggregate_row(m, [getattr(r.report, m) for r in records]) for m in ("r2", "mean_D")],
    )
    return records


def cmd_init_study(cfg):
    """The MF-kind x init-scale grid with trajectories; a diverged run keeps its last metrics."""
    records = _run_all(init_study_runs(cfg), cfg)
    _write_table(os.path.join(cfg.out, "summary.csv"), records)
    return records


def cmd_pareto_sweep(cfg):
    """The weight sweep; front.csv holds its non-dominated points, by r2 descending."""
    records = _run_all(pareto_sweep_runs(cfg), cfg)
    # a sweep run that failed before its first fit has no r2
    sweep = [r for r in records if r.weight is not None and np.isfinite(r.report.r2)]
    front = pareto_front(sweep, key=lambda r: (r.report.r2, r.report.mean_D))
    _write_table(os.path.join(cfg.out, "points.csv"), records)
    _write_table(os.path.join(cfg.out, "front.csv"), front)
    return records, front


def cmd_export_partition(model_path, samples_per_curve, out):
    """Dump a saved model's centers and sampled membership curves."""
    rb, _scaler = load_model(model_path)
    if check_value(samples_per_curve, "int", "samples") < 1:
        raise ValueError(f"samples must be >= 1, got {samples_per_curve}")
    _check_out_dir(out)
    r, f = rb.centers.shape
    centers_path = os.path.join(out, "centers.csv")
    write_csv(
        centers_path,
        ["rule", "feature", "center", "scale"],
        ([j, k, rb.centers[j, k], rb.scales[j, k]] for j in range(r) for k in range(f)),
    )
    xs = np.linspace(0.0, 1.0, samples_per_curve)
    mu = membership_values(rb.mf_kind, xs, rb.centers.T[:, :, None], rb.scales.T[:, :, None])
    curves_path = os.path.join(out, "curves.csv")
    write_csv(
        curves_path, ["feature", "rule", "x", "membership"],
        ([k, j, x, m] for k in range(f) for j in range(r) for x, m in zip(xs, mu[k, j])),
    )
    return centers_path, curves_path


# --------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------

def _parse_list(kind, what):
    """An argparse type: a comma-separated list of kind; a bad item is a usage error."""

    def parse(text):
        try:
            return [kind(s) for s in text.split(",") if s.strip() != ""]
        except ValueError:
            expected = f"expected comma-separated {what}, got {text!r}"
            raise argparse.ArgumentTypeError(expected) from None

    return parse


def _parse_range(text):
    try:
        lo, hi = map(float, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from None
    return lo, hi


def _add_common_flags(p):
    p.add_argument("--config", help="JSON file with ExperimentConfig fields")
    p.add_argument("--manifest", help="JSON dataset manifest (CSV ingestion)")
    p.add_argument("--synth", choices=SYNTH_DATASETS)
    p.add_argument("--synth-n", type=int, dest="synth_n")
    p.add_argument("--synth-noise", type=float, dest="synth_noise")
    p.add_argument("--mode", choices=[m.value for m in Mode])
    p.add_argument("--mf", choices=[k.value for k in MFKind])
    p.add_argument("--rules", type=int)
    p.add_argument("--order", choices=[o.value for o in Order])
    p.add_argument("--seeds", type=_parse_list(int, "integers"), help="comma-separated seed list")
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
    p_init.add_argument(
        "--scales", type=_parse_list(float, "numbers"), help="comma-separated init scales"
    )

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
    doc = read_json(args.config, "config") if getattr(args, "config", None) else {}
    unknown = set(doc) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for name in _CONFIG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            doc[name] = value
    if getattr(args, "weights_range", None) is not None:
        doc["weights_lo"], doc["weights_hi"] = args.weights_range
    return ExperimentConfig(**doc), set(doc)


def _fail_diverged(records):
    if any(r.diverged for r in records):
        raise ValueError(f"diverged runs: {', '.join(r.run_id for r in records if r.diverged)}")


#: per training command: its function (called by module name, so a rebound name is seen),
#: the pure run builder that function runs, and the fields the builder sets on every run
COMMANDS = {
    "train": (lambda cfg: _fail_diverged(cmd_train(cfg)), train_runs, ()),
    "init-study": (lambda cfg: cmd_init_study(cfg), init_study_runs, ("mode", "mf", "trajectory")),
    "pareto-sweep": (lambda cfg: cmd_pareto_sweep(cfg), pareto_sweep_runs, ("mode", "mo_weight")),
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "export-partition":
            cmd_export_partition(args.model, args.samples, args.out)
            return 0
        run_command, build_runs, per_run = COMMANDS[args.command]
        cfg, explicit = build_config(args)
        runs = build_runs(cfg)  # a value the command rejects is named by its error, not a warning
        if "seeds" in explicit and len({run.seed for run in runs}) < len(cfg.seeds):
            raise ValueError(f"{args.command} runs one seed, got seeds {cfg.seeds}")
        # an explicit key no run reads is named: one set on every run, a mode knob every run
        # leaves unread, one only another command has a flag for, or synth_* with a manifest
        ignored = {k: f"{args.command} sets each run's {k}" for k in per_run}
        unread = [run.cfg.unread_knobs() for run in runs]
        ignored.update((k, unread[0][k]) for k in set(unread[0]).intersection(*unread))
        flags = [vars(parser.parse_args([c])) for c in COMMANDS]
        for flag in set().union(*flags) - vars(args).keys():
            for key in ("weights_lo", "weights_hi") if flag == "weights_range" else [flag]:
                ignored[key] = f"{args.command} has no flag for it"
        if cfg.manifest:
            for key in ("synth_n", "synth_noise"):
                ignored[key] = "the data come from a manifest"
        for key in sorted(ignored.keys() & explicit):
            print(f"warning: {key} is ignored: {ignored[key]}", file=sys.stderr)
        run_command(cfg)
        return 0
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

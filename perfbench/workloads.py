"""Workload definitions: seeded input data, CLI arguments and output checks.

Every workload runs one ``xanfis`` CLI command on a CSV that the benchmark
generates from the workload seed with numpy's own ``Generator``, so the
program receives only the generated inputs.  Epoch counts are pinned
(patience >= epochs), so every commit trains the same number of epochs
and wall times compare like with like.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

#: default workload seed; the reference values in reference.json are for it
DEFAULT_SEED = 0
#: |value - reference| allowed for r2 and mean_D on the default seed.
#: Rounding-level rewrites of the arithmetic moved them by at most 6e-11;
#: doubling the ridge lambda moved them by 3e-8 or more.
REFERENCE_ATOL = 1e-9

#: every FCM fit runs exactly this many iterations (FCM_TOL is never
#: reached): with the default tolerance, R=10 on the sinc2d shape takes
#: 70 to 300 iterations depending on the seed, which would make the work,
#: not the code, set the timings
FCM_ITERATIONS = 25
FCM_TOL = 1e-300

INIT_SCALES = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)
SWEEP_WEIGHTS = 20

# sinc2d shape: five Gaussian clusters in a quincunx over (-1, 1)^2
_QUINCUNX = np.array([(0.15, 0.15), (0.15, 0.85), (0.85, 0.15), (0.85, 0.85), (0.5, 0.5)])


def sinc2d_rows(rng, n):
    lo, span = -1.0, 2.0
    centers = lo + span * _QUINCUNX
    X = centers[rng.integers(0, len(centers), n)] + 0.05 * span * rng.standard_normal((n, 2))
    y = np.sinc(X[:, 0]) * np.sinc(X[:, 1]) + 0.05 * rng.standard_normal(n)
    return X, y


def friedman_rows(rng, n):
    X = rng.random((n, 5))
    y = (
        10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
        + 20.0 * (X[:, 2] - 0.5) ** 2
        + 10.0 * X[:, 3]
        + 5.0 * X[:, 4]
        + rng.standard_normal(n)
    )
    return X, y


def write_inputs(workload, seed, directory):
    """Write data.csv, manifest.json and config.json into directory."""
    X, y = workload.rows_fn(np.random.default_rng(seed), workload.n_rows)
    features = [f"x{k + 1}" for k in range(X.shape[1])]
    csv_path = os.path.join(directory, "data.csv")
    np.savetxt(
        csv_path, np.column_stack([X, y]), fmt="%.17g", delimiter=",",
        header=",".join(features + ["y"]), comments="",
    )
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"csv_path": csv_path, "target_column": "y", "feature_columns": features}, fh)
    with open(os.path.join(directory, "config.json"), "w", encoding="utf-8") as fh:
        json.dump({"fcm_max_iter": FCM_ITERATIONS, "fcm_tol": FCM_TOL}, fh)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    rows_fn: object
    n_rows: int
    features: int
    rules: int
    order: str
    epochs: int
    workers: int
    extra_args: tuple

    def cli_args(self, inputs, seed, out, workers=None):
        """Arguments of the workload's command on the inputs written by write_inputs."""
        workers = self.workers if workers is None else workers
        return [
            self.command, "--config", os.path.join(inputs, "config.json"),
            "--manifest", os.path.join(inputs, "manifest.json"), "--seeds", str(seed),
            "--rules", str(self.rules), "--order", self.order,
            "--epochs", str(self.epochs), "--patience", str(self.epochs),
            "--workers", str(workers), "--out", out, *self.extra_args,
        ]

    def largest_array_bytes(self):
        """Largest float64 array of one training forward: (N, R, F) or the design matrix."""
        per_rule = self.features + 1 if self.order == "first" else self.features
        return 8 * int(0.7 * self.n_rows) * self.rules * per_rule

    def expected_files(self, seed):
        if self.command == "pareto-sweep":
            return ["points.csv", "front.csv"]
        if self.command == "train":
            run = f"seed{seed:04d}"
            return [f"model_{run}.json", f"trace_{run}.csv", "metrics.csv", "aggregate.csv"]
        files = ["summary.csv"]
        for kind in ("gaussian", "cauchy"):
            for scale in INIT_SCALES:
                files += [f"trace_{kind}_{scale:g}.csv", f"trajectory_{kind}_{scale:g}.csv"]
        return files

    def expected_runs(self, seed):
        if self.command == "pareto-sweep":
            return [f"mo_w{i:04d}" for i in range(SWEEP_WEIGHTS)] + ["ref_anfis", "ref_x_anfis"]
        if self.command == "train":
            return [f"seed{seed:04d}"]
        return [f"{kind}_{scale!r}" for kind in ("cauchy", "gaussian") for scale in INIT_SCALES]

    def read_runs(self, out):
        """Per-run results keyed by run id (never by the mode column).

        pareto-sweep writes no epoch count, so its runs carry the pinned
        epoch count; a run that stopped early shows in r2 and mean_D.
        """
        runs = {}
        if self.command == "pareto-sweep":
            for row in _read_csv(os.path.join(out, "points.csv")):
                runs[row["run_id"]] = (row, self.epochs, 0)
        elif self.command == "train":
            for row in _read_csv(os.path.join(out, "metrics.csv")):
                runs[row["run_id"]] = (row, int(row["epochs_run"]), int(row["diverged"]))
        else:
            for row in _read_csv(os.path.join(out, "summary.csv")):
                key = f"{row['mf']}_{float(row['init_scale'])!r}"
                runs[key] = (row, int(row["epochs_run"]), int(row["diverged"]))
        return {
            key: {"r2": float(row["r2"]), "mean_D": float(row["mean_D"]),
                  "epochs_run": epochs, "diverged": diverged}
            for key, (row, epochs, diverged) in runs.items()
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep_sinc2d",
            why="pareto-sweep of 22 small Cauchy runs: numpy dispatch, Python "
                "adjacency loops, per-epoch ridge solves, 22 CSV loads and FCM fits",
            command="pareto-sweep", rows_fn=sinc2d_rows, n_rows=2000, features=2,
            rules=5, order="zero", epochs=25, workers=1,
            extra_args=("--mf", "cauchy", "--weights-count", str(SWEEP_WEIGHTS),
                        "--weights-range", "0.01:10"),
        ),
        Workload(
            name="train_friedman20k",
            why="one first-order Gaussian X-ANFIS run on 20k rows: large membership "
                "tensors and design matrix, 20k-row CSV ingest",
            command="train", rows_fn=friedman_rows, n_rows=20000, features=5,
            rules=10, order="first", epochs=15, workers=1,
            extra_args=("--mode", "x_anfis", "--mf", "gaussian"),
        ),
        Workload(
            name="init_study_w2",
            why="init-study grid of 12 runs with trajectories on 2 workers: process "
                "pool, Gaussian small-scale regime, heavy CSV writes",
            command="init-study", rows_fn=sinc2d_rows, n_rows=2000, features=2,
            rules=10, order="zero", epochs=50, workers=2,
            extra_args=("--scales", ",".join(f"{s:g}" for s in INIT_SCALES)),
        ),
    )
}


def check_outputs(workload, out, seed, reference):
    """Problems found in one command's outputs (empty list when correct).

    Every seed: each expected file and run is present, no run diverged,
    every run trained the pinned epochs, r2 and mean_D are finite.  The
    default seed also matches the stored reference: r2 and mean_D within
    REFERENCE_ATOL, epochs_run exactly.
    """
    missing = [f for f in workload.expected_files(seed) if not os.path.isfile(os.path.join(out, f))]
    if missing:
        return [f"missing files: {missing}"]
    runs = workload.read_runs(out)
    problems = []
    expected = workload.expected_runs(seed)
    if sorted(runs) != sorted(expected):
        problems.append(f"run ids {sorted(runs)} != expected {sorted(expected)}")
    for key, run in runs.items():
        if run["diverged"] or run["epochs_run"] != workload.epochs:
            problems.append(f"{key}: diverged={run['diverged']} epochs_run={run['epochs_run']}")
        if not (math.isfinite(run["r2"]) and run["r2"] <= 1.0 and math.isfinite(run["mean_D"])
                and run["mean_D"] > 0.0):
            problems.append(f"{key}: r2={run['r2']} mean_D={run['mean_D']}")
        ref = reference.get(key) if seed == DEFAULT_SEED else None
        for field in ("r2", "mean_D", "epochs_run") if ref else ():
            if abs(run[field] - ref[field]) > REFERENCE_ATOL:
                problems.append(f"{key}: {field}={run[field]!r} reference {ref[field]!r}")
    if seed == DEFAULT_SEED and sorted(reference) != sorted(expected):
        problems.append("reference.json does not cover this workload's runs")
    return problems

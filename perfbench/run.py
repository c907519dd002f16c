"""xanfis benchmark: end-to-end CLI metrics and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run generates its workload's CSV from ``--seed`` (outside the timed
region), then:

* ``--trace 0`` alternates a fresh-interpreter ``import xanfis.cli`` with a
  fresh ``xanfis`` CLI process running the workload, closed loop (one
  command at a time), until ``--seconds`` have passed and at least
  MIN_REPEATS commands ran.  It reports the medians of the end-to-end
  metrics listed in BENCHMARK.json.
* ``--trace 1`` runs the same command untraced and then in-process under
  perfbench/tracer.py (``--workers 1``), checks the two write
  byte-identical files, and reports the per-layer metrics.

Every command's outputs are checked (perfbench/workloads.py); a command
that exits non-zero, diverges, fails the check or writes files that
differ from the first repeat counts as failed.  The last line of standard
output is the JSON result.  Work files go to ``.perfbench-work/``.

``--write-reference`` instead reruns every workload on the default seed
and rewrites perfbench/reference.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from workloads import DEFAULT_SEED, WORKLOADS, check_outputs, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
#: BLAS/OpenMP pools pinned to one thread: workers x threads <= nproc
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
MIN_REPEATS = 5
#: children still running this long after start are killed, so a run
#: always ends within 180 s
DEADLINE_S = 165.0
CLI = "import sys; from xanfis.cli import main; sys.exit(main())"
IMPORT = "import time; import xanfis.cli; print(time.monotonic()); print(xanfis.cli.__file__)"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark: no result is printed."""


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    log_path: str


class Runner:
    """Starts child processes from the checkout and reads their own rusage."""

    def __init__(self, root, work):
        self.root = root
        self.work = work
        self.src = os.path.join(root, "src")
        self.deadline = time.monotonic() + DEADLINE_S
        path = [self.src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.env.update({var: "1" for var in THREAD_VARS})

    def spawn(self, argv, tag):
        """Run argv to completion; CPU and peak RSS come from this child's wait4."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark deadline reached")
        log_path = os.path.join(self.work, f"{tag}.log")
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, log_path)

    def cli(self, args, tag):
        return self.spawn([sys.executable, "-c", CLI, *args], tag)

    def setup_sample(self, tag):
        """Seconds from spawning a fresh interpreter to ``import xanfis.cli`` returning."""
        start = time.monotonic()
        child = self.spawn([sys.executable, "-c", IMPORT], tag)
        with open(child.log_path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        if child.rc != 0 or not os.path.abspath(lines[1]).startswith(os.path.join(self.src, "")):
            raise SetupError(f"cannot import xanfis.cli from {self.src}: {' '.join(lines)}")
        return float(lines[0]) - start

    def import_times(self, tag):
        """Cumulative import seconds of xanfis.cli and xanfis.numerics (-X importtime)."""
        child = self.spawn([sys.executable, "-X", "importtime", "-c", "import xanfis.cli"], tag)
        found = {}
        with open(child.log_path, encoding="utf-8") as fh:
            for line in fh:
                fields = line.split("|")
                if len(fields) == 3 and fields[1].strip().isdigit():
                    found[fields[2].strip()] = int(fields[1]) / 1e6
        return found["xanfis.cli"], found["xanfis.numerics"]


def hash_dir(path):
    digests = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def command_problems(workload, child, out, seed, reference):
    if child.rc != 0:
        with open(child.log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-400:]
        return [f"exit {child.rc}: {tail}"]
    return check_outputs(workload, out, seed, reference)


def median_metric(values, unit):
    return {"value": statistics.median(values), "unit": unit}


def end_to_end(workload, seed, seconds, runner, reference, units):
    """Closed-loop repeats of the untraced CLI command; medians over repeats."""
    runner.setup_sample("import_warmup")  # untimed: fills pyc and page caches
    samples = {name: [] for name in ("wall_s", "epochs_per_s", "cpu_s", "setup_s", "peak_rss_mb")}
    problems, failed, first = [], 0, None
    start = time.monotonic()
    last = 0.0
    attempted = 0
    while attempted < MIN_REPEATS or time.monotonic() - start + last <= seconds:
        began = time.monotonic()
        samples["setup_s"].append(runner.setup_sample(f"import{attempted}"))
        out = os.path.join(runner.work, f"out{attempted}")
        child = runner.cli(workload.cli_args(runner.work, seed, out), f"rep{attempted}")
        attempted += 1
        errs = command_problems(workload, child, out, seed, reference)
        if not errs:
            digests = hash_dir(out)
            if first is None:
                first = (digests, workload.read_runs(out))
            elif digests != first[0]:
                errs = ["rerun wrote files that differ from the first repeat"]
        if errs:
            failed += 1
            problems += errs
        epochs = sum(r["epochs_run"] for r in first[1].values()) if first else 0
        samples["wall_s"].append(child.wall_s)
        samples["epochs_per_s"].append(epochs / child.wall_s)
        samples["cpu_s"].append(child.cpu_s)
        samples["peak_rss_mb"].append(child.rss_mib)
        shutil.rmtree(out, ignore_errors=True)
        last = time.monotonic() - began
    runs = list(first[1].values()) if first else []

    def mean_over_runs(field):  # 0 when no repeat produced checked outputs
        return statistics.fmean(r[field] for r in runs) if runs else 0.0

    metrics = {name: median_metric(values, units[name]) for name, values in samples.items()}
    metrics["test_r2"] = {"value": mean_over_runs("r2"), "unit": units["test_r2"]}
    # mean_D is checked per run against the reference but not gated: on
    # train_friedman20k it varies by a factor of 4 between seeds
    shown = {"mean_D": {"value": mean_over_runs("mean_D"), "unit": "scaled"}}
    return metrics, shown, attempted, failed, problems, samples


def traced(workload, seed, seconds, runner, reference, units):
    """Untraced CLI pass(es) and an in-process traced pass at --workers 1.

    The traced outputs must equal the untraced ones byte for byte; for a
    multi-worker workload this also checks the README's --workers
    contract (--workers 1 and --workers N write identical files).
    """
    runner.setup_sample("import_warmup")  # also checks that xanfis comes from src/
    imports = [runner.import_times(f"importtime{i}") for i in range(3)]
    samples = {}
    problems, failed, attempted = [], 0, 0
    start = time.monotonic()
    last = 0.0
    iteration = 0
    while iteration < 1 or time.monotonic() - start + last <= seconds:
        began = time.monotonic()
        passes = {}
        out = os.path.join(runner.work, f"untraced{iteration}")
        passes["untraced"] = (runner.cli(workload.cli_args(runner.work, seed, out), f"untraced{iteration}"), out)
        if workload.workers > 1:
            out = os.path.join(runner.work, f"untraced_w1_{iteration}")
            args = workload.cli_args(runner.work, seed, out, workers=1)
            passes["untraced_w1"] = (runner.cli(args, f"untraced_w1_{iteration}"), out)
        out = os.path.join(runner.work, f"traced{iteration}")
        summary_path = os.path.join(runner.work, "trace_summary.json")
        spans_path = os.path.join(runner.work, "spans.npz")
        argv = [sys.executable, os.path.join(HERE, "tracer.py"), summary_path, spans_path,
                *workload.cli_args(runner.work, seed, out, workers=1)]
        passes["traced"] = (runner.spawn(argv, f"traced{iteration}"), out)
        digests = {}
        for name, (child, out) in passes.items():
            attempted += 1
            errs = command_problems(workload, child, out, seed, reference)
            if not errs:
                digests[name] = hash_dir(out)
                if digests[name] != digests.get("untraced"):
                    errs = [f"{name} pass wrote files that differ from the untraced pass"]
            if errs:
                failed += 1
                problems += errs
        if "traced" in digests:
            with open(summary_path, encoding="utf-8") as fh:
                summary = json.load(fh)
            untraced = passes["untraced"][0].wall_s
            baseline = passes.get("untraced_w1", passes["untraced"])[0].wall_s
            layer = dict(summary["layers"])
            layer["cli.bytes_written"] = dir_bytes(passes["traced"][1])
            runs = workload.read_runs(passes["traced"][1]).values()
            layer["metrics.mean_D"] = statistics.fmean(r["mean_D"] for r in runs)
            layer["cli.parallel_eff"] = summary["run_experiment_s"] / (workload.workers * untraced)
            layer["bench.trace_overhead_frac"] = passes["traced"][0].wall_s / baseline - 1.0
            for name, value in layer.items():
                samples.setdefault(name, []).append(value)
        for _, out in passes.values():
            shutil.rmtree(out, ignore_errors=True)
        iteration += 1
        last = time.monotonic() - began
    samples["cli.import_s"] = [cli_s for cli_s, _ in imports]
    samples["numerics.import_s"] = [numerics_s for _, numerics_s in imports]
    metrics = {name: median_metric(samples[name], unit) for name, unit in units.items() if name in samples}
    return metrics, {}, attempted, failed, problems, samples


def environment(workload, seed):
    cpu_model = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model)
    llc_mib = None
    llc_path = "/sys/devices/system/cpu/cpu0/cache/index3/size"  # sysfs writes e.g. "307200K"
    if os.path.exists(llc_path):
        with open(llc_path, encoding="utf-8") as fh:
            llc_mib = int(fh.read().strip().rstrip("K")) / 1024
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    largest_mib = workload.largest_array_bytes() / 2**20
    note = "LLC size unknown"
    if llc_mib:
        verdict = "within" if largest_mib <= 4 * llc_mib else "beyond"
        note = (f"largest array {largest_mib:.1f} MiB is {verdict} 4x LLC ({4 * llc_mib:.0f} MiB):"
                " bytes moved are computed, not measured bandwidth")
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu_model, "llc_mib": llc_mib,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: "1" for var in THREAD_VARS}, "workers": workload.workers,
        "seed": seed, "arrays": note,
    }


def write_reference(root):
    """Rerun every workload once on the default seed and store its per-run values."""
    reference = {}
    for workload in WORKLOADS.values():
        work = os.path.join(root, ".perfbench-work", f"reference-{workload.name}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        runner = Runner(root, work)
        write_inputs(workload, DEFAULT_SEED, work)
        out = os.path.join(work, "out")
        child = runner.cli(workload.cli_args(work, DEFAULT_SEED, out), "reference")
        runs = workload.read_runs(out) if child.rc == 0 else {}
        problems = command_problems(workload, child, out, DEFAULT_SEED, runs)
        if problems:
            raise SystemExit(f"{workload.name}: {problems}")
        reference[workload.name] = {
            key: {f: run[f] for f in ("r2", "mean_D", "epochs_run")} for key, run in runs.items()
        }
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "xanfis", "cli.py")):
        print(f"error: {root} holds no xanfis source (src/xanfis/cli.py)", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference(root)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]

    workload = WORKLOADS[args.workload]
    work = os.path.join(root, ".perfbench-work", f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(root, work)
    write_inputs(workload, args.seed, work)
    env = environment(workload, args.seed)
    measure, section = (traced, "per_layer") if args.trace else (end_to_end, "end_to_end")
    units = {m["name"]: m["unit"] for m in spec[section]}
    try:
        metrics, shown, attempted, failed, problems, samples = measure(
            workload, args.seed, args.seconds, runner, reference, units
        )
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")

    counts = sorted({len(values) for values in samples.values()})
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} samples per metric={counts}")
    print("env " + json.dumps(env))
    for name, metric in {**metrics, **shown}.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':36s} {failed / attempted:.6g} ratio ({failed}/{attempted} commands)")
    for problem in problems:
        print(f"  problem: {problem}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "samples": samples, "problems": problems, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-process traced run of the xanfis CLI, for the per-layer metrics.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/tracer.py SUMMARY_JSON SPANS_NPZ CLI_ARG...

It wraps the public functions (and public methods of classes) of every
xanfis module, runs ``xanfis.cli.main(CLI_ARG...)`` in this process and
writes the recorded spans plus a per-layer summary.  The program's source
is not touched: spans are recorded around the calls into each layer.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import inspect
import itertools
import json
import os
import sys
import time

import numpy as np

LAYERS = ("numerics", "membership", "fcm_init", "inference", "training", "metrics", "data", "cli")
#: private helpers wrapped too, because per-layer metrics are cut at them
PRIVATE = {"training._pair_distances", "training._mean_pair_distance", "cli._run_all"}
ADJACENCY = {
    "training.adjacency_pairs", "training._pair_distances",
    "training._mean_pair_distance", "training.xpass_gradients",
}
COMMANDS = {"cli.cmd_train", "cli.cmd_init_study", "cli.cmd_pareto_sweep"}
TRACE_WRITERS = {"training.traces_to_csv", "training.trajectory_to_csv"}


class Tracer:
    """Spans kept in memory, plus counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.stack = []  # open spans: [span id, trace id, child seconds]
        self.ids = itertools.count(1)
        self.in_train = 0
        self.counts = collections.Counter()
        self.fcm_splits = set()
        self.csv_files = collections.Counter()

    def wrap(self, fn, name):
        probe = PROBES.get(name)
        opens_trace = name == "cli.run_experiment"
        is_train = name == "training.train"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span_id = next(self.ids)
            trace_id = span_id if parent is None or opens_trace else parent[1]
            frame = [span_id, trace_id, 0.0]
            self.stack.append(frame)
            self.in_train += is_train
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.in_train -= is_train
                if parent is not None:
                    parent[2] += t1 - t0
                self.spans.append(
                    (span_id, parent and parent[0], trace_id, name, t0, t1, t1 - t0 - frame[2])
                )
            if probe is not None:
                probe(self, args, result)
            return result

        return traced


# Probes: counters recorded where the work happens.  "Per epoch" counts
# only calls made inside training.train.

def _membership_values(tr, args, result):
    if tr.in_train:
        tr.counts["membership_evals"] += 1
        tr.counts["membership_elements"] += result.size


def _membership_tensor(tr, args, result):
    if tr.in_train:
        tr.counts["forwards"] += 1


def _design_matrix(tr, args, result):
    # zero-order returns the normalized firing matrix itself: no copy
    if tr.in_train and not np.may_share_memory(result, args[0].normalized):
        tr.counts["design_bytes"] += result.nbytes


def _ridge_solve(tr, args, result):
    if tr.in_train:
        tr.counts["ridge_solves"] += 1


def _adjacency_pairs(tr, args, result):
    if tr.in_train:
        tr.counts["adjacency_calls"] += 1


def _fcm_fit(tr, args, result):
    X, cfg = args[0], args[1]
    tr.counts["fcm_fits"] += 1
    tr.counts["fcm_iterations"] += result.iterations
    digest = hashlib.sha1(np.ascontiguousarray(X).tobytes()).hexdigest()
    tr.fcm_splits.add((digest, cfg.seed, cfg.n_clusters))


def _load_csv(tr, args, result):
    tr.counts["csv_rows"] += result[0].shape[0]
    tr.csv_files[args[0].csv_path] += 1


def _train(tr, args, result):
    tr.counts["epochs"] += len(result[1]) - 1


PROBES = {
    "membership.membership_values": _membership_values,
    "inference.membership_tensor": _membership_tensor,
    "inference.design_matrix": _design_matrix,
    "numerics.ridge_solve": _ridge_solve,
    "training.adjacency_pairs": _adjacency_pairs,
    "fcm_init.fcm_fit": _fcm_fit,
    "data.load_csv": _load_csv,
    "training.train": _train,
}


def install(tracer):
    """Wrap every layer's public functions and rebind each module name bound to one.

    Names are imported by value (``training.predict``, ``cli.predict``,
    ``training.membership_tensor``, the package re-exports), so every
    attribute of every xanfis module that holds a wrapped function is
    replaced, not only the defining one.
    """
    import xanfis.cli  # noqa: F401  (imports every layer)

    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"xanfis.{layer}"]
        for attr, obj in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and (not attr.startswith("_") or name in PRIVATE):
                wrapped[obj] = tracer.wrap(obj, name)
            elif inspect.isclass(obj):
                for meth, raw in list(vars(obj).items()):
                    if meth.startswith("_"):
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        setattr(obj, meth, type(raw)(tracer.wrap(raw.__func__, f"{name}.{meth}")))
                    elif inspect.isfunction(raw):
                        setattr(obj, meth, tracer.wrap(raw, f"{name}.{meth}"))
    for modname, mod in list(sys.modules.items()):
        if modname == "xanfis" or modname.startswith("xanfis."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
    return len(wrapped)


def summarize(tracer):
    """Per-layer metrics from the spans and counters of one traced command."""
    spans = tracer.spans
    counts = tracer.counts
    names = {s[0]: s[3] for s in spans}
    inclusive = collections.defaultdict(float)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for span_id, parent, _trace, name, t0, t1, self_s in spans:
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += self_s
        out[f"{layer}.calls"] += 1
        inclusive[name] += t1 - t0
    epochs = max(counts["epochs"], 1)
    run_all_end = {s[1]: s[5] for s in spans if s[3] == "cli._run_all"}
    out.update({
        "membership.evals_per_epoch": counts["membership_evals"] / epochs,
        "membership.elements_per_epoch": counts["membership_elements"] / epochs,
        "membership.bytes_per_epoch": 8 * counts["membership_elements"] / epochs,
        "inference.forwards_per_epoch": counts["forwards"] / epochs,
        "inference.design_bytes_per_epoch": counts["design_bytes"] / epochs,
        "numerics.ridge_s": inclusive["numerics.ridge_solve"],
        "numerics.ridge_solves_per_epoch": counts["ridge_solves"] / epochs,
        "training.ms_per_epoch": 1000.0 * inclusive["training.train"] / epochs,
        "training.adjacency_s": sum(
            s[5] - s[4] for s in spans if s[3] in ADJACENCY and names.get(s[1]) not in ADJACENCY
        ),
        "training.adjacency_calls_per_epoch": counts["adjacency_calls"] / epochs,
        "training.trace_write_s": sum(inclusive[n] for n in TRACE_WRITERS),
        "cli.write_s": sum(s[5] - run_all_end.get(s[0], s[5]) for s in spans if s[3] in COMMANDS),
        "fcm_init.fits": counts["fcm_fits"],
        "fcm_init.iterations": counts["fcm_iterations"],
        "fcm_init.fits_per_split": counts["fcm_fits"] / max(len(tracer.fcm_splits), 1),
        "data.csv_rows_read": counts["csv_rows"],
        "data.csv_read_s": inclusive["data.load_csv"],
        "data.loads_per_file": sum(tracer.csv_files.values()) / max(len(tracer.csv_files), 1),
    })
    return out, {"epochs": counts["epochs"], "run_experiment_s": inclusive["cli.run_experiment"]}


def write_spans(path, spans):
    """Save spans as an .npz of columns; ``name`` indexes ``names``, parent 0 is none."""
    names = sorted({s[3] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    ids, parents, traces, name, start, end, self_s = zip(*spans) if spans else ([],) * 7
    np.savez(
        path, id=np.array(ids, dtype=np.int64), parent=np.array([p or 0 for p in parents], dtype=np.int64),
        trace=np.array(traces, dtype=np.int64), name=np.array([index[n] for n in name], dtype=np.int64),
        start_s=np.array(start), end_s=np.array(end), self_s=np.array(self_s), names=np.array(names),
    )


def main(argv):
    summary_path, spans_path, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    n_wrapped = install(tracer)
    import xanfis.cli

    src = os.path.join(os.getcwd(), "src", "")
    if not os.path.abspath(xanfis.cli.__file__).startswith(src):
        print(f"xanfis imported from {xanfis.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    rc = xanfis.cli.main(cli_args)
    layers, totals = summarize(tracer)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": rc, "wrapped": n_wrapped, "layers": layers, **totals}, fh)
    write_spans(spans_path, tracer.spans)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

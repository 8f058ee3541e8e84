"""Spans around the public functions of pvireduce, and the arithmetic that
turns recorded spans into per-layer metrics.

A span is a dict with ``id``, ``parent`` (id or None), ``name``
("module.function"), ``start`` and ``end`` in seconds, plus optional counts.
Time the tracer spends computing counts is excluded from every later
timestamp, so it is charged to no layer (it still shows in the traced run's
wall time, and so in ``trace.overhead_s``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict

PACKAGE = "pvireduce"
MODULES = ("corpus", "family", "pvi", "reduction", "curriculum", "report", "cli")

# Private functions that are still layer boundaries worth a span.
PRIVATE_TRACED = {"cli._capture"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_rows(args, kwargs, result):
    return {"rows": len(result)}


def _count_matrix(args, kwargs, result):
    return {"rows": result.shape[0], "nnz": int(result.nnz)}


def _count_train(args, kwargs, result):
    dataset = _arg(args, kwargs, 0, "dataset")
    null = all(not inst.premise and not inst.hypothesis for inst in dataset)
    return {"kind": "null" if null else "cond"}


def _count_step(args, kwargs, result):
    import numpy as np
    weights = _arg(args, kwargs, 0, "weights")
    X = _arg(args, kwargs, 2, "X")
    dim = int(weights.shape[1])
    cols = np.count_nonzero(np.bincount(X.indices, minlength=dim)) if X.nnz else 0
    return {"cols": int(cols), "dim": dim}


COUNTERS = {
    "corpus.load_dataset": _count_rows,
    "family.feature_matrix": _count_matrix,
    "family.train": _count_train,
    "family.loss_and_grad": _count_step,
    "pvi.compute_pvi": _count_rows,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._clock = clock
        self._excluded = 0.0

    def now(self) -> float:
        return self._clock() - self._excluded

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": self.now(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.now()
                self._stack.pop()
            if counter is not None:
                t0 = self._clock()
                span.update(counter(args, kwargs, result))
                self._excluded += self._clock() - t0
            return result
        return traced


def install(tracer: Tracer) -> None:
    """Replace every public function of the package's modules by a traced
    wrapper, in every module that holds a reference to it (``cli.train``,
    ``reduction.train`` and ``family.train`` all become the same wrapper)."""
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    wrappers = {}
    for mname, mod in modules.items():
        for attr, obj in vars(mod).items():
            name = f"{mname}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or name in PRIVATE_TRACED)):
                wrappers[obj] = tracer.wrap(name, obj, COUNTERS.get(name))
    for mod in (importlib.import_module(PACKAGE), *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])


# ---------------------------------------------------------------------------
# arithmetic

def self_times(spans) -> dict[int, float]:
    """span id -> its duration minus its direct children's durations.

    One tracer stack in one thread records the spans, so a span's direct
    children run one after another, inside it."""
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - children[s["id"]] for s in spans}


def percentile(values, q: float):
    """Nearest-rank q-th percentile and the number of samples above it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def merge_traces(traces) -> list[dict]:
    """Concatenate the span lists of several processes, renumbering ids."""
    merged = []
    for spans in traces:
        offset = len(merged)
        for s in spans:
            s = dict(s, id=s["id"] + offset)
            if s["parent"] is not None:
                s["parent"] += offset
            merged.append(s)
    return merged


# Each entry: metric name -> (unit, how, function names). "total" sums span
# durations, "self" sums self times, "calls" counts spans, or a count key
# summed over the spans.
LAYER_METRICS = {
    "corpus.load_dataset.s": ("s", "total", ["corpus.load_dataset"]),
    "corpus.load_dataset.rows": ("count", "rows", ["corpus.load_dataset"]),
    "family.feature_matrix.s": ("s", "total", ["family.feature_matrix"]),
    "family.feature_matrix.calls": ("count", "calls", ["family.feature_matrix"]),
    "family.feature_matrix.rows": ("count", "rows", ["family.feature_matrix"]),
    "family.feature_matrix.nnz": ("count", "nnz", ["family.feature_matrix"]),
    "family.train.calls": ("count", "calls", ["family.train"]),
    "family.train.self_s": ("s", "self", ["family.train"]),
    "family.loss_and_grad.s": ("s", "total", ["family.loss_and_grad"]),
    "family.evaluate.s": ("s", "total", ["family.evaluate"]),
    "family.predict_dist_matrix.s": ("s", "total", ["family.predict_dist_matrix"]),
    "pvi.compute_pvi.s": ("s", "total", ["pvi.compute_pvi"]),
    "pvi.compute_pvi.rows": ("count", "rows", ["pvi.compute_pvi"]),
    "pvi.write.s": ("s", "total", ["pvi.write_records_csv", "pvi.write_records_jsonl"]),
    "pvi.rank_by_difficulty.s": ("s", "total", ["pvi.rank_by_difficulty"]),
    "pvi.rank_by_difficulty.calls": ("count", "calls", ["pvi.rank_by_difficulty"]),
    "reduction.select_subset.s": ("s", "total", ["reduction.select_subset"]),
    "curriculum.stage_subset.s": ("s", "total", ["curriculum.stage_subset"]),
    "reduction.static_sweep.self_s": ("s", "self", ["reduction.static_sweep"]),
    "curriculum.progressive_train.self_s": ("s", "self", ["curriculum.progressive_train"]),
    "report.stats.s": ("s", "total", ["report.length_stats", "report.bucket_proportions"]),
    "report.plots.s": ("s", "total", ["report.emit_accuracy_plot", "report.emit_runtime_plot"]),
    "cli.write.s": ("s", "self", ["cli.atomic_write_text", "cli._capture"]),
    "cli.write_manifest.s": ("s", "self", ["cli.write_manifest", "cli.sha256_file"]),
}

CLI_WRITE_NAMES = {"cli.atomic_write_text", "cli._capture",
                   "cli.write_manifest", "cli.sha256_file"}

STEP_QUANTILES = (50, 99)


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one workload's spans."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    out = {}
    for metric, (unit, how, names) in LAYER_METRICS.items():
        group = [s for n in names for s in by_name[n]]
        if how == "total":
            value = sum(s["end"] - s["start"] for s in group)
        elif how == "self":
            value = sum(selfs[s["id"]] for s in group)
        elif how == "calls":
            value = len(group)
        else:
            value = sum(s.get(how, 0) for s in group)
        out[metric] = (value, unit)

    kind_of = {s["id"]: s.get("kind") for s in by_name["family.train"]}
    for kind in ("cond", "null"):
        out[f"family.train.{kind}.s"] = (sum(
            s["end"] - s["start"] for s in by_name["family.train"]
            if s.get("kind") == kind), "s")
    steps = by_name["family.loss_and_grad"]
    out["family.train.steps"] = (sum(
        1 for s in steps if s["parent"] in kind_of), "count")
    out["family.train.null.steps"] = (sum(
        1 for s in steps if kind_of.get(s["parent"]) == "null"), "count")
    durations_ms = [(s["end"] - s["start"]) * 1e3 for s in steps]
    for q in STEP_QUANTILES:
        value = percentile(durations_ms, q)[0] if durations_ms else 0.0
        out[f"family.step.p{q}_ms"] = (value, "ms")
    cond_steps = [s for s in steps if kind_of.get(s["parent"]) == "cond"]
    out["family.step.cols_touched_share"] = (
        sum(s["cols"] / s["dim"] for s in cond_steps) / len(cond_steps)
        if cond_steps else 0.0, "share")

    out["cli.main.self_s"] = (sum(
        selfs[s["id"]] for s in spans
        if s["name"].startswith("cli.") and s["name"] not in CLI_WRITE_NAMES), "s")
    for module in MODULES:
        out[f"layer.{module}.self_s"] = (sum(
            selfs[s["id"]] for s in spans
            if s["name"].startswith(module + ".")), "s")
    return out

"""Static reduction: drop the easiest instances once, retrain from scratch.

A sweep retrains fresh models over a grid of reduction ratios and records
test accuracy of both the classifier and the null (label-prior) model.
pvi._tail cuts each pvi or pvi_balanced subset and lists every subset in file order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace as dc_replace
from fractions import Fraction

import numpy as np

from .corpus import Dataset
from .family import Hyperparams, evaluate, train, train_null
from .pvi import _rank, _tail, compute_pvi, records_by_index
from .report import _plot_label, _ratio
from .tables import finite_float, read_csv, write_csv

STRATEGIES = ("pvi", "pvi_balanced", "random")


@dataclass(frozen=True)
class SweepPoint:
    r: float
    subset_size: int
    cm_accuracy: float
    eim_accuracy: float
    train_seconds: float
    variant: str
    strategy: str
    seed: int


def retained_count(m: int, r: float) -> int:
    """floor(m * (1 - r)), evaluated exactly for decimal-grid ratios.

    Uses rational arithmetic so e.g. m=10, r=0.3 gives 7, not the 6 that
    naive float truncation of 10*0.7 would produce.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"reduction ratio must be in [0,1), got {r}")
    return int(math.floor(m * (1 - Fraction(repr(float(r))))))


def check_ratios(sizes, ratios) -> list[float]:
    """The ratios as floats, each checked by retained_count(n, r) for every group size n
    in `sizes`; one that keeps no row of any group or is given twice is refused.
    static_sweep and progressive_train call it before any training."""
    checked = []
    for r in map(float, ratios):
        if not any(retained_count(n, r) for n in sizes):
            raise ValueError(f"reduction ratio {r} keeps 0 of {sum(sizes)} training instances")
        if r in checked:
            raise ValueError(f"reduction ratio {r} is repeated")
        checked.append(r)
    return checked


def _subset(train_ds: Dataset, ranked, r: float, strategy: str = "pvi", seed: int = 0) -> Dataset:
    """The subset `strategy` keeps at ratio r, in file order; `ranked` is the
    descending_pvi ranking of train_ds's positions (unused by random)."""
    m, instances = len(train_ds), train_ds.instances
    kept, k = ranked, retained_count(m, r)
    if strategy == "pvi_balanced":
        kept = []
        for c in range(train_ds.num_classes):
            in_class = [p for p in ranked if instances[p].label == c]
            kept += _tail(instances, in_class, retained_count(len(in_class), r), "easy_first")
        k = len(kept)
    elif strategy == "random":
        kept = np.random.default_rng(seed).choice(m, k, replace=False).tolist()
    return train_ds.take(_tail(instances, kept, k, "original"), "subset")


def select_subset(train_ds: Dataset, records, r: float) -> Dataset:
    """Keep the hardest floor(m(1-r)) instances, reordered by original index.

    Equivalent to sorting by score descending (ties by ascending index),
    dropping the leading easiest r*m entries, and restoring file order.
    """
    return _subset(train_ds, _rank(records_by_index(train_ds, records)), r)


def balanced_select(train_ds: Dataset, records, r: float) -> Dataset:
    """select_subset applied independently within each class, then merged."""
    return _subset(train_ds, _rank(records_by_index(train_ds, records)), r, "pvi_balanced")


def random_select(train_ds: Dataset, r: float, seed: int) -> Dataset:
    """Seeded uniform subset of floor(m(1-r)) instances, in original order."""
    return _subset(train_ds, None, r, "random", seed)


def _timed(timing: bool, fn, *args, **kwargs):
    """fn(*args, **kwargs) and the seconds it took, or 0.0 when timing is off."""
    now = time.perf_counter if timing else float  # float() is 0.0
    start = now()
    result = fn(*args, **kwargs)
    return result, now() - start


def static_sweep(train_ds: Dataset, test_ds: Dataset, ratios, hp: Hyperparams,
                 strategy: str = "pvi", derived_seeds: bool = False, timing: bool = True,
                 runtime_log=None) -> list[SweepPoint]:
    """Train at each reduction ratio and evaluate on the held-out set.

    The conditional and null scoring models are trained once on the full
    train set. Each ratio then gets a fresh classifier and a fresh null model
    trained on the subset chosen by `strategy`, except where that training
    would repeat the scorers': then the scorers are the point's models, and
    with timing on its train_cm/train_eim rows carry their seconds.
    That is the case at r=0, which is always included as the baseline, when
    the training set is in file order. With `derived_seeds`, point i trains
    with seed hp.seed + i instead of the shared seed.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    variant = train_ds.provenance_tag
    # the implicit r = 0 is no repeat of a 0 given in `ratios`
    # pvi_balanced keeps floor(n(1 - r)) rows of each class of n
    sizes = train_ds.class_counts().tolist() if strategy == "pvi_balanced" else [len(train_ds)]
    ratios = sorted(set(check_ratios(sizes, ratios)) | {0.0})

    g_cond, cond_seconds = _timed(timing, train, train_ds, hp)
    g_null, null_seconds = _timed(timing, train_null, train_ds, hp)
    # compute_pvi lists records by dataset position, so `ranked` holds dataset positions
    ranked, score_seconds = _timed(timing, lambda: _rank(compute_pvi(g_cond, g_null, train_ds)))
    if runtime_log is not None:
        runtime_log.record(variant, 0.0, "pvi_compute", cond_seconds + null_seconds + score_seconds)

    points = []
    for i, r in enumerate(ratios):
        seed = hp.seed + i if derived_seeds else hp.seed
        point_hp = dc_replace(hp, seed=seed)
        subset = _subset(train_ds, ranked, r, strategy, seed)
        # training is a function of the rows, their order and the hyperparameters
        if point_hp == hp and subset.instances == train_ds.instances:
            cm, cm_seconds, eim, eim_seconds = g_cond, cond_seconds, g_null, null_seconds
        else:
            cm, cm_seconds = _timed(timing, train, subset, point_hp)
            eim, eim_seconds = _timed(timing, train_null, subset, point_hp)
        (cm_acc, eim_acc), eval_seconds = _timed(
            timing, lambda: (evaluate(cm, test_ds).accuracy, evaluate(eim, test_ds).accuracy))
        if runtime_log is not None:
            runtime_log.record(variant, r, "train_cm", cm_seconds)
            runtime_log.record(variant, r, "train_eim", eim_seconds)
            runtime_log.record(variant, r, "evaluate", eval_seconds)
        points.append(SweepPoint(r, len(subset), cm_acc, eim_acc, cm_seconds,
                                 variant, strategy, seed))
    return points


# ---------------------------------------------------------------------------
# export

def _accuracy(value) -> float:
    """A read accuracy: a finite float in [0, 1]."""
    if not 0.0 <= (accuracy := finite_float(value)) <= 1.0:
        raise ValueError(f"accuracy must be in [0, 1], got {accuracy!r}")
    return accuracy


_CSV_COLUMNS = {"variant": _plot_label, "strategy": str, "r": _ratio, "subset_size": int,
                "cm_accuracy": _accuracy, "eim_accuracy": _accuracy, "train_seconds": float,
                "seed": int}


def write_sweep_csv(points, path) -> None:
    write_csv(path, _CSV_COLUMNS,
              ([p.variant, p.strategy, p.r, p.subset_size, p.cm_accuracy,
                p.eim_accuracy, p.train_seconds, p.seed] for p in points))


def read_sweep_csv(path) -> list[SweepPoint]:
    return read_csv(path, _CSV_COLUMNS,
                    lambda variant, strategy, r, size, cm, eim, secs, seed: SweepPoint(
                        r, size, cm, eim, secs, variant, strategy, seed))

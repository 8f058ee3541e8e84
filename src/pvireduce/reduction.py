"""Static reduction: drop the easiest instances once, retrain from scratch.

A sweep retrains fresh models over a grid of reduction ratios and records
test accuracy of both the classifier and the null (label-prior) model.
pvi checks, sizes and cuts (_tail, in file order) every subset; this module drives and tabulates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .corpus import Dataset
from .family import Hyperparams, evaluate, train, train_null
from .pvi import _rank, _ratio, _tail, check_ratios, compute_pvi, records_by_index, retained_count
from .report import _accuracy, _plot_label, _seconds, _timed
from .tables import count, one_of, read_csv, write_csv

STRATEGIES = ("pvi", "pvi_balanced", "random")
_strategy = one_of("strategy", STRATEGIES)


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
    _strategy(strategy)  # refused before any training
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

_CSV_COLUMNS = {"variant": _plot_label, "strategy": _strategy, "r": _ratio, "subset_size": count,
                "cm_accuracy": _accuracy, "eim_accuracy": _accuracy, "train_seconds": _seconds,
                "seed": count}


def write_sweep_csv(points, path) -> None:
    write_csv(path, _CSV_COLUMNS,
              ([p.variant, p.strategy, p.r, p.subset_size, p.cm_accuracy,
                p.eim_accuracy, p.train_seconds, p.seed] for p in points))


def read_sweep_csv(path) -> list[SweepPoint]:
    return read_csv(path, _CSV_COLUMNS,
                    lambda variant, strategy, r, size, cm, eim, secs, seed: SweepPoint(
                        r, size, cm, eim, secs, variant, strategy, seed))

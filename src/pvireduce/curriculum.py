"""Progressive easy-to-hard training driven by per-instance difficulty scores.

Unlike the static sweep, subsets here stay in difficulty order and are fed
to the trainer without shuffling, so the model consumes easier instances
first within every epoch.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace as dc_replace

from .corpus import Dataset
from .family import Hyperparams, evaluate, train
from .pvi import _rank, compute_pvi, records_by_index, train_scorers
from .reduction import _in_file_order, _timed, check_ratios, retained_count
from .tables import read_csv, write_csv

ORDERINGS = {"easy_first": "descending_pvi", "hard_first": "ascending_pvi", "original": None}


@dataclass(frozen=True)
class StageReport:
    r: float
    ordering: str
    subset_size: int
    accuracy: float
    precision_micro: float
    recall_micro: float
    f1_micro: float
    train_seconds: float
    seed: int


def curriculum_order(train_ds: Dataset, records, ordering: str) -> Dataset:
    """Rearrange the dataset by score: easy_first = highest score leads."""
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    records = records_by_index(train_ds, records)
    if ordering == "original":
        return train_ds
    return train_ds.take(_rank(records, ORDERINGS[ordering]))


def _stage(train_ds: Dataset, records, ranked, r: float, ordering: str) -> Dataset:
    """stage_subset, given the records by dataset position and their descending_pvi ranking."""
    kept = ranked[len(ranked) - retained_count(len(ranked), r):]
    if ordering == "original":
        return _in_file_order(train_ds, kept)
    if ordering == "hard_first":
        kept = _rank(records, ORDERINGS[ordering], kept)
    return train_ds.take(kept, "subset")


def stage_subset(train_ds: Dataset, records, r: float, ordering: str) -> Dataset:
    """The hardest floor(m(1-r)) instances (select_subset), arranged per `ordering`.

    Subsets at larger r nest inside those at smaller r.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    records = records_by_index(train_ds, records)
    return _stage(train_ds, records, _rank(records), r, ordering)


def progressive_train(train_ds: Dataset, test_ds: Dataset, hp: Hyperparams,
                      ratios=(0.0, 0.1, 0.2, 0.3), ordering: str = "easy_first",
                      warm_start: bool = False, timing: bool = True) -> list[StageReport]:
    """One fresh model per stage, trained on the ordered hardest subset.

    easy_first / hard_first stages train with order-preserving batches (no
    shuffle); the `original` ordering is the conventional shuffled baseline.
    warm_start continues each stage from the previous stage's parameters
    instead of reinitializing (off by default). Stages run in `ratios` order.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    ratios = check_ratios(len(train_ds), ratios)

    records = compute_pvi(*train_scorers(train_ds, hp), train_ds)  # by dataset position
    ranked = _rank(records)
    stage_hp = dc_replace(hp, preserve_order=(ordering != "original"))

    model = None
    reports = []
    for r in ratios:
        subset = _stage(train_ds, records, ranked, r, ordering)
        model, seconds = _timed(timing, train, subset, stage_hp,
                                init=model if warm_start else None)
        report = evaluate(model, test_ds)
        reports.append(StageReport(r, ordering, len(subset), report.accuracy,
                                   report.precision_micro, report.recall_micro,
                                   report.f1_micro, seconds, hp.seed))
        del subset  # free its feature rows before the next stage gathers its own
    return reports


# ---------------------------------------------------------------------------
# export

_CSV_COLUMNS = {"ordering": str, "r": float, "subset_size": int, "accuracy": float,
                "precision": float, "recall": float, "f1": float,
                "train_seconds": float, "seed": int}

_SUMMARY_HEADER = ["ordering", "r", "subset_size", "n_seeds",
                   "accuracy_mean", "accuracy_std", "precision_mean", "precision_std",
                   "recall_mean", "recall_std", "f1_mean", "f1_std"]


def write_stage_csv(reports, path) -> None:
    write_csv(path, _CSV_COLUMNS,
              ([s.ordering, s.r, s.subset_size, s.accuracy, s.precision_micro,
                s.recall_micro, s.f1_micro, s.train_seconds, s.seed] for s in reports))


def read_stage_csv(path) -> list[StageReport]:
    return read_csv(path, _CSV_COLUMNS,
                    lambda ordering, r, *rest: StageReport(r, ordering, *rest))


def write_stage_summary_csv(reports, path) -> None:
    """Mean and standard deviation over seeds, one row per (ordering, r)."""
    groups: dict[tuple, list[StageReport]] = {}
    for s in reports:
        groups.setdefault((s.ordering, s.r, s.subset_size), []).append(s)
    rows = []
    for (ordering, r, size), group in sorted(groups.items()):
        row = [ordering, r, size, len(group)]
        for metric in ("accuracy", "precision_micro", "recall_micro", "f1_micro"):
            values = [getattr(s, metric) for s in group]
            mean = statistics.fmean(values)
            std = statistics.stdev(values) if len(values) > 1 else 0.0
            row += [mean, std]
        rows.append(row)
    write_csv(path, _SUMMARY_HEADER, rows)

"""Progressive easy-to-hard training driven by per-instance difficulty scores.

Unlike the static sweep, subsets here stay in difficulty order and are fed
to the trainer without shuffling, so the model consumes easier instances
first within every epoch. pvi checks, sizes and cuts each stage; this module drives and tabulates.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace as dc_replace

from .corpus import Dataset
from .family import Hyperparams, evaluate, train
from .pvi import (_ordering, _rank, _ratio, _tail, check_ratios, compute_pvi,
                  records_by_index, retained_count, train_scorers)
from .report import _accuracy, _seconds, _timed
from .tables import cast_row, count, finite_float, read_csv, write_csv


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
    """Rearrange the dataset by score: easy_first = highest score leads. `original`
    returns the dataset as given, which need not be in file order."""
    records = records_by_index(train_ds, records)
    positions = _tail(records, _rank(records), len(records), ordering)
    return train_ds if ordering == "original" else train_ds.take(positions)


def stage_subset(train_ds: Dataset, records, r: float, ordering: str) -> Dataset:
    """The hardest floor(m(1-r)) instances (select_subset), arranged per `ordering`.

    Subsets at larger r nest inside those at smaller r.
    """
    records = records_by_index(train_ds, records)
    k = retained_count(len(records), r)
    return train_ds.take(_tail(records, _rank(records), k, ordering), "subset")


def progressive_train(train_ds: Dataset, test_ds: Dataset, hp: Hyperparams,
                      ratios=(0.0, 0.1, 0.2, 0.3), ordering: str = "easy_first",
                      warm_start: bool = False, timing: bool = True) -> list[StageReport]:
    """One fresh model per stage, trained on the ordered hardest subset.

    easy_first / hard_first stages train with order-preserving batches (no
    shuffle); the `original` ordering is the conventional shuffled baseline.
    warm_start continues each stage from the previous stage's parameters
    instead of reinitializing (off by default). Stages run in `ratios` order.
    """
    _ordering(ordering)  # refused before any training
    ratios = check_ratios([len(train_ds)], ratios)

    records = compute_pvi(*train_scorers(train_ds, hp), train_ds)  # by dataset position
    ranked = _rank(records)
    stage_hp = dc_replace(hp, preserve_order=(ordering != "original"))

    model = None
    reports = []
    for r in ratios:
        k = retained_count(len(ranked), r)
        subset = train_ds.take(_tail(records, ranked, k, ordering), "subset")
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

_CSV_COLUMNS = {"ordering": _ordering, "r": _ratio, "subset_size": count, "accuracy": _accuracy,
                "precision": _accuracy, "recall": _accuracy, "f1": _accuracy,
                "train_seconds": _seconds, "seed": count}

_SUMMARY_COLUMNS = {"ordering": _ordering, "r": _ratio, "subset_size": count, "n_seeds": count,
                    "accuracy_mean": _accuracy, "accuracy_std": finite_float,
                    "precision_mean": _accuracy, "precision_std": finite_float,
                    "recall_mean": _accuracy, "recall_std": finite_float,
                    "f1_mean": _accuracy, "f1_std": finite_float}


# what grouping and averaging read of a report: its key, cast as write_stage_csv casts
# it, and finite metrics; _SUMMARY_COLUMNS then checks each mean
_REPORT_COLUMNS = {"ordering": _ordering, "r": _ratio, "subset_size": count,
                   **dict.fromkeys(("accuracy", "precision", "recall", "f1"), finite_float)}


def _stage_cells(s: StageReport) -> list:
    return [s.ordering, s.r, s.subset_size, s.accuracy, s.precision_micro, s.recall_micro,
            s.f1_micro, s.train_seconds, s.seed]


def write_stage_csv(reports, path) -> None:
    write_csv(path, _CSV_COLUMNS, map(_stage_cells, reports))


def read_stage_csv(path) -> list[StageReport]:
    return read_csv(path, _CSV_COLUMNS,
                    lambda ordering, r, *rest: StageReport(r, ordering, *rest))


def write_stage_summary_csv(reports, path) -> None:
    """Mean and standard deviation over seeds, one row per (ordering, r). Each report
    is cast before any is grouped: a refused one raises ValueError `<path>: row <n>:
    <column>: …`, n counting the reports from 1, and writes no file."""
    groups: dict[tuple, list[list[float]]] = {}
    for n, s in enumerate(reports, 1):
        try:
            ordering, r, size, *metrics = cast_row(_REPORT_COLUMNS, _stage_cells(s)[:7])
        except ValueError as exc:
            raise ValueError(f"{path}: row {n}: {exc}") from None
        groups.setdefault((ordering, r, size), []).append(metrics)
    rows = []
    for (ordering, r, size), group in sorted(groups.items()):
        row = [ordering, r, size, len(group)]
        for values in zip(*group):
            row += [statistics.fmean(values), statistics.stdev(values) if len(values) > 1 else 0.0]
        rows.append(row)
    write_csv(path, _SUMMARY_COLUMNS, rows)

"""Per-instance difficulty scores from a conditional and a null model.

The score of an instance is the gain, in bits, of the conditional model's
log-probability of the gold label over the null model's. Positive = easy,
negative = hard. Aggregates give the dataset-level information quantities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .corpus import Dataset
from .family import Hyperparams, Model, _gold_log2_rows, log2_prob, train, train_null
from .tables import atomic_write_text, read_csv, write_csv


@dataclass(frozen=True)
class PviRecord:
    original_index: int
    null_log2prob: float
    cond_log2prob: float
    pvi: float


@dataclass(frozen=True)
class InfoSummary:
    h_v_y: float
    h_v_y_given_x: float
    i_v: float
    n: int


def train_scorers(dataset: Dataset, hp: Hyperparams) -> tuple[Model, Model]:
    """The conditional and the null scoring model, both trained on `dataset`."""
    return train(dataset, hp), train_null(dataset, hp)


def compute_pvi(g_cond: Model, g_null: Model, dataset: Dataset) -> tuple[PviRecord, ...]:
    """One record per instance, in dataset order, in one batch pass over the rows.

    The pass reads the dataset's memoized feature matrix when it has one (a
    training set). Otherwise it scores each 2048-row chunk as it is featurized
    and keeps no matrix, so scoring a large held-out set holds one chunk.
    cond_log2prob is log2_prob(g_cond, premise, hypothesis, label) and
    null_log2prob is log2_prob(g_null, "", "", label), bit for bit."""
    if g_cond.num_classes != dataset.num_classes or g_null.num_classes != dataset.num_classes:
        raise ValueError("model/dataset class-count mismatch")
    conds = _gold_log2_rows(g_cond, dataset)
    null_by_class = [log2_prob(g_null, "", "", c) for c in range(dataset.num_classes)]
    records = []
    for inst, cond in zip(dataset, conds):
        null = null_by_class[inst.label]
        records.append(PviRecord(inst.original_index, null, cond, cond - null))
    return tuple(records)


def summarize(records) -> InfoSummary:
    """Dataset-level entropies and their difference (mean per-instance score)."""
    records = tuple(records)
    if not records:
        raise ValueError("no records to summarize")
    h_y = -float(np.mean([r.null_log2prob for r in records]))
    h_yx = -float(np.mean([r.cond_log2prob for r in records]))
    return InfoSummary(h_y, h_yx, h_y - h_yx, len(records))


def _rank(records, order: str = "descending_pvi", positions=None) -> list[int]:
    """Positions into `records` (all, or just `positions`), sorted by score, ties by
    ascending original_index: the one difficulty sort, descending_pvi = easiest first."""
    if order not in ("descending_pvi", "ascending_pvi"):
        raise ValueError(f"unknown order {order!r}")
    sign = -1.0 if order == "descending_pvi" else 1.0
    return sorted(range(len(records)) if positions is None else positions,
                  key=lambda p: (sign * records[p].pvi, records[p].original_index))


def rank_by_difficulty(records, order: str = "descending_pvi") -> tuple[int, ...]:
    """Permutation of original_index; ties break by ascending original_index.

    descending_pvi puts the easiest (highest-score) instances first.
    """
    records = tuple(records)
    return tuple(records[p].original_index for p in _rank(records, order))


def records_by_index(dataset: Dataset, records) -> list[PviRecord]:
    """`records` listed by dataset position; there must be exactly one per instance."""
    by_index: dict[int, PviRecord] = {}
    for rec in records:
        if rec.original_index in by_index:
            raise ValueError(f"records hold original_index {rec.original_index} twice")
        by_index[rec.original_index] = rec
    if by_index.keys() != {inst.original_index for inst in dataset}:
        raise ValueError("records do not cover exactly the dataset's indices")
    return [by_index[inst.original_index] for inst in dataset]


def hardest_k(records, dataset: Dataset, k: int):
    """The k instances select_subset would keep, with scores attached, ascending by score."""
    if not 0 <= k <= len(dataset):
        raise ValueError(f"k={k} is outside [0, {len(dataset)}]")
    records = records_by_index(dataset, records)
    hardest = _rank(records, "ascending_pvi", _rank(records)[len(records) - k:])
    return [(dataset.instances[p], records[p].pvi) for p in hardest]


def pvi_histogram(records, num_bins: int, value_range: tuple[float, float]):
    """Fixed-range histogram; out-of-range scores clip into the end bins."""
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    lo, hi = value_range
    values = np.clip([r.pvi for r in records], lo, hi)
    counts, edges = np.histogram(values, bins=num_bins, range=(lo, hi))
    return edges, counts


# ---------------------------------------------------------------------------
# export

_CSV_COLUMNS = {"original_index": int, "null_log2prob": float,
                "cond_log2prob": float, "pvi": float}


def write_records_csv(records, path) -> None:
    write_csv(path, _CSV_COLUMNS,
              ([r.original_index, r.null_log2prob, r.cond_log2prob, r.pvi] for r in records))


def read_records_csv(path) -> tuple[PviRecord, ...]:
    return tuple(read_csv(path, _CSV_COLUMNS, PviRecord))


def write_records_jsonl(records, path) -> None:
    atomic_write_text(path, "".join(json.dumps({
        "original_index": r.original_index,
        "null_log2prob": float(r.null_log2prob),
        "cond_log2prob": float(r.cond_log2prob),
        "pvi": float(r.pvi),
    }) + "\n" for r in records))

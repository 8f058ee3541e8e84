"""Per-instance difficulty scores from a conditional and a null model.

The score of an instance is the gain, in bits, of the conditional model's
log-probability of the gold label over the null model's. Positive = easy,
negative = hard. compute_pvi is the one scorer: it streams a Dataset or any
iterable of instances, a block at a time, into PviColumns, three columns read as a
sequence of PviRecord, and summarize gives the dataset-level information quantities.
Every cut by score is made here: which ratios are valid, how many rows they keep and which.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .corpus import Dataset
from .family import (Hyperparams, Model, _chunks, _feature_key, _gold_log2, _hashed_counts,
                     log2_prob, train, train_null)
from .tables import count, finite_float, one_of, read_csv, write_csv, write_rows


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


@dataclass(frozen=True)
class PviColumns:
    """compute_pvi's scores as three columns, 24 bytes a row, read as a sequence of
    PviRecord: each record, built on access, has pvi = cond_log2prob - null_log2prob."""
    original_index: array  # of int64
    null_log2prob: array   # of float64
    cond_log2prob: array   # of float64

    def __len__(self) -> int:
        return len(self.original_index)

    def __getitem__(self, i: int) -> PviRecord:
        null, cond = self.null_log2prob[i], self.cond_log2prob[i]
        return PviRecord(self.original_index[i], null, cond, cond - null)

    def __iter__(self):
        for i, null, cond in zip(self.original_index, self.null_log2prob, self.cond_log2prob):
            yield PviRecord(i, null, cond, cond - null)


def compute_pvi(g_cond: Model, g_null: Model, instances) -> PviColumns:
    """The scores of `instances`, a Dataset or any iterable of instances
    (corpus.read_instances, say), in order. Each _CHUNK_ROWS block is read and scored
    before the next is read, on its rows of the dataset's memoized feature matrix when
    it has one (a training set) and otherwise on one chunk featurized for it, so only
    the columns grow with the set. cond_log2prob is log2_prob(g_cond, premise,
    hypothesis, label) and null_log2prob log2_prob(g_null, "", "", label), bit for bit.
    A label outside the models' classes raises DataError naming its original_index,
    and a malformed record raises when its block is read."""
    C = g_cond.num_classes
    if g_null.num_classes != C:
        raise ValueError("the conditional and null models differ in class count")
    hp = g_cond.hyperparams
    null_by_class = [log2_prob(g_null, "", "", c) for c in range(C)]
    memo = instances._features.get(_feature_key(hp)) if isinstance(instances, Dataset) else None
    scores = PviColumns(array("q"), array("d"), array("d"))
    for block in _chunks(instances):
        block = Dataset(tuple(block), C)  # refuses a label outside the models' classes
        labels, done = block.labels(), len(scores)
        X = memo[done:done + len(block)] if memo is not None else next(_hashed_counts(
            [inst.premise for inst in block], [inst.hypothesis for inst in block], hp))
        scores.original_index.extend(inst.original_index for inst in block)
        scores.null_log2prob.extend(null_by_class[label] for label in labels)
        scores.cond_log2prob.extend(_gold_log2(g_cond, X, labels))
    return scores


def summarize(records) -> InfoSummary:
    """Dataset-level entropies and their difference (mean per-instance score): a
    PviColumns' columns are read as they are, any other iterable's records by their fields."""
    if not isinstance(records, PviColumns):
        records = tuple(records)
    nulls, conds = _column(records, "null_log2prob"), _column(records, "cond_log2prob")
    if not len(nulls):
        raise ValueError("no records to summarize")
    h_y = -float(np.mean(nulls))
    h_yx = -float(np.mean(conds))
    return InfoSummary(h_y, h_yx, h_y - h_yx, len(nulls))


def _column(records, name: str):
    """Each record's field `name`, read once: off a PviColumns' columns as they are."""
    if not isinstance(records, PviColumns):
        return [getattr(r, name) for r in records]
    if name == "pvi":
        return (np.asarray(records.cond_log2prob) - np.asarray(records.null_log2prob)).tolist()
    return getattr(records, name)


ORDERINGS = ("easy_first", "hard_first", "original")
_ordering = one_of("ordering", ORDERINGS)
_order = one_of("order", ("descending_pvi", "ascending_pvi"))


def _rank(records, order: str = "descending_pvi", positions=None) -> list[int]:
    """Positions into `records` (all, or just `positions`), sorted by score, ties by
    ascending original_index: the one difficulty sort, descending_pvi = easiest first."""
    sign = -1.0 if _order(order) == "descending_pvi" else 1.0
    pvi, index = _column(records, "pvi"), _column(records, "original_index")
    return sorted(range(len(records)) if positions is None else positions,
                  key=lambda p: (sign * pvi[p], index[p]))


def _ratio(value) -> float:
    """A reduction ratio, a float in [0, 1), -0 read as 0; a table cell must be finite."""
    r = finite_float(value) if isinstance(value, str) else float(value)
    if not 0.0 <= r < 1.0:
        raise ValueError(f"reduction ratio must be in [0,1), got {r}")
    return r + 0.0  # -0.0 + 0.0 is 0.0


def retained_count(m: int, r: float) -> int:
    """floor(m * (1 - r)), exact for decimal-grid ratios: m=10, r=0.3 gives 7, not the 6
    that float truncation of 10*0.7 would give."""
    return int(math.floor(m * (1 - Fraction(repr(_ratio(r))))))


def check_ratios(sizes, ratios) -> list[float]:
    """The ratios by _ratio; one that keeps no row of any group size in `sizes`, or is given
    twice, is refused. static_sweep and progressive_train call it before any training."""
    checked = []
    for r in map(_ratio, ratios):
        if not any(retained_count(n, r) for n in sizes):
            raise ValueError(f"reduction ratio {r} keeps 0 of {sum(sizes)} training instances")
        if r in checked:
            raise ValueError(f"reduction ratio {r} is repeated")
        checked.append(r)
    return checked


def _tail(records, ranked, k: int, ordering: str) -> list[int]:
    """The k hardest, the last k of `ranked` (a descending_pvi ranking of positions into
    `records`), in file order (original), ranking order (easy_first) or ascending PVI,
    ties by ascending index (hard_first); file order reads only records[p].original_index."""
    kept = ranked[len(ranked) - k:]
    if _ordering(ordering) == "original":
        return sorted(kept, key=_column(records, "original_index").__getitem__)
    return _rank(records, "ascending_pvi", kept) if ordering == "hard_first" and kept else kept


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
    return [(dataset.instances[p], records[p].pvi)
            for p in _tail(records, _rank(records), k, "hard_first")]


def pvi_histogram(records, num_bins: int, value_range: tuple[float, float]):
    """Fixed-range histogram; out-of-range scores clip into the end bins."""
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    lo, hi = value_range
    values = np.clip(_column(records, "pvi"), lo, hi)
    counts, edges = np.histogram(values, bins=num_bins, range=(lo, hi))
    return edges, counts


# ---------------------------------------------------------------------------
# export

_CSV_COLUMNS = {"original_index": count, "null_log2prob": finite_float,
                "cond_log2prob": finite_float, "pvi": finite_float}


def _cells(records):
    return ([r.original_index, r.null_log2prob, r.cond_log2prob, r.pvi] for r in records)


def write_records_csv(records, path) -> None:
    write_csv(path, _CSV_COLUMNS, _cells(records))


def read_records_csv(path) -> tuple[PviRecord, ...]:
    return tuple(read_csv(path, _CSV_COLUMNS, PviRecord))


# json.dumps's line for a record: its text of an int and of a finite float is repr's
_JSONL_LINE = '{{"original_index": {}, "null_log2prob": {}, "cond_log2prob": {}, "pvi": {}}}\n'


def write_records_jsonl(records, path) -> None:
    """One JSON object a line, each record cast by write_records_csv's schema and
    written as it comes, so a record the CSV refuses (a NaN, say) is refused here."""
    write_rows(path, _CSV_COLUMNS, _cells(records), repr, lambda cells: _JSONL_LINE.format(*cells))

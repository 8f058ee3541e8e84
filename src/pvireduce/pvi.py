"""Per-instance difficulty scores from a conditional and a null model.

The score of an instance is the gain, in bits, of the conditional model's
log-probability of the gold label over the null model's. Positive = easy,
negative = hard. compute_pvi is the one scorer: it streams a Dataset or any iterable
of instances, a block at a time, into PviColumns, three columns read as a sequence of
PviRecord; summarize, every cut and both writers read score fields through _columns.
Every cut by score is made here: which ratios are valid, how many rows they keep and which.
_rank is the one difficulty sort (score descending, ties by ascending original_index);
every other order is a stable re-sort of a slice of its ranking by one column.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .corpus import Dataset
from .family import (Hyperparams, Model, _chunks, _feature_key, _gold_log2, _hashed_counts,
                     _holds, log2_prob, train, train_null)
from .tables import DataError, count, finite_float, one_of, read_csv, write_csv, write_rows


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
    PviRecord: pvi = cond_log2prob - null_log2prob, a record's or the column, on access."""
    original_index: array  # of int64
    null_log2prob: array   # of float64
    cond_log2prob: array   # of float64

    def __len__(self) -> int:
        return len(self.original_index)

    def __getitem__(self, i: int) -> PviRecord:
        null, cond = self.null_log2prob[i], self.cond_log2prob[i]
        return PviRecord(self.original_index[i], null, cond, cond - null)

    def __iter__(self):
        return map(PviRecord, self.original_index, self.null_log2prob, self.cond_log2prob, self.pvi)

    @property
    def pvi(self) -> array:
        return array("d", map(float.__sub__, self.cond_log2prob, self.null_log2prob))

    def take(self, positions) -> "PviColumns":
        """The rows at `positions`, in that order, as columns: no PviRecord is built."""
        return PviColumns(*(array(column.typecode, map(column.__getitem__, positions))
                            for column in (self.original_index, self.null_log2prob,
                                           self.cond_log2prob)))


def compute_pvi(g_cond: Model, g_null: Model, instances) -> PviColumns:
    """The scores of `instances`, a Dataset or any iterable of instances
    (corpus.read_instances, say), in order. Each family._chunks block is read and scored
    before the next is read, on its rows of the dataset's memoized feature matrix when
    it has one (a training set) and otherwise on its own rows featurized for it, so only
    the columns grow with the set. cond_log2prob is log2_prob(g_cond, premise,
    hypothesis, label) and null_log2prob log2_prob(g_null, "", "", label), bit for bit.
    A label outside the models' classes raises DataError naming its original_index,
    and a malformed record raises when its block is read; so do an original_index
    outside int64 and one that its block repeats, and one repeated across blocks when
    every block is scored."""
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
        X = memo[done:done + len(block)] if memo is not None else _hashed_counts(
            [inst.premise for inst in block], [inst.hypothesis for inst in block], hp)
        try:
            scores.original_index.extend(inst.original_index for inst in block)
        except OverflowError:
            index = next(inst.original_index for inst in block
                         if not -2**63 <= inst.original_index < 2**63)
            raise DataError(f"original_index {index} is outside int64") from None
        scores.null_log2prob.extend(null_by_class[label] for label in labels)
        scores.cond_log2prob.extend(_gold_log2(g_cond, X, labels))
    # sorted, the index column holds a repeat side by side; 8 bytes a row, only for now
    index = np.sort(scores.original_index)
    if len(repeats := index[1:][index[1:] == index[:-1]]):
        raise DataError(f"duplicate original_index {repeats[0]}")
    return scores


def summarize(records) -> InfoSummary:
    """Dataset-level entropies and their difference (mean per-instance score)."""
    nulls, conds = _columns(records, "null_log2prob", "cond_log2prob")
    if not len(nulls):
        raise ValueError("no records to summarize")
    h_y = -float(np.mean(nulls))
    h_yx = -float(np.mean(conds))
    return InfoSummary(h_y, h_yx, h_y - h_yx, len(nulls))


ORDERINGS = ("easy_first", "hard_first", "original")
_ordering = one_of("ordering", ORDERINGS)
_order = one_of("order", ("descending_pvi", "ascending_pvi"))


def _columns(records, *names) -> list:
    """The records' fields `names`, a column each: the one reader of score fields. A
    PviColumns' columns are read as they are; any other iterable is read once."""
    if isinstance(records, PviColumns):
        return [getattr(records, name) for name in names]
    records = tuple(records)
    return [[getattr(r, name) for r in records] for name in names]


def _rank(records) -> list[int]:
    """Positions into `records` by score, descending, ties by ascending original_index:
    the one difficulty sort. A stable re-sort of a slice keeps its order among ties."""
    pvi, index = _columns(records, "pvi", "original_index")
    return sorted(range(len(index)), key=lambda p: (-pvi[p], index[p]))


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
    """The k hardest, the last k of `ranked` (_rank's ranking of positions into
    `records`), as ranked (easy_first) or stably re-sorted by one column: pvi
    (hard_first) or original_index (original, file order)."""
    kept = ranked[len(ranked) - k:]
    if _ordering(ordering) == "easy_first":
        return kept
    column, = _columns(records, "pvi" if ordering == "hard_first" else "original_index")
    return sorted(kept, key=column.__getitem__)


def rank_by_difficulty(records, order: str = "descending_pvi") -> tuple[int, ...]:
    """Permutation of original_index; ties break by ascending original_index.

    descending_pvi puts the easiest (highest-score) instances first; ascending_pvi
    is that ranking stably re-sorted by score.
    """
    ascending = _order(order) == "ascending_pvi"
    records = records if isinstance(records, PviColumns) else tuple(records)
    pvi, index = _columns(records, "pvi", "original_index")
    ranked = _rank(records)
    return tuple(index[p] for p in (sorted(ranked, key=pvi.__getitem__) if ascending else ranked))


def records_by_index(dataset: Dataset, records):
    """`records` listed by dataset position; there must be exactly one per instance. A
    PviColumns comes back as one (PviColumns.take), so no PviRecord is built per row."""
    columns = isinstance(records, PviColumns)
    records = records if columns else tuple(records)
    position: dict[int, int] = {}
    for p, index in enumerate(*_columns(records, "original_index")):
        if position.setdefault(index, p) != p:
            raise ValueError(f"records hold original_index {index} twice")
    if position.keys() != {inst.original_index for inst in dataset}:
        raise ValueError("records do not cover exactly the dataset's indices")
    order = [position[inst.original_index] for inst in dataset]
    return records.take(order) if columns else [records[p] for p in order]


def hardest_k(records, dataset: Dataset, k: int):
    """The k instances select_subset would keep, with scores attached, ascending by score."""
    if not _holds(int, k):  # an int that is not a bool
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 0 <= k <= len(dataset):
        raise ValueError(f"k={k} is outside [0, {len(dataset)}]")
    records = records_by_index(dataset, records)
    pvi, = _columns(records, "pvi")
    return [(dataset.instances[p], pvi[p])
            for p in _tail(records, _rank(records), k, "hard_first")]


def pvi_histogram(records, num_bins: int, value_range: tuple[float, float]):
    """Fixed-range histogram; out-of-range scores clip into the end bins."""
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    lo, hi = value_range
    values = np.clip(*_columns(records, "pvi"), lo, hi)
    counts, edges = np.histogram(values, bins=num_bins, range=(lo, hi))
    return edges, counts


# ---------------------------------------------------------------------------
# export

_CSV_COLUMNS = {"original_index": count, "null_log2prob": finite_float,
                "cond_log2prob": finite_float, "pvi": finite_float}


def _cells(records):
    return zip(*_columns(records, *_CSV_COLUMNS))


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

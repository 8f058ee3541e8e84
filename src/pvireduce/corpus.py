"""Labeled text-pair datasets: loading, validation, corruption, skewing, synthesis.

Every transformation here is a pure function of its inputs; random operations
take an explicit seed and are bit-reproducible.
"""

from __future__ import annotations

import codecs
import json
import math
import unicodedata
from dataclasses import dataclass, field, replace

import numpy as np

from .tables import atomic_write_text

DEFAULT_LABELS = ("entailment", "neutral", "contradiction")

class DataError(ValueError):
    """Malformed dataset content (bad label, missing field, bad line)."""


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class LabeledInstance:
    original_index: int
    premise: str
    hypothesis: str
    label: int


@dataclass(frozen=True)
class Dataset:
    instances: tuple[LabeledInstance, ...]
    num_classes: int
    provenance_tag: str = "original"
    label_names: tuple[str, ...] = DEFAULT_LABELS
    # feature matrices built for it, by (hash_bits, ngram_orders); `replace` copies start empty
    _features: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        seen = set()
        for inst in self.instances:
            if not (0 <= inst.label < self.num_classes):
                raise DataError(
                    f"label {inst.label} out of range for {self.num_classes} classes "
                    f"(original_index {inst.original_index})"
                )
            if inst.original_index in seen:
                raise DataError(f"duplicate original_index {inst.original_index}")
            seen.add(inst.original_index)

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self):
        return iter(self.instances)

    def labels(self) -> np.ndarray:
        return np.array([inst.label for inst in self.instances], dtype=np.int64)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels(), minlength=self.num_classes)

    def take(self, positions, provenance_tag: str | None = None) -> "Dataset":
        """The instances at `positions`, in order, with each built matrix's rows X[positions]."""
        out = replace(self, instances=tuple(self.instances[p] for p in positions),
                      provenance_tag=self.provenance_tag if provenance_tag is None
                      else provenance_tag)
        out._features.update((key, X[positions]) for key, X in self._features.items())
        return out


@dataclass(frozen=True)
class NoiseSpec:
    replacement_ratio: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.replacement_ratio <= 1.0:
            raise ValueError(f"replacement_ratio must be in [0,1], got {self.replacement_ratio}")


# ---------------------------------------------------------------------------
# loading / serialization

def _label_index(raw, label_names, lineno: int) -> int:
    if isinstance(raw, int) and not isinstance(raw, bool):
        if 0 <= raw < len(label_names):
            return raw
        raise DataError(f"line {lineno}: label {raw} out of range for {len(label_names)} classes")
    try:
        return label_names.index(raw)
    except ValueError:
        raise DataError(f"line {lineno}: unknown label {raw!r} (expected one of {list(label_names)})")


def _check_no_surrogates(rec: dict, lineno: int) -> None:
    """DataError naming the line and field if a text holds a lone surrogate,
    which is not valid Unicode and cannot be encoded as UTF-8."""
    for key in ("premise", "hypothesis"):
        try:
            rec[key].encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DataError(f"line {lineno}: field {key!r} holds a lone surrogate "
                            f"{rec[key][exc.start]!r}, which is not valid Unicode text") from None


def load_dataset(path, fmt: str = "jsonl", num_classes: int = 3,
                 label_names=DEFAULT_LABELS) -> Dataset:
    """Read a JSONL or TSV dataset; original_index is the 0-based file position.

    Malformed records raise DataError naming the line; they are never dropped
    silently (use filter_invalid for content-level cleanup). A leading UTF-8
    byte-order mark is skipped.
    """
    if fmt not in ("jsonl", "tsv"):
        raise ValueError(f"unsupported format {fmt!r}")
    if len(label_names) != num_classes:
        raise ValueError("label_names length must equal num_classes")
    with open(path, "rb") as fh:
        # bytes.splitlines splits at LF, CR and CRLF, as text-mode reading does
        lines = fh.read().removeprefix(codecs.BOM_UTF8).splitlines()
    instances = []
    for lineno, raw in enumerate(lines, 1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"line {lineno}: invalid UTF-8 byte {raw[exc.start]:#04x} "
                            f"({exc.reason})") from None
        if fmt == "jsonl":
            if text == "":
                raise DataError(f"line {lineno}: empty line")
            try:
                rec = json.loads(text)
            except json.JSONDecodeError as exc:
                raise DataError(f"line {lineno}: invalid JSON ({exc.msg})") from None
            except RecursionError:
                raise DataError(f"line {lineno}: invalid JSON (nested too deeply)") from None
            if not isinstance(rec, dict):
                raise DataError(f"line {lineno}: expected a JSON object")
            for key in ("premise", "hypothesis", "label"):
                if key not in rec:
                    raise DataError(f"line {lineno}: missing field {key!r}")
            for key in ("premise", "hypothesis"):
                if not isinstance(rec[key], str):
                    raise DataError(f"line {lineno}: field {key!r} must be a string, "
                                    f"got {rec[key]!r}")
            # a lone surrogate can only come from a JSON \u escape
            if "\\u" in text:
                _check_no_surrogates(rec, lineno)
            premise, hypothesis, raw_label = rec["premise"], rec["hypothesis"], rec["label"]
        else:
            parts = text.split("\t")
            if len(parts) != 3:
                raise DataError(f"line {lineno}: expected 3 tab-separated columns, "
                                f"got {len(parts)}")
            premise, hypothesis, raw_label = parts
        label = _label_index(raw_label, label_names, lineno)
        instances.append(LabeledInstance(lineno - 1, premise, hypothesis, label))
    return Dataset(tuple(instances), num_classes, "original", tuple(label_names))


def serialize(dataset: Dataset, path, fmt: str = "jsonl") -> None:
    """Write a dataset back out; inverse of load_dataset on valid data.

    TSV has no escaping, so a text holding a tab, LF or CR is refused and
    no file is written.
    """
    if fmt not in ("jsonl", "tsv"):
        raise ValueError(f"unsupported format {fmt!r}")
    lines = []
    for inst in dataset:
        name = dataset.label_names[inst.label]
        if fmt == "jsonl":
            lines.append(json.dumps(
                {"premise": inst.premise, "hypothesis": inst.hypothesis, "label": name},
                ensure_ascii=False))
            continue
        for key, text in (("premise", inst.premise), ("hypothesis", inst.hypothesis),
                          ("label", name)):
            if any(ch in text for ch in "\t\n\r"):
                raise DataError(f"original_index {inst.original_index}: field {key!r} "
                                f"holds a tab or line break; TSV cannot encode it")
        lines.append(f"{inst.premise}\t{inst.hypothesis}\t{name}")
    atomic_write_text(path, "".join(line + "\n" for line in lines))


# ---------------------------------------------------------------------------
# validation / views

def _has_control_chars(text: str) -> bool:
    return any(unicodedata.category(ch) == "Cc" for ch in text)


def filter_invalid(dataset: Dataset):
    """Drop empty-field or control-character instances; keep original indices.

    Returns (filtered dataset, removal counts per reason).
    """
    kept = []
    report = {}
    for pos, inst in enumerate(dataset):
        if inst.premise == "" or inst.hypothesis == "":
            report["empty_field"] = report.get("empty_field", 0) + 1
        elif _has_control_chars(inst.premise) or _has_control_chars(inst.hypothesis):
            report["control_chars"] = report.get("control_chars", 0) + 1
        else:
            kept.append(pos)
    return dataset.take(kept), report


def to_null_view(dataset: Dataset) -> Dataset:
    """Replace both texts with the empty string; labels and indices preserved."""
    nulled = tuple(replace(inst, premise="", hypothesis="") for inst in dataset)
    return replace(dataset, instances=nulled, provenance_tag="null-view")


# ---------------------------------------------------------------------------
# corruption

def _corrupt_text(text: str, rng: np.random.Generator) -> str:
    """Swap two adjacent characters, delete one, insert a punctuation mark, shuffle
    the space-separated tokens and repeat a fragment, in that order.

    At most one character goes and at least two come in, so the result is
    always longer than `text`: corruption visibly changes every instance."""
    out = text
    if len(out) >= 2:
        i = int(rng.integers(0, len(out) - 1))
        out = out[:i] + out[i + 1] + out[i] + out[i + 2:]
    if len(out) >= 2:
        i = int(rng.integers(0, len(out)))
        out = out[:i] + out[i + 1:]
    i = int(rng.integers(0, len(out) + 1))
    punct = "!?,.;~"[int(rng.integers(0, 6))]
    out = out[:i] + punct + out[i:]
    tokens = out.split(" ")
    if len(tokens) >= 2:
        out = " ".join(tokens[i] for i in rng.permutation(len(tokens)))
    # out holds at least the punctuation mark
    i = int(rng.integers(0, len(out)))
    j = int(rng.integers(i, len(out))) + 1
    return out[:j] + out[i:j] + out[j:]


def inject_noise(dataset: Dataset, spec: NoiseSpec) -> Dataset:
    """Rewrite a seeded sample of round(ratio*m) instances with mechanical noise.

    Per-instance corruption is driven by a generator derived from
    (spec.seed, original_index), so the result is independent of iteration
    order and stable under dataset reordering.
    """
    m = len(dataset)
    n_corrupt = round_half_up(spec.replacement_ratio * m)
    rng = np.random.default_rng(spec.seed)
    chosen_pos = set(rng.choice(m, size=n_corrupt, replace=False).tolist()) if n_corrupt else set()
    out = []
    for pos, inst in enumerate(dataset):
        if pos in chosen_pos:
            sub = np.random.default_rng([spec.seed, inst.original_index])
            inst = replace(inst, premise=_corrupt_text(inst.premise, sub),
                           hypothesis=_corrupt_text(inst.hypothesis, sub))
        out.append(inst)
    return replace(dataset, instances=tuple(out), provenance_tag="noisy")


def make_imbalanced(dataset: Dataset, class_keep_fractions, seed: int) -> Dataset:
    """Subsample each class to round(fraction_c * count_c) instances."""
    fractions = tuple(class_keep_fractions)
    if len(fractions) != dataset.num_classes:
        raise ValueError("need one keep-fraction per class")
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ValueError(f"keep fraction must be in (0,1], got {f}")
    counts = dataset.class_counts()
    rng = np.random.default_rng(seed)
    keep_positions = set()
    for c in range(dataset.num_classes):
        positions = [pos for pos, inst in enumerate(dataset) if inst.label == c]
        n_keep = round_half_up(fractions[c] * counts[c])
        if counts[c] > 0 and n_keep == 0:
            raise ValueError(f"class {c}: keep fraction {fractions[c]} rounds to 0 instances")
        picked = rng.choice(len(positions), size=n_keep, replace=False)
        keep_positions.update(positions[i] for i in picked.tolist())
    return dataset.take(sorted(keep_positions), "imbalanced")


# ---------------------------------------------------------------------------
# synthetic corpus

_FILLER = (
    "river", "stone", "window", "garden", "cloud", "paper", "street", "meadow",
    "lantern", "harbor", "violin", "bottle", "mirror", "forest", "engine",
    "candle", "bridge", "market", "saddle", "anchor", "ribbon", "copper",
    "willow", "thunder", "pocket", "ladder", "carpet", "basket", "feather",
    "marble",
)

# one keyword set per class; presence of any keyword of set c decides label c
_EASY_KEYWORDS = (
    ("lumen", "brill", "shinex"),
    ("murmur", "quietus", "steadly"),
    ("fractis", "sharply", "breakor"),
)

# pair tokens: label of a medium instance is (i + j) mod C for the compound
# token A[i]-B[j]; individually each half is label-uninformative, the junction
# character trigram identifies the pair
_PAIR_A = ("vona", "crebe", "dolci")
_PAIR_B = ("brask", "fintol", "gorm")


def synthetic_difficulty_tags(num_instances: int, difficulty_mix, seed: int) -> tuple[str, ...]:
    """Per-instance difficulty assignment used by generate_synthetic.

    Deterministic function of the generator arguments; exposed so callers can
    recover which instances were built easy/medium/hard.
    """
    fracs = tuple(difficulty_mix)
    # `not ... <=` so that NaN fails too
    if len(fracs) != 3 or not all(f >= 0 for f in fracs) or not abs(sum(fracs) - 1.0) <= 1e-9:
        raise ValueError(f"difficulty_mix must be three fractions >= 0 that sum to 1: {fracs}")
    # largest-remainder apportionment so counts sum exactly
    raw = [f * num_instances for f in fracs]
    counts = [int(math.floor(x)) for x in raw]
    remainders = sorted(range(3), key=lambda i: (raw[i] - counts[i], -i), reverse=True)
    for i in range(num_instances - sum(counts)):
        counts[remainders[i % 3]] += 1
    tags = ["easy"] * counts[0] + ["medium"] * counts[1] + ["hard"] * counts[2]
    rng = np.random.default_rng([seed, 0xD1F])
    perm = rng.permutation(num_instances)
    return tuple(tags[i] for i in np.argsort(perm))


def _filler_words(rng, n):
    return [_FILLER[int(i)] for i in rng.integers(0, len(_FILLER), size=n)]


def generate_synthetic(num_instances: int, num_classes: int = 3,
                       difficulty_mix=(0.5, 0.3, 0.2), seed: int = 1) -> Dataset:
    """Build a balanced synthetic text-pair corpus with controlled difficulty.

    easy:   hypothesis carries a class keyword that determines the label.
    medium: hypothesis carries a compound pair token whose combination
            determines the label.
    hard:   label is independent of the text; the hypothesis carries a
            randomly chosen (misleading) keyword.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if num_instances < num_classes:
        raise ValueError("num_instances must be >= num_classes")
    if num_classes > len(_EASY_KEYWORDS):
        raise ValueError(f"synthetic generator supports up to {len(_EASY_KEYWORDS)} classes")
    tags = synthetic_difficulty_tags(num_instances, difficulty_mix, seed)
    rng = np.random.default_rng([seed, 0xC0])
    instances = []
    for i in range(num_instances):
        label = i % num_classes
        premise = " ".join(_filler_words(rng, 4 + int(rng.integers(0, 5))))
        hyp_words = _filler_words(rng, 3 + int(rng.integers(0, 4)))
        tag = tags[i]
        if tag == "easy":
            kws = _EASY_KEYWORDS[label]
            signal = kws[int(rng.integers(0, len(kws)))]
        elif tag == "medium":
            a = int(rng.integers(0, len(_PAIR_A)))
            # pick b so the pair encodes the target label
            choices = [b for b in range(len(_PAIR_B)) if (a + b) % num_classes == label]
            b = choices[int(rng.integers(0, len(choices)))]
            signal = f"{_PAIR_A[a]}-{_PAIR_B[b]}"
        else:
            flat = [kw for kws in _EASY_KEYWORDS[:num_classes] for kw in kws]
            signal = flat[int(rng.integers(0, len(flat)))]
        pos = int(rng.integers(0, len(hyp_words) + 1))
        hyp_words.insert(pos, signal)
        instances.append(LabeledInstance(i, premise, " ".join(hyp_words), label))
    names = DEFAULT_LABELS if num_classes == 3 else tuple(f"class{c}" for c in range(num_classes))
    return Dataset(tuple(instances), num_classes, "synthetic", names)

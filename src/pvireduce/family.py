"""Hashed character n-gram softmax classifier: the built-in predictive family.

Deterministic end to end: feature hashing uses CRC32 with fixed field salts,
training is plain mini-batch gradient descent with a seeded shuffle, and the
whole pipeline runs in float64 on a single thread. Featurization yields one
CSR matrix per chunk of 2048 rows and hashes each distinct n-gram once per
chunk, in numpy, with the same features as hashing every occurrence.
feature_matrix stacks the chunks; scoring a dataset with no memoized feature
matrix predicts each chunk as it comes and keeps none. A training step
gathers (with take) and updates only the weight columns its batch touches
and keeps L2 decay as a lazy global scale on the weights; a batch with no
features (every null-model batch) touches none and updates only the bias.
Each batch's columns and rows are prepared once per epoch, or once per train
call when hp.preserve_order makes every epoch walk the same order.
loss_and_grad is the dense step it matches. scipy is imported on first use,
by the CSR builders, so a run that builds no matrix never loads it.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from collections import Counter
from dataclasses import dataclass, fields, replace

import numpy as np

from .corpus import Dataset, to_null_view
from .tables import atomic_write_text, f17, finite_float

_FIELD_SALTS = {"premise": b"p\x00", "hypothesis": b"h\x00"}


@dataclass(frozen=True)
class Hyperparams:
    """How a family member is trained: the one schema for configs, flags and files."""
    hash_bits: int = 16
    ngram_orders: tuple[int, ...] = (1, 2, 3)
    learning_rate: float = 0.05
    epochs: int = 16
    batch_size: int = 32
    l2: float = 1e-6
    seed: int = 1
    prob_floor: float = 1e-12
    preserve_order: bool = False
    lr_schedule: str = "linear"  # "linear" decay to 0 over all steps, or "constant"

    def __post_init__(self):
        # CRC32 gives 32 bits, so a wider mask only adds columns nothing touches
        if not 1 <= self.hash_bits <= 32:
            raise ValueError(f"hash_bits must be in [1, 32], got {self.hash_bits!r}")
        if not self.ngram_orders or min(self.ngram_orders) < 1:
            raise ValueError("ngram_orders must be a non-empty list of orders >= 1, "
                             f"got {self.ngram_orders!r}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size!r}")
        if not 0.0 <= self.l2 < math.inf:
            raise ValueError(f"l2 must be finite and >= 0, got {self.l2!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if not 0.0 < self.prob_floor < 1.0:
            raise ValueError(f"prob_floor must be in (0,1), got {self.prob_floor!r}")
        if self.lr_schedule not in ("linear", "constant"):
            raise ValueError(f"unknown lr_schedule {self.lr_schedule!r}")

    @property
    def dim(self) -> int:
        return 1 << self.hash_bits

    def as_dict(self) -> dict:
        """Every field but preserve_order, which progressive_train sets per call."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "preserve_order"}

    @classmethod
    def from_dict(cls, values) -> "Hyperparams":
        """Inverse of as_dict, from INI strings, flag or JSON values ("1,2" or a list
        for ngram_orders); an unknown key or uncastable value raises ValueError."""
        kinds = {name: type(value) for name, value in cls().as_dict().items()}
        cast = {}
        for key, value in values.items():
            if key not in kinds:
                raise ValueError(f"unknown hyperparameter {key!r}")
            try:
                if kinds[key] is tuple:
                    items = value.split(",") if isinstance(value, str) else value
                    cast[key] = tuple(_cast(int, item) for item in items)
                else:
                    cast[key] = _cast(kinds[key], value)
            except (TypeError, ValueError):
                kind = "list of ints" if kinds[key] is tuple else kinds[key].__name__
                raise ValueError(f"hyperparameter {key} = {value!r} "
                                 f"cannot be read as {kind}") from None
        return cls(**cast)


def _cast(kind, value):
    """Parse a string as `kind`; take another value only if it is one (or an int for float)."""
    if isinstance(value, str):
        return value if kind is str else kind(value)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise TypeError(f"{value!r} is not a {kind.__name__}")
    return kind(value)


@dataclass(frozen=True)
class Model:
    weights: np.ndarray  # (C, 2**hash_bits)
    bias: np.ndarray     # (C,)
    num_classes: int
    hyperparams: Hyperparams
    trained_on: str = ""
    epoch_losses: tuple[float, ...] = ()


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    precision_micro: float
    recall_micro: float
    f1_micro: float


# ---------------------------------------------------------------------------
# featurization

# rows featurized together; bounds the size of one chunk's temporary arrays
_CHUNK_ROWS = 2048
# every code point is below this, so (gram id, next code point) packs into one int64
_CODE_POINTS = 0x110000


def featurize(premise: str, hypothesis: str, hash_bits: int = Hyperparams.hash_bits,
              ngram_orders=Hyperparams.ngram_orders) -> dict[int, float]:
    """Sparse count vector of hashed character n-grams of both fields.

    Each n-gram of each listed order (a repeated order counts again) adds
    1.0 to bucket crc32(salt + utf-8 bytes) & (2**hash_bits - 1). Premise
    and hypothesis n-grams are salted differently so the same substring
    lands in different buckets per field. Empty texts yield the empty vector.
    The arguments are checked as Hyperparams checks its fields.
    """
    hp = Hyperparams(hash_bits=hash_bits, ngram_orders=tuple(ngram_orders))
    X = next(_hashed_counts([premise], [hypothesis], hp))
    return dict(zip(X.indices.tolist(), X.data.tolist()))


def feature_matrix(dataset: Dataset, hp: Hyperparams) -> sp.csr_matrix:
    """CSR matrix of featurize() applied to every instance, in dataset order."""
    chunks = list(_hashed_counts([inst.premise for inst in dataset],
                                 [inst.hypothesis for inst in dataset], hp))
    import scipy.sparse as sp
    return sp.vstack(chunks, format="csr")


def _features(dataset: Dataset, hp: Hyperparams) -> sp.csr_matrix:
    """feature_matrix(dataset, hp), built once per dataset and featurization."""
    key = _feature_key(hp)
    if key not in dataset._features:
        dataset._features[key] = feature_matrix(dataset, hp)
    return dataset._features[key]


def _feature_key(hp: Hyperparams):
    """What a Dataset memoizes its feature matrices under: the featurization's settings."""
    return hp.hash_bits, tuple(hp.ngram_orders)


def _hashed_counts(premises, hypotheses, hp: Hyperparams):
    """featurize() over the rows, built in numpy, as a CSR matrix per _CHUNK_ROWS rows
    (one 0-row matrix for no rows); every feature row's builder. Each distinct n-gram
    is hashed once per chunk. Within a row the buckets ascend, and each count is an
    exact sum of 1.0s."""
    repeats = Counter(hp.ngram_orders)
    mask = hp.dim - 1
    per_field = [(premises, _FIELD_SALTS["premise"]), (hypotheses, _FIELD_SALTS["hypothesis"])]
    for lo in range(0, len(premises) or 1, _CHUNK_ROWS):
        n = min(len(premises) - lo, _CHUNK_ROWS)
        # one key per n-gram occurrence: (row in chunk) << hash_bits | bucket
        keys = [np.zeros(0, np.int64)]
        for texts, salt in per_field:
            keys += _gram_keys(texts[lo:lo + n], salt, mask, hp.hash_bits, repeats)
        keys, counts = np.unique(np.concatenate(keys), return_counts=True)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(keys >> hp.hash_bits, minlength=n))))
        # loaded on first use, so a run that builds no matrix never loads it; here, after the
        # n-gram keys are freed, so a run's first featurization never holds both at once
        import scipy.sparse as sp
        chunk = sp.csr_matrix((counts.astype(np.float64), keys & mask, indptr), shape=(n, hp.dim))
        # a suspended generator keeps its locals alive while the caller uses the chunk
        del keys, counts, indptr
        yield chunk


def _gram_keys(texts, salt: bytes, mask: int, hash_bits: int, repeats):
    """Per listed order some text reaches, an array of (row << hash_bits | bucket),
    one per n-gram.

    Grams are numbered order by order: the id of the k-gram at i is the rank of
    (id of the (k-1)-gram at i, code point at i+k-1), so one np.unique per order
    numbers them and equal ids spell equal grams.
    """
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    joined = "".join(texts)
    codes = np.frombuffer(joined.encode("utf-32-le"), np.uint32).astype(np.int64)
    rows = np.repeat(np.arange(len(texts), dtype=np.int64) << hash_bits, lengths)
    # characters from each position to the end of its text, so no gram spans two texts
    remaining = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(codes))
    ids = np.zeros(len(codes), np.int64)
    pos = np.arange(len(codes))
    keys = []
    for k in range(1, max(repeats) + 1):
        pos = pos[remaining[pos] >= k]
        if not len(pos):
            break  # no text is k characters long, so none holds a longer gram
        distinct, ids_k = np.unique(ids[pos] * _CODE_POINTS + codes[pos + k - 1],
                                    return_inverse=True)
        ids[pos] = ids_k
        if k in repeats:
            # one position per distinct gram: any occurrence spells the same gram
            where = np.empty(len(distinct), np.int64)
            where[ids_k] = pos
            gram_bucket = np.array([zlib.crc32(salt + joined[i:i + k].encode("utf-8")) & mask
                                    for i in where.tolist()], np.int64)
            keys += [rows[pos] | gram_bucket[ids_k]] * repeats[k]
    return keys


# ---------------------------------------------------------------------------
# loss / training

def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _cross_entropy(logits: np.ndarray, y: np.ndarray):
    """Mean cross-entropy of softmax(logits) against y, and its gradient in the logits."""
    n = logits.shape[0]
    rows = np.arange(n)
    probs = _softmax(logits)
    # np.mean's sum and division, without its Python wrappers
    loss = -(np.add.reduce(np.log(np.maximum(probs[rows, y], 1e-300))) / n)
    delta = probs
    delta[rows, y] -= 1.0
    delta /= n
    return loss, delta


def loss_and_grad(weights: np.ndarray, bias: np.ndarray, X: sp.csr_matrix,
                  y: np.ndarray, l2: float = 0.0):
    """Mean cross-entropy (plus optional L2 on weights) and its gradient.

    The dense reference for the step train() takes: train() gives the same
    result while touching only the columns a batch uses.
    """
    loss, delta = _cross_entropy(X @ weights.T + bias, y)
    loss += 0.5 * l2 * float(np.sum(weights * weights))
    grad_w = np.asarray(X.T @ delta).T + l2 * weights
    return loss, grad_w, delta.sum(axis=0)


# train() folds the lazy L2 scale into the weights once it falls this low
_MIN_SCALE = 1e-3


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _zero_weights(C: int, hp: Hyperparams) -> np.ndarray:
    """A zero (C, 2**hash_bits) float64 weight matrix: train's, load_model's and
    constant_predictor's one allocation of weights.

    A matrix larger than the machine's physical memory raises ValueError naming
    hash_bits, before it is allocated.
    """
    need, memory = C * hp.dim * 8, _physical_memory()
    if need > memory:
        raise ValueError(f"hash_bits = {hp.hash_bits} needs a {C} x {hp.dim} float64 weight "
                         f"matrix of {need / 2**30:.1f} GiB, more than this machine's "
                         f"{memory / 2**30:.1f} GiB of memory")
    return np.zeros((C, hp.dim))


@np.errstate(over="ignore", invalid="ignore")
def train(dataset: Dataset, hp: Hyperparams, init: Model | None = None) -> Model:
    """Mini-batch gradient descent on mean cross-entropy plus 0.5*l2*|W|^2.

    Each epoch consumes the dataset in the order training_order() gives:
    a fresh seeded shuffle, or the dataset's own order when
    hp.preserve_order is set (curriculum training relies on this). With
    `init`, training continues from that model's parameters and its epoch
    losses are kept in front of the new ones. A weight matrix larger than
    the machine's physical memory raises ValueError before it is allocated, and
    a diverged run (an epoch's mean loss not finite) when that epoch ends.

    A step reads and writes only the weight columns its batch touches,
    gathered with take, so its cost does not grow with hash_bits. _batches
    prepares each batch's touched columns and renumbered rows: once per call
    under hp.preserve_order, where every epoch walks the same order, and
    once per epoch, one batch at a time, when shuffled. A batch with no
    features touches none: its logits are the bias, and it updates only the
    bias. L2 decay is a lazy global scale, W = scale * V (Bottou 2012): each
    step, empty or not, multiplies `scale` by (1 - lr*l2), and |V|^2 is kept
    up to date so the epoch loss keeps its L2 term. With l2 = 0 every step
    equals loss_and_grad's dense step bit for bit; with l2 > 0 it equals it
    up to rounding.
    """
    m = len(dataset)
    if m == 0:
        raise ValueError("cannot train on an empty dataset")
    C = dataset.num_classes
    if init is None:
        V, b, epoch_losses = _zero_weights(C, hp), np.zeros(C), []
    elif init.weights.shape != (C, hp.dim) or init.bias.shape != (C,):
        raise ValueError(f"init model has weights {init.weights.shape} and bias "
                         f"{init.bias.shape}; training here needs {(C, hp.dim)} and {(C,)}")
    else:
        V, b, epoch_losses = init.weights.copy(), init.bias.copy(), list(init.epoch_losses)
    X = _features(dataset, hp)
    y = dataset.labels()
    scale, sq_norm = 1.0, float(np.sum(V * V))
    # every epoch of an ordered run walks arange(m), so its batches are prepared once
    kept = list(_batches(X, y, None, hp)) if hp.preserve_order else None
    total_steps = hp.epochs * ((m + hp.batch_size - 1) // hp.batch_size)
    step = 0
    for order in training_order(m, hp):
        total = 0.0
        for start, stop, cols, Xb, XbT, yb in kept or _batches(X, y, order, hp):
            if cols is None:
                # no features: the logits are the bias and the weight gradient is zero
                logits = np.zeros((stop - start, C)) + b
            else:
                Vb = V.take(cols, axis=1)
                logits = Xb @ (scale * Vb).T + b
            loss, delta = _cross_entropy(logits, yb)
            loss += 0.5 * hp.l2 * (scale * scale * sq_norm)
            if hp.lr_schedule == "linear":
                lr = hp.learning_rate * (1.0 - step / total_steps)
            else:
                lr = hp.learning_rate
            scale *= 1.0 - lr * hp.l2
            if scale <= _MIN_SCALE:
                V *= scale
                scale, sq_norm = 1.0, float(np.sum(V * V))
                if cols is not None:
                    Vb = V.take(cols, axis=1)
            if cols is not None:
                Vb_new = Vb - (lr / scale) * (XbT @ delta).T
                V[:, cols] = Vb_new
                sq_norm += float(np.sum(Vb_new * Vb_new) - np.sum(Vb * Vb))
            b -= lr * delta.sum(axis=0)
            total += loss * (stop - start)
            step += 1
        if not math.isfinite(total / m):
            raise ValueError(f"training diverged: epoch {len(epoch_losses) + 1} has mean loss "
                             f"{total / m} (learning_rate {hp.learning_rate!r}, l2 {hp.l2!r})")
        epoch_losses.append(total / m)
    return Model(scale * V, b, C, hp, dataset.provenance_tag, tuple(epoch_losses))


def _batches(X: sp.csr_matrix, y: np.ndarray, order, hp: Hyperparams):
    """One epoch's batches in `order` (None: the rows as they are), one at a time.

    Yields (start, stop, cols, Xb, Xb.T, yb): `cols` are the distinct columns
    the batch touches, ascending, and Xb holds its rows with each column
    renumbered to its position in `cols`; Xb.T is a CSC view of the same
    arrays. A batch with no features has cols = Xb = Xb.T = None.
    """
    import scipy.sparse as sp

    if order is not None:
        # rows in this epoch's order, so that each batch is a contiguous slice
        X, y = X[order], y[order]
    m = X.shape[0]
    # slot[c] is column c's position among the columns its batch touches
    slot = np.zeros(hp.dim, np.int32)
    for start in range(0, m, hp.batch_size):
        stop = min(start + hp.batch_size, m)
        lo, hi = X.indptr[start], X.indptr[stop]
        if lo == hi:
            yield start, stop, None, None, None, y[start:stop]
            continue
        touched = X.indices[lo:hi]
        # the distinct columns in order; np.unique (numpy >= 2.3) hashes before
        # it sorts, which is several times slower on a batch's few thousand entries
        ordered = np.sort(touched)
        cols = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        slot[cols] = np.arange(len(cols), dtype=np.int32)
        Xb = sp.csr_matrix((X.data[lo:hi], slot[touched], X.indptr[start:stop + 1] - lo),
                           shape=(stop - start, len(cols)))
        yield start, stop, cols, Xb, Xb.T, y[start:stop]


def train_null(dataset: Dataset, hp: Hyperparams) -> Model:
    """The null model: train() on the empty-text view, all-zero features."""
    return train(to_null_view(dataset), hp)


def training_order(m: int, hp: Hyperparams):
    """Instance order consumed per epoch by train() for a size-m dataset, epoch by epoch."""
    rng = np.random.default_rng(hp.seed)
    for _ in range(hp.epochs):
        yield np.arange(m) if hp.preserve_order else rng.permutation(m)


# ---------------------------------------------------------------------------
# prediction / evaluation

def predict_dist_matrix(model: Model, X: sp.csr_matrix) -> np.ndarray:
    return _softmax(X @ model.weights.T + model.bias)


def predict_dist(model: Model, premise: str, hypothesis: str) -> np.ndarray:
    """The pair's row of predict_dist_matrix on any feature_matrix, bit for bit."""
    X = next(_hashed_counts([premise], [hypothesis], model.hyperparams))
    return predict_dist_matrix(model, X)[0]


def log2_prob(model: Model, premise: str, hypothesis: str, label: int) -> float:
    """log2 of the model's probability of the gold label, floored at prob_floor."""
    if not 0 <= label < model.num_classes:
        raise ValueError(f"label {label} out of range")
    X = next(_hashed_counts([premise], [hypothesis], model.hyperparams))
    return _gold_log2(model, X, [label])[0]


def _gold_log2(model: Model, X: sp.csr_matrix, labels) -> list[float]:
    """log2 of each row's probability of its label, floored at prob_floor."""
    p = predict_dist_matrix(model, X)[np.arange(len(labels)), labels]
    return [math.log2(max(pk, model.hyperparams.prob_floor)) for pk in p.tolist()]


def _gold_log2_rows(model: Model, dataset: Dataset) -> list[float]:
    """_gold_log2 of every instance, in dataset order.

    A dataset with a memoized feature matrix is scored on it as it is. Any
    other is scored one _hashed_counts chunk at a time, each predicted before
    the next is built, and keeps no matrix. Each row's prediction reads only
    that row, so both give the same floats.
    """
    hp = model.hyperparams
    X = dataset._features.get(_feature_key(hp))
    chunks = [X] if X is not None else _hashed_counts(
        [inst.premise for inst in dataset], [inst.hypothesis for inst in dataset], hp)
    labels, logs = dataset.labels(), []
    for X in chunks:
        logs += _gold_log2(model, X, labels[len(logs):len(logs) + X.shape[0]])
    return logs


def constant_predictor(dist, hp: Hyperparams | None = None) -> Model:
    """Family member that outputs `dist` for every input, null input included.

    Witnesses the closure property of the family: any reachable output
    distribution is realized by a constant member (zero weights, log-dist bias).
    """
    hp = hp or Hyperparams()
    dist = np.asarray(dist, dtype=np.float64)
    if np.any(dist <= 0):
        raise ValueError("distribution entries must be > 0")
    if abs(float(dist.sum()) - 1.0) > 1e-9:
        raise ValueError(f"distribution must sum to 1, got {dist.sum()}")
    C = dist.shape[0]
    return Model(_zero_weights(C, hp), np.log(dist), C, hp, "constant")


def evaluate(model: Model, dataset: Dataset) -> EvalReport:
    """Accuracy and micro-averaged P/R/F1; argmax ties break to the lowest class.

    Each instance has one gold label and one prediction, so each miss is one
    false positive and one false negative: tp + fp = tp + fn = n, and micro
    precision and recall both equal accuracy, correct / n.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    preds = predict_dist_matrix(model, _features(dataset, model.hyperparams)).argmax(axis=1)
    accuracy = float(np.mean(preds == dataset.labels()))
    f1 = 2 * accuracy * accuracy / (accuracy + accuracy) if accuracy else 0.0
    return EvalReport(accuracy, accuracy, accuracy, f1)


# ---------------------------------------------------------------------------
# serialization

_FORMAT_VERSION = 2
# format 1 stored only these fields, at the top level; the rest load as defaults
_FORMAT_1_KEYS = ("hash_bits", "ngram_orders", "prob_floor")


def save_model(model: Model, path) -> None:
    """Versioned JSON dump; floats at 17 significant digits round-trip exactly."""
    nz = np.nonzero(model.weights)
    payload = {
        "format_version": _FORMAT_VERSION,
        "hyperparams": model.hyperparams.as_dict(),
        "preserve_order": model.hyperparams.preserve_order,
        "num_classes": model.num_classes,
        "trained_on": model.trained_on,
        "bias": [f17(v) for v in model.bias],
        "weights": [[int(c), int(j), f17(model.weights[c, j])]
                    for c, j in zip(*nz)],
        "epoch_losses": [f17(v) for v in model.epoch_losses],
    }
    atomic_write_text(path, json.dumps(payload))


def load_model(path) -> Model:
    """Read a save_model file, format 2 or the older format 1.

    Invalid or too deeply nested JSON, a missing key or mistyped value, a weight
    outside the num_classes x 2**hash_bits matrix, a bias whose length is not
    num_classes, or a weight, bias entry or epoch loss that is not finite raises
    ValueError naming the path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("expected a JSON object")
        version = payload.get("format_version")
        if version == _FORMAT_VERSION:
            if not isinstance(payload["hyperparams"], dict):
                raise ValueError("hyperparams must be a JSON object")
            hp = Hyperparams.from_dict(payload["hyperparams"])
        elif version == 1:
            hp = Hyperparams.from_dict({key: payload[key] for key in _FORMAT_1_KEYS})
        else:
            raise ValueError(f"unsupported model format version {version}")
        # files written before the key existed load as they did then, with false
        preserve_order = payload.get("preserve_order", False)
        if type(preserve_order) is not bool:
            raise ValueError(f"preserve_order must be true or false, got {preserve_order!r}")
        hp = replace(hp, preserve_order=preserve_order)
        C = payload["num_classes"]
        if type(C) is not int or C < 1:
            raise ValueError(f"num_classes must be an integer >= 1, got {C!r}")
        W = _zero_weights(C, hp)
        for c, j, v in payload["weights"]:
            if not all(type(i) is int and 0 <= i < n for i, n in ((c, C), (j, hp.dim))):
                raise ValueError(f"weight index ({c!r}, {j!r}) is outside "
                                 f"{C} classes x {hp.dim} columns")
            W[c, j] = finite_float(v)
        bias = np.array([finite_float(v) for v in payload["bias"]])
        if len(bias) != C:
            raise ValueError(f"bias holds {len(bias)} entries for {C} classes")
        losses = tuple(finite_float(v) for v in payload["epoch_losses"])
    except RecursionError:
        raise ValueError(f"{path}: invalid JSON (nested too deeply)") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return Model(W, bias, C, hp, payload.get("trained_on", ""), losses)

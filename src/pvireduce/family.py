"""Hashed character n-gram softmax classifier: the built-in predictive family.

Deterministic end to end: feature hashing uses CRC32 with fixed field salts,
training is plain mini-batch gradient descent with a seeded shuffle, and the
whole pipeline runs in float64 on a single thread. _chunks is the one loop over
row blocks, 512 rows each; _hashed_counts featurizes one block into a CSR matrix,
folding every n-gram's CRC32 in numpy, one UTF-8 byte at a time, with the same
features as zlib.crc32 on each occurrence; one in-place sort of a block's n-gram
keys counts them. feature_matrix stacks the blocks; pvi.compute_pvi featurizes a
set with no memoized feature matrix one block at a time and keeps none. A training step
gathers (with take) and updates only the weight columns its batch touches
and keeps L2 decay as a lazy global scale on the weights; a batch with no
features (every null-model batch) touches none and updates only the bias.
Each batch's columns and rows are prepared once per epoch, or once per train
call when hp.preserve_order makes every epoch walk the same order, as raw CSR
arrays: a step multiplies them by scipy's compiled kernels csr_matvecs (logits)
and csc_matvecs (gradient; a CSR's arrays are its transpose's CSC arrays), the
calls csr_matrix @ ndarray makes, without building a sparse matrix per batch.
scipy.sparse._sparsetools is private to scipy: _sparse_product is its one
importer, and the tests pin its products to the public operator's bit for bit.
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
from itertools import islice

import numpy as np

from .corpus import Dataset, to_null_view
from .tables import _numeral, atomic_write_text, f17, finite_float, one_of, read_text

_FIELD_SALTS = {"premise": b"p\x00", "hypothesis": b"h\x00"}
_lr_schedule = one_of("lr_schedule", ("linear", "constant"))


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
        for f in fields(self):  # each field holds what its default's type names
            if not _holds(type(f.default), value := getattr(self, f.name)):
                raise ValueError(f"{f.name} must be {_KINDS[type(f.default)]}, got {value!r}")
        # CRC32 gives 32 bits, so a wider mask only adds columns nothing touches
        if not 1 <= self.hash_bits <= 32:
            raise ValueError(f"hash_bits must be in [1, 32], got {self.hash_bits!r}")
        if not self.ngram_orders or min(self.ngram_orders) < 1:
            raise ValueError("ngram_orders must be a non-empty list of orders >= 1, "
                             f"got {self.ngram_orders!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size!r}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {self.l2!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if not 0.0 < self.prob_floor < 1.0:
            raise ValueError(f"prob_floor must be in (0,1), got {self.prob_floor!r}")
        _lr_schedule(self.lr_schedule)

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
    """Parse a string as `kind`, a number from a plain ASCII numeral; take another value
    only if a `kind` field holds it (_holds)."""
    if isinstance(value, str):
        return value if kind is str else _numeral(kind, value)
    if not _holds(kind, value):
        raise TypeError(f"{value!r} is not a {kind.__name__}")
    return kind(value)


# what a Hyperparams field of each type holds, as its refusal names it
_KINDS = {int: "an integer", float: "a finite number", tuple: "a tuple of integers",
          bool: "true or false", str: "a string"}


def _holds(kind, value) -> bool:
    """Whether a field of type `kind` holds `value`: a bool is only a bool, a float field
    takes an int or float whose float() is finite, and a tuple field integers."""
    if kind is tuple:
        return isinstance(value, tuple) and all(_holds(int, item) for item in value)
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    if kind is not float:
        return isinstance(value, kind)
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # float() of an int beyond float range
        return False


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

# rows featurized together; bounds the size of one block's temporary arrays
_CHUNK_ROWS = 512
# CRC32's byte table (reflected polynomial 0xEDB88320): zlib.crc32 inverts the register on
# the way in and out, so from 0xFFFFFFFF it folds byte b into a zero register, giving ~table[b]
_CRC_TABLE = ~np.array([zlib.crc32(bytes([b]), 0xFFFFFFFF) for b in range(256)], np.uint32)


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
    X = _hashed_counts([premise], [hypothesis], hp)
    return dict(zip(X.indices.tolist(), X.data.tolist()))


def feature_matrix(dataset: Dataset, hp: Hyperparams) -> sp.csr_matrix:
    """CSR matrix of featurize() applied to every instance, in dataset order: one block
    of _chunks at a time (one 0-row block for no rows), stacked."""
    blocks = [_hashed_counts([r.premise for r in block], [r.hypothesis for r in block], hp)
              for block in _chunks(dataset)]
    import scipy.sparse as sp
    return sp.vstack(blocks or [_hashed_counts([], [], hp)], format="csr")


def _features(dataset: Dataset, hp: Hyperparams) -> sp.csr_matrix:
    """feature_matrix(dataset, hp), built once per dataset and featurization."""
    key = _feature_key(hp)
    if key not in dataset._features:
        dataset._features[key] = feature_matrix(dataset, hp)
    return dataset._features[key]


def _feature_key(hp: Hyperparams):
    """What a Dataset memoizes its feature matrices under: the featurization's settings."""
    return hp.hash_bits, hp.ngram_orders


def _hashed_counts(premises, hypotheses, hp: Hyperparams) -> sp.csr_matrix:
    """featurize() over one block of rows, built in numpy, as one CSR matrix; every
    feature row's builder. Within a row the buckets ascend, and each count is an exact
    sum of 1.0s."""
    # one key per n-gram occurrence: (row in block) << hash_bits | bucket
    keys = [np.zeros(0, np.int64)]
    for texts, field in ((premises, "premise"), (hypotheses, "hypothesis")):
        keys += _gram_keys(texts, _FIELD_SALTS[field], hp)
    keys = np.concatenate(keys)
    keys.sort()
    # each run of equal keys is one feature: its first key, and its length the count
    first = np.empty(len(keys), bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    first = np.flatnonzero(first)
    counts = np.diff(first, append=len(keys)).astype(np.float64)
    keys = keys[first]
    del first
    indptr = np.concatenate(([0], np.cumsum(np.bincount(keys >> hp.hash_bits,
                                                        minlength=len(premises)))))
    # loaded on first use, so a run that builds no matrix never loads it; here, after the
    # n-gram keys are freed, so a run's first featurization never holds both at once
    import scipy.sparse as sp
    return sp.csr_matrix((counts, keys & (hp.dim - 1), indptr), shape=(len(premises), hp.dim))


def _chunks(items):
    """`items`, any iterable, as lists of _CHUNK_ROWS items (the last one shorter),
    each taken only when the one before it has been used: the one loop over row blocks,
    feature_matrix's and pvi.compute_pvi's."""
    items = iter(items)
    while chunk := list(islice(items, _CHUNK_ROWS)):
        yield chunk


def _gram_keys(texts, salt: bytes, hp: Hyperparams):
    """Per listed order some text reaches, an array of (row << hash_bits | bucket),
    one per n-gram.

    All grams' CRC32 registers fold at once, a byte at a time (Sarwate, CACM 1988):
    the k-gram at character i continues the (k-1)-gram's register at i with the
    UTF-8 bytes of character i+k-1, so each bucket is featurize()'s zlib.crc32.
    """
    repeats = Counter(hp.ngram_orders)
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    data = np.frombuffer("".join(texts).encode("utf-8"), np.uint8)
    # a character starts at every byte that is not a continuation byte (10xxxxxx)
    starts = np.flatnonzero(data & 0xC0 != 0x80)
    widths = np.diff(starts, append=len(data))
    rows = np.repeat(np.arange(len(texts), dtype=np.int64) << hp.hash_bits, lengths)
    # characters from each position to the end of its text, so no gram spans two texts
    remaining = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(starts))
    pos = np.arange(len(starts))
    register = np.full(len(starts), zlib.crc32(salt) ^ 0xFFFFFFFF, np.uint32)
    keys = []
    for k in range(1, max(repeats) + 1):
        kept = remaining[pos] >= k
        pos, register = pos[kept], register[kept]
        if not len(pos):
            break  # no text is k characters long, so none holds a longer gram
        first, width = starts[pos + k - 1], widths[pos + k - 1]
        for j in range(int(width.max())):
            # clamped: a lane narrower than j + 1 bytes reads some byte and keeps its register
            byte = data[np.minimum(first + j, len(data) - 1)]
            folded = _CRC_TABLE[(register ^ byte) & 0xFF] ^ (register >> 8)
            register = np.where(width > j, folded, register)
        if k in repeats:
            keys += [rows[pos] | (~register & (hp.dim - 1))] * repeats[k]
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
    prepares each batch's touched columns and renumbered CSR arrays: once per
    call under hp.preserve_order, where every epoch walks the same order, and
    once per epoch, one batch at a time, when shuffled; _sparse_product
    multiplies them with no sparse matrix object. A batch with no
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
        # a fresh V is all +0.0, so its squared norm is too
        V, b, epoch_losses, sq_norm = _zero_weights(C, hp), np.zeros(C), [], 0.0
    elif init.weights.shape != (C, hp.dim) or init.bias.shape != (C,):
        raise ValueError(f"init model has weights {init.weights.shape} and bias "
                         f"{init.bias.shape}; training here needs {(C, hp.dim)} and {(C,)}")
    else:
        V, b, epoch_losses = init.weights.copy(), init.bias.copy(), list(init.epoch_losses)
        sq_norm = float(np.sum(V * V))
    X = _features(dataset, hp)
    y = dataset.labels()
    scale = 1.0
    # every epoch of an ordered run walks arange(m), so its batches are prepared once
    kept = list(_batches(X, y, None, hp)) if hp.preserve_order else None
    total_steps = hp.epochs * ((m + hp.batch_size - 1) // hp.batch_size)
    step = 0
    for order in training_order(m, hp):
        total = 0.0
        for start, stop, cols, indptr, indices, data, yb in kept or _batches(X, y, order, hp):
            if cols is None:
                # no features: the logits are the bias and the weight gradient is zero
                logits = np.zeros((stop - start, C)) + b
            else:
                Vb = V.take(cols, axis=1)
                shape = (stop - start, len(cols))
                logits = _sparse_product("csr_matvecs", shape, indptr, indices, data,
                                         (scale * Vb).T) + b
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
                # the batch's transpose is a CSC matrix on the same three arrays
                grad = _sparse_product("csc_matvecs", shape[::-1], indptr, indices, data, delta)
                Vb_new = Vb - (lr / scale) * grad.T
                V[:, cols] = Vb_new
                sq_norm += float(np.sum(Vb_new * Vb_new) - np.sum(Vb * Vb))
            b -= lr * delta.sum(axis=0)
            total += loss * (stop - start)
            step += 1
        # a shuffled epoch's last batch views its X[order]; free it before the next is built
        del indptr, indices, data, yb
        if not math.isfinite(total / m):
            raise ValueError(f"training diverged: epoch {len(epoch_losses) + 1} has mean loss "
                             f"{total / m} (learning_rate {hp.learning_rate!r}, l2 {hp.l2!r})")
        epoch_losses.append(total / m)
    # in place, so a run never holds a second weight matrix
    V *= scale
    return Model(V, b, C, hp, dataset.provenance_tag, tuple(epoch_losses))


def _batches(X: sp.csr_matrix, y: np.ndarray, order, hp: Hyperparams):
    """One epoch's batches in `order` (None: the rows as they are), one at a time.

    Yields (start, stop, cols, indptr, indices, data, yb): `cols` are the distinct
    columns the batch touches, ascending, and (indptr, indices, data) are the CSR
    arrays of its rows, with each column renumbered to its position in `cols` (in
    X.indices.dtype, as _sparsetools needs the index arrays alike) and `data` a view of
    X's. A batch with no features has cols = indptr = indices = data = None.
    """
    if order is not None:
        # rows in this epoch's order, so that each batch is a contiguous slice
        X, y = X[order], y[order]
    m = X.shape[0]
    # slot[c] is column c's position among the columns its batch touches
    slot = np.zeros(hp.dim, X.indices.dtype)
    for start in range(0, m, hp.batch_size):
        stop = min(start + hp.batch_size, m)
        lo, hi = X.indptr[start], X.indptr[stop]
        if lo == hi:
            yield start, stop, None, None, None, None, y[start:stop]
            continue
        touched = X.indices[lo:hi]
        # the distinct columns in order; np.unique (numpy >= 2.3) hashes before
        # it sorts, which is several times slower on a batch's few thousand entries
        ordered = np.sort(touched)
        cols = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        slot[cols] = np.arange(len(cols), dtype=slot.dtype)
        yield (start, stop, cols, X.indptr[start:stop + 1] - lo, slot[touched], X.data[lo:hi],
               y[start:stop])


def _sparse_product(kernel: str, shape, indptr, indices, data, dense: np.ndarray) -> np.ndarray:
    """The sparse (shape) matrix on (indptr, indices, data) times `dense`, by scipy's
    compiled `kernel`: "csr_matvecs" reads the arrays as CSR rows, "csc_matvecs" as CSC
    columns, i.e. as the CSR's transpose. It is the call csr_matrix @ ndarray and
    csc_matrix @ ndarray make (for one dense column they call csr_matvec, which adds
    the same terms in the same order), into a fresh zero C-contiguous float64 output, so
    the product is theirs bit for bit, without building a sparse matrix object. The one
    importer of scipy.sparse._sparsetools, a private module the tests pin.
    """
    from scipy.sparse import _sparsetools

    out = np.zeros((shape[0], dense.shape[1]))
    getattr(_sparsetools, kernel)(*shape, dense.shape[1], indptr, indices, data, dense.ravel(),
                                  out.ravel())
    return out


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
    """softmax(X @ weights.T + bias), one product per class row: X @ weights.T would
    copy the (2**hash_bits, C) transposed view into a fresh array on every call."""
    return _softmax(np.stack([X @ w for w in model.weights], axis=1) + model.bias)


def predict_dist(model: Model, premise: str, hypothesis: str) -> np.ndarray:
    """The pair's row of predict_dist_matrix on any feature_matrix, bit for bit."""
    return predict_dist_matrix(model, _hashed_counts([premise], [hypothesis], model.hyperparams))[0]


def log2_prob(model: Model, premise: str, hypothesis: str, label: int) -> float:
    """log2 of the model's probability of the gold label, floored at prob_floor."""
    if not 0 <= label < model.num_classes:
        raise ValueError(f"label {label} out of range")
    return _gold_log2(model, _hashed_counts([premise], [hypothesis], model.hyperparams), [label])[0]


def _gold_log2(model: Model, X: sp.csr_matrix, labels) -> list[float]:
    """log2 of each row's probability of its label, floored at prob_floor."""
    p = predict_dist_matrix(model, X)[np.arange(len(labels)), labels]
    return [math.log2(max(pk, model.hyperparams.prob_floor)) for pk in p.tolist()]


def constant_predictor(dist, hp: Hyperparams | None = None) -> Model:
    """Family member that outputs `dist` for every input, null input included.

    Witnesses the closure property of the family: any reachable output
    distribution is realized by a constant member (zero weights, log-dist bias).
    """
    hp = hp or Hyperparams()
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 1:
        raise ValueError(f"distribution must be 1-D, got shape {dist.shape}")
    if not np.all(dist > 0):  # a NaN is not > 0
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
    """Read a save_model file, format 2 or the older format 1, by tables.read_text.

    Invalid or too deeply nested JSON, a missing key or mistyped value, a weight
    outside the num_classes x 2**hash_bits matrix, a bias whose length is not
    num_classes, or a weight, bias entry or epoch loss that is not finite (a JSON int,
    float or, as save_model writes it, plain ASCII numeral text; never a bool) raises
    ValueError naming the path.
    """
    text = read_text(path)
    try:
        payload = json.loads(text)
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
        hp = replace(hp, preserve_order=payload.get("preserve_order", False))
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
        trained_on = payload.get("trained_on", "")
        if not isinstance(trained_on, str):
            raise ValueError(f"trained_on must be a string, got {trained_on!r}")
    except RecursionError:
        raise ValueError(f"{path}: invalid JSON (nested too deeply)") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return Model(W, bias, C, hp, trained_on, losses)

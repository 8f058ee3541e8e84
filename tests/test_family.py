import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import zlib
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from cjk import ASTRAL, CJK, translate
from pvireduce import (Dataset, Hyperparams, LabeledInstance, constant_predictor,
                       evaluate, featurize, generate_synthetic, load_model, log2_prob,
                       predict_dist, save_model, to_null_view, train)
from pvireduce import family
from pvireduce.family import (Model, feature_matrix, loss_and_grad,
                              predict_dist_matrix, train_null, training_order)


def _random_texts(rng, n):
    alphabet = "abcdefghij klmnop"
    return ["".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=12))
            for _ in range(n)]


def test_featurize_empty_pair():
    assert featurize("", "") == {}


def test_featurize_deterministic():
    assert featurize("hello", "world") == featurize("hello", "world")


def test_featurize_counting():
    vec = featurize("ab", "", ngram_orders=(1, 2))
    assert sum(vec.values()) == 3.0  # "a", "b", "ab"
    assert len(vec) == 3


def test_featurize_field_salts_differ():
    assert featurize("ab", "") != featurize("", "ab")


def _reference_feature_matrix(dataset, hp):
    """Reference for feature_matrix(): the per-gram loop, one CRC32 and one
    count update per n-gram occurrence."""
    mask = hp.dim - 1
    indptr, indices, data = [0], [], []
    for inst in dataset:
        counts = {}
        for text, salt in ((inst.premise, b"p\x00"), (inst.hypothesis, b"h\x00")):
            for order in hp.ngram_orders:
                for i in range(len(text) - order + 1):
                    bucket = zlib.crc32(salt + text[i:i + order].encode("utf-8")) & mask
                    counts[bucket] = counts.get(bucket, 0.0) + 1.0
        for bucket in sorted(counts):
            indices.append(bucket)
            data.append(counts[bucket])
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int64),
         np.array(indptr, dtype=np.int64)),
        shape=(len(dataset), hp.dim))


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


_TEXT = st.text(st.characters(codec="utf-8"), max_size=10)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_TEXT, _TEXT), max_size=8),
       hash_bits=st.one_of(st.integers(1, 20), st.just(32)),
       orders=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       chunk_rows=st.integers(1, 4))
@example(rows=[("a\U0001F600b\U0001F600", ""), ("", ""), ("\U0001F600", "\u00e9\U0001F600")],
         hash_bits=32, orders=[3, 1, 1], chunk_rows=2)
@example(rows=[("", "")], hash_bits=16, orders=[2], chunk_rows=1)
# the last and first code point of each UTF-8 width, side by side in every order
@example(rows=[("\x7f\x80\u07ff\u0800", "\uffff\U00010000\U0010ffff"),
               ("\U0010ffff\u0800\x7f\U00010000\x80", "\u07ff\uffff")],
         hash_bits=32, orders=[3, 1, 2], chunk_rows=2)
def test_feature_matrix_matches_reference(rows, hash_bits, orders, chunk_rows):
    # arbitrary valid Unicode, repeated and unsorted orders, orders longer than
    # the texts, and chunks small enough that rows cross chunk boundaries
    ds = Dataset(tuple(LabeledInstance(i, p, h, 0) for i, (p, h) in enumerate(rows)), 3)
    hp = Hyperparams(hash_bits=hash_bits, ngram_orders=tuple(orders))
    want = _reference_feature_matrix(ds, hp)
    with mock.patch.object(family, "_CHUNK_ROWS", chunk_rows):
        _assert_same_csr(feature_matrix(ds, hp), want)
    for (premise, hypothesis), row in zip(rows, want):
        assert featurize(premise, hypothesis, hash_bits, tuple(orders)) == \
            dict(zip(row.indices.tolist(), row.data.tolist()))


def _feature_digests():
    """sha256 of each feature_matrix array of a small corpus and its CJK and ASTRAL copies."""
    base = generate_synthetic(300, 3, (0.5, 0.3, 0.2), seed=5)
    digests = []
    for ds in (base, translate(base, CJK), translate(base, ASTRAL)):
        X = feature_matrix(ds, Hyperparams())
        digests += [hashlib.sha256(getattr(X, name).tobytes()).hexdigest()
                    for name in ("indptr", "indices", "data")]
    return digests


def test_feature_matrix_does_not_depend_on_the_cpu():
    # numpy picks each loop by CPU feature; with every target this build dispatches to
    # disabled, a child runs the baseline loops, as a CPU without those features would.
    # The names come from the build, because an unknown name raises at import.
    from numpy._core import _multiarray_umath as umath
    src = os.path.dirname(os.path.dirname(family.__file__))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(umath.__cpu_dispatch__),
               PYTHONPATH=os.pathsep.join([src, str(Path(__file__).parent)]))
    probe = ("import json, test_family; from numpy._core import _multiarray_umath as umath; "
             "print(json.dumps([[name for name in umath.__cpu_dispatch__ "
             "if umath.__cpu_features__[name]], test_family._feature_digests()]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    enabled, digests = json.loads(proc.stdout)
    assert enabled == []
    assert digests == _feature_digests()


def test_featurize_refuses_a_lone_surrogate():
    # load_dataset refuses one first; the featurizer's UTF-8 encode refuses it too
    with pytest.raises(UnicodeEncodeError):
        featurize("a\ud800", "b")


@pytest.mark.parametrize("orders", [(), (0,), (2, -1)])
def test_featurize_refuses_orders_below_one(orders):
    with pytest.raises(ValueError, match="ngram_orders"):
        featurize("ab", "cd", ngram_orders=orders)


@pytest.mark.parametrize("orders", [(10**9,), (3, 10**9, 1)])
def test_feature_matrix_with_a_huge_order_finishes(orders):
    # no text holds a gram longer than itself, so hashing stops at the longest text
    ds = generate_synthetic(200, 3, (0.5, 0.3, 0.2), seed=4)
    hp = Hyperparams(hash_bits=12, ngram_orders=orders)
    start = time.perf_counter()
    got = feature_matrix(ds, hp)
    assert time.perf_counter() - start < 1.0
    _assert_same_csr(got, _reference_feature_matrix(ds, hp))


def test_feature_matrix_matches_reference_across_chunks():
    ds = generate_synthetic(family._CHUNK_ROWS + 300, 3, (0.5, 0.3, 0.2), seed=21)
    for hp, index_dtype in ((Hyperparams(), np.int32),
                            (Hyperparams(hash_bits=32, ngram_orders=(2, 1, 2)), np.int64)):
        got = feature_matrix(ds, hp)
        # stacking the chunks keeps 32-bit indices wherever the columns fit in them
        assert got.indices.dtype == got.indptr.dtype == index_dtype
        _assert_same_csr(got, _reference_feature_matrix(ds, hp))


@pytest.mark.parametrize("n", [0, 1, family._CHUNK_ROWS, family._CHUNK_ROWS + 1])
def test_feature_matrix_matches_reference_at_block_edges(n):
    ds = generate_synthetic(family._CHUNK_ROWS + 1, 3, (0.5, 0.3, 0.2), seed=22)
    ds = Dataset(ds.instances[:n], 3)
    want = _reference_feature_matrix(ds, Hyperparams())
    # 2**16 columns fit 32-bit indices, so each block and their stack keep them
    want.indices, want.indptr = want.indices.astype(np.int32), want.indptr.astype(np.int32)
    _assert_same_csr(feature_matrix(ds, Hyperparams()), want)


@pytest.mark.parametrize("n, sizes", [(0, [0]), (1, [1]), (6, [3, 3]), (7, [3, 3, 1])])
def test_hashed_counts_yields_chunks_of_at_most_chunk_rows(monkeypatch, n, sizes):
    # feature_matrix featurizes each _chunks block in one call, and no rows as one 0-row block
    monkeypatch.setattr(family, "_CHUNK_ROWS", 3)
    hp = Hyperparams(hash_bits=8)
    ds = Dataset(tuple(LabeledInstance(i, f"row {i}", f"row {i}", 0) for i in range(n)), 3)
    build, chunks = family._hashed_counts, []
    monkeypatch.setattr(family, "_hashed_counts",
                        lambda *args: chunks.append(build(*args)) or chunks[-1])
    feature_matrix(ds, hp)
    assert [X.shape for X in chunks] == [(k, hp.dim) for k in sizes]


def _unique_counts_csr(premises, hypotheses, hp):
    """One chunk's CSR as _hashed_counts built it with np.unique(keys, return_counts=True),
    before its in-place sort: the reference for that dedupe."""
    keys = [np.zeros(0, np.int64)]
    for texts, field in ((premises, "premise"), (hypotheses, "hypothesis")):
        keys += family._gram_keys(texts, family._FIELD_SALTS[field], hp)
    keys, counts = np.unique(np.concatenate(keys), return_counts=True)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(keys >> hp.hash_bits,
                                                        minlength=len(premises)))))
    return sp.csr_matrix((counts.astype(np.float64), keys & (hp.dim - 1), indptr),
                         shape=(len(premises), hp.dim))


# few symbols, so grams repeat: ASCII, CJK ideographs and CJK Extension B (4 UTF-8 bytes)
_FEW = st.text(st.sampled_from("ab \u4e00\u4e8c\U00020000\U00020001"), max_size=12)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_FEW, _FEW), max_size=6),
       orders=st.lists(st.integers(1, 4), min_size=1, max_size=5),
       hash_bits=st.sampled_from([2, 16, 32]))
@example(rows=[], orders=[1], hash_bits=16)
@example(rows=[("", ""), ("", "")], orders=[2, 2], hash_bits=16)
@example(rows=[("\u4e00\u4e00\u4e00", "\U00020000\U00020000")], orders=[1, 1, 2], hash_bits=2)
def test_sorted_dedupe_gives_np_uniques_csr(rows, orders, hash_bits):
    hp = Hyperparams(hash_bits=hash_bits, ngram_orders=tuple(orders))
    premises, hypotheses = [p for p, _ in rows], [h for _, h in rows]
    _assert_same_csr(family._hashed_counts(premises, hypotheses, hp),
                     _unique_counts_csr(premises, hypotheses, hp))


def test_sorted_dedupe_gives_np_uniques_csr_on_cjk_corpora():
    base = generate_synthetic(300, 3, (0.5, 0.3, 0.2), seed=5)
    for ds in (base, translate(base, CJK), translate(base, ASTRAL)):
        premises, hypotheses = [i.premise for i in ds], [i.hypothesis for i in ds]
        for hp in (Hyperparams(), Hyperparams(hash_bits=8, ngram_orders=(1, 2, 2, 3))):
            _assert_same_csr(family._hashed_counts(premises, hypotheses, hp),
                             _unique_counts_csr(premises, hypotheses, hp))


def test_train_null_view_is_input_independent(fast_hp):
    ds = to_null_view(generate_synthetic(90, 3, (0.5, 0.3, 0.2), seed=3))
    model = train(ds, fast_hp)
    base = predict_dist(model, "", "")
    for text in ("anything", "else entirely", "x"):
        np.testing.assert_allclose(predict_dist(model, text, text), base, atol=1e-12)


def test_train_deterministic(small_train, fast_hp):
    a = train(small_train, fast_hp)
    b = train(small_train, fast_hp)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)
    assert a.epoch_losses == b.epoch_losses


def test_null_model_matches_label_marginal():
    # the cross-entropy optimum of a bias-only model is the empirical label
    # marginal; compare the trained distribution to directly counted frequencies
    ds = generate_synthetic(2001, 3, (0.5, 0.3, 0.2), seed=7)
    marginal = ds.class_counts() / len(ds)
    model = train(to_null_view(ds), Hyperparams())
    dist = predict_dist(model, "", "")
    tv = 0.5 * float(np.abs(dist - marginal).sum())
    assert tv <= 0.02
    tv_uniform = 0.5 * float(np.abs(dist - 1.0 / 3.0).sum())
    assert tv_uniform <= 0.02


def test_train_rejects_empty(fast_hp):
    from pvireduce.corpus import Dataset
    with pytest.raises(ValueError):
        train(Dataset((), 3), fast_hp)


def test_predict_dist_zero_model_uniform(hp):
    model = Model(np.zeros((3, hp.dim)), np.zeros(3), 3, hp)
    np.testing.assert_allclose(predict_dist(model, "abc", "def"), 1 / 3, atol=1e-12)


def test_predict_dist_null_input_ignores_weights(hp):
    rng = np.random.default_rng(0)
    bias = rng.normal(size=3)
    expected = np.exp(bias) / np.exp(bias).sum()
    for _ in range(5):
        model = Model(rng.normal(size=(3, hp.dim)), bias, 3, hp)
        np.testing.assert_allclose(predict_dist(model, "", ""), expected, atol=1e-12)


def test_predict_dist_normalization_1000_random_inputs(small_train, fast_hp):
    model = train(small_train, fast_hp)
    rng = np.random.default_rng(42)
    for premise, hypothesis in zip(_random_texts(rng, 1000), _random_texts(rng, 1000)):
        total = predict_dist(model, premise, hypothesis).sum()
        assert abs(total - 1.0) <= 1e-9


def test_null_input_collapse_under_weight_perturbations(small_train, fast_hp):
    model = train(small_train, fast_hp)
    base = predict_dist(model, "", "")
    rng = np.random.default_rng(5)
    for _ in range(100):
        perturbed = Model(model.weights + rng.normal(size=model.weights.shape),
                          model.bias, model.num_classes, model.hyperparams)
        np.testing.assert_allclose(predict_dist(perturbed, "", ""), base, atol=0)


def test_log2_prob_values(hp):
    uniform = constant_predictor((1 / 3, 1 / 3, 1 / 3), hp)
    assert log2_prob(uniform, "x", "y", 0) == pytest.approx(math.log2(1 / 3), abs=1e-9)
    half = constant_predictor((0.5, 0.25, 0.25), hp)
    assert log2_prob(half, "x", "y", 0) == pytest.approx(-1.0, abs=1e-9)


def test_log2_prob_floor(hp):
    nearly_zero = constant_predictor((1 - 2e-13, 1e-13, 1e-13), hp)
    assert log2_prob(nearly_zero, "a", "b", 1) == pytest.approx(math.log2(1e-12))


def test_constant_predictor_reproduces_dist(hp):
    dist = np.array([0.2, 0.3, 0.5])
    model = constant_predictor(dist, hp)
    rng = np.random.default_rng(3)
    for premise, hypothesis in zip(_random_texts(rng, 20), _random_texts(rng, 20)):
        np.testing.assert_allclose(predict_dist(model, premise, hypothesis), dist, atol=1e-9)
    np.testing.assert_allclose(predict_dist(model, "", ""), dist, atol=1e-9)


def test_constant_predictor_rejects_bad_dist(hp):
    with pytest.raises(ValueError):
        constant_predictor((0.5, 0.5, 0.0), hp)
    with pytest.raises(ValueError):
        constant_predictor((0.5, 0.4, 0.2), hp)


def test_evaluate_perfect_and_micro_identity(small_train, small_test):
    model = train(small_train, Hyperparams(epochs=8))
    report = evaluate(model, small_train)
    assert report.precision_micro == pytest.approx(report.accuracy, abs=1e-12)
    assert report.recall_micro == pytest.approx(report.accuracy, abs=1e-12)
    assert report.f1_micro == pytest.approx(report.accuracy, abs=1e-12)
    held = evaluate(model, small_test)
    assert held.precision_micro == pytest.approx(held.accuracy, abs=1e-12)


def test_evaluate_constant_on_balanced(hp):
    ds = generate_synthetic(300, 3, (0.5, 0.3, 0.2), seed=21)
    model = constant_predictor((0.5, 0.3, 0.2), hp)
    assert evaluate(model, ds).accuracy == pytest.approx(1 / 3, abs=1e-12)


def test_evaluate_all_correct():
    ds = generate_synthetic(300, 3, (1.0, 0.0, 0.0), seed=8)
    model = train(ds, Hyperparams(epochs=8))
    report = evaluate(model, ds)
    if report.accuracy == 1.0:
        assert report.f1_micro == 1.0
        assert report.precision_micro == 1.0
        assert report.recall_micro == 1.0
    assert report.accuracy >= 0.99


def _per_class_evaluate(model, dataset):
    """Reference for evaluate(): micro P/R/F1 summed from per-class (tp, fp, fn)."""
    X = feature_matrix(dataset, model.hyperparams)
    preds = predict_dist_matrix(model, X).argmax(axis=1)
    y = dataset.labels()
    tp_total = fp_total = fn_total = 0
    for c in range(model.num_classes):
        tp_total += int(np.sum((preds == c) & (y == c)))
        fp_total += int(np.sum((preds == c) & (y != c)))
        fn_total += int(np.sum((preds != c) & (y == c)))
    precision = tp_total / (tp_total + fp_total) if tp_total + fp_total else 0.0
    recall = tp_total / (tp_total + fn_total) if tp_total + fn_total else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return float(np.mean(preds == y)), precision, recall, f1


@settings(max_examples=200, deadline=None)
@given(classes=st.integers(2, 3), mode=st.sampled_from(["random", "all_correct", "all_wrong"]),
       data=st.data())
def test_evaluate_matches_per_class_reference(classes, mode, data):
    hp = Hyperparams(hash_bits=4, ngram_orders=(1, 2))
    n = data.draw(st.integers(1, 12), label="n")
    texts = st.text("abcd ", max_size=6)
    if mode == "random":
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        model = Model(rng.normal(size=(classes, hp.dim)), rng.normal(size=classes),
                      classes, hp)
        labels = st.integers(0, classes - 1)
    else:
        # zero weights and a one-hot bias: every prediction is class k
        k = data.draw(st.integers(0, classes - 1), label="k")
        model = Model(np.zeros((classes, hp.dim)), 5.0 * np.eye(classes)[k], classes, hp)
        others = [c for c in range(classes) if c != k]
        labels = st.just(k) if mode == "all_correct" else st.sampled_from(others)
    rows = data.draw(st.lists(st.tuples(texts, texts, labels), min_size=n, max_size=n),
                     label="rows")
    ds = Dataset(tuple(LabeledInstance(i, *row) for i, row in enumerate(rows)), classes)
    report = evaluate(model, ds)
    got = (report.accuracy, report.precision_micro, report.recall_micro, report.f1_micro)
    assert got == _per_class_evaluate(model, ds)
    if mode != "random":
        assert report.accuracy == (1.0 if mode == "all_correct" else 0.0)


def test_gradient_matches_finite_differences(small_train):
    hp = Hyperparams(hash_bits=10)
    ds = generate_synthetic(20, 3, (0.5, 0.3, 0.2), seed=17)
    X = feature_matrix(ds, hp)
    y = ds.labels()
    rng = np.random.default_rng(123)
    W = rng.normal(scale=0.1, size=(3, hp.dim))
    b = rng.normal(scale=0.1, size=3)
    _, grad_w, grad_b = loss_and_grad(W, b, X, y, l2=1e-4)
    h = 1e-5
    # 10 seeded coordinates: 7 weight entries touched by the data, 3 bias entries
    touched = np.unique(X.indices)
    coords = [(int(rng.integers(0, 3)), int(touched[rng.integers(0, len(touched))]))
              for _ in range(7)]
    for c, j in coords:
        Wp, Wm = W.copy(), W.copy()
        Wp[c, j] += h
        Wm[c, j] -= h
        fd = (loss_and_grad(Wp, b, X, y, 1e-4)[0] - loss_and_grad(Wm, b, X, y, 1e-4)[0]) / (2 * h)
        assert abs(grad_w[c, j] - fd) / max(abs(fd), 1e-12) < 1e-4
    for c in range(3):
        bp, bm = b.copy(), b.copy()
        bp[c] += h
        bm[c] -= h
        fd = (loss_and_grad(W, bp, X, y, 1e-4)[0] - loss_and_grad(W, bm, X, y, 1e-4)[0]) / (2 * h)
        assert abs(grad_b[c] - fd) / max(abs(fd), 1e-12) < 1e-4


def test_loss_non_increasing_on_easy_corpus():
    ds = generate_synthetic(1000, 3, (1.0, 0.0, 0.0), seed=3)
    model = train(ds, Hyperparams())
    losses = np.array(model.epoch_losses)
    assert np.all(np.diff(losses) <= 1e-6)


def test_model_serialization_roundtrip(tmp_path, small_train, fast_hp):
    model = train(small_train, fast_hp)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.weights, model.weights)
    assert np.array_equal(back.bias, model.bias)
    assert back.num_classes == model.num_classes
    assert back.hyperparams.hash_bits == model.hyperparams.hash_bits
    assert back.hyperparams == model.hyperparams


def test_predict_dist_matrix_agrees_with_scalar(small_train, fast_hp):
    model = train(small_train, fast_hp)
    X = feature_matrix(small_train, fast_hp)
    batch = predict_dist_matrix(model, X)
    for row, inst in zip(batch, small_train):
        assert np.array_equal(row, predict_dist(model, inst.premise, inst.hypothesis))


def test_predict_dist_matrix_is_the_matrix_product_bit_for_bit(small_train, fast_hp):
    # one product per class row adds each row's terms as X @ weights.T does
    model = train(small_train, fast_hp)
    X = feature_matrix(small_train, fast_hp)
    for rows in (X, X[:1], X[:0]):
        want = family._softmax(rows @ model.weights.T + model.bias)
        got = predict_dist_matrix(model, rows)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_train_init_none_is_bit_identical(small_train, fast_hp):
    plain = train(small_train, fast_hp)
    explicit = train(small_train, fast_hp, init=None)
    assert np.array_equal(plain.weights, explicit.weights)
    assert np.array_equal(plain.bias, explicit.bias)
    assert plain.epoch_losses == explicit.epoch_losses


def test_train_init_continues_and_follows_lr_schedule(small_train):
    first = train(small_train, Hyperparams(epochs=2))
    subset = replace(small_train, instances=small_train.instances[:200])
    linear = train(subset, Hyperparams(epochs=2), init=first)
    constant = train(subset, Hyperparams(epochs=2, lr_schedule="constant"), init=first)
    assert linear.epoch_losses[:2] == first.epoch_losses
    assert len(linear.epoch_losses) == 4
    assert not np.array_equal(linear.weights, constant.weights)
    # init itself is left untouched
    assert np.array_equal(first.weights, train(small_train, Hyperparams(epochs=2)).weights)


@pytest.mark.parametrize("init_classes, hash_bits", [(3, 4), (3, 16), (2, 8)])
def test_train_refuses_an_init_of_another_shape(init_classes, hash_bits):
    dataset = generate_synthetic(60, seed=1)
    init = train(generate_synthetic(60, init_classes, seed=1), Hyperparams(hash_bits=8, epochs=1))
    hp = Hyperparams(hash_bits=hash_bits, epochs=1)
    with pytest.raises(ValueError, match=re.escape(f"{init.weights.shape}") + ".*"
                       + re.escape(f"{(3, hp.dim)}")):
        train(dataset, hp, init=init)


def test_train_null_matches_training_on_null_view(small_train, fast_hp):
    null = train_null(small_train, fast_hp)
    assert not null.weights.any()
    assert null.trained_on == "null-view"
    reference = train(to_null_view(small_train), fast_hp)
    assert np.array_equal(null.bias, reference.bias)


def _dense_train(dataset, hp, features=None, init=None):
    """Reference for train(): the dense step over every column,
    loss_and_grad followed by W -= lr * grad_w."""
    X = feature_matrix(dataset, hp) if features is None else features
    y, m, C = dataset.labels(), len(dataset), dataset.num_classes
    if init is None:
        W, b, losses = np.zeros((C, hp.dim)), np.zeros(C), []
    else:
        W, b, losses = init.weights.copy(), init.bias.copy(), list(init.epoch_losses)
    total_steps = hp.epochs * ((m + hp.batch_size - 1) // hp.batch_size)
    step = 0
    for order in training_order(m, hp):
        total = 0.0
        for start in range(0, m, hp.batch_size):
            idx = order[start:start + hp.batch_size]
            loss, gw, gb = loss_and_grad(W, b, X[idx], y[idx], hp.l2)
            lr = hp.learning_rate
            if hp.lr_schedule == "linear":
                lr *= 1.0 - step / total_steps
            W -= lr * gw
            b -= lr * gb
            total += loss * len(idx)
            step += 1
        losses.append(total / m)
    return Model(W, b, C, hp, dataset.provenance_tag, tuple(losses))


def _assert_matches(model, reference, atol):
    for got, want in ((model.weights, reference.weights), (model.bias, reference.bias),
                      (model.epoch_losses, reference.epoch_losses)):
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)


@pytest.mark.parametrize("kwargs, atol", [
    # without L2 the sparse step does the dense step's float operations
    ({"l2": 0.0}, 0.0),
    ({"l2": 0.0, "lr_schedule": "constant", "hash_bits": 8, "batch_size": 7}, 0.0),
    # the lazy L2 scale rounds differently from the dense decay
    ({"l2": 1e-6}, 1e-9),
    ({"l2": 1e-3}, 1e-9),
    ({"l2": 1e-2, "hash_bits": 8, "batch_size": 7}, 1e-9),
    # 1 - lr*l2 is exactly 0, then negative: the scale is folded into the weights
    ({"learning_rate": 2.0, "l2": 0.5, "lr_schedule": "constant"}, 1e-9),
    ({"learning_rate": 1.5, "l2": 1.0}, 1e-9),
    # ordered: the batches are prepared once and reused by every epoch
    ({"l2": 0.0, "preserve_order": True}, 0.0),
    ({"l2": 1e-3, "preserve_order": True}, 1e-9),
    ({"learning_rate": 1.5, "l2": 1.0, "preserve_order": True}, 1e-9),
])
def test_train_matches_dense_reference(small_train, kwargs, atol):
    hp = Hyperparams(**kwargs)
    _assert_matches(train(small_train, hp), _dense_train(small_train, hp), atol)


def test_train_null_matches_dense_reference(small_train, hp):
    null = train_null(small_train, hp)
    assert not null.weights.any()
    zeros = sp.csr_matrix((len(small_train), hp.dim))
    _assert_matches(null, _dense_train(to_null_view(small_train), hp, features=zeros), 0.0)


def _with_empty_rows(dataset):
    """`dataset` with both texts emptied in every third block of three rows, so
    batches of 1 and 3 rows with no features come between ones with features."""
    return replace(dataset, instances=tuple(
        replace(inst, premise="", hypothesis="") if i // 3 % 3 == 0 else inst
        for i, inst in enumerate(dataset)))


@pytest.mark.parametrize("batch_size", [1, 3])
@pytest.mark.parametrize("kwargs, atol", [
    ({"l2": 0.0}, 0.0),
    ({"l2": 0.0, "preserve_order": True}, 0.0),
    # the scale folds on every step, empty batches included
    ({"learning_rate": 2.0, "l2": 0.5, "lr_schedule": "constant"}, 1e-9),
    ({"learning_rate": 2.0, "l2": 0.5, "lr_schedule": "constant", "preserve_order": True},
     1e-9),
])
def test_train_with_empty_batches_matches_dense_reference(small_train, batch_size, kwargs,
                                                          atol):
    dataset = _with_empty_rows(small_train)
    hp = Hyperparams(hash_bits=10, epochs=2, batch_size=batch_size, **kwargs)
    emptied = [i // 3 % 3 == 0 for i in range(len(dataset))]
    assert (feature_matrix(dataset, hp).getnnz(axis=1) == 0).tolist() == emptied
    _assert_matches(train(dataset, hp), _dense_train(dataset, hp), atol)


@pytest.mark.parametrize("l2, atol", [(0.0, 0.0), (1e-3, 1e-9)])
def test_train_init_matches_dense_reference(small_train, l2, atol):
    first = train(small_train, Hyperparams(epochs=2, l2=1e-3))
    hp = Hyperparams(epochs=2, l2=l2)
    _assert_matches(train(small_train, hp, init=first),
                    _dense_train(small_train, hp, init=first), atol)


_FOLD = {"learning_rate": 2.0, "l2": 0.5, "lr_schedule": "constant"}


@pytest.mark.parametrize("kwargs, atol", [
    ({"l2": 0.0, "batch_size": 1}, 0.0),
    ({"l2": 0.0, "batch_size": 3}, 0.0),
    ({**_FOLD, "batch_size": 1}, 1e-9),
    ({**_FOLD, "batch_size": 3}, 1e-9),
    ({"l2": 1e-3}, 1e-9),
])
def test_ordered_train_init_matches_dense_reference(small_train, kwargs, atol):
    # a warm start whose kept batches include ones with no features
    dataset = _with_empty_rows(small_train)
    first = train(dataset, Hyperparams(hash_bits=10, epochs=2, l2=1e-3))
    hp = Hyperparams(hash_bits=10, epochs=2, preserve_order=True, **kwargs)
    _assert_matches(train(dataset, hp, init=first), _dense_train(dataset, hp, init=first), atol)


@pytest.mark.parametrize("kwargs", [{"l2": 1e-3}, {"learning_rate": 1.5, "l2": 1.0},
                                    {"hash_bits": 10, "batch_size": 3}])
def test_ordered_batches_prepared_once_match_fresh_ones(small_train, monkeypatch, kwargs):
    hp = Hyperparams(epochs=3, **kwargs)
    warm = train(small_train, replace(hp, epochs=1))
    kept = train(small_train, replace(hp, preserve_order=True), init=warm)
    # every epoch in the dataset's order, but its batches prepared afresh, as shuffled
    monkeypatch.setattr(family, "training_order",
                        lambda m, hp: (np.arange(m) for _ in range(hp.epochs)))
    fresh = train(small_train, hp, init=warm)
    _assert_matches(kept, fresh, 0.0)


@pytest.mark.parametrize("preserve_order", [False, True])
def test_train_prepares_batches_once_per_call_ordered_and_per_epoch_shuffled(
        small_train, monkeypatch, preserve_order):
    calls, steps, prepared_after = [], [0], []
    real_batches, real_cross_entropy = family._batches, family._cross_entropy

    def batches(X, y, order, hp):
        calls.append(order)
        for batch in real_batches(X, y, order, hp):
            prepared_after.append(steps[0])
            yield batch

    def cross_entropy(logits, y):
        steps[0] += 1
        return real_cross_entropy(logits, y)

    monkeypatch.setattr(family, "_batches", batches)
    monkeypatch.setattr(family, "_cross_entropy", cross_entropy)
    hp = Hyperparams(epochs=3, batch_size=32, preserve_order=preserve_order)
    train(small_train, hp)
    per_epoch = -(-len(small_train) // hp.batch_size)
    assert steps[0] == hp.epochs * per_epoch
    if preserve_order:
        # one preparation, in the dataset's own order, before the first step
        assert len(calls) == 1 and calls[0] is None
        assert prepared_after == [0] * per_epoch
    else:
        assert [order is not None for order in calls] == [True] * hp.epochs
        # batch i of an epoch is prepared only after batch i - 1's step ran
        assert prepared_after == list(range(hp.epochs * per_epoch))


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 9), columns=st.integers(1, 9), classes=st.integers(1, 4),
       density=st.sampled_from([0.0, 0.4, 1.0]), index_dtype=st.sampled_from([np.int32, np.int64]),
       seed=st.integers(0, 2**32 - 1))
@example(rows=5, columns=1, classes=3, density=1.0, index_dtype=np.int64, seed=0)
def test_the_step_kernels_are_scipys_products_bit_for_bit(rows, columns, classes, density,
                                                          index_dtype, seed):
    # a step's two products on a batch's raw CSR arrays are Xb @ M and Xb.T @ delta
    rng = np.random.default_rng(seed)
    dense = rng.normal(0.0, 10.0, (rows, columns)) * (rng.random((rows, columns)) < density)
    dense[rng.random(rows) < 0.3] = 0.0  # empty rows
    Xb = sp.csr_matrix(dense)
    indptr, indices = Xb.indptr.astype(index_dtype), Xb.indices.astype(index_dtype)
    # as train passes them: the weights a transposed view, delta C-contiguous
    M, delta = rng.normal(0.0, 10.0, (classes, columns)).T, rng.normal(0.0, 10.0, (rows, classes))
    for kernel, shape, factor, want in (("csr_matvecs", (rows, columns), M, Xb @ M),
                                        ("csc_matvecs", (columns, rows), delta, Xb.T @ delta)):
        got = family._sparse_product(kernel, shape, indptr, indices, Xb.data, factor)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("preserve_order", [False, True])
def test_train_on_int64_indices_is_bit_identical(small_train, preserve_order):
    # scipy stores a matrix of 2**31 columns or more with int64 indices; a batch's
    # renumbered columns take its rows' index dtype, as the kernels need (X[order] may
    # pick int32 again when its contents fit, so the ordered path shows the int64 case)
    hp = Hyperparams(hash_bits=10, epochs=2, batch_size=7, preserve_order=preserve_order)
    wide = replace(small_train)
    X = feature_matrix(small_train, hp)
    X.indices, X.indptr = X.indices.astype(np.int64), X.indptr.astype(np.int64)
    wide._features[family._feature_key(hp)] = X
    batches = [batch for batch in family._batches(X, wide.labels(), None, hp)
               if batch[2] is not None]
    assert {(indptr.dtype, indices.dtype) for _, _, _, indptr, indices, _, _ in batches} == {
        (np.dtype(np.int64), np.dtype(np.int64))}
    _assert_matches(train(wide, hp), train(small_train, hp), 0.0)


def test_shuffled_train_holds_one_epochs_permuted_rows():
    # an epoch's last batch views its X[order]; train drops it before the next epoch
    # permutes the rows again, so two permuted copies are never held at once
    ds = generate_synthetic(600, seed=1)
    hp = Hyperparams(hash_bits=8, epochs=3)
    X = family._features(ds, hp)  # memoized outside the trace
    permuted = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
    tracemalloc.start()
    try:
        train(ds, hp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * permuted + ds.num_classes * hp.dim * 8


def _cross_entropy_with_clip_and_mean(logits, y):
    """_cross_entropy as written with np.clip and np.mean."""
    n = logits.shape[0]
    probs = family._softmax(logits)
    p_true = probs[np.arange(n), y]
    loss = -np.mean(np.log(np.clip(p_true, 1e-300, None)))
    delta = probs
    delta[np.arange(n), y] -= 1.0
    delta /= n
    return loss, delta


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 64), classes=st.integers(2, 4), spread=st.sampled_from([1.0, 20.0]),
       seed=st.integers(0, 2**32 - 1), gap=st.sampled_from([None, 700.0, 800.0]))
@example(n=9, classes=3, spread=1.0, seed=0, gap=800.0)
def test_cross_entropy_is_bit_identical_to_clip_and_mean(n, classes, spread, seed, gap):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, spread, (n, classes))
    y = rng.integers(0, classes, n)
    if gap is not None:
        # the gold probability of row 0 underflows below the 1e-300 floor
        logits[0, y[0]] = np.delete(logits[0], y[0]).max() - gap
        assert family._softmax(logits)[0, y[0]] < 1e-300
    loss, delta = family._cross_entropy(logits.copy(), y)
    want_loss, want_delta = _cross_entropy_with_clip_and_mean(logits.copy(), y)
    assert type(loss) is type(want_loss)
    assert np.asarray(loss).tobytes() == np.asarray(want_loss).tobytes()
    assert delta.tobytes() == want_delta.tobytes()


def test_train_refuses_weights_larger_than_memory(small_train, monkeypatch):
    hp = Hyperparams(hash_bits=8, epochs=1)
    need = small_train.num_classes * hp.dim * 8
    # the memory figure is patched, so no large matrix is ever asked for
    monkeypatch.setattr(family, "_physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=r"^hash_bits = 8 needs a 3 x 256 float64"):
        train(small_train, hp)
    monkeypatch.setattr(family, "_physical_memory", lambda: need)
    assert train(small_train, hp).weights.shape == (3, 256)


def test_train_holds_one_weight_matrix():
    # a fresh run's squared norm is 0.0 without a V * V, and V is scaled in place at the end;
    # scipy, whose first import allocates about 20 MiB, is imported above, outside the trace
    ds = generate_synthetic(60, 3, (0.5, 0.3, 0.2), seed=1)
    hp = Hyperparams(hash_bits=20, epochs=2)
    tracemalloc.start()
    try:
        train(ds, hp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * ds.num_classes * hp.dim * 8


@pytest.mark.parametrize("init_epochs", [0, 2])
def test_train_refuses_a_run_whose_epoch_loss_is_not_finite(small_train, init_epochs):
    # numpy's overflow warnings are errors in this suite, so none may escape train
    init = train(small_train, Hyperparams(epochs=init_epochs)) if init_epochs else None
    hp = Hyperparams(learning_rate=1e300, l2=1e-3, epochs=3)
    named = rf"epoch {init_epochs + 1} has mean loss (nan|inf) \(learning_rate 1e\+300, l2 0\.001\)"
    with pytest.raises(ValueError, match=f"^training diverged: {named}$"):
        train(small_train, hp, init=init)


def test_constant_and_loaded_models_refuse_weights_larger_than_memory(tmp_path, monkeypatch):
    hp = Hyperparams(hash_bits=8)
    path = tmp_path / "model.json"
    save_model(constant_predictor([0.25, 0.75], hp), path)
    need = 2 * hp.dim * 8
    # the memory figure is patched, so no large matrix is ever asked for
    monkeypatch.setattr(family, "_physical_memory", lambda: need - 1)
    named = "hash_bits = 8 needs a 2 x 256 float64 weight matrix"
    with pytest.raises(ValueError, match=f"^{named}"):
        constant_predictor([0.25, 0.75], hp)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {named}"):
        load_model(path)
    monkeypatch.setattr(family, "_physical_memory", lambda: need)
    assert constant_predictor([0.25, 0.75], hp).weights.shape == (2, 256)
    assert load_model(path).weights.shape == (2, 256)


_HYPERPARAMS = st.builds(
    Hyperparams,
    hash_bits=st.integers(1, 6),
    ngram_orders=st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple),
    learning_rate=st.floats(1e-6, 10.0),
    epochs=st.integers(1, 100),
    batch_size=st.integers(1, 4096),
    l2=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**63),
    prob_floor=st.floats(1e-300, 0.5),
    preserve_order=st.booleans(),
    lr_schedule=st.sampled_from(["linear", "constant"]),
)


@settings(max_examples=60, deadline=None)
@given(hp=_HYPERPARAMS, classes=st.integers(2, 4), data_seed=st.integers(0, 2**32 - 1))
def test_model_file_roundtrip_property(hp, classes, data_seed):
    rng = np.random.default_rng(data_seed)
    weights = rng.normal(size=(classes, hp.dim)) * (rng.random((classes, hp.dim)) < 0.5)
    model = Model(weights, rng.normal(size=classes), classes, hp, "prop",
                  tuple(rng.random(3)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        back = load_model(path)
    assert back.hyperparams == hp
    assert np.array_equal(back.weights, model.weights)
    assert np.array_equal(back.bias, model.bias)
    assert back.epoch_losses == model.epoch_losses
    assert (back.num_classes, back.trained_on) == (classes, "prop")


def test_load_model_reads_format_1(tmp_path):
    path = tmp_path / "v1.json"
    path.write_text(json.dumps({
        "format_version": 1, "hash_bits": 4, "ngram_orders": [1, 2],
        "num_classes": 2, "prob_floor": "1.0000000000000001e-05",
        "trained_on": "old", "bias": ["0.5", "-0.5"],
        "weights": [[0, 3, "1.25"], [1, 15, "-2"]], "epoch_losses": ["0.75"]}))
    model = load_model(path)
    assert model.hyperparams == Hyperparams(hash_bits=4, ngram_orders=(1, 2),
                                            prob_floor=1e-05)
    expected = np.zeros((2, 16))
    expected[0, 3], expected[1, 15] = 1.25, -2.0
    assert np.array_equal(model.weights, expected)
    assert model.bias.tolist() == [0.5, -0.5]
    assert (model.trained_on, model.epoch_losses) == ("old", (0.75,))


def test_a_model_file_without_preserve_order_loads_it_as_false(tmp_path):
    path = tmp_path / "model.json"
    save_model(constant_predictor([0.25, 0.75], Hyperparams(hash_bits=4, preserve_order=True)),
               path)
    payload = json.loads(path.read_text())
    del payload["preserve_order"]
    path.write_text(json.dumps(payload))
    assert load_model(path).hyperparams == Hyperparams(hash_bits=4)


@pytest.mark.parametrize("version", [0, 3, "2", None])
def test_load_model_refuses_unknown_format(tmp_path, version):
    path = tmp_path / "model.json"
    save_model(constant_predictor([0.25, 0.75], Hyperparams(hash_bits=4)), path)
    payload = json.loads(path.read_text())
    payload["format_version"] = version
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="unsupported model format version"):
        load_model(path)


def test_hyperparams_dict_roundtrip():
    hp = Hyperparams(hash_bits=8, ngram_orders=(2, 4), seed=0, lr_schedule="constant")
    values = hp.as_dict()
    assert set(values) == {f.name for f in fields(Hyperparams)} - {"preserve_order"}
    assert Hyperparams.from_dict(values) == hp
    assert Hyperparams.from_dict(json.loads(json.dumps(values))) == hp
    ini = {key: ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
           for key, v in values.items()}
    assert Hyperparams.from_dict(ini) == hp


@pytest.mark.parametrize("values, key", [
    ({"batchsize": "8"}, "batchsize"),
    ({"preserve_order": True}, "preserve_order"),
    ({"epochs": "two"}, "epochs"),
    ({"epochs": 2.5}, "epochs"),
    ({"epochs": True}, "epochs"),
    ({"learning_rate": "fast"}, "learning_rate"),
    ({"lr_schedule": 1}, "lr_schedule"),
    ({"ngram_orders": "1,x"}, "ngram_orders"),
    ({"ngram_orders": 3}, "ngram_orders"),
    ({"batch_size": 0}, "batch_size"),
    ({"batch_size": -4}, "batch_size"),
    ({"hash_bits": -1}, "hash_bits"),
    ({"hash_bits": 33}, "hash_bits"),
    ({"ngram_orders": []}, "ngram_orders"),
    ({"ngram_orders": "0,1"}, "ngram_orders"),
    ({"learning_rate": "nan"}, "learning_rate"),
    ({"l2": -1.0}, "l2"),
    ({"seed": -1}, "seed"),
    ({"prob_floor": 1}, "prob_floor"),
    ({"lr_schedule": "cosine"}, "lr_schedule"),
    ({"epochs": "1_6"}, "epochs"),
    ({"seed": " 7"}, "seed"),
    ({"l2": "\u0660.5"}, "l2"),
    ({"learning_rate": 10**400}, "learning_rate"),
])
def test_hyperparams_from_dict_refuses_and_names_key(values, key):
    with pytest.raises(ValueError, match=key):
        Hyperparams.from_dict(values)


def _saved_payload(tmp_path):
    """A saved 3-class model with hash_bits 4, as a JSON payload, and its path."""
    path = tmp_path / "model.json"
    model = constant_predictor([0.25, 0.25, 0.5], Hyperparams(hash_bits=4))
    save_model(replace(model, weights=np.eye(3, 16)), path)
    return json.loads(path.read_text()), path


@pytest.mark.parametrize("key", ["weights", "bias", "num_classes", "hyperparams"])
def test_load_model_names_a_missing_key(tmp_path, key):
    payload, path = _saved_payload(tmp_path)
    del payload[key]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing key '{key}'$"):
        load_model(path)


def test_load_model_names_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format_version": 2, ')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: invalid JSON"):
        load_model(path)


def test_load_model_names_json_nested_too_deeply(tmp_path):
    path = tmp_path / "model.json"
    depth = 10 * sys.getrecursionlimit()
    path.write_text("[" * depth + "]" * depth)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: invalid JSON \(nested too deeply\)$"):
        load_model(path)


@pytest.mark.parametrize("entry", [[5, 0, 1.0], [3, 0, 1.0], [-1, 0, 1.0],
                                   [0, 16, 1.0], [0, -1, 1.0]])
def test_load_model_refuses_a_weight_outside_the_matrix(tmp_path, entry):
    payload, path = _saved_payload(tmp_path)
    payload["weights"].append(entry)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: weight index \({entry[0]}, {entry[1]}\)"):
        load_model(path)


@pytest.mark.parametrize("bias", [["0.5", "-0.5"], ["0", "0", "0", "0"]])
def test_load_model_refuses_a_bias_of_another_length(tmp_path, bias):
    payload, path = _saved_payload(tmp_path)
    payload["bias"] = bias
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bias holds {len(bias)} entries for 3 classes"):
        load_model(path)


@pytest.mark.parametrize("change, named", [
    (lambda payload: {**payload, "weights": payload["weights"] + [5]}, "cannot unpack"),
    (lambda payload: {**payload, "hyperparams": [1]}, "hyperparams must be a JSON object"),
    (lambda payload: [payload], "expected a JSON object"),
    (lambda payload: {**payload, "num_classes": True}, "num_classes must be an integer >= 1"),
    (lambda payload: {**payload, "preserve_order": 1}, "preserve_order must be true or false"),
    # json.dumps writes NaN and Infinity, as a hand-edited file may hold them
    (lambda payload: {**payload, "weights": payload["weights"] + [[0, 3, "nan"]]},
     "'nan' is not a finite number"),
    (lambda payload: {**payload, "weights": payload["weights"] + [[1, 2, float("inf")]]},
     "inf is not a finite number"),
    (lambda payload: {**payload, "bias": [0.5, float("nan"), 0.25]}, "nan is not a finite number"),
    (lambda payload: {**payload, "bias": ["0.5", "-Infinity", "0.25"]},
     "'-Infinity' is not a finite number"),
    (lambda payload: {**payload, "epoch_losses": [0.75, float("nan")]},
     "nan is not a finite number"),
    (lambda payload: {**payload, "trained_on": [1, {"a": 2}]},
     re.escape("trained_on must be a string, got [1, {'a': 2}]")),
    # save_model writes each number as text, which must be a plain ASCII numeral
    (lambda payload: {**payload, "weights": payload["weights"] + [[0, 3, "1_0"]]},
     "'1_0' is not a plain ASCII numeral"),
    (lambda payload: {**payload, "bias": [True, -0.5, 0.25]}, "True is not a finite number"),
    (lambda payload: {**payload, "epoch_losses": [False]}, "False is not a finite number"),
    (lambda payload: {**payload, "bias": [10**400, -0.5, 0.25]},
     "int too large to convert to float"),
    (lambda payload: {**payload, "hyperparams": {**payload["hyperparams"], "l2": 10**400}},
     "hyperparameter l2 = 1000"),
], ids=["weight_entry_5", "hyperparams_list", "top_level_list", "num_classes_true",
        "preserve_order_1", "weight_nan_string", "weight_infinity", "bias_nan",
        "bias_minus_infinity_string", "epoch_loss_nan", "trained_on_list",
        "weight_underscore_string", "bias_true", "epoch_loss_false", "bias_int_beyond_float",
        "l2_int_beyond_float"])
def test_load_model_names_a_value_of_the_wrong_json_type(tmp_path, change, named):
    payload, path = _saved_payload(tmp_path)
    path.write_text(json.dumps(change(payload)))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {named}"):
        load_model(path)


def test_training_order_yields_one_epoch_at_a_time():
    # a huge epoch count must not build every epoch's order up front
    want = list(training_order(50, Hyperparams(epochs=2, seed=3)))
    orders = training_order(50, Hyperparams(epochs=10**20, seed=3))
    for order, expected in zip(orders, want):
        np.testing.assert_array_equal(order, expected)

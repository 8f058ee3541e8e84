import math
from dataclasses import replace

import numpy as np
import pytest

from pvireduce import (Hyperparams, constant_predictor, evaluate, featurize,
                       generate_synthetic, load_model, log2_prob, predict_dist,
                       save_model, to_null_view, train)
from pvireduce.family import (Model, feature_matrix, loss_and_grad,
                              predict_dist_matrix, train_null)


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


def test_predict_dist_matrix_agrees_with_scalar(small_train, fast_hp):
    model = train(small_train, fast_hp)
    X = feature_matrix(small_train, fast_hp)
    batch = predict_dist_matrix(model, X)
    for row, inst in zip(batch[:10], small_train.instances[:10]):
        np.testing.assert_allclose(row, predict_dist(model, inst.premise, inst.hypothesis),
                                   atol=1e-12)


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


def test_train_null_matches_training_on_null_view(small_train, fast_hp):
    null = train_null(small_train, fast_hp)
    assert not null.weights.any()
    assert null.trained_on == "null-view"
    reference = train(to_null_view(small_train), fast_hp)
    assert np.array_equal(null.bias, reference.bias)

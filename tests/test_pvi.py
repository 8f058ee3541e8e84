import csv
import math
import statistics
from dataclasses import replace

import numpy as np
import pytest

from pvireduce import (Dataset, Hyperparams, compute_pvi, constant_predictor,
                       generate_synthetic, hardest_k, log2_prob, pvi_histogram,
                       rank_by_difficulty, summarize, to_null_view, train, train_scorers)
from pvireduce import family
from pvireduce.corpus import synthetic_difficulty_tags
from pvireduce.family import Model
from pvireduce.pvi import (PviRecord, read_records_csv, write_records_csv,
                           write_records_jsonl)


@pytest.fixture(scope="module")
def scored(small_train):
    hp = Hyperparams(epochs=8)
    g_cond = train(small_train, hp)
    g_null = train(to_null_view(small_train), hp)
    return compute_pvi(g_cond, g_null, small_train), g_cond, g_null


def test_pvi_exact_one_bit(hp, small_train):
    g_null = constant_predictor((1 / 3, 1 / 3, 1 / 3), hp)
    # conditional model puts 2/3 on class 0 regardless of input
    g_cond = constant_predictor((2 / 3, 1 / 6, 1 / 6), hp)
    ds = generate_synthetic(9, 3, (1.0, 0, 0), seed=1)
    class0 = [i for i in ds if i.label == 0]
    from dataclasses import replace
    ds0 = replace(ds, instances=tuple(class0))
    records = compute_pvi(g_cond, g_null, ds0)
    for rec in records:
        assert rec.pvi == pytest.approx(1.0, abs=1e-9)


def test_pvi_cancellation(hp, small_train):
    g = constant_predictor((0.2, 0.3, 0.5), hp)
    records = compute_pvi(g, g, small_train)
    for rec in records:
        assert rec.pvi == pytest.approx(0.0, abs=1e-12)


def test_pvi_negative_hard(hp):
    g_null = constant_predictor((1 / 3, 1 / 3, 1 / 3), hp)
    g_cond = constant_predictor((1 / 6, 5 / 12, 5 / 12), hp)
    ds = generate_synthetic(9, 3, (1.0, 0, 0), seed=1)
    from dataclasses import replace
    ds0 = replace(ds, instances=tuple(i for i in ds if i.label == 0))
    for rec in compute_pvi(g_cond, g_null, ds0):
        assert rec.pvi == pytest.approx(-1.0, abs=1e-9)


def test_pvi_class_mismatch(hp, small_train):
    g2 = constant_predictor((0.5, 0.5), hp)
    g3 = constant_predictor((1 / 3, 1 / 3, 1 / 3), hp)
    with pytest.raises(ValueError):
        compute_pvi(g2, g3, small_train)


def _pairs_with_empty_texts():
    """50 instances; every 5th premise and every 7th hypothesis is empty (both at 0 and 35)."""
    ds = generate_synthetic(50, 3, (0.5, 0.3, 0.2), seed=5)
    return Dataset(tuple(replace(inst, premise="" if i % 5 == 0 else inst.premise,
                                 hypothesis="" if i % 7 == 0 else inst.hypothesis)
                         for i, inst in enumerate(ds)), ds.num_classes)


@pytest.mark.parametrize("chunk_rows", [1, 7])
def test_sliced_scoring_equals_whole_set_scoring(small_train, monkeypatch, chunk_rows):
    hp = Hyperparams(epochs=2)
    g_cond, g_null = train_scorers(small_train, hp)
    monkeypatch.setattr(family, "_CHUNK_ROWS", chunk_rows)
    fresh = _pairs_with_empty_texts()
    sliced = compute_pvi(g_cond, g_null, fresh)
    assert fresh._features == {}  # slicing keeps no matrix on the dataset
    memoized = _pairs_with_empty_texts()
    family._features(memoized, hp)
    assert compute_pvi(g_cond, g_null, memoized) == sliced
    for inst, rec in zip(fresh, sliced):
        assert rec.cond_log2prob == log2_prob(g_cond, inst.premise, inst.hypothesis, inst.label)
        assert rec.null_log2prob == log2_prob(g_null, "", "", inst.label)


def test_unmemoized_scoring_predicts_each_chunk_before_building_the_next(small_train,
                                                                         monkeypatch):
    # so only one chunk's feature rows are alive at once, however large the set
    g_cond = train(small_train, Hyperparams(epochs=1))
    events = []
    build, score = family._hashed_counts, family._gold_log2

    def built(*args):
        for X in build(*args):
            events.append(("built", X.shape[0]))
            yield X

    def scored(model, X, labels):
        events.append(("scored", X.shape[0]))
        return score(model, X, labels)

    monkeypatch.setattr(family, "_CHUNK_ROWS", 7)
    monkeypatch.setattr(family, "_hashed_counts", built)
    monkeypatch.setattr(family, "_gold_log2", scored)
    family._gold_log2_rows(g_cond, _pairs_with_empty_texts())
    assert events == [(kind, n) for n in [7] * 7 + [1] for kind in ("built", "scored")]


def test_pvi_identity_field(scored):
    records, _, _ = scored
    for rec in records:
        assert rec.pvi == pytest.approx(rec.cond_log2prob - rec.null_log2prob, abs=1e-12)


def test_summarize_single_record():
    s = summarize([PviRecord(0, -1.585, -0.585, 1.0)])
    assert s.h_v_y == pytest.approx(1.585)
    assert s.h_v_y_given_x == pytest.approx(0.585)
    assert s.i_v == pytest.approx(1.0)
    assert s.n == 1


def test_summarize_decomposition_identity(scored):
    records, _, _ = scored
    s = summarize(records)
    mean_pvi = float(np.mean([r.pvi for r in records]))
    assert s.i_v == pytest.approx(s.h_v_y - s.h_v_y_given_x, abs=1e-9)
    assert s.i_v == pytest.approx(mean_pvi, abs=1e-9)


def test_summarize_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_summary_matches_csv_mean_oracle(tmp_path, scored):
    records, _, _ = scored
    path = tmp_path / "pvi.csv"
    write_records_csv(records, path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        values = [float(row["pvi"]) for row in reader]
    assert summarize(records).i_v == pytest.approx(statistics.fmean(values), abs=1e-9)


def test_rank_examples():
    records = [PviRecord(0, 0, 0, 0.5), PviRecord(1, 0, 0, 2.0), PviRecord(2, 0, 0, -1.0)]
    assert rank_by_difficulty(records, "descending_pvi") == (1, 0, 2)
    assert rank_by_difficulty(records, "ascending_pvi") == (2, 0, 1)


def test_rank_tie_break():
    records = [PviRecord(4, 0, 0, 1.0), PviRecord(2, 0, 0, 1.0)]
    assert rank_by_difficulty(records, "descending_pvi") == (2, 4)


def test_rank_is_permutation(scored):
    records, _, _ = scored
    ranked = rank_by_difficulty(records)
    assert sorted(ranked) == sorted(r.original_index for r in records)


def test_hardest_k(scored, small_train):
    records, _, _ = scored
    full = hardest_k(records, small_train, len(records))
    assert len(full) == len(records)
    pvis = [p for _, p in full]
    assert pvis == sorted(pvis)
    top1 = hardest_k(records, small_train, 1)
    assert top1[0][1] == min(r.pvi for r in records)
    with pytest.raises(ValueError):
        hardest_k(records, small_train, len(records) + 1)
    with pytest.raises(ValueError, match="k=-1"):
        hardest_k(records, small_train, -1)
    with pytest.raises(ValueError, match="records do not cover"):
        hardest_k(records[1:], small_train, 1)


def test_null_term_reads_the_null_model_on_the_empty_input(hp, small_train):
    # weights off zero make the null model's output depend on its input; the
    # null term must still be its prediction for the empty input. Both terms
    # equal log2_prob exactly, not just to rounding
    rng = np.random.default_rng(5)
    g_cond = train(small_train, Hyperparams(epochs=1))
    g_null = Model(rng.normal(size=(3, hp.dim)), rng.normal(size=3), 3, hp)
    for rec, inst in zip(compute_pvi(g_cond, g_null, small_train), small_train):
        assert rec.cond_log2prob == log2_prob(g_cond, inst.premise, inst.hypothesis, inst.label)
        assert rec.null_log2prob == log2_prob(g_null, "", "", inst.label)


def test_histogram_single_value():
    records = [PviRecord(i, 0, 0, 0.7) for i in range(10)]
    edges, counts = pvi_histogram(records, 5, (-2, 2))
    assert counts.sum() == 10
    assert (counts > 0).sum() == 1


def test_histogram_conservation_and_clipping(scored):
    records, _, _ = scored
    edges, counts = pvi_histogram(records, 8, (-0.5, 0.5))
    assert counts.sum() == len(records)


def test_histogram_matches_independent_binning(scored):
    records, _, _ = scored
    lo, hi, bins = -4.0, 4.0, 16
    edges, counts = pvi_histogram(records, bins, (lo, hi))
    width = (hi - lo) / bins
    oracle = [0] * bins
    for r in records:
        v = min(max(r.pvi, lo), hi)
        b = min(int((v - lo) / width), bins - 1)
        oracle[b] += 1
    assert counts.tolist() == oracle


def test_scale_free_under_logit_shift(scored, small_train):
    records, g_cond, g_null = scored
    shift = 3.7

    def shifted(model):
        return Model(model.weights, model.bias + shift, model.num_classes,
                     model.hyperparams, model.trained_on)

    shifted_records = compute_pvi(shifted(g_cond), shifted(g_null), small_train)
    for a, b in zip(records, shifted_records):
        assert a.pvi == pytest.approx(b.pvi, abs=1e-9)


def test_null_model_entropy_near_log2_c(synth_train, synth_test):
    hp = Hyperparams()
    g_cond = train(synth_train, hp)
    g_null = train(to_null_view(synth_train), hp)
    s = summarize(compute_pvi(g_cond, g_null, synth_test))
    assert abs(s.h_v_y - math.log2(3)) <= 0.05


def test_difficulty_tags_order_by_mean_pvi(synth_train):
    hp = Hyperparams()
    g_cond = train(synth_train, hp)
    g_null = train(to_null_view(synth_train), hp)
    records = compute_pvi(g_cond, g_null, synth_train)
    tags = synthetic_difficulty_tags(len(synth_train), (0.5, 0.3, 0.2), 1)
    easy = [r.pvi for r, t in zip(records, tags) if t == "easy"]
    hard = [r.pvi for r, t in zip(records, tags) if t == "hard"]
    assert np.mean(easy) - np.mean(hard) > 0.5


def test_csv_roundtrip(tmp_path, scored):
    records, _, _ = scored
    path = tmp_path / "pvi.csv"
    write_records_csv(records, path)
    assert read_records_csv(path) == records


def test_jsonl_export(tmp_path, scored):
    import json
    records, _, _ = scored
    path = tmp_path / "pvi.jsonl"
    write_records_jsonl(records, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(records)
    assert rows[0]["original_index"] == records[0].original_index
    assert rows[0]["pvi"] == pytest.approx(records[0].pvi, abs=0)

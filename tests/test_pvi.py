import csv
import json
import math
import statistics
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvireduce import (Dataset, Hyperparams, balanced_select, compute_pvi, constant_predictor,
                       curriculum_order, generate_synthetic, hardest_k, log2_prob,
                       pvi_histogram, rank_by_difficulty, select_subset, summarize,
                       to_null_view, train, train_scorers)
from pvireduce.curriculum import stage_subset
from pvireduce import family
from pvireduce.corpus import synthetic_difficulty_tags
from pvireduce.family import Model
from pvireduce import pvi as pvi_module
from pvireduce.pvi import (PviRecord, check_ratios, read_records_csv, write_records_csv,
                           write_records_jsonl)
from pvireduce.tables import DataError


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
    build, score = pvi_module._hashed_counts, pvi_module._gold_log2

    def built(*args):
        X = build(*args)
        events.append(("built", X.shape[0]))
        return X

    def scored(model, X, labels):
        events.append(("scored", X.shape[0]))
        return score(model, X, labels)

    monkeypatch.setattr(family, "_CHUNK_ROWS", 7)
    monkeypatch.setattr(pvi_module, "_hashed_counts", built)
    monkeypatch.setattr(pvi_module, "_gold_log2", scored)
    compute_pvi(g_cond, g_cond, _pairs_with_empty_texts())
    assert events == [(kind, n) for n in [7] * 7 + [1] for kind in ("built", "scored")]


@pytest.mark.parametrize("chunk_rows", [1, 7, 512])
def test_streamed_scores_equal_compute_pvi(small_train, monkeypatch, chunk_rows):
    hp = Hyperparams(epochs=2)
    g_cond, g_null = train_scorers(small_train, hp)
    monkeypatch.setattr(family, "_CHUNK_ROWS", chunk_rows)
    want = compute_pvi(g_cond, g_null, _pairs_with_empty_texts())
    streamed = compute_pvi(g_cond, g_null, iter(_pairs_with_empty_texts()))
    assert len(streamed) == len(want)
    assert tuple(streamed) == tuple(want)
    assert summarize(streamed) == summarize(tuple(want))
    # a Dataset is scored on its memoized feature matrix, as any iterable of its rows is
    whole = compute_pvi(g_cond, g_null, small_train)
    assert tuple(whole) == tuple(compute_pvi(g_cond, g_null, iter(small_train)))


def test_streamed_scoring_reads_one_block_ahead_of_what_it_has_scored(small_train,
                                                                      monkeypatch):
    g_cond, g_null = train_scorers(small_train, Hyperparams(epochs=1))
    read, seen = [], []

    def instances():
        for inst in _pairs_with_empty_texts():
            read.append(inst.original_index)
            yield inst

    score = pvi_module._gold_log2

    def scored(model, X, labels):
        seen.append((len(read), X.shape[0]))
        return score(model, X, labels)

    monkeypatch.setattr(family, "_CHUNK_ROWS", 7)
    monkeypatch.setattr(family, "_gold_log2", scored)  # log2_prob's, for the null rows
    monkeypatch.setattr(pvi_module, "_gold_log2", scored)
    compute_pvi(g_cond, g_null, instances())
    # the null model's three empty rows, then each 7-row block just after it is read
    assert seen[3:] == [(min(7 * k, 50), n) for k, n in enumerate([7] * 7 + [1], 1)]


def test_memoized_dataset_is_scored_without_featurizing(small_train, monkeypatch):
    hp = Hyperparams(epochs=1)
    g_cond, g_null = train_scorers(small_train, hp)  # memoizes small_train's matrix
    want = tuple(compute_pvi(g_cond, g_null, iter(small_train)))

    def refuse(*args):
        raise AssertionError("a memoized dataset was featurized again")

    monkeypatch.setattr(family, "_CHUNK_ROWS", 7)
    monkeypatch.setattr(pvi_module, "_hashed_counts", refuse)
    assert tuple(compute_pvi(g_cond, g_null, small_train)) == want


def test_streamed_label_outside_the_models_classes_is_named(small_train, monkeypatch):
    g_cond, g_null = train_scorers(small_train, Hyperparams(epochs=1))
    rows = _pairs_with_empty_texts().instances
    instances = [*rows[:30], replace(rows[30], label=3)]
    monkeypatch.setattr(family, "_CHUNK_ROWS", 7)
    with pytest.raises(DataError, match=r"^label 3 out of range for 3 classes "
                                        r"\(original_index 30\)$"):
        compute_pvi(g_cond, g_null, iter(instances))


@pytest.mark.parametrize("index", [2**63, -2**63 - 1])
def test_an_original_index_outside_int64_is_named(small_train, index):
    g_cond, g_null = train_scorers(small_train, Hyperparams(epochs=1))
    rows = generate_synthetic(5, seed=2).instances
    instances = [*rows[:3], replace(rows[3], original_index=index), rows[4]]
    with pytest.raises(DataError, match=rf"^original_index {index} is outside int64$"):
        compute_pvi(g_cond, g_null, instances)


@pytest.mark.parametrize("n, at", [(11, 10), (family._CHUNK_ROWS + 1, family._CHUNK_ROWS)],
                         ids=["in_one_block", "across_blocks"])
def test_a_repeated_original_index_is_refused_wherever_it_falls(small_train, n, at):
    g_cond, g_null = train_scorers(small_train, Hyperparams(epochs=1))
    rows = generate_synthetic(n, seed=2).instances
    instances = [*rows[:at], replace(rows[at], original_index=0), *rows[at + 1:]]
    for given in (instances, iter(instances)):
        with pytest.raises(DataError, match=r"^duplicate original_index 0$"):
            compute_pvi(g_cond, g_null, given)


def test_score_writers_and_readers_build_no_record(scored, tmp_path, monkeypatch):
    # they read a PviColumns' columns as they are, and write what its records hold
    records = scored[0]
    record, built = PviRecord, []
    monkeypatch.setattr(pvi_module, "PviRecord", lambda *f: built.append(f) or record(*f))
    write_records_csv(records, tmp_path / "pvi.csv")
    write_records_jsonl(records, tmp_path / "pvi.jsonl")
    summary, ranked = summarize(records), rank_by_difficulty(records)
    assert built == []
    listed = list(records)
    assert len(built) == len(records)
    write_records_csv(listed, tmp_path / "listed.csv")
    write_records_jsonl(listed, tmp_path / "listed.jsonl")
    for kind in ("csv", "jsonl"):
        assert (tmp_path / f"pvi.{kind}").read_bytes() == (tmp_path / f"listed.{kind}").read_bytes()
    assert (summary, ranked) == (summarize(listed), rank_by_difficulty(listed))


def test_score_cuts_build_no_record(scored, small_train, monkeypatch):
    # records_by_index gathers a PviColumns' columns by dataset position, and every cut
    # reads them as they are
    records = pvi_module.records_by_index(small_train, scored[0])
    shuffled = records.take(np.random.default_rng(3).permutation(len(records)).tolist())
    record, built = PviRecord, []
    monkeypatch.setattr(pvi_module, "PviRecord", lambda *f: built.append(f) or record(*f))

    def cuts(given):
        return [select_subset(small_train, given, 0.3), balanced_select(small_train, given, 0.3),
                *(curriculum_order(small_train, given, o) for o in pvi_module.ORDERINGS),
                *(stage_subset(small_train, given, 0.2, o) for o in pvi_module.ORDERINGS),
                hardest_k(given, small_train, 40)]

    by_columns = cuts(shuffled)
    assert pvi_module.records_by_index(small_train, shuffled) == records
    assert built == []
    listed = list(shuffled)
    assert len(built) == len(records)
    assert by_columns == cuts(listed)


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
        hardest_k(list(records)[1:], small_train, 1)


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
    assert read_records_csv(path) == tuple(records)


def test_jsonl_export(tmp_path, scored):
    import json
    records, _, _ = scored
    path = tmp_path / "pvi.jsonl"
    write_records_jsonl(records, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(records)
    assert rows[0]["original_index"] == records[0].original_index
    assert rows[0]["pvi"] == pytest.approx(records[0].pvi, abs=0)


_NAMES = [f.name for f in fields(PviRecord)]


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 2**63), st.floats(), st.floats(), st.floats()),
                     max_size=4))
def test_jsonl_lines_are_json_dumps_or_the_record_is_refused(tmp_path_factory, rows):
    # repr gives json.dumps's text of an int and of a finite float; a non-finite one,
    # which json.dumps would write as NaN or Infinity, is refused as the CSV refuses it
    path = tmp_path_factory.mktemp("jsonl") / "out" / "pvi.jsonl"
    records = [PviRecord(*row) for row in rows]
    bad = [(n, name) for n, row in enumerate(rows, 1) for name, v in zip(_NAMES, row)
           if isinstance(v, float) and not math.isfinite(v)]
    if not bad:
        write_records_jsonl(records, path)
        assert path.read_text() == "".join(json.dumps(dict(zip(_NAMES, astuple(r)))) + "\n"
                                           for r in records)
    else:
        n, name = bad[0]
        with pytest.raises(ValueError, match=f"^{path}: row {n}: {name}: .* is not a finite"):
            write_records_jsonl(records, path)
        assert not path.parent.exists()


def test_check_ratios_reads_negative_zero_as_zero():
    (r,) = check_ratios([10], [-0.0])
    assert r == 0.0 and math.copysign(1, r) == 1


@pytest.mark.parametrize("ratio", [float("nan"), float("inf"), 1.0, -0.1])
def test_check_ratios_names_a_ratio_outside_the_range(ratio):
    with pytest.raises(ValueError, match=rf"^reduction ratio must be in \[0,1\), got {ratio}$"):
        check_ratios([10], [ratio])

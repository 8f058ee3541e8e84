from dataclasses import replace as dc_replace

import numpy as np
import pytest

from pvireduce import (Hyperparams, curriculum_order, evaluate,
                       generate_synthetic, progressive_train, train)
from pvireduce.corpus import Dataset
from pvireduce.curriculum import (StageReport, read_stage_csv, stage_subset,
                                  write_stage_csv, write_stage_summary_csv)
from pvireduce.family import training_order
from pvireduce.pvi import PviRecord, compute_pvi, train_scorers


def _records_for(ds, pvis):
    return [PviRecord(inst.original_index, 0.0, 0.0, float(p))
            for inst, p in zip(ds, pvis)]


@pytest.fixture
def tiny():
    return generate_synthetic(3, 3, (1.0, 0, 0), seed=1)


def test_curriculum_order_easy_first(tiny):
    records = _records_for(tiny, [-1.0, 3.0, 0.0])
    ordered = curriculum_order(tiny, records, "easy_first")
    assert [i.original_index for i in ordered] == [1, 2, 0]


def test_curriculum_order_original_identity(tiny):
    records = _records_for(tiny, [-1.0, 3.0, 0.0])
    assert curriculum_order(tiny, records, "original").instances == tiny.instances


def test_curriculum_order_hard_first_reverses(tiny):
    records = _records_for(tiny, [-1.0, 3.0, 0.0])
    easy = curriculum_order(tiny, records, "easy_first")
    hard = curriculum_order(tiny, records, "hard_first")
    assert [i.original_index for i in hard] == \
           [i.original_index for i in easy][::-1]


def test_stage_subset_sizes():
    ds = generate_synthetic(1000, 3, (0.5, 0.3, 0.2), seed=2)
    records = _records_for(ds, np.random.default_rng(0).normal(size=1000))
    sizes = [len(stage_subset(ds, records, r, "easy_first"))
             for r in (0.0, 0.1, 0.2, 0.3)]
    assert sizes == [1000, 900, 800, 700]


@pytest.mark.parametrize("repeated", [0, 3])
def test_stage_subset_refuses_a_repeated_record(repeated):
    ds = generate_synthetic(60, 3, (0.5, 0.3, 0.2), seed=1)
    records = _records_for(ds, np.random.default_rng(0).normal(size=60))
    records.append(PviRecord(repeated, 0.0, 0.0, 100.0))
    with pytest.raises(ValueError, match=f"records hold original_index {repeated} twice"):
        stage_subset(ds, records, 0.1, "easy_first")


def test_stage_nesting():
    ds = generate_synthetic(200, 3, (0.5, 0.3, 0.2), seed=2)
    records = _records_for(ds, np.random.default_rng(1).normal(size=200))
    sets = [frozenset(i.original_index for i in stage_subset(ds, records, r, "easy_first"))
            for r in (0.0, 0.1, 0.2, 0.3)]
    for bigger, smaller in zip(sets, sets[1:]):
        assert smaller <= bigger


def test_stream_monotone_under_easy_first():
    ds = generate_synthetic(200, 3, (0.5, 0.3, 0.2), seed=2)
    records = _records_for(ds, np.random.default_rng(3).normal(size=200))
    subset = stage_subset(ds, records, 0.1, "easy_first")
    pvi_by_index = {r.original_index: r.pvi for r in records}
    hp = Hyperparams(epochs=2, preserve_order=True)
    for epoch_order in training_order(len(subset), hp):
        stream = [pvi_by_index[subset.instances[i].original_index] for i in epoch_order]
        assert all(a >= b for a, b in zip(stream, stream[1:]))


def test_progressive_degenerate_equals_baseline(small_train, small_test):
    hp = Hyperparams(epochs=4)
    reports = progressive_train(small_train, small_test, hp, ratios=[0.0],
                                ordering="original", timing=False)
    baseline = evaluate(train(small_train, hp), small_test)
    assert reports[0].accuracy == baseline.accuracy
    assert reports[0].f1_micro == pytest.approx(baseline.f1_micro, abs=1e-12)
    assert reports[0].subset_size == len(small_train)


def test_progressive_micro_identity(small_train, small_test):
    hp = Hyperparams(epochs=2)
    reports = progressive_train(small_train, small_test, hp,
                                ratios=[0.0, 0.2], ordering="easy_first",
                                timing=False)
    for s in reports:
        assert s.precision_micro == pytest.approx(s.accuracy, abs=1e-12)
        assert s.recall_micro == pytest.approx(s.accuracy, abs=1e-12)
        assert s.f1_micro == pytest.approx(s.accuracy, abs=1e-12)


def test_progressive_deterministic(small_train, small_test):
    hp = Hyperparams(epochs=2)
    a = progressive_train(small_train, small_test, hp, ratios=[0.0, 0.1],
                          ordering="easy_first", timing=False)
    b = progressive_train(small_train, small_test, hp, ratios=[0.0, 0.1],
                          ordering="easy_first", timing=False)
    assert a == b


def test_progressive_warm_start_runs(small_train, small_test):
    hp = Hyperparams(epochs=2)
    reports = progressive_train(small_train, small_test, hp, ratios=[0.0, 0.3],
                                ordering="easy_first", warm_start=True,
                                timing=False)
    assert len(reports) == 2


def test_progressive_rejects_bad_ordering(small_train, small_test):
    with pytest.raises(ValueError):
        progressive_train(small_train, small_test, Hyperparams(epochs=2),
                          ordering="sideways")


def test_stage_csv_roundtrip(tmp_path):
    reports = [StageReport(0.1, "easy_first", 90, 0.5, 0.5, 0.5, 0.5, 0.0, 1),
               StageReport(0.2, "easy_first", 80, 0.25, 0.25, 0.25, 0.25, 0.0, 1)]
    path = tmp_path / "stages.csv"
    write_stage_csv(reports, path)
    assert read_stage_csv(path) == reports


def test_stage_summary_csv(tmp_path):
    reports = [StageReport(0.0, "easy_first", 100, 0.6, 0.6, 0.6, 0.6, 0.0, 1),
               StageReport(0.0, "easy_first", 100, 0.8, 0.8, 0.8, 0.8, 0.0, 2)]
    path = tmp_path / "summary.csv"
    write_stage_summary_csv(reports, path)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[3] == "2"  # n_seeds
    assert float(row[4]) == pytest.approx(0.7)  # accuracy mean
    assert float(row[5]) == pytest.approx(np.std([0.6, 0.8], ddof=1))


def test_progressive_warm_start_follows_lr_schedule(small_train, small_test):
    # the second stage continues the first; its learning rate must decay
    # under "linear" and stay fixed under "constant", so the stages differ
    reports = {sched: progressive_train(small_train, small_test,
                                        Hyperparams(epochs=2, lr_schedule=sched),
                                        ratios=[0.0, 0.3], ordering="easy_first",
                                        warm_start=True, timing=False)
               for sched in ("linear", "constant")}
    assert reports["linear"][1] != reports["constant"][1]


@pytest.mark.parametrize("ordering", ["easy_first", "original"])
def test_progressive_warm_start_is_an_exact_continuation(small_train, small_test,
                                                         ordering):
    hp = Hyperparams(epochs=2)
    ratios = [0.0, 0.2, 0.4]
    reports = progressive_train(small_train, small_test, hp, ratios, ordering=ordering,
                                warm_start=True, timing=False)
    g_cond, g_null = train_scorers(small_train, hp)
    records = compute_pvi(g_cond, g_null, small_train)
    stage_hp = dc_replace(hp, preserve_order=(ordering != "original"))
    model, expected = None, []
    for r in ratios:
        subset = stage_subset(small_train, records, r, ordering)
        model = train(subset, stage_hp, init=model)
        report = evaluate(model, small_test)
        expected.append(StageReport(r, ordering, len(subset), report.accuracy,
                                    report.precision_micro, report.recall_micro,
                                    report.f1_micro, 0.0, hp.seed))
    assert reports == expected


@pytest.mark.parametrize("ordering", ["easy_first", "hard_first"])
def test_stage_subset_gathers_once(monkeypatch, ordering):
    ds = generate_synthetic(60, 3, (0.5, 0.3, 0.2), seed=1)
    records = _records_for(ds, np.random.default_rng(0).normal(size=60))
    calls = []
    real = Dataset.take

    def counting(self, positions, provenance_tag=None):
        calls.append(len(positions))
        return real(self, positions, provenance_tag)

    monkeypatch.setattr(Dataset, "take", counting)
    assert len(stage_subset(ds, records, 0.3, ordering)) == 42
    assert calls == [42]


@pytest.mark.parametrize("ordering", ["easy_first", "hard_first", "original"])
def test_curriculum_order_checks_records_for_every_ordering(tiny, ordering):
    with pytest.raises(ValueError, match="records do not cover"):
        curriculum_order(tiny, [], ordering)

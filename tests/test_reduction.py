import numpy as np
import pytest

from pvireduce import (Hyperparams, balanced_select, curriculum_order, evaluate,
                       generate_synthetic, hardest_k, make_imbalanced, random_select,
                       retained_count, select_subset, static_sweep, train, train_null)
from pvireduce import family, reduction
from pvireduce.curriculum import stage_subset
from pvireduce.family import feature_matrix
from pvireduce.pvi import PviRecord, compute_pvi, train_scorers
from pvireduce.report import RuntimeLog
from pvireduce.reduction import read_sweep_csv, write_sweep_csv


def _records_for(ds, pvis=None, seed=0):
    rng = np.random.default_rng(seed)
    if pvis is None:
        pvis = rng.normal(size=len(ds))
    return [PviRecord(inst.original_index, 0.0, 0.0, float(p))
            for inst, p in zip(ds, pvis)]


def test_retained_count_examples():
    assert retained_count(10, 0.3) == 7
    assert retained_count(40340, 0.1) == 36306
    assert retained_count(100, 0.37) == 63
    assert retained_count(5, 0.0) == 5


def test_retained_count_rejects_bad_ratio():
    with pytest.raises(ValueError):
        retained_count(10, 1.0)
    with pytest.raises(ValueError):
        retained_count(10, -0.1)


def test_retained_count_stratified_grid():
    # integer-arithmetic oracle: floor(m * (100 - k) / 100) for r = k/100;
    # the full exhaustive grid runs in the acceptance suite
    ms = np.arange(1, 10001, dtype=np.int64)
    for k in range(0, 100):
        sample = np.concatenate([ms[:50], ms[::97], ms[-50:]])
        got = np.array([retained_count(int(m), k / 100) for m in sample])
        assert np.array_equal(got, (sample * (100 - k)) // 100)


def test_select_subset_keeps_hardest():
    ds = generate_synthetic(10, 3, (0.5, 0.3, 0.2), seed=1)
    pvis = [5.0, 4.0, 3.0, 2.5, 2.0, 1.5, 1.0, 0.5, 0.0, -1.0]
    records = _records_for(ds, pvis)
    subset = select_subset(ds, records, 0.3)
    assert len(subset) == 7
    # the three highest-pvi instances (indices 0,1,2) are gone
    kept = {i.original_index for i in subset}
    assert kept == set(range(3, 10))
    assert [i.original_index for i in subset] == sorted(kept)


def test_select_subset_r0_identity():
    ds = generate_synthetic(12, 3, (0.5, 0.3, 0.2), seed=1)
    subset = select_subset(ds, _records_for(ds), 0.0)
    assert [i.original_index for i in subset] == [i.original_index for i in ds]
    assert subset.instances == ds.instances


def test_select_subset_membership_brute_force_oracle():
    ds = generate_synthetic(100, 3, (0.5, 0.3, 0.2), seed=5)
    records = _records_for(ds, seed=9)
    for r in (0.13, 0.5, 0.91 - 0.01):
        subset = select_subset(ds, records, r)
        # oracle: re-sort from scratch
        order = sorted(records, key=lambda rec: (-rec.pvi, rec.original_index))
        n_keep = int(np.floor(len(ds) * (1 - r) + 1e-9))
        expected = sorted(rec.original_index for rec in order[len(ds) - n_keep:])
        assert [i.original_index for i in subset] == expected
        indices = [i.original_index for i in subset]
        assert all(a < b for a, b in zip(indices, indices[1:]))


def test_select_subset_index_mismatch():
    ds = generate_synthetic(10, 3, (0.5, 0.3, 0.2), seed=1)
    records = _records_for(ds)[:-1]
    with pytest.raises(ValueError):
        select_subset(ds, records, 0.1)


@pytest.mark.parametrize("select", [select_subset, balanced_select])
@pytest.mark.parametrize("repeated", [0, 3])
def test_subset_rules_refuse_a_repeated_record(select, repeated):
    ds = generate_synthetic(60, 3, (0.5, 0.3, 0.2), seed=1)
    records = _records_for(ds) + [PviRecord(repeated, 0.0, 0.0, 100.0)]
    with pytest.raises(ValueError, match=f"records hold original_index {repeated} twice"):
        select(ds, records, 0.5)


def test_balanced_select_counts():
    ds = generate_synthetic(300, 3, (0.5, 0.3, 0.2), seed=2)
    records = _records_for(ds, seed=3)
    subset = balanced_select(ds, records, 0.1)
    assert subset.class_counts().tolist() == [90, 90, 90]
    assert balanced_select(ds, records, 0.0).instances == ds.instances


def test_balanced_select_skewed_counts():
    from pvireduce import make_imbalanced
    ds = generate_synthetic(300, 3, (0.5, 0.3, 0.2), seed=2)
    skewed = make_imbalanced(ds, (0.5, 0.3, 0.2), seed=1)
    assert skewed.class_counts().tolist() == [50, 30, 20]
    records = _records_for(skewed, seed=4)
    subset = balanced_select(skewed, records, 0.5)
    assert subset.class_counts().tolist() == [25, 15, 10]


def test_random_select_laws():
    ds = generate_synthetic(1000, 3, (0.5, 0.3, 0.2), seed=2)
    assert random_select(ds, 0.0, seed=1).instances == ds.instances
    small = generate_synthetic(100, 3, (0.5, 0.3, 0.2), seed=2)
    assert len(random_select(small, 0.37, seed=1)) == 63
    a = random_select(ds, 0.5, seed=1)
    b = random_select(ds, 0.5, seed=1)
    c = random_select(ds, 0.5, seed=2)
    assert a.instances == b.instances
    assert a.instances != c.instances


@pytest.mark.parametrize("pick", [
    lambda ds, records: select_subset(ds, records, 0.3),
    lambda ds, records: balanced_select(ds, records, 0.3),
    lambda ds, records: random_select(ds, 0.3, seed=4),
    lambda ds, records: stage_subset(ds, records, 0.3, "easy_first"),
    lambda ds, records: stage_subset(ds, records, 0.3, "hard_first"),
    lambda ds, records: stage_subset(ds, records, 0.3, "original"),
], ids=["select_subset", "balanced_select", "random_select",
        "easy_first", "hard_first", "original"])
def test_subsets_carry_their_feature_rows(pick):
    ds = generate_synthetic(90, 3, (0.5, 0.3, 0.2), seed=5)
    hp = Hyperparams(hash_bits=12)
    family._features(ds, hp)
    subset = pick(ds, _records_for(ds, seed=6))
    carried = subset._features[(hp.hash_bits, hp.ngram_orders)]
    built = feature_matrix(subset, hp)
    assert carried.shape == built.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(carried, name), getattr(built, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_static_sweep_featurizes_each_dataset_once(monkeypatch):
    train_ds = generate_synthetic(90, 3, (0.5, 0.3, 0.2), seed=5)
    test_ds = generate_synthetic(45, 3, (0.5, 0.3, 0.2), seed=6)
    built = []
    real = family.feature_matrix

    def counting(dataset, hp):
        built.append(dataset)
        return real(dataset, hp)

    monkeypatch.setattr(family, "feature_matrix", counting)
    points = static_sweep(train_ds, test_ds, [0.3, 0.5], Hyperparams(epochs=1), timing=False)
    assert sum(ds is train_ds for ds in built) == 1
    assert sum(ds is test_ds for ds in built) == 1
    # the rest are null views: one for the scoring null model, which is also
    # the r = 0 point's, and one per other point
    nulls = [ds for ds in built if ds is not train_ds and ds is not test_ds]
    assert len(nulls) == len(points)
    assert all(ds.provenance_tag == "null-view" for ds in nulls)


@pytest.fixture
def trained(monkeypatch):
    """The dataset of every train() call, train_null()'s included, in call order."""
    calls = []
    real = family.train

    def counting(dataset, hp, init=None):
        calls.append(dataset)
        return real(dataset, hp, init)

    for module in (family, reduction):
        monkeypatch.setattr(module, "train", counting)
    return calls


@pytest.mark.parametrize("strategy", ["pvi", "pvi_balanced", "random"])
@pytest.mark.parametrize("derived_seeds", [False, True])
def test_static_sweep_reuses_the_scorers_at_r0(trained, small_train, small_test,
                                               strategy, derived_seeds):
    hp = Hyperparams(epochs=2)
    points = static_sweep(small_train, small_test, [0.3, 0.6], hp, strategy=strategy,
                          derived_seeds=derived_seeds, timing=False)
    assert len(trained) == 2 + 2 * (len(points) - 1)
    assert points[0].r == 0.0 and points[0].seed == hp.seed
    assert points[0].cm_accuracy == evaluate(train(small_train, hp), small_test).accuracy
    assert (points[0].eim_accuracy
            == evaluate(train_null(small_train, hp), small_test).accuracy)


def test_static_sweep_retrains_at_r0_a_set_out_of_file_order(trained, small_train,
                                                              small_test):
    hp = Hyperparams(epochs=2)
    records = compute_pvi(*train_scorers(small_train, hp), small_train)
    reordered = curriculum_order(small_train, records, "easy_first")
    trained.clear()
    points = static_sweep(reordered, small_test, [0.3], hp, timing=False)
    # the r = 0 subset is in file order, so it is not the scorers' training set
    assert len(trained) == 2 + 2 * len(points)
    assert [ds.provenance_tag for ds in trained[2:4]] == ["subset", "null-view"]
    assert points[0].cm_accuracy == evaluate(train(small_train, hp), small_test).accuracy


def test_static_sweep_r0_timing_rows_carry_the_scorers_seconds(small_train, small_test):
    log = RuntimeLog()
    static_sweep(small_train, small_test, [0.5], Hyperparams(epochs=2), runtime_log=log)
    seconds = {(rec.r, rec.phase): rec.seconds for rec in log.records}
    cm, eim = seconds[(0.0, "train_cm")], seconds[(0.0, "train_eim")]
    assert cm > 0 and eim > 0
    # pvi_compute holds the scorers' training, and their scoring on top
    assert seconds[(0.0, "pvi_compute")] > cm + eim


def test_static_sweep_degenerate_matches_plain_train(small_train, small_test):
    hp = Hyperparams(epochs=4)
    points = static_sweep(small_train, small_test, [0.0], hp, timing=False)
    assert len(points) == 1
    baseline = evaluate(train(small_train, hp), small_test)
    assert points[0].cm_accuracy == baseline.accuracy
    assert points[0].subset_size == len(small_train)


def test_static_sweep_always_includes_r0(small_train, small_test):
    hp = Hyperparams(epochs=2)
    points = static_sweep(small_train, small_test, [0.5], hp, timing=False)
    assert [p.r for p in points] == [0.0, 0.5]


def test_static_sweep_subset_sizes(small_train, small_test):
    hp = Hyperparams(epochs=2)
    points = static_sweep(small_train, small_test, [0.0, 0.1, 0.5], hp, timing=False)
    assert [p.subset_size for p in points] == [300, 270, 150]


def test_static_sweep_strategies_and_determinism(small_train, small_test):
    hp = Hyperparams(epochs=2)
    for strategy in ("pvi", "pvi_balanced", "random"):
        a = static_sweep(small_train, small_test, [0.2], hp, strategy=strategy,
                         timing=False)
        b = static_sweep(small_train, small_test, [0.2], hp, strategy=strategy,
                         timing=False)
        assert [(p.r, p.cm_accuracy, p.eim_accuracy) for p in a] == \
               [(p.r, p.cm_accuracy, p.eim_accuracy) for p in b]
        assert a[0].strategy == strategy


def test_static_sweep_rejects_bad_inputs(small_train, small_test):
    hp = Hyperparams(epochs=2)
    with pytest.raises(ValueError):
        static_sweep(small_train, small_test, [1.0], hp)
    with pytest.raises(ValueError):
        static_sweep(small_train, small_test, [0.1], hp, strategy="nope")


def test_sweep_csv_roundtrip(tmp_path, small_train, small_test):
    hp = Hyperparams(epochs=2)
    points = static_sweep(small_train, small_test, [0.0, 0.4], hp, timing=False)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(points, path)
    back = read_sweep_csv(path)
    assert [(p.r, p.subset_size, p.cm_accuracy, p.eim_accuracy, p.variant,
             p.strategy, p.seed) for p in back] == \
           [(p.r, p.subset_size, p.cm_accuracy, p.eim_accuracy, p.variant,
             p.strategy, p.seed) for p in points]


def _tie_heavy_cases():
    """(dataset, records) pairs whose scores take 4 values, so most ranks are
    decided by the index tie-break: records in reverse order, a dataset not in
    index order, and an imbalanced one."""
    plain = generate_synthetic(120, 3, (0.5, 0.3, 0.2), seed=7)
    shuffled = curriculum_order(plain, _records_for(plain, seed=8), "easy_first")
    skewed = make_imbalanced(plain, (1.0, 0.5, 0.25), seed=3)
    for ds in (plain, shuffled, skewed):
        pvis = np.random.default_rng(len(ds)).choice([-1.0, 0.0, 0.5, 2.0], size=len(ds))
        records = _records_for(ds, pvis)
        yield ds, records
        yield ds, records[::-1]


def _hardest(records, r):
    """Oracle for the kept indices: drop the leading easiest of (-pvi, index)."""
    order = sorted(records, key=lambda rec: (-rec.pvi, rec.original_index))
    return order[len(order) - retained_count(len(order), r):]


@pytest.mark.parametrize("r", [0.0, 0.1, 0.37, 0.5, 0.9])
def test_subset_rules_match_brute_force_oracles_under_ties(r):
    for ds, records in _tie_heavy_cases():
        kept = _hardest(records, r)
        by_class = []
        for c in range(ds.num_classes):
            labels = {i.original_index for i in ds if i.label == c}
            by_class += _hardest([rec for rec in records if rec.original_index in labels], r)
        file_order = sorted(rec.original_index for rec in kept)
        hard_first = [rec.original_index
                      for rec in sorted(kept, key=lambda rec: (rec.pvi, rec.original_index))]
        cases = [
            (select_subset(ds, records, r), file_order),
            (balanced_select(ds, records, r), sorted(rec.original_index for rec in by_class)),
            (stage_subset(ds, records, r, "original"), file_order),
            (stage_subset(ds, records, r, "easy_first"), [rec.original_index for rec in kept]),
            (stage_subset(ds, records, r, "hard_first"), hard_first),
        ]
        instances = {i.original_index: i for i in ds}
        for subset, indices in cases:
            assert subset.instances == tuple(instances[i] for i in indices)
        hardest = hardest_k(records, ds, retained_count(len(ds), r))
        assert [inst for inst, _ in hardest] == [instances[i] for i in hard_first]

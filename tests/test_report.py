import hashlib
import re
import xml.etree.ElementTree as ET
from dataclasses import replace as dc_replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvireduce import (bucket_proportions, generate_synthetic, length_stats,
                       static_sweep)
from pvireduce.corpus import Dataset, LabeledInstance
from pvireduce.family import Hyperparams
from pvireduce.reduction import SweepPoint
from pvireduce.report import (_ML, _MR, _W, DEFAULT_BUCKET_EDGES, RuntimeLog,
                              RuntimeRecord, bucket_labels, emit_accuracy_plot,
                              emit_runtime_plot, write_bucket_csv,
                              write_length_stats_csv)


def _dataset_from_lengths(lengths_by_label):
    instances = []
    idx = 0
    for label, lengths in lengths_by_label.items():
        for n in lengths:
            instances.append(LabeledInstance(idx, "p" * 5, "h" * n, label))
            idx += 1
    return Dataset(tuple(instances), num_classes=len(lengths_by_label))


def test_length_stats_known_values():
    ds = _dataset_from_lengths({0: [2, 4, 6, 8], 1: [5]})
    stats = length_stats(ds, "chars")
    assert stats.rows[0] == {"min": 2.0, "max": 8.0, "median": 4.0, "mean": 5.0}
    assert stats.rows[1] == {"min": 5.0, "max": 5.0, "median": 5.0, "mean": 5.0}


def test_length_stats_lower_median_convention():
    ds = _dataset_from_lengths({0: [1, 2, 3, 100]})
    assert length_stats(ds).rows[0]["median"] == 2.0


def test_length_stats_token_unit():
    ds = Dataset((LabeledInstance(0, "a", "one two three", 0),), 1)
    assert length_stats(ds, "tokens").rows[0]["mean"] == 3.0


def test_length_stats_independent_recomputation_oracle():
    import statistics
    ds = generate_synthetic(500, 3, (0.5, 0.3, 0.2), seed=6)
    stats = length_stats(ds, "chars")
    for c in range(3):
        lengths = [len(i.hypothesis) for i in ds if i.label == c]
        assert stats.rows[c]["min"] == min(lengths)
        assert stats.rows[c]["max"] == max(lengths)
        assert stats.rows[c]["mean"] == pytest.approx(statistics.fmean(lengths))
        assert stats.rows[c]["median"] == float(statistics.median_low(lengths))


def test_length_stats_empty_raises():
    with pytest.raises(ValueError):
        length_stats(Dataset((), 3))


def test_bucket_labels():
    assert bucket_labels(DEFAULT_BUCKET_EDGES) == \
        ("<=10", "11-15", "16-20", "21-25", "26-30", ">=31")


def test_bucket_known_values():
    ds = _dataset_from_lengths({0: [10, 11, 16, 40]})
    buckets = bucket_proportions(ds)
    assert buckets.rows[0] == (0.25, 0.25, 0.25, 0.0, 0.0, 0.25)


def test_bucket_rejects_bad_edges():
    ds = _dataset_from_lengths({0: [5]})
    with pytest.raises(ValueError):
        bucket_proportions(ds, edges=(10, 10, 20))


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=30))
def test_bucket_proportions_sum_to_one(lengths):
    ds = _dataset_from_lengths({0: lengths})
    props = bucket_proportions(ds).rows[0]
    assert sum(props) == pytest.approx(1.0, abs=1e-12)
    assert all(p >= 0 for p in props)


def _linear_bucket_rows(lengths_by_label, edges):
    """Reference for bucket_proportions: a linear search for each length's bucket."""
    rows = {}
    for label, lengths in lengths_by_label.items():
        counts = [0] * (len(edges) + 1)
        for n in lengths:
            counts[next((i for i, e in enumerate(edges) if n <= e), len(edges))] += 1
        rows[label] = tuple(k / len(lengths) for k in counts)
    return rows


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bucket_proportions_match_linear_search(data):
    edges = tuple(sorted(data.draw(st.sets(st.integers(0, 60), min_size=1, max_size=6),
                                   label="edges")))
    # lengths on, next to and between the edges
    near = st.sampled_from(edges).flatmap(lambda e: st.sampled_from([e - 1, e, e + 1]))
    length = st.one_of(near, st.integers(0, 70)).filter(lambda n: n >= 0)
    lengths_by_label = data.draw(st.dictionaries(
        st.integers(0, 2), st.lists(length, min_size=1, max_size=20), min_size=1),
        label="lengths")
    lengths_by_label = dict(sorted(lengths_by_label.items()))
    instances = [(label, n) for label, lengths in lengths_by_label.items() for n in lengths]
    ds = Dataset(tuple(LabeledInstance(i, "p", "h" * n, label)
                       for i, (label, n) in enumerate(instances)), num_classes=3)
    assert bucket_proportions(ds, edges).rows == _linear_bucket_rows(lengths_by_label, edges)


def test_stats_csv_outputs(tmp_path):
    ds = generate_synthetic(100, 3, (0.5, 0.3, 0.2), seed=4)
    write_length_stats_csv(length_stats(ds), tmp_path / "stats.csv")
    write_bucket_csv(bucket_proportions(ds), tmp_path / "buckets.csv")
    stats_lines = (tmp_path / "stats.csv").read_text().strip().split("\n")
    assert stats_lines[0] == "label,min,max,median,mean"
    assert len(stats_lines) == 4
    bucket_lines = (tmp_path / "buckets.csv").read_text().strip().split("\n")
    assert len(bucket_lines) == 1 + 3 * 6


def test_runtime_log_roundtrip(tmp_path):
    log = RuntimeLog()
    log.record("original", 0.0, "pvi_compute", 1.25)
    log.record("original", 0.5, "train_cm", 0.5)
    path = tmp_path / "runtime.csv"
    log.write_csv(path)
    assert RuntimeLog.read_csv(path).records == log.records


def test_runtime_log_rejects_bad_records():
    log = RuntimeLog()
    with pytest.raises(ValueError):
        log.record("original", 0.0, "nonsense", 1.0)
    with pytest.raises(ValueError):
        log.record("original", 0.0, "train_cm", -1.0)
    # a ratio RuntimeLog.read_csv would refuse, in a table the log would write
    with pytest.raises(ValueError, match=r"^r: reduction ratio must be in \[0,1\), got 5.0$"):
        log.record("v", 5, "train_cm", 0.0)
    assert log.records == ()


@pytest.fixture(scope="module")
def sweep_points(small_train, small_test):
    return static_sweep(small_train, small_test, [0.0, 0.3, 0.6],
                        Hyperparams(epochs=2), timing=False)


def test_accuracy_plot_is_valid_xml(sweep_points):
    svg = emit_accuracy_plot(sweep_points)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
    assert len(circles) == len(sweep_points)
    # a variant is any CSV text: markup is escaped, and what XML cannot carry is refused
    renamed = [dc_replace(p, variant="a&b<c") for p in sweep_points]
    root = ET.fromstring(emit_accuracy_plot(renamed))
    assert "a&b<c" in [t.text for t in root.findall(".//{http://www.w3.org/2000/svg}text")]
    with pytest.raises(ValueError, match=re.escape(repr("a\x00b"))):
        emit_accuracy_plot([dc_replace(p, variant="a\x00b") for p in sweep_points])


def test_accuracy_plot_legend_and_determinism(sweep_points):
    a = emit_accuracy_plot(sweep_points)
    b = emit_accuracy_plot(sweep_points)
    assert a == b
    assert f">{sweep_points[0].variant}<" in a


def test_runtime_plot_is_valid_xml():
    log = RuntimeLog()
    for r in (0.0, 0.3, 0.9):
        log.record("original", r, "train_cm", 1.0 - r)
        log.record("original", r, "train_eim", 0.1)
    svg = emit_runtime_plot(log.records)
    root = ET.fromstring(svg)
    circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
    assert len(circles) == 6
    assert ">train_cm<" in svg and ">train_eim<" in svg
    assert emit_runtime_plot(log.records) == svg


# seven variants cycle past the six colours; "single" has one point, so no polyline
_MANY_VARIANTS = [SweepPoint(r, 100, 0.31 + 0.07 * v + 0.013 * k, 0.33, 0.0, f"v{v}", "pvi", 1)
                  for v in range(7) for k, r in enumerate((0.6, 0.0, 0.3))]
_MANY_VARIANTS.append(SweepPoint(0.1, 90, 0.5, 0.33, 0.0, "single", "pvi", 1))
_FOUR_PHASES = [RuntimeRecord("original", r, phase, seconds)
                for r, seconds in ((0.3, 1.25), (0.0, 2.5), (0.9, 0.125))
                for phase in ("train_eim", "pvi_compute", "train_cm", "evaluate")]
_ZERO_SECONDS = [RuntimeRecord("original", r, "train_cm", 0.0) for r in (0.0, 0.3)]


@pytest.mark.parametrize("emit, points, digest", [
    (emit_accuracy_plot, _MANY_VARIANTS,
     "b2a564fb77fa1a264d1c09775178da3a45ce3138104f5cc3a816a61195b1fcb4"),
    (emit_accuracy_plot, [], "b73ab27c9bac12c3573633d852156440a1da25cffe21e10cb5a88ef35ff6a99b"),
    (emit_runtime_plot, _FOUR_PHASES,
     "aac92e156e4c20a6a96b348abfc3707599a060f6f84ee104926438a8820a3fb5"),
    (emit_runtime_plot, [], "c53c47da6de4d1c1f963a225f427d757abb2bef3280ccd2d1f5bda5e45ed62f7"),
    (emit_runtime_plot, _ZERO_SECONDS,
     "b99331be0a65439cf71d99db970d8749695681b81d9724881ecfd855480e5126"),
])
def test_plot_bytes_are_pinned(emit, points, digest):
    assert hashlib.sha256(emit(points).encode()).hexdigest() == digest


@pytest.mark.parametrize("r_max", [0.95, 0.99])
def test_plot_points_beyond_r_0_9_stay_inside_the_frame(r_max):
    ratios = (0.0, 0.3, r_max)
    sweep = [SweepPoint(r, 100, 0.8 - r / 2, 0.33, 0.0, "original", "pvi", 1) for r in ratios]
    runtime = [RuntimeRecord("original", r, "train_cm", 1.0 + r) for r in ratios]
    for svg in (emit_accuracy_plot(sweep), emit_runtime_plot(runtime)):
        circles = ET.fromstring(svg).findall(".//{http://www.w3.org/2000/svg}circle")
        xs = [float(circle.get("cx")) for circle in circles]
        assert len(xs) == 3 and all(_ML <= x <= _W - _MR for x in xs), xs
        assert max(xs) == _W - _MR

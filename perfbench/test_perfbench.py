"""Tests of the benchmark's own arithmetic, and a smoke run of every workload.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(id, name, start, end, parent=None, **counts):
    return dict(id=id, name=name, start=start, end=end, parent=parent, **counts)


def test_self_time_subtracts_sibling_children():
    s = [span(0, "cli.main", 0.0, 10.0),
         span(1, "family.train", 1.0, 4.0, 0),
         span(2, "family.train", 5.0, 7.0, 0)]
    assert spans.self_times(s) == {0: 5.0, 1: 3.0, 2: 2.0}


def test_self_time_counts_only_direct_children():
    s = [span(0, "cli.main", 0.0, 10.0),
         span(1, "family.train", 2.0, 8.0, 0),
         span(2, "family.loss_and_grad", 3.0, 4.0, 1),
         span(3, "family.loss_and_grad", 5.0, 7.0, 1)]
    selfs = spans.self_times(s)
    assert selfs == {0: 4.0, 1: 3.0, 2: 1.0, 3: 2.0}
    # every instant of the top-level span is charged to exactly one span
    assert sum(selfs.values()) == 10.0


def test_percentile_is_nearest_rank_with_samples_beyond():
    values = list(range(1, 1001))  # 1..1000, shuffled order must not matter
    values.reverse()
    assert spans.percentile(values, 50) == (500, 500)
    assert spans.percentile(values, 99) == (990, 10)
    assert spans.percentile([7.0], 99) == (7.0, 0)
    assert spans.percentile([3, 1, 2], 50) == (2, 1)
    with pytest.raises(ValueError):
        spans.percentile([], 50)


def test_layer_metrics_split_training_by_kind():
    s = [span(0, "cli.main", 0.0, 10.0),
         span(1, "family.train", 0.0, 4.0, 0, kind="cond"),
         span(2, "family.loss_and_grad", 0.0, 1.0, 1, cols=100, dim=1000),
         span(3, "family.loss_and_grad", 1.0, 3.0, 1, cols=300, dim=1000),
         span(4, "family.train", 4.0, 5.0, 0, kind="null"),
         span(5, "family.loss_and_grad", 4.0, 4.5, 4, cols=0, dim=1000),
         span(6, "cli.atomic_write_text", 6.0, 7.0, 0)]
    m = {k: v for k, (v, _) in spans.layer_metrics(s).items()}
    assert m["family.train.cond.s"] == 4.0
    assert m["family.train.null.s"] == 1.0
    assert m["family.train.calls"] == 2
    assert m["family.train.steps"] == 3
    assert m["family.train.null.steps"] == 1
    assert m["family.train.self_s"] == 1.0 + 0.5
    assert m["family.step.cols_touched_share"] == pytest.approx(0.2)
    assert m["family.step.p50_ms"] == 1000.0
    assert m["cli.write.s"] == 1.0
    assert m["cli.main.self_s"] == 10.0 - 5.0 - 1.0
    layer_sum = sum(v for k, v in m.items() if k.startswith("layer."))
    assert layer_sum == pytest.approx(10.0)


def test_merge_traces_renumbers_ids_and_parents():
    a = [span(0, "cli.main", 0, 2), span(1, "cli.cmd_pvi", 0, 1, 0)]
    b = [span(0, "cli.main", 3, 5), span(1, "cli.cmd_stats", 3, 4, 0)]
    merged = spans.merge_traces([a, b])
    assert [(x["id"], x["parent"]) for x in merged] == [(0, None), (1, 0), (2, None), (3, 2)]


def test_tracer_excludes_counting_time_and_nests():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return [1, 2, 3]

    t_inner = tracer.wrap("corpus.load_dataset", inner, spans.COUNTERS["corpus.load_dataset"])
    t_outer = tracer.wrap("cli.main", lambda: t_inner())
    t_outer()
    outer, child = tracer.spans
    assert child["parent"] == outer["id"] and child["rows"] == 3
    # clock ticks 0..5 with the count taken between ticks 3 and 4: that
    # tick is not in the outer span
    assert outer["end"] - outer["start"] == 4.0


def test_failed_share_counts_every_operation():
    tally = run.Tally()
    tally.record("setup", [])
    tally.record("pvi", ["exit code 2"])
    tally.record("stats", [])
    tally.record("traced pvi", ["a", "b"])
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_share == 0.5
    assert run.Tally().failed_share == 0.0


def test_retained_matches_decimal_ratio():
    assert workloads.retained(10, "0.29999999999999999") == 7
    assert workloads.retained(300, "0.90000000000000002") == 30
    assert workloads.retained(5000, "0") == 5000


def test_corpus_seeds_are_distinct():
    seeds = {workloads.corpus_seed(s, w, k)
             for s in range(20) for w in workloads.WORKLOADS for k in range(2)}
    assert len(seeds) == 20 * len(workloads.WORKLOADS) * 2


def test_shape_problems_flags_missing_and_extra_metrics():
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s"}], "per_layer": []}
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}
    assert run.shape_problems(good, spec, trace=False) == []
    bad = dict(good, metrics={"other": {"value": 1.0, "unit": "s"}})
    assert run.shape_problems(bad, spec, trace=False)


def test_benchmark_json_declares_every_metric_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    printed = set(spans.layer_metrics([span(0, "cli.main", 0, 1)]))
    printed |= {"trace.wall_s", "trace.overhead_s", "trace.unattributed_s"}
    assert printed == declared
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_smoke_run_of_every_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke ok"

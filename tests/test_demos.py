"""The demos run end to end; 03 (curriculum, about 16 s on a 2-vCPU host) runs by hand."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, expected", [
    ("01_score_difficulty.py", "five hardest instances (lowest PVI):"),
    ("02_static_reduction_sweep.py", "ratios redundant at eps_perf=0.02:"),
    ("04_dataset_statistics.py", "=== imbalanced (1.0/0.6/0.3)"),
])
def test_demo_runs(name, expected, capsys, tmp_path, monkeypatch):
    # demo 02 writes sweep_accuracy.svg to the working directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert expected in capsys.readouterr().out

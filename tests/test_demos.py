"""The quick demos run end to end; 02 (sweep) and 03 (curriculum) are slow and run by hand."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, expected", [
    ("01_score_difficulty.py", "five hardest instances (lowest PVI):"),
    ("04_dataset_statistics.py", "=== imbalanced (1.0/0.6/0.3)"),
])
def test_demo_runs(name, expected, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert expected in capsys.readouterr().out

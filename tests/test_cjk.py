"""Acceptance criterion 4's shape on unsegmented CJK text (see cjk.py).

The features are character n-grams over code points, so pruning the easiest
instances should behave on ideographs without spaces as it does on the ASCII
corpus: accuracy within 0.02 of the full set up to r = 0.3, and at least 0.10
below it at r = 0.9. The thresholds are criterion 4's.
"""

from cjk import CJK, translate
from pvireduce import Hyperparams, generate_synthetic, static_sweep


def test_reduction_shape_holds_on_cjk_text():
    train_ds = translate(generate_synthetic(4000, seed=11), CJK)
    test_ds = translate(generate_synthetic(1000, seed=12), CJK)
    points = static_sweep(train_ds, test_ds, [0.1, 0.2, 0.3, 0.9], Hyperparams(), timing=False)
    by_r = {p.r: p.cm_accuracy for p in points}
    base = by_r[0.0]
    assert all(abs(by_r[r] - base) <= 0.02 for r in (0.1, 0.2, 0.3)), by_r
    assert by_r[0.9] <= base - 0.10, by_r

"""Score per-instance difficulty on a synthetic corpus.

Generates a 3-class corpus with an easy/medium/hard difficulty mix, trains
the conditional and null models, and prints the information summary plus the
hardest and easiest instances by pointwise score.
"""

import numpy as np

from pvireduce import (Hyperparams, compute_pvi, generate_synthetic,
                       hardest_k, pvi_histogram, summarize, train_scorers)
from pvireduce.corpus import synthetic_difficulty_tags


def main():
    hp = Hyperparams()
    ds = generate_synthetic(2000, 3, (0.5, 0.3, 0.2), seed=1)
    print(f"corpus: {len(ds)} instances, class counts {ds.class_counts().tolist()}")

    g_cond, g_null = train_scorers(ds, hp)
    records = compute_pvi(g_cond, g_null, ds)

    s = summarize(records)
    print(f"\nH_V(Y)       = {s.h_v_y:.4f} bits")
    print(f"H_V(Y | X)   = {s.h_v_y_given_x:.4f} bits")
    print(f"I_V(X -> Y)  = {s.i_v:.4f} bits  (= mean PVI over {s.n} instances)")

    tags = synthetic_difficulty_tags(len(ds), (0.5, 0.3, 0.2), 1)
    for tag in ("easy", "medium", "hard"):
        values = [r.pvi for r, t in zip(records, tags) if t == tag]
        print(f"mean PVI [{tag:6s}] = {np.mean(values):+.4f} bits "
              f"({len(values)} instances)")

    print("\nfive hardest instances (lowest PVI):")
    for inst, pvi in hardest_k(records, ds, 5):
        print(f"  pvi={pvi:+.3f} label={inst.label} "
              f"hypothesis={inst.hypothesis[:48]!r}")

    edges, counts = pvi_histogram(records, 12, (-3.0, 3.0))
    peak = counts.max()
    print("\nPVI histogram:")
    for lo, hi, n in zip(edges, edges[1:], counts):
        bar = "#" * int(40 * n / peak)
        print(f"  [{lo:+5.2f},{hi:+5.2f}) {n:5d} {bar}")


if __name__ == "__main__":
    main()

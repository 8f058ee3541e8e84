"""Difficulty-aware dataset reduction and curriculum training for text pairs."""

from .corpus import (
    Dataset,
    LabeledInstance,
    NoiseSpec,
    filter_invalid,
    generate_synthetic,
    inject_noise,
    load_dataset,
    make_imbalanced,
    read_instances,
    serialize,
    to_null_view,
)
from .curriculum import StageReport, curriculum_order, progressive_train
from .family import (
    EvalReport,
    Hyperparams,
    Model,
    constant_predictor,
    evaluate,
    featurize,
    load_model,
    log2_prob,
    predict_dist,
    save_model,
    train,
    train_null,
)
from .pvi import (
    InfoSummary,
    PviColumns,
    PviRecord,
    compute_pvi,
    hardest_k,
    pvi_histogram,
    rank_by_difficulty,
    retained_count,
    summarize,
    train_scorers,
)
from .reduction import (
    SweepPoint,
    balanced_select,
    random_select,
    select_subset,
    static_sweep,
)
from .report import RuntimeLog, bucket_proportions, length_stats

__version__ = "0.1.0"

"""Conformal prediction sets calibrated on weakly labeled data.

Split conformal calibration when calibration records carry only a weak
label (a set, interval, ranking prefix, or partial matching guaranteed to
contain the truth), plus greedy randomized sets built from weak-label
distributions and best-first enumeration of structured prediction sets.
"""

__version__ = "0.1.0"  # before the submodules: the harness records it

from .conformal import (
    ConformalThreshold,
    CoverageReport,
    LabelSet,
    PredictionInterval,
    UnsupportedWeakLabel,
    conformal_threshold,
    evaluate,
    set_block_scores,
)
from .greedy import (
    DiscreteWeakDistribution,
    GreedySequence,
    MarginalAllocation,
    RandomizedSet,
    SizeProfile,
    Structure,
    brute_force_optimal,
    check_structure,
    greedy_sequence,
    greedy_set,
    label_independent_nested_scores,
    label_independent_sequence,
    marginal_allocation,
    nested_score,
    nested_score_vector,
    set_from_sequence,
    size_profile,
    wolsey_constant,
)
from .harness import CSV_COLUMNS, ExperimentConfig, TrialResult, run
from .labels import (
    ExplicitSet,
    FormatError,
    Interval,
    PartialMatching,
    RankingPrefix,
    WeakRecord,
    read_jsonl,
    weak_contains,
    weak_from_payload,
    weak_to_payload,
    write_jsonl,
)
from .matching import (
    MatchingProblem,
    hungarian,
    matching_block_scores,
    matching_score,
    min_matching_cost,
    pad_costs,
    partial_matching_score,
    read_cost_csv,
    translated_score,
)
from .mbest import (
    EnumerationCapExceeded,
    Enumerator,
    MBestResult,
    PartitionError,
    compatible_rank,
    enumerate_until,
    m_best,
    rank_conformalize,
)
from .ranking import (
    PsiSpec,
    RankingProblem,
    best_ranking,
    listnet_train,
    partial_rank_score,
    predict_relevances,
    prefix_block_scores,
    rank_score,
    rank_scores_batch,
    rescale_relevances,
)
from .regression import interval_block_scores, interval_predict
from .synth import (
    MulticlassConfig,
    RankingSimConfig,
    cumulative_probability_scores,
    fit_ols,
    gen_matching,
    gen_multiclass,
    gen_ranking,
    gen_regression,
    predict_class_probs,
    predict_label_marginals,
    three_way_split,
    to_records,
    train_multinomial_logistic,
    train_per_label_logistic,
)

__all__ = [
    "__version__",
    # labels
    "ExplicitSet", "Interval", "RankingPrefix", "PartialMatching",
    "WeakRecord", "FormatError", "weak_contains", "weak_to_payload",
    "weak_from_payload", "read_jsonl", "write_jsonl",
    # conformal core
    "ConformalThreshold", "conformal_threshold", "set_block_scores",
    "UnsupportedWeakLabel", "CoverageReport", "LabelSet", "PredictionInterval",
    "evaluate",
    # greedy randomized sets
    "DiscreteWeakDistribution", "GreedySequence", "RandomizedSet",
    "greedy_sequence", "label_independent_sequence", "set_from_sequence",
    "greedy_set", "nested_score", "nested_score_vector",
    "label_independent_nested_scores", "SizeProfile", "size_profile",
    "brute_force_optimal", "wolsey_constant", "Structure", "check_structure",
    "MarginalAllocation", "marginal_allocation",
    # best-first enumeration
    "Enumerator", "MBestResult", "m_best", "enumerate_until",
    "compatible_rank", "rank_conformalize", "PartitionError",
    "EnumerationCapExceeded",
    # matching
    "hungarian", "matching_score", "min_matching_cost", "translated_score",
    "partial_matching_score", "matching_block_scores",
    "pad_costs", "read_cost_csv", "MatchingProblem",
    # ranking
    "PsiSpec", "rank_score", "rank_scores_batch", "best_ranking",
    "partial_rank_score", "prefix_block_scores", "rescale_relevances",
    "RankingProblem", "listnet_train", "predict_relevances",
    # regression
    "interval_block_scores", "interval_predict",
    # synthetic data and trainers
    "MulticlassConfig", "RankingSimConfig", "gen_multiclass", "gen_ranking",
    "gen_matching", "gen_regression", "to_records", "three_way_split",
    "train_per_label_logistic", "train_multinomial_logistic",
    "predict_label_marginals", "predict_class_probs",
    "cumulative_probability_scores", "fit_ols",
    # harness
    "ExperimentConfig", "TrialResult", "run", "CSV_COLUMNS",
]

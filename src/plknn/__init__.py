"""Nearest-neighbor algorithms for learning-to-rank in a latent-space
random-utility model, with the simulation and verification harness used to
study them."""

from .agents import (
    NeighborSet,
    global_knn,
    kt_knn,
    oracle_knn,
    predict_pair,
    prediction_error,
    sample_pairs,
)
from .alternatives import (
    CandidateSet,
    alt_neighbors,
    candidate_set,
    half_stat,
    sign_distance,
    split_cluster,
    two_means_1d,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    ReportRow,
    read_report_csv,
    run_dim_sweep,
    run_error_vs_k,
    run_error_vs_position,
    write_report_csv,
)
from .kendall import (
    FeatureMatrix,
    agent_distance,
    discordance_matrix,
    enkt_feature,
    feature_matrix,
    kendall_tau,
    kendall_tau_naive,
    make_pairing,
    nkt,
)
from .latent import (
    DistSpec,
    ModelConfig,
    Population,
    pairwise_prob,
    sample_population,
    utility,
)
from .rankings import (
    exact_order_prob,
    rank_matrix,
    read_rankings_csv,
    restrict_ranking,
    sample_ranking,
    sample_rankings,
    write_rankings_csv,
)
from .theory import (
    CurveSample,
    QuadratureError,
    agent_bound_check,
    example_one,
    expected_nkt_curve,
    expected_nkt_pair,
    expected_nkt_value,
    item_bound_check,
    verify_example_one,
    verify_theorem_bias,
)

__version__ = "0.1.0"

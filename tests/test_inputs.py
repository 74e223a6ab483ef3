"""One input rule for every public entry point: agent and alternative ids are
integers (never bools, not even inside a list) within range, a positions
matrix is a 2-D integer array, and a numeric argument (k, eps, ell, c_obs)
is a finite number, never a bool, within its range. Anything else raises
``ValueError`` naming the argument, never a wrong answer, an ``IndexError``,
an ``AxisError`` or a ``TypeError``."""

import numpy as np
import pytest

from plknn import (
    ExperimentConfig,
    ModelConfig,
    agent_distance,
    candidate_set,
    discordance_matrix,
    enkt_feature,
    exact_order_prob,
    feature_matrix,
    kendall_tau,
    make_pairing,
    predict_pair,
    prediction_error,
    rank_matrix,
    restrict_ranking,
    sample_pairs,
    run_dim_sweep,
    run_error_vs_k,
    run_error_vs_position,
    sample_population,
    sample_rankings,
    sign_distance,
)
from plknn.agents import (
    NeighborSet,
    kt_knn,
    oracle_distances,
    true_probabilities,
    vote_probabilities,
)
from plknn.kendall import agent_distances_from

POP = sample_population(ModelConfig(n_agents=6, n_alternatives=20, seed=0))
M = sample_rankings(POP, seed=0)
F = feature_matrix(M, 0)
NEIGHBORS = NeighborSet(5, (0, 1), "oracle", ("top_k", 2))
GEN = np.random.default_rng(0)
FIG1B = ExperimentConfig(ModelConfig(n_agents=12, n_alternatives=30), k_grid=(3,))

# (entry point, bad input) -> (call, a word of the message naming the argument)
BAD_INPUTS = {
    "rank_matrix bool in an order": (lambda: rank_matrix([[0, True]]), "order 0"),
    "kendall_tau bool in a row": (lambda: kendall_tau([0, True], [1, 0]), "positions row"),
    "restrict_ranking bool in the subset": (
        lambda: restrict_ranking(np.array([0, 1, 2]), [True, 2]), "subset"
    ),
    "exact_order_prob bool in the order": (
        lambda: exact_order_prob(0.5, np.array([0.1, 0.5, 0.9]), [0, True, 2]), "order"
    ),
    "prediction_error bool in the pairs": (
        lambda: prediction_error("oracle", 0, POP, M, [[0, True]], k=2), "pairs"
    ),
    "enkt_feature float pairing": (lambda: enkt_feature(M[0], M[1], [[0.5, 1.7]]), "pairing"),
    "make_pairing float ids": (lambda: make_pairing([0.5, 1.7, 2.2, 3.9], 0), "alt_ids"),
    "agent_distance negative i": (lambda: agent_distance(F, -1, 0), "agent i"),
    "agent_distances_from negative i": (lambda: agent_distances_from(F, -1), "agent i"),
    "agent_distance j past the end": (lambda: agent_distance(F, 0, 6), "agent j"),
    "agent_distance float i": (lambda: agent_distance(F, 1.5, 0), "agent i"),
    "agent_distance bool i": (lambda: agent_distance(F, True, 0), "agent i"),
    "agent_distances_from i past the end": (lambda: agent_distances_from(F, 6), "agent i"),
    "discordance_matrix float matrix": (lambda: discordance_matrix(M * 0.5), "positions matrix"),
    "kt_knn 1-D matrix": (lambda: kt_knn(M[0], 0, 2), "positions matrix"),
    "prediction_error 1-D matrix": (
        lambda: prediction_error("oracle", 0, POP, M[0], [[0, 1]], k=2), "positions matrix"
    ),
    "sign_distance float matrix": (lambda: sign_distance(M * 1.0, 0, 1), "positions matrix"),
    "candidate_set float matrix": (lambda: candidate_set(M * 1.0, 0, 2), "positions matrix"),
    "predict_pair float matrix": (
        lambda: predict_pair(NEIGHBORS, M * 1.0, 0, 1), "positions matrix"
    ),
    "kt_knn a sequence as the query": (lambda: kt_knn(M, [0], 2), "query"),
    # int() would read True and 1.7 as agent 1
    "NeighborSet bool member": (
        lambda: NeighborSet(5, (0, True), "oracle", ("top_k", 2)), "members"
    ),
    "NeighborSet float member": (
        lambda: NeighborSet(5, (0, 1.7), "oracle", ("top_k", 2)), "members"
    ),
    # was stored and serialized as "query": 1.5
    "NeighborSet float query": (lambda: NeighborSet(1.5, (0, 1), "oracle", ("top_k", 2)), "query"),
    "rank_matrix ragged order": (lambda: rank_matrix([[0, [1, 2]]]), "order 0"),
    # each of the next three read -1 as the last alternative or agent
    "vote_probabilities negative pair id": (
        lambda: vote_probabilities(M, [0, 1], np.array([[0, -1]])), "pairs"
    ),
    # a single id ended in numpy's AxisError
    "vote_probabilities scalar member": (
        lambda: vote_probabilities(M, 0, np.array([[0, 1]])), "neighbor agent indices"
    ),
    "true_probabilities negative query": (
        lambda: true_probabilities(POP, -1, np.array([[0, 1]])), "query"
    ),
    "oracle_distances negative query": (lambda: oracle_distances(POP, -1), "query"),
    "oracle_distances 2-D queries": (lambda: oracle_distances(POP, [[0, 1]]), "query"),
    "agent_distances_from a block past the end": (
        lambda: agent_distances_from(F, [0, 6]), "agent i"
    ),
    # a float m sampled pairs, a bool or float count raised TypeError, a zero
    # count returned no pairs and a negative one numpy's "negative dimensions"
    "sample_pairs float m": (lambda: sample_pairs(2.5, 3, GEN), "m must"),
    "sample_pairs bool count": (lambda: sample_pairs(20, True, GEN), "count must"),
    "sample_pairs float count": (lambda: sample_pairs(20, 2.5, GEN), "count must"),
    "sample_pairs zero count": (lambda: sample_pairs(20, 0, GEN), "count must"),
    "sample_pairs negative count": (lambda: sample_pairs(20, -1, GEN), "count must"),
    "sample_rankings nan c_obs": (lambda: sample_rankings(POP, 0, c_obs=float("nan")), "c_obs"),
    "sample_rankings bool c_obs": (lambda: sample_rankings(POP, 0, c_obs=True), "c_obs"),
    # -2 wrote negative neighbor distances, 0 ended in an IndexError, 2.5 in
    # a TypeError, and True was written in the k column
    "run_error_vs_position negative k": (lambda: run_error_vs_position(FIG1B, -2), "k must"),
    "run_error_vs_position zero k": (lambda: run_error_vs_position(FIG1B, 0), "k must"),
    "run_error_vs_position float k": (lambda: run_error_vs_position(FIG1B, 2.5), "k must"),
    "run_error_vs_position bool k": (lambda: run_error_vs_position(FIG1B, True), "k must"),
    # 0 and -3 ran serially, 1.5 ended in a TypeError in range
    "run_error_vs_k zero n_jobs": (lambda: run_error_vs_k(FIG1B, n_jobs=0), "n_jobs"),
    "run_error_vs_k negative n_jobs": (lambda: run_error_vs_k(FIG1B, n_jobs=-3), "n_jobs"),
    "run_dim_sweep float n_jobs": (lambda: run_dim_sweep(FIG1B, n_jobs=2.0), "n_jobs"),
    "run_error_vs_position bool n_jobs": (
        lambda: run_error_vs_position(FIG1B, 3, n_jobs=True), "n_jobs"
    ),
    "discordance_matrix float n_jobs": (lambda: discordance_matrix(M, n_jobs=1.5), "n_jobs"),
    "discordance_matrix zero n_jobs": (lambda: discordance_matrix(M, n_jobs=0), "n_jobs"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_raises_value_error(case):
    call, argument = BAD_INPUTS[case]
    with pytest.raises(ValueError, match=argument):
        call()


def test_integer_inputs_are_accepted():
    # numpy integer ids, tuples of Python ints and int32 matrices are valid
    m32 = M.astype(np.int32)
    assert kt_knn(m32, np.int64(0), 2).members == kt_knn(M, 0, 2).members
    assert agent_distance(F, np.int64(0), np.int32(1)) == agent_distance(F, 0, 1)
    pairs = ((0, 1), (2, 3))
    error = prediction_error("oracle", np.int64(0), POP, m32, pairs, k=2)
    assert error == prediction_error("oracle", 0, POP, M, np.array(pairs), k=2)
    assert vote_probabilities(m32, (0, 1), np.array(pairs)).shape == (2,)
    assert make_pairing((0, 1, 2, 3), 0).tolist() == make_pairing(np.arange(4), 0).tolist()
    assert kendall_tau(tuple(M[0].tolist()), M[1]) == kendall_tau(M[0], M[1])
    assert sign_distance(m32, np.int64(0), 1) == sign_distance(M, 0, 1)
    assert np.array_equal(discordance_matrix(m32), discordance_matrix(M.astype(np.int64)))
    gens = [np.random.default_rng(1) for _ in range(2)]
    assert np.array_equal(sample_pairs(np.int64(20), np.int32(3), gens[0]), sample_pairs(20, 3, gens[1]))

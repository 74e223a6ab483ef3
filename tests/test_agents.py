import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plknn import (
    ModelConfig,
    NeighborSet,
    Population,
    feature_matrix,
    global_knn,
    kt_knn,
    oracle_knn,
    predict_pair,
    prediction_error,
    rank_matrix,
    sample_pairs,
    sample_population,
    sample_rankings,
)
from plknn import rng
from plknn.agents import _vote_counts, vote_probabilities
from plknn.kendall import agent_distances_from

from _harness import bias_witness


@pytest.fixture(scope="module")
def small_world():
    cfg = ModelConfig(n_agents=30, n_alternatives=120, dim=1, box=5.0, seed=77)
    pop = sample_population(cfg)
    rankings = sample_rankings(pop, seed=77)
    feats = feature_matrix(rankings, pairing_seed=77)
    return pop, rankings, feats


def test_neighbor_set_invariants():
    ns = NeighborSet(query=3, members=(1, 2), method="oracle", selector=("top_k", 2))
    assert ns.to_dict()["selector"] == {"mode": "top_k", "k": 2}
    with pytest.raises(ValueError):
        NeighborSet(query=1, members=(1, 2), method="oracle", selector=("top_k", 2))
    with pytest.raises(ValueError):
        NeighborSet(query=0, members=(1,), method="nope", selector=("top_k", 1))


def test_oracle_knn_matches_brute_force(small_world):
    pop, _, _ = small_world
    gen = np.random.default_rng(4)
    for q in gen.integers(0, pop.n_agents, 6):
        k = int(gen.integers(1, 10))
        ns = oracle_knn(pop, int(q), k)
        d = np.linalg.norm(pop.agents - pop.agents[q], axis=1)
        brute = sorted(
            (j for j in range(pop.n_agents) if j != q), key=lambda j: (d[j], j)
        )[:k]
        assert list(ns.members) == brute


def test_oracle_knn_window_and_full(small_world):
    pop, _, _ = small_world
    n = pop.n_agents
    all_of_them = oracle_knn(pop, 0, n - 1)
    assert sorted(all_of_them.members) == [j for j in range(n) if j != 0]
    # 1-D neighbors form a contiguous window in sorted position order
    order = np.argsort(pop.agents[:, 0], kind="stable")
    rank_in_sorted = {int(a): i for i, a in enumerate(order)}
    ns = oracle_knn(pop, 5, 7)
    spots = sorted(rank_in_sorted[j] for j in (*ns.members, 5))
    assert spots == list(range(spots[0], spots[0] + len(spots)))


def test_topk_nesting_all_methods(small_world):
    pop, rankings, feats = small_world
    for make in (
        lambda k: kt_knn(rankings, 4, k),
        lambda k: global_knn(feats, 4, k=k),
        lambda k: oracle_knn(pop, 4, k),
    ):
        prev: set = set()
        for k in (1, 3, 7, 12):
            members = set(make(k).members)
            assert len(members) == k
            assert prev <= members
            prev = members


def test_global_threshold_mode(small_world):
    _, _, feats = small_world
    dist = agent_distances_from(feats, 2)
    eps_max = float(np.nanmax(dist))
    everybody = global_knn(feats, 2, eps=eps_max)
    assert sorted(everybody.members) == [j for j in range(feats.n_agents) if j != 2]
    # threshold output grows monotonically with eps
    prev: set = set()
    for eps in (0.2 * eps_max, 0.5 * eps_max, eps_max):
        members = set(global_knn(feats, 2, eps=eps).members)
        assert prev <= members
        prev = members
    with pytest.raises(ValueError):
        global_knn(feats, 2)
    with pytest.raises(ValueError):
        global_knn(feats, 2, k=3, eps=0.1)


def test_kt_knn_tie_break_and_validation():
    rankings = rank_matrix([
        [0, 1, 2],
        [0, 2, 1],  # distance 1
        [1, 0, 2],  # distance 1, larger index
        [2, 1, 0],  # distance 3
    ])
    ns = kt_knn(rankings, 0, 2)
    assert list(ns.members) == [1, 2]
    with pytest.raises(ValueError):
        kt_knn(rankings, 0, 4)


def test_query_and_selector_validation():
    cfg = ModelConfig(n_agents=6, n_alternatives=20, dim=1, box=1.0, seed=3)
    pop = sample_population(cfg)
    rankings = sample_rankings(pop, seed=3)
    feats = feature_matrix(rankings, pairing_seed=3)
    bad_calls = [
        lambda: kt_knn(rankings, -1, 2),  # once returned agent 5, the query itself
        lambda: kt_knn(rankings, 6, 2),  # once an IndexError
        lambda: kt_knn(rankings, 0, 0),  # once an empty set
        lambda: kt_knn(rankings, 0, 2.0),
        lambda: oracle_knn(pop, -1, 2),
        lambda: oracle_knn(pop, 6, 2),
        lambda: oracle_knn(pop, 0, 0),
        lambda: oracle_knn(pop, 0, 6),  # once 5 members, as kt_knn refused
        lambda: global_knn(feats, -1, k=2),
        lambda: global_knn(feats, 0, k=-1),  # once n - 2 members
        lambda: global_knn(feats, 0, k=6),  # once 5 members, as kt_knn refused
        lambda: global_knn(feats, 0, eps=float("nan")),  # once an empty set
        lambda: global_knn(feats, 0, eps=float("inf")),
        lambda: global_knn(feats, 0, eps=-0.1),
    ]
    for call in bad_calls:
        with pytest.raises(ValueError):
            call()
    # numpy scalars are valid indices and selectors
    assert len(kt_knn(rankings, np.int64(5), np.int64(2)).members) == 2
    assert 5 not in oracle_knn(pop, 5, 5).members
    assert global_knn(feats, 0, eps=np.float64(0.0)).selector == ("threshold", 0.0)


def test_relabeling_equivariance(small_world):
    pop, rankings, feats = small_world
    q, k = 11, 5
    perm = np.random.default_rng(123).permutation(pop.n_agents)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(pop.n_agents)
    pop2 = Population(agents=pop.agents[perm], alternatives=pop.alternatives)
    rankings2 = rankings[perm]
    feats2 = feature_matrix(rankings2, pairing_seed=77)
    for before, after in (
        (kt_knn(rankings, q, k), kt_knn(rankings2, int(inv[q]), k)),
        (global_knn(feats, q, k=k), global_knn(feats2, int(inv[q]), k=k)),
        (oracle_knn(pop, q, k), oracle_knn(pop2, int(inv[q]), k)),
    ):
        assert sorted(inv[list(before.members)]) == sorted(after.members)


def test_predict_pair_basics():
    rankings = rank_matrix([
        [0, 1, 2],
        [0, 2, 1],
        [1, 2, 0],
        [2, 0, 1],
    ])
    agree = NeighborSet(3, (0, 1), "oracle", ("top_k", 2))
    assert predict_pair(agree, rankings, 0, 2) == 1.0
    split = NeighborSet(3, (0, 2), "oracle", ("top_k", 2))
    assert predict_pair(split, rankings, 0, 1) == 0.5
    # neighbors missing an alternative are skipped
    partial = rank_matrix([[0, 1], [2, 3]])
    ns = NeighborSet(9, (0, 1), "oracle", ("top_k", 2))
    assert predict_pair(ns, partial, 0, 1) == 1.0
    # so is one that misses only the second alternative, or only the first
    half = rank_matrix([[0, 1], [0]])
    assert predict_pair(ns, half, 0, 1) == 1.0 and predict_pair(ns, half, 1, 0) == 0.0
    # unobserved, not an alternative, the same alternative twice, not an integer
    for a, b in ((0, 3), (-1, 0), (0, -2), (0, 9), (1, 1), (True, 0), (0, np.True_), (1.5, 0)):
        with pytest.raises(ValueError):
            predict_pair(ns, partial, a, b)
    with pytest.raises(ValueError, match="no neighbor ranks both"):
        predict_pair(NeighborSet(9, (), "global_knn", ("threshold", 0.0)), partial, 0, 1)


def test_neighbor_ids_are_range_checked():
    # an id outside [0, n) must not vote through negative indexing or end in
    # an IndexError
    matrix = rank_matrix([[0, 1, 2], [2, 1, 0]])
    pairs = np.array([[0, 2]])
    for member in (-1, 2, 7):
        with pytest.raises(ValueError, match="agent indices"):
            predict_pair(NeighborSet(5, (member,), "oracle", ("top_k", 1)), matrix, 0, 2)
        with pytest.raises(ValueError, match="agent indices"):
            vote_probabilities(matrix, [member], pairs)
    for member in (True, np.True_, 1.0, "1"):
        with pytest.raises(ValueError, match="agent indices"):
            vote_probabilities(matrix, [0, member], pairs)
    assert vote_probabilities(matrix, np.array([1]), pairs)[0] == 0.0
    assert vote_probabilities(matrix, (0, 1), pairs)[0] == 0.5


def test_vote_probabilities_equal_a_per_member_loop():
    # partial rankings, members drawn with repeats: a repeated member votes
    # once per occurrence
    pop = sample_population(ModelConfig(n_agents=30, n_alternatives=40, dim=1, box=5.0, seed=8))
    matrix = sample_rankings(pop, seed=8, c_obs=1.25)
    gen = np.random.default_rng(8)
    members = gen.integers(0, 30, size=25)
    assert len(set(members.tolist())) < members.size
    pairs = sample_pairs(40, 60, gen)
    prefer, usable = np.zeros(len(pairs)), np.zeros(len(pairs))
    for j in members:
        for t, (a, b) in enumerate(pairs):
            if matrix[j, a] >= 0 and matrix[j, b] >= 0:
                usable[t] += 1
                prefer[t] += matrix[j, a] < matrix[j, b]
    assert usable.min() > 0
    assert vote_probabilities(matrix, members, pairs).tolist() == (prefer / usable).tolist()
    with pytest.raises(ValueError, match="no neighbor ranks both"):
        vote_probabilities(matrix, [], pairs)


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(2, 12),
    m=st.integers(2, 30),
    c_obs=st.sampled_from((1.0, 1.25)),
    n_orders=st.integers(1, 3),
    k_grid=st.lists(st.integers(1, 14), min_size=1, max_size=4).map(sorted),
    seed=st.integers(0, 2**16),
)
def test_vote_counts_equal_a_per_member_loop(n, m, c_obs, n_orders, k_grid, seed):
    # the runner's nested case: orders of the min(max k, n - 1) nearest
    # agents, sizes cut to n - 1, repeated sizes and k >= n - 1 included
    pop = sample_population(ModelConfig(n_agents=n, n_alternatives=m, dim=1, box=5.0, seed=seed))
    matrix = sample_rankings(pop, seed=seed, c_obs=c_obs)
    gen = np.random.default_rng(seed)
    pairs = sample_pairs(m, 20, gen)
    sizes = np.minimum(k_grid, n - 1)
    orders = [gen.permutation(n)[: sizes[-1]] for _ in range(n_orders)]
    prefer, usable = _vote_counts(matrix.T, pairs, orders, sizes)
    for i, order in enumerate(orders):
        for t, size in enumerate(sizes):
            want_prefer, want_usable = np.zeros(len(pairs)), np.zeros(len(pairs))
            for j in order[:size]:
                for p, (a, b) in enumerate(pairs):
                    if matrix[j, a] >= 0 and matrix[j, b] >= 0:
                        want_usable[p] += 1
                        want_prefer[p] += matrix[j, a] < matrix[j, b]
            assert prefer[i, t].tolist() == want_prefer.tolist()
            assert np.broadcast_to(usable[i, t], len(pairs)).tolist() == want_usable.tolist()
        # the one-size case on the whole matrix is the public vote
        one_prefer, one_usable = _vote_counts(matrix.T, pairs, [order], sizes[-1:])
        if one_usable.min() > 0:
            want = vote_probabilities(matrix, order, pairs).tolist()
            assert (one_prefer[0, 0] / one_usable[0, 0]).tolist() == want
        else:
            with pytest.raises(ValueError, match="no neighbor ranks both"):
                vote_probabilities(matrix, order, pairs)


def test_prediction_consistency_with_truth():
    cfg = ModelConfig(n_agents=400, n_alternatives=800, dim=1, box=5.0, seed=3)
    pop = sample_population(cfg)
    rankings = sample_rankings(pop, seed=3)
    pairs = sample_pairs(800, 500, rng.substream(3, rng.PAIR_SAMPLE, 0))
    errs = {k: prediction_error("oracle", 7, pop, rankings, pairs, k=k) for k in (10, 150)}
    assert errs[150] < errs[10]
    assert errs[150] < 0.06


def test_prediction_error_vanishes_with_identical_neighbors():
    # neighbors at the query's own position: only voting noise remains and
    # it dies out as k grows
    n = 150
    agents = np.full((n, 1), 2.0)
    alts = sample_population(
        ModelConfig(n_agents=1, n_alternatives=300, dim=1, box=5.0, seed=5)
    ).alternatives
    pop = Population(agents=agents, alternatives=alts)
    rankings = sample_rankings(pop, seed=5)
    pairs = sample_pairs(300, 400, rng.substream(5, rng.PAIR_SAMPLE, 1))
    err_small = prediction_error("oracle", 0, pop, rankings, pairs, k=5)
    err_large = prediction_error("oracle", 0, pop, rankings, pairs, k=140)
    assert err_large < err_small / 3
    assert err_large < 0.04


def test_prediction_error_validation(small_world):
    pop, rankings, feats = small_world
    pairs = np.empty((0, 2), dtype=int)
    with pytest.raises(ValueError):
        prediction_error("oracle", 0, pop, rankings, pairs, k=3)
    with pytest.raises(ValueError):
        prediction_error("global_knn", 0, pop, rankings, np.array([[0, 1]]), k=3)
    with pytest.raises(ValueError):
        prediction_error("nope", 0, pop, rankings, np.array([[0, 1]]), k=3)
    # not a nonempty (k, 2) integer array of distinct alternative ids in [0, m)
    m = rankings.shape[1]
    for bad in (
        [[-1, 0]], [[3, 3]], [[0, 1, 2]], [[0.7, 1.2]], [[0, m]], [0, 1], [[True, False]], []
    ):
        with pytest.raises(ValueError, match="pairs must be a nonempty"):
            prediction_error("oracle", 0, pop, rankings, bad, k=5)
    for too_few in (0, 1):
        with pytest.raises(ValueError, match=f"m >= 2 alternatives, got m={too_few}"):
            sample_pairs(too_few, 3, rng.substream(0, rng.PAIR_SAMPLE, 0))


def test_exchangeable_agents_share_common_distance_scale():
    # all agents at one latent point: every rank distance is exchangeable,
    # so the spread of observed distances stays within sampling noise
    n, m = 40, 400
    pop = Population(
        agents=np.full((n, 1), 0.5),
        alternatives=sample_population(
            ModelConfig(n_agents=1, n_alternatives=m, dim=1, box=1.0, seed=9)
        ).alternatives,
    )
    rankings = sample_rankings(pop, seed=9)
    from plknn.kendall import nkt

    dists = np.array([nkt(rankings[0], rankings[j]) for j in range(1, n)])
    assert dists.std() < 0.05 * dists.mean()


def test_noise_floor_mutual_membership():
    # two agents at identical latent positions join each other's threshold
    # set once eps clears the measured sampling-noise floor
    n_other, m = 40, 400
    base = sample_population(
        ModelConfig(n_agents=n_other, n_alternatives=m, dim=1, box=1.0, seed=55)
    )
    agents = np.vstack([[[0.37]], [[0.37]], base.agents])
    pop = Population(agents=agents, alternatives=base.alternatives)
    floors = []
    for rep in range(12):
        rankings = sample_rankings(pop, seed=1000 + rep)
        feats = feature_matrix(rankings, pairing_seed=rep)
        floors.append(agent_distances_from(feats, 0)[1])
    eps = 1.5 * max(floors)
    rankings = sample_rankings(pop, seed=2000)
    feats = feature_matrix(rankings, pairing_seed=77)
    assert 1 in global_knn(feats, 0, eps=eps).members
    assert 0 in global_knn(feats, 1, eps=eps).members


def test_bias_witness_demonstrated_at_wide_box():
    # the boundary-attraction effect at a scale where rank noise does not
    # swamp it: query at 1.0 in a [0,5] box (thresholds scale with the box)
    means = bias_witness(seed=0, n=500, m=2000, box=5.0, x_q=1.0)
    assert means["kt_knn"] < 0.5
    assert abs(means["global_knn"] - 1.0) <= 0.25
    assert abs(means["oracle"] - 1.0) <= 0.25
    assert means["kt_knn"] < means["global_knn"]

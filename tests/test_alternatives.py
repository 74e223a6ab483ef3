import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plknn.kendall
from plknn import (
    CandidateSet,
    ModelConfig,
    Population,
    alt_neighbors,
    candidate_set,
    half_stat,
    sample_population,
    sample_rankings,
    sign_distance,
    split_cluster,
    two_means_1d,
)
from plknn import rng
from plknn.alternatives import _first_half, _half_stats, _sign_distance_columns, split_step
from plknn.rankings import _order, _row_blocks, positions_matrix, rank_matrix


def _uniform_world(seed, n, m, extra_alts=()):
    gen = rng.substream(seed, rng.TRIAL, 0)
    fillers = gen.random(m - len(extra_alts))
    alts = np.concatenate([np.asarray(extra_alts, dtype=float), fillers])[:, None]
    pop = Population(agents=gen.random(n)[:, None], alternatives=alts)
    return pop, positions_matrix(pop, seed=seed, stream="batched")


def test_sign_distance_basics():
    rankings = rank_matrix([
        [0, 1, 2],
        [0, 1, 2],
        [2, 1, 0],
    ])
    # two of three agents rank 0 above 2
    assert sign_distance(rankings, 0, 2) == pytest.approx(1 / 3)
    assert sign_distance(rankings, 2, 0) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        sign_distance(rankings, 1, 1)
    disjoint = rank_matrix([[0, 1], [2, 3]])
    with pytest.raises(ValueError):
        sign_distance(disjoint, 0, 2)


def test_sign_distance_value_is_mean_of_unit_signs():
    rankings = rank_matrix([[0, 1], [1, 0]])
    # one +1 and one -1 cancel exactly
    assert sign_distance(rankings, 0, 1) == 0.0


def test_sign_distance_vanishes_for_colocated_and_mirror():
    # colocated pair and the mirror pair both have sign distance O(1/sqrt(n))
    n = 20_000
    _, matrix = _uniform_world(3, n, 60, extra_alts=(0.2, 0.2, 0.8))
    d = _sign_distance_columns(matrix, 0)
    assert d[1] < 4.0 / np.sqrt(n) + 1e-9
    assert d[2] < 4.0 / np.sqrt(n) + 1e-9


def test_candidate_set_contains_both_clusters_excludes_far():
    _, matrix = _uniform_world(1, 20_000, 60, extra_alts=(0.2, 0.21, 0.79, 0.5))
    cands = candidate_set(matrix, 0, ell=40)
    assert 0 in cands.members
    assert 1 in cands.members and 2 in cands.members
    assert 3 not in cands.members


def test_candidate_set_trivial_threshold_and_monotonicity():
    cfg = ModelConfig(n_agents=30, n_alternatives=12, dim=1, box=1.0, seed=4)
    rankings = sample_rankings(sample_population(cfg), seed=4)
    everything = candidate_set(rankings, 3, ell=1)
    assert sorted(everything.members) == list(range(12))
    prev = None
    for ell in (1, 5, 25, 100):
        members = set(candidate_set(rankings, 3, ell=ell).members)
        if prev is not None:
            assert members <= prev
        prev = members
    # nan once kept only the query, and True was taken as 1
    for bad in (0.5, 0, -1.0, float("nan"), float("inf"), True, np.bool_(True), "2", None):
        with pytest.raises(ValueError, match="ell must be"):
            candidate_set(rankings, 3, ell=bad)
        with pytest.raises(ValueError, match="ell must be"):
            alt_neighbors(rankings, 3, ell=bad)
    assert candidate_set(rankings, 3, ell=np.float64(5.0)) == candidate_set(rankings, 3, ell=5)


def test_candidate_set_keeps_a_sign_distance_of_exactly_one_over_ell():
    # 3 of 4 agents rank 1 above 0: sign distance |-3 + 1| / 4 = 0.5 = 1/ell
    # at ell = 2, which "at most 1/ell" keeps; 2 is always last (distance 1)
    matrix = rank_matrix([[1, 0, 2], [1, 0, 2], [1, 0, 2], [0, 1, 2]])
    assert sign_distance(matrix, 0, 1) == 0.5
    assert candidate_set(matrix, 0, ell=2).members == (0, 1)


def test_candidate_set_relabeling_symmetry():
    cfg = ModelConfig(n_agents=40, n_alternatives=10, dim=1, box=1.0, seed=6)
    matrix = sample_rankings(sample_population(cfg), seed=6)
    perm = np.random.default_rng(0).permutation(10)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(10)
    relabeled = matrix[:, perm]
    a = 3
    base = candidate_set(matrix, a, ell=3)
    moved = candidate_set(relabeled, int(inv[a]), ell=3)
    assert sorted(perm[list(moved.members)]) == sorted(base.members)


def test_half_stat_basics():
    rankings = rank_matrix([
        [0, 1, 2, 3],
        [3, 2, 1, 0],
    ])
    assert half_stat(rankings, 0, 0) == 1.0
    # alternatives 0 and 1 share a half for both agents
    assert half_stat(rankings, 0, 1) == 1.0
    # 0 and 2 never share a half
    assert half_stat(rankings, 0, 2) == 0.0
    assert half_stat(rankings, 2, 0) == half_stat(rankings, 0, 2)
    with pytest.raises(ValueError):
        half_stat(rank_matrix([[0, 1], [2, 3]]), 0, 2)


def test_half_stat_odd_length_boundary():
    # 5 observed alternatives: the first half is positions 1..3
    halves = _first_half(rank_matrix([[4, 0, 3, 1, 2]], m=5))
    assert halves[0, 4] and halves[0, 0] and halves[0, 3]
    assert not halves[0, 1] and not halves[0, 2]


def test_half_stats_equal_the_per_pair_mean():
    # the vectorized statistics are bit-equal to one masked mean per pair,
    # with unobserved entries skipped
    cfg = ModelConfig(n_agents=300, n_alternatives=25, dim=1, box=5.0, seed=8)
    for c_obs in (1.0, 1.7):
        matrix = sample_rankings(sample_population(cfg), seed=8, c_obs=c_obs)
        halves = _first_half(matrix)
        others = [b for b in range(25) if b != 4]
        expected = []
        for b in others:
            usable = (matrix[:, 4] >= 0) & (matrix[:, b] >= 0)
            expected.append(np.mean(halves[usable, 4] == halves[usable, b]))
        assert np.array_equal(_half_stats(matrix, 4, others), expected)
    partial = rank_matrix([[0, 1], [2, 1]])
    with pytest.raises(ValueError, match="no agent ranks both 0 and 2"):
        _half_stats(partial, 0, [1, 2])


def _sign_distance_reference(matrix, a):
    """The sign distances as a float sum of +-1 terms, one per co-ranking agent."""
    pos_a = matrix[:, a]
    usable = (pos_a[:, None] >= 0) & (matrix >= 0)
    s = np.where(pos_a[:, None] > matrix, 1.0, -1.0)
    s = np.where(usable, s, 0.0)
    counts = usable.sum(axis=0)
    with np.errstate(invalid="ignore"):
        out = np.abs(s.sum(axis=0)) / counts
    out[counts == 0] = np.nan
    out[a] = np.nan
    return out


def _half_stats_reference(matrix, a, others):
    """The half statistics from the first-half membership of the whole matrix."""
    usable = (matrix[:, a, None] >= 0) & (matrix[:, others] >= 0)
    boundary = np.ceil((matrix >= 0).sum(axis=1) / 2.0).astype(np.int64)
    halves = (matrix >= 0) & (matrix < boundary[:, None])
    same = (halves[:, a, None] == halves[:, others]) & usable
    return same.sum(axis=0) / usable.sum(axis=0)


def _partial_matrix(seed, n, m, hidden):
    """A random positions matrix: each agent hides about a fraction ``hidden``
    of the alternatives, about a fifth of the columns no agent observes, and
    about a tenth of the rows observe nothing."""
    gen = np.random.default_rng(seed)
    matrix = np.full((n, m), -1, dtype=np.int32)
    dark = gen.random(m) < 0.2
    blind = gen.random(n) < 0.1
    for i in range(n):
        seen = np.flatnonzero((gen.random(m) >= hidden) & ~dark & ~blind[i])
        matrix[i, gen.permutation(seen)] = np.arange(seen.size)
    return matrix


def _assert_statistics_equal_references(matrix):
    m = matrix.shape[1]
    for a in range(m):
        got = _sign_distance_columns(matrix, a)
        assert np.array_equal(got, _sign_distance_reference(matrix, a), equal_nan=True)
        others = [b for b in range(m) if b != a]
        with np.errstate(invalid="ignore"):
            expect = _half_stats_reference(matrix, a, others)
        if np.all(np.isfinite(expect)):
            assert np.array_equal(_half_stats(matrix, a, others), expect)
        else:
            with pytest.raises(ValueError, match="no agent ranks both"):
                _half_stats(matrix, a, others)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 40), st.integers(2, 14), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
def test_integer_statistics_equal_their_float_references(n, m, hidden, seed):
    # partially observed matrices, some columns and rows ranked by no agent:
    # the integer counts give the float references' values bit for bit, NaN
    # where no agent ranks both
    _assert_statistics_equal_references(_partial_matrix(seed, n, m, hidden))


@settings(deadline=None, max_examples=100)
@given(
    st.integers(1, 40), st.integers(2, 14), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1),
    st.integers(1, 3), st.data(),
)
def test_blocked_statistics_equal_their_float_references(n, m, hidden, seed, rows, data):
    # the statistics count block by block; blocks of 1-3 rows, the last one
    # ragged, give the one-pass references' values
    extra = data.draw(st.integers(0, m - 1))
    matrix = _partial_matrix(seed, n, m, hidden)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("plknn.rankings._BLOCK", rows * m + extra)
        _assert_statistics_equal_references(matrix)


def test_statistics_count_past_255_rows_in_one_block():
    # the counts sum the bytes of boolean blocks into int32: with 3000 rows in
    # one block the co-ranking counts pass 1000 and would wrap in a byte
    matrix = _partial_matrix(7, 3000, 12, 0.3)
    assert len(list(_row_blocks(*matrix.shape))) == 1
    co_ranked = (matrix[:, :, None] >= 0) & (matrix[:, None, :] >= 0)
    assert co_ranked.sum(axis=0)[~np.eye(12, dtype=bool)].max() > 1000
    _assert_statistics_equal_references(matrix)


def test_candidate_threshold_drops_far_alternatives_across_blocks(monkeypatch):
    # a planted world on a box of width 5 in which the threshold does work:
    # the expected sign distance is about 0 for the near and the mirror
    # clusters and about 0.15-0.2 for the alternatives around the midpoint,
    # each measured to about 0.007 by 20,000 agents, so 1/ell = 0.083 keeps
    # the first and drops the second. The 20,000 x 50 matrix takes several
    # blocks; one block gives the same candidates and split statistics.
    gen = rng.substream(31, rng.TRIAL, 0)
    near = 0.2 + np.linspace(-0.01, 0.01, 10)
    mirror = 0.8 + np.linspace(-0.01, 0.01, 10)
    middle = np.linspace(0.4, 0.6, 10)
    alts = 5.0 * np.concatenate([[0.2], near, mirror, middle, gen.random(19)])[:, None]
    pop = Population(agents=5.0 * gen.random(20_000)[:, None], alternatives=alts)
    matrix = positions_matrix(pop, seed=31, stream="batched")
    assert len(list(_row_blocks(*matrix.shape))) > 1
    cands = candidate_set(matrix, 0, ell=12)
    assert set(range(21)) <= set(cands.members)
    assert not set(cands.members) & set(range(21, 31))
    step = split_step(matrix, 0, cands)
    monkeypatch.setattr("plknn.rankings._BLOCK", matrix.size)
    assert candidate_set(matrix, 0, ell=12) == cands
    one_block = split_step(matrix, 0, cands)
    assert np.array_equal(one_block.stats, step.stats) and one_block.kept == step.kept


def test_half_stat_co_location_beats_mirror():
    _, matrix = _uniform_world(9, 30_000, 60, extra_alts=(0.2, 0.2, 0.8))
    halves = _first_half(matrix)
    s_same = np.mean(halves[:, 0] == halves[:, 1])
    s_mirror = np.mean(halves[:, 0] == halves[:, 2])
    assert s_same > s_mirror + 0.01


def test_two_means_exact_small():
    values = np.array([0.1, 0.11, 0.12, 0.5, 0.52])
    labels, centroids = two_means_1d(values)
    assert list(labels) == [0, 0, 0, 1, 1]
    assert centroids[0] == pytest.approx(0.11)
    assert centroids[1] == pytest.approx(0.51)
    with pytest.raises(ValueError):
        two_means_1d([1.0])


@settings(deadline=None, max_examples=80)
@given(
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=14)
)
def test_two_means_matches_brute_force(values):
    values = np.asarray(values)
    labels, centroids = two_means_1d(values)

    def sse_of_split(cut, v):
        left, right = v[: cut + 1], v[cut + 1 :]
        return ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()

    v = np.sort(values)
    best = min(sse_of_split(c, v) for c in range(len(v) - 1))
    got = 0.0
    for lab in (0, 1):
        grp = values[labels == lab]
        got += ((grp - grp.mean()) ** 2).sum()
    assert got == pytest.approx(best, abs=1e-9)


def test_split_cluster_single_cluster_near_center():
    # query near the box midpoint: mirror and true clusters coincide and the
    # whole candidate set comes back
    _, matrix = _uniform_world(12, 20_000, 60, extra_alts=(0.5, 0.49, 0.51, 0.52, 0.48))
    cands = CandidateSet(query=0, members=(0, 1, 2, 3, 4), ell=4.0)
    assert split_cluster(matrix, 0, cands) == {0, 1, 2, 3, 4}


def test_split_step_keeps_every_candidate_below_the_noise_threshold():
    # 16 agents; 0 and 1 always share the first half, 0 and 2 in 10 of 16, so
    # the centroid gap 1 - 0.625 = 0.375 lies between 1/sqrt(16) and the
    # threshold 2/sqrt(16) = 0.5: the clusters are noise and all are kept
    matrix = rank_matrix([[0, 1, 2, 3, 4, 5]] * 10 + [[0, 1, 3, 2, 4, 5]] * 6)
    step = split_step(matrix, 0, CandidateSet(query=0, members=(0, 1, 2), ell=2.0))
    assert step.stats.tolist() == [1.0, 0.625]
    assert step.kept == {0, 1, 2}


def test_split_cluster_drops_mirror_small_scale():
    # 5 planted near 0.2 and 5 near the mirror 0.8 with n large enough for
    # the half-statistic gap to clear the merge threshold
    for seed in (0, 1, 2):
        gen = rng.substream(seed, rng.TRIAL, 0)
        near = 0.2 + 0.02 * (2 * gen.random(5) - 1)
        mirror = 0.8 + 0.02 * (2 * gen.random(5) - 1)
        fillers = gen.random(49)
        alts = np.concatenate([[0.2], near, mirror, fillers])[:, None]
        pop = Population(agents=gen.random(25_000)[:, None], alternatives=alts)
        matrix = positions_matrix(pop, seed=seed, stream="batched")
        kept = split_cluster(matrix, 0, CandidateSet(0, tuple(range(11)), 4.0))
        assert all(j in kept for j in range(6))
        assert all(j not in kept for j in range(6, 11))


def test_split_cluster_list_and_matrix_paths_agree():
    # the matrix rebuilt from its rows' best-first orders gives the same
    # candidates and split
    cfg = ModelConfig(n_agents=300, n_alternatives=30, dim=1, box=1.0, seed=15)
    pop = sample_population(cfg)
    matrix = sample_rankings(pop, seed=15)
    rebuilt = rank_matrix([_order(row) for row in matrix], m=30)
    cands = candidate_set(rebuilt, 2, ell=2)
    assert candidate_set(matrix, 2, ell=2).members == cands.members
    assert split_cluster(rebuilt, 2, cands) == split_cluster(matrix, 2, cands)


def test_alternative_index_is_range_checked():
    cfg = ModelConfig(n_agents=40, n_alternatives=12, dim=1, box=1.0, seed=2)
    matrix = sample_rankings(sample_population(cfg), seed=2)
    cands = candidate_set(matrix, 3, ell=1)
    for bad in (-1, 12, 2.0, True, None):
        calls = [
            lambda: candidate_set(matrix, bad, ell=1),  # -1 once gave alternative 11's set
            lambda: sign_distance(matrix, bad, 3),
            lambda: sign_distance(matrix, 3, bad),
            lambda: half_stat(matrix, bad, 3),
            lambda: half_stat(matrix, 3, bad),
            lambda: split_cluster(matrix, bad, cands),
            lambda: alt_neighbors(matrix, bad, ell=1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="alternative index"):
                call()
    with pytest.raises(ValueError, match="alternative index"):
        split_cluster(matrix, 3, CandidateSet(3, (3, 4, 12), 1.0))
    with pytest.raises(ValueError, match="2-D"):
        candidate_set(matrix[0], 3, ell=1)
    # numpy integers are valid indices
    assert candidate_set(matrix, np.int64(3), ell=1).members == cands.members


def test_split_cluster_order_invariance():
    _, matrix = _uniform_world(21, 20_000, 60, extra_alts=(0.2, 0.21, 0.79, 0.19))
    members = (0, 1, 2, 3)
    base = split_cluster(matrix, 0, CandidateSet(0, members, 4.0))
    flipped = split_cluster(matrix, 0, CandidateSet(0, members[::-1], 4.0))
    assert base == flipped


def test_alt_neighbors_excludes_far_alternatives():
    # an alternative far from both the query and its mirror stays out
    misses = 0
    trials = 20
    for seed in range(trials):
        _, matrix = _uniform_world(100 + seed, 20_000, 50, extra_alts=(0.2, 0.5))
        if 1 in alt_neighbors(matrix, 0, ell=40):
            misses += 1
    assert misses == 0


def test_alt_neighbors_keeps_duplicate():
    _, matrix = _uniform_world(500, 20_000, 50, extra_alts=(0.2, 0.2))
    assert 1 in alt_neighbors(matrix, 0, ell=40)


def test_alt_neighbors_reads_only_rankings(monkeypatch):
    # structural locality: the alternative pipeline never touches the global
    # agent-feature machinery
    def bomb(*args, **kwargs):
        raise AssertionError("alternative similarity must not build agent features")

    monkeypatch.setattr(plknn.kendall, "feature_matrix", bomb)
    cfg = ModelConfig(n_agents=50, n_alternatives=12, dim=1, box=1.0, seed=30)
    rankings = sample_rankings(sample_population(cfg), seed=30)
    result = alt_neighbors(rankings, 4, ell=1.5)
    assert 4 in result

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plknn import (
    ModelConfig,
    Population,
    exact_order_prob,
    pairwise_prob,
    rank_matrix,
    read_rankings_csv,
    restrict_ranking,
    sample_population,
    sample_ranking,
    sample_rankings,
    write_rankings_csv,
)
from plknn import rng
from plknn.rankings import _gumbel_keys, _order, _row_orders, positions_matrix

from _harness import gumbel_orders, sequential_orders


def test_rank_matrix_construction():
    r = rank_matrix([[4, 1, 7]])[0]
    assert np.array_equal(np.flatnonzero(r >= 0), [1, 4, 7])
    assert r[4] == 0 and r[1] == 1 and r[7] == 2
    assert r[2] == -1
    with pytest.raises(ValueError, match="order 1 repeats"):
        rank_matrix([[0, 1], [1, 1, 2]])
    for bad in ([], [0, -1], [[0, 1]]):
        with pytest.raises(ValueError, match="order 1 must be a nonempty 1-D sequence"):
            rank_matrix([[0, 1], bad])
    # an id >= m is an error, not an IndexError
    with pytest.raises(ValueError, match=r"alternative ids in \[0, 3\)"):
        rank_matrix([[0, 5]], m=3)


def test_rank_matrix_rejects_non_integer_ids():
    # 0.7 and 1.2 would truncate to the order (0, 1)
    with pytest.raises(ValueError, match="order 0 must hold integers"):
        rank_matrix([[0.7, 1.2]])


def test_exact_order_prob_rejects_non_integer_ids():
    ys = np.array([[0.1], [0.5], [0.9]])
    with pytest.raises(ValueError, match="order must hold integers"):
        exact_order_prob(np.array([0.0]), ys, [0.7, 1.2, 2.9])


def test_exact_order_prob_examples():
    x = np.array([0.0])
    ys = np.array([[0.1], [0.5], [0.9]])
    # pair reduction: a 2-alternative order is the pairwise probability
    assert exact_order_prob(x, ys[:2], [0, 1]) == pytest.approx(
        pairwise_prob(x, ys[0], ys[1]), rel=1e-12
    )
    # normalization over all orders
    ys4 = np.array([[0.1], [0.3], [0.55], [0.8]])
    total = sum(
        exact_order_prob(x, ys4, perm) for perm in itertools.permutations(range(4))
    )
    assert total == pytest.approx(1.0, rel=1e-12)
    # equidistant alternatives make every order equally likely
    circle = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    for perm in itertools.permutations(range(3)):
        assert exact_order_prob(np.array([0.0, 0.0]), circle, perm) == pytest.approx(
            1 / 6, rel=1e-12
        )


def test_exact_order_prob_guard_and_validation():
    x = np.array([0.0])
    ys = np.array([[i / 10] for i in range(9)])
    with pytest.raises(ValueError):
        exact_order_prob(x, ys, list(range(9)))
    with pytest.raises(ValueError):
        exact_order_prob(x, ys[:3], [0, 1, 1])


def test_single_alternative_ranking():
    r = sample_ranking(np.array([0.3]), np.array([[0.5]]), rng.substream(0, 9))
    assert r.dtype == np.int32 and r.tolist() == [0]


def test_sampler_determinism_and_methods():
    x = np.array([0.3])
    ys = np.random.default_rng(1).random((20, 1))
    for method in ("gumbel", "sequential"):
        r1 = sample_ranking(x, ys, rng.substream(5, 1), method=method)
        r2 = sample_ranking(x, ys, rng.substream(5, 1), method=method)
        assert r1.dtype == np.int32 and np.array_equal(r1, r2)
    with pytest.raises(ValueError):
        sample_ranking(x, ys, rng.substream(5, 1), method="bogus")


def test_luce_marginal_consistency():
    # summing exact order probabilities over full orders recovers the
    # two-alternative choice probability
    x = np.array([0.2])
    ys = np.array([[0.1], [0.4], [0.75]])
    for a, b in itertools.permutations(range(3), 2):
        total = sum(
            exact_order_prob(x, ys, perm)
            for perm in itertools.permutations(range(3))
            if perm.index(a) < perm.index(b)
        )
        assert total == pytest.approx(float(pairwise_prob(x, ys[a], ys[b])), rel=1e-10)


def test_sampler_matches_exact_distribution_small():
    # moderate-sample sanity check; the acceptance suite runs the 1e6 version
    x = 0.0
    ys = np.array([0.1, 0.5, 0.9])
    n = 200_000
    probs = {
        perm: exact_order_prob(np.array([x]), ys[:, None], perm)
        for perm in itertools.permutations(range(3))
    }
    for sampler in (gumbel_orders, sequential_orders):
        orders = sampler(x, ys, rng.substream(17, 0), n)
        keys = orders[:, 0] * 9 + orders[:, 1] * 3 + orders[:, 2]
        for perm, p in probs.items():
            key = perm[0] * 9 + perm[1] * 3 + perm[2]
            freq = np.mean(keys == key)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) < 4 * se, (sampler.__name__, perm, freq, p)


def test_harness_bit_equal_to_sample_ranking():
    # the vectorized harness consumes the stream exactly like repeated calls
    x = 0.4
    ys = np.random.default_rng(3).random(6)
    for method, harness in (("gumbel", gumbel_orders), ("sequential", sequential_orders)):
        gen1 = rng.substream(99, 1)
        gen2 = rng.substream(99, 1)
        batch = harness(x, ys, gen1, 50)
        for t in range(50):
            r = sample_ranking(np.array([x]), ys[:, None], gen2, method=method)
            assert np.array_equal(_order(r), batch[t]), (method, t)


def test_restrict_ranking_properties():
    r = rank_matrix([[5, 2, 8, 1, 9]])[0]
    assert np.array_equal(restrict_ranking(r, [1, 2, 5, 8, 9]), r)
    single = restrict_ranking(r, [8])
    assert single.shape == r.shape and _order(single).tolist() == [8]
    sub = restrict_ranking(r, [2, 1, 9])
    assert np.array_equal(_order(sub), [2, 1, 9])
    for subset in ([2, 3], [2, -1], [2, 10]):
        with pytest.raises(ValueError, match="unobserved alternatives"):
            restrict_ranking(r, subset)
    assert np.array_equal(restrict_ranking(r, {9, 2}), restrict_ranking(r, [2, 9]))
    with pytest.raises(ValueError, match="subset must hold integers"):
        restrict_ranking(r, [2.5, 9])  # not truncated to {2, 9}


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_restriction_commutes(data):
    m = data.draw(st.integers(3, 9))
    order = data.draw(st.permutations(list(range(m))))
    r = rank_matrix([order])[0]
    a = data.draw(st.sets(st.integers(0, m - 1), min_size=2, max_size=m))
    b = data.draw(st.sets(st.sampled_from(sorted(a)), min_size=1, max_size=len(a)))
    lhs = restrict_ranking(restrict_ranking(r, sorted(a)), sorted(b))
    rhs = restrict_ranking(r, sorted(b))
    assert np.array_equal(lhs, rhs)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_restriction_preserves_relative_order(data):
    m = data.draw(st.integers(3, 8))
    order = data.draw(st.permutations(list(range(m))))
    r = rank_matrix([order])[0]
    subset = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=2, max_size=m)))
    sub = restrict_ranking(r, subset)
    assert np.array_equal(np.flatnonzero(sub >= 0), subset)
    for a, b in itertools.combinations(subset, 2):
        assert (r[a] < r[b]) == (sub[a] < sub[b])


def test_sample_rankings_substreams_and_partial():
    cfg = ModelConfig(n_agents=6, n_alternatives=40, dim=1, box=1.0, seed=21)
    pop = sample_population(cfg)
    full = sample_rankings(pop, seed=21)
    assert full.shape == (6, 40) and full.dtype == np.int32
    assert np.array_equal(np.sort(full, axis=1), np.tile(np.arange(40), (6, 1)))
    # growing the agent count never changes existing agents' rankings
    bigger = Population(
        agents=np.vstack([pop.agents, [[0.5]]]), alternatives=pop.alternatives
    )
    again = sample_rankings(bigger, seed=21)
    assert np.array_equal(again[:6], full)
    partial = sample_rankings(pop, seed=21, c_obs=4.0)
    assert partial.dtype == np.int32
    assert np.all((partial >= 0).sum(axis=1) == 10)
    # partial rankings are restrictions of the full ones
    for row_full, row_part in zip(full, partial):
        assert np.array_equal(restrict_ranking(row_full, np.flatnonzero(row_part >= 0)), row_part)
    with pytest.raises(ValueError):
        sample_rankings(pop, seed=21, c_obs=0.5)


def _distances(population):
    return np.linalg.norm(
        population.agents[:, None, :] - population.alternatives[None, :, :], axis=2
    )


def _stable_gumbel_orders(dists, u):
    """Reference Gumbel-max orders: a stable argsort of minus the perceived
    utility, ties broken by ascending index."""
    perceived = -dists - np.log(-np.log(u))
    return np.argsort(-perceived, axis=-1, kind="stable")


def _per_agent_reference(population, seed, c_obs=1.0):
    """Reference sampler: agent i's Gumbel order from its own substream
    (seed, RANKINGS, i), restricted to the subset drawn from (seed,
    OBSERVATION, i), written as 0-based positions with -1 unobserved."""
    n, m = population.n_agents, population.n_alternatives
    n_obs = int(m // c_obs)
    dists = _distances(population)
    out = np.full((n, m), -1, dtype=np.int64)
    for i in range(n):
        order = _stable_gumbel_orders(dists[i], rng.substream(seed, rng.RANKINGS, i).random(m))
        if n_obs < m:
            subset = rng.substream(seed, rng.OBSERVATION, i).choice(m, size=n_obs, replace=False)
            keep = np.zeros(m, dtype=bool)
            keep[subset] = True
            order = order[keep[order]]
        out[i, order] = np.arange(order.size)
    return out


def test_positions_matrix_matches_sample_rankings(monkeypatch):
    cfg = ModelConfig(n_agents=25, n_alternatives=30, dim=2, box=1.0, seed=8)
    pop = sample_population(cfg)
    expect = _per_agent_reference(pop, seed=8)
    assert np.array_equal(sample_rankings(pop, seed=8), expect)
    monkeypatch.setattr("plknn.rankings._BLOCK", 70)  # 2 agents per block
    got = positions_matrix(pop, seed=8)
    assert got.dtype == np.int32 and np.array_equal(expect, got)
    batched = positions_matrix(pop, seed=8, stream="batched")
    assert batched.shape == expect.shape and batched.dtype == np.int32
    assert np.array_equal(np.sort(batched, axis=1), np.tile(np.arange(30), (25, 1)))


def test_sample_rankings_match_reference_across_block_boundaries(monkeypatch):
    # 3000 agents per block of 21003 entries: two boundaries, then a ragged
    # last block of 2200 agents
    monkeypatch.setattr("plknn.rankings._BLOCK", 3000 * 7 + 3)
    cfg = ModelConfig(n_agents=8200, n_alternatives=7, dim=1, box=1.0, seed=4)
    pop = sample_population(cfg)
    for c_obs in (1.0, 1.5):
        expect = _per_agent_reference(pop, 4, c_obs)
        assert np.array_equal(sample_rankings(pop, seed=4, c_obs=c_obs), expect)


def test_batched_positions_match_reference_across_block_boundaries(monkeypatch):
    # one substream for all agents, consumed block after block (3000 agents
    # each, the last one 2200), is the same stream as one draw for the whole
    # population
    monkeypatch.setattr("plknn.rankings._BLOCK", 3000 * 40 + 39)
    cfg = ModelConfig(n_agents=8200, n_alternatives=40, dim=1, box=1.0, seed=5)
    pop = sample_population(cfg)
    u = rng.substream(5, rng.RANKINGS).random((8200, 40))
    order = _stable_gumbel_orders(_distances(pop), u)
    expect = np.empty_like(order)
    np.put_along_axis(expect, order, np.arange(40)[None, :], axis=1)
    assert np.array_equal(positions_matrix(pop, seed=5, stream="batched"), expect)


@pytest.mark.parametrize("dim", [1, 2, 4, 9])
def test_positions_matrix_distances_equal_linalg_norm(monkeypatch, dim):
    # the sort keys start from the agent-alternative distances, computed in
    # place block by block; they equal np.linalg.norm's bit for bit (at dim 9
    # numpy's pairwise summation applies to both)
    seen = []

    def record(dists, uniforms):
        seen.append(dists.copy())
        return _gumbel_keys(dists, uniforms)

    monkeypatch.setattr("plknn.rankings._gumbel_keys", record)
    monkeypatch.setattr("plknn.rankings._BLOCK", 11 * 13 + 5)  # 11 agents per block
    pop = sample_population(ModelConfig(n_agents=50, n_alternatives=13, dim=dim, box=3.0, seed=dim))
    for stream in ("per_agent", "batched"):
        seen.clear()
        positions_matrix(pop, seed=2, stream=stream)
        assert len(seen) == 5
        assert np.array_equal(np.concatenate(seen), _distances(pop))


_TIE_PRONE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf, math.nan]),
    st.floats(-2.0, 2.0),
)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_row_orders_equal_a_stable_argsort(data):
    # keys with many ties, signed zeros, infinities and NaN: every row comes
    # out as the stable sort orders it, ties by ascending index
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 80))
    values = data.draw(st.lists(_TIE_PRONE, min_size=rows * cols, max_size=rows * cols))
    keys = np.array(values, dtype=float).reshape(rows, cols)
    assert np.array_equal(_row_orders(keys.copy()), np.argsort(keys, axis=1, kind="stable"))


def test_row_orders_break_ties_by_index():
    # numpy's default sort is not stable on long runs of equal keys
    gen = np.random.default_rng(0)
    keys = gen.integers(0, 4, size=(50, 300)).astype(float)
    keys[::2, ::3] = np.nan
    keys[1::4] = -0.0
    keys[1::4, ::2] = 0.0
    assert np.array_equal(_row_orders(keys), np.argsort(keys, axis=1, kind="stable"))


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_sample_rankings_match_reference(data):
    n = data.draw(st.integers(1, 12))
    m = data.draw(st.integers(1, 40))
    c_obs = data.draw(st.floats(1.0, float(m)))
    seed = data.draw(st.integers(0, 2**20))
    dim = data.draw(st.integers(1, 3))
    pop = sample_population(ModelConfig(n_agents=n, n_alternatives=m, dim=dim, box=1.0, seed=seed))
    expect = _per_agent_reference(pop, seed, c_obs)
    assert np.array_equal(sample_rankings(pop, seed, c_obs=c_obs), expect)


def test_order_reads_a_positions_row():
    matrix = rank_matrix([[4, 1, 7], [0, 2]], m=8)
    assert matrix.dtype == np.int32
    assert np.array_equal(matrix[0], [-1, 1, -1, -1, 0, -1, -1, 2])
    assert _order(matrix[0]).tolist() == [4, 1, 7]
    assert _order(matrix[1]).tolist() == [0, 2]
    for bad in ([0, 0, 1], [1, 2, -1], [-1, -1], [[0, 1], [1, 0]]):
        with pytest.raises(ValueError):
            _order(bad)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_order_inverts_rank_matrix(data):
    # partial orders of mixed length, some ids never observed
    m = data.draw(st.integers(1, 20))
    orders = data.draw(
        st.lists(
            st.permutations(range(m)).flatmap(lambda p: st.integers(1, m).map(lambda s: p[:s])),
            min_size=1,
            max_size=6,
        )
    )
    matrix = rank_matrix(orders, m=m)
    for i, order in enumerate(orders):
        assert _order(matrix[i]).tolist() == list(order)


def test_rankings_csv_roundtrip(tmp_path):
    cfg = ModelConfig(n_agents=5, n_alternatives=12, dim=1, box=1.0, seed=2)
    pop = sample_population(cfg)
    matrix = sample_rankings(pop, seed=2, c_obs=2.0)
    path = tmp_path / "rankings.csv"
    write_rankings_csv(matrix, path, seed=2)
    loaded, meta = read_rankings_csv(path)
    assert meta == {"n": 5, "m": 12, "seed": 2}
    assert loaded.dtype == np.int32 and np.array_equal(loaded, matrix)
    # one row per agent: agent id, alternative ids best-first
    lines = path.read_text().splitlines()
    assert lines[1] == "0," + ",".join(map(str, _order(matrix[0])))
    # every row and the seed are checked before the file is opened: a refused
    # write leaves an existing file as it was and creates no new one
    written = path.read_bytes()
    bad = matrix.copy()
    bad[3] = -1  # agent 3 observes nothing
    for args, message in [((bad, 2), "observed positions"), ((matrix, True), "seed must be")]:
        for target in (path, tmp_path / "new.csv"):
            with pytest.raises(ValueError, match=message):
                write_rankings_csv(args[0], target, seed=args[1])
        assert path.read_bytes() == written and not (tmp_path / "new.csv").exists()


@pytest.mark.parametrize(
    "rows, problem",  # the file's rows, header first
    [
        (["n=2,m=3,seed=0", "0,0,1,7", "1,2,1,0"], "alternative id"),
        (["n=2,m=3,seed=0", "0,0,1,2", "2,2,1,0"], "agent id 2"),
        (["n=2,m=3,seed=0", "0,0,1,2", "-1,2,1,0"], "agent id -1"),
        (["n=2,m=3,seed=0", "0,0,1,2", "0,0,2,1"], "duplicate row for agent 0"),
        ([], "file is empty"),
        (["n=2,m=3", "0,0,1,2", "1,2,1,0"], "is not n=<int>,m=<int>,seed=<int>"),
        (["garbage", "0,0,1,2", "1,2,1,0"], "header 'garbage' is not"),
        (["n=2,m=3,seed=0,k=1", "0,0,1,2", "1,2,1,0"], "is not n=<int>"),
        (["n=2,m=3,seed=a=b", "0,0,1,2", "1,2,1,0"], "is not n=<int>"),
        (["n=2,m=three,seed=0", "0,0,1,2", "1,2,1,0"], "non-integer value"),
        (["n=-2,m=3,seed=0"], "negative size"),
    ],
)
def test_rankings_csv_rejects_malformed_rows(tmp_path, rows, problem):
    path = tmp_path / "rankings.csv"
    path.write_text("".join(row + "\n" for row in rows))
    with pytest.raises(ValueError, match=problem):
        read_rankings_csv(path)


def test_empty_alternative_list_is_an_error():
    with pytest.raises(ValueError):
        sample_ranking(np.array([0.1]), np.empty((0, 1)), rng.substream(0, 0))
    samplers = (
        lambda pop: positions_matrix(pop, 0, stream="per_agent"),
        lambda pop: positions_matrix(pop, 0, stream="batched"),
        lambda pop: sample_rankings(pop, 0),
        lambda pop: sample_rankings(pop, 0, c_obs=2.0),
    )
    no_alternatives = Population(agents=np.zeros((3, 1)), alternatives=np.zeros((0, 1)))
    no_agents = Population(agents=np.zeros((0, 1)), alternatives=np.zeros((4, 1)))
    for sample in samplers:
        with pytest.raises(ValueError, match="alternative list must be nonempty"):
            sample(no_alternatives)
        got = sample(no_agents)
        assert got.shape == (0, 4) and got.dtype == np.int32

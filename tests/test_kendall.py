import contextlib
import hashlib
import itertools
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plknn import (
    ModelConfig,
    agent_distance,
    discordance_matrix,
    enkt_feature,
    feature_matrix,
    kendall_tau,
    kendall_tau_naive,
    kt_knn,
    make_pairing,
    nkt,
    rank_matrix,
    restrict_ranking,
    sample_population,
    sample_rankings,
)
import plknn.kendall
from plknn import rng
from plknn.kendall import _discordances, agent_distances_from
from plknn.theory import expected_agent_gap_curve


def _perm_row(perm):
    return rank_matrix([list(perm)])[0]


def test_kendall_tau_examples():
    r1 = _perm_row([0, 1, 2])
    assert kendall_tau(r1, r1) == 0
    assert kendall_tau(r1, _perm_row([2, 1, 0])) == 3
    assert kendall_tau(r1, _perm_row([1, 0, 2])) == 1
    full = _perm_row(range(8))
    assert kendall_tau(full, _perm_row(range(7, -1, -1))) == 8 * 7 // 2


def test_kendall_tau_partial_intersection():
    r1, r2, r3 = rank_matrix([[3, 5, 9, 1], [9, 5, 7], [7, 9]], m=10)
    # shared alternatives {5, 9}: r1 has 5 above 9, r2 disagrees
    assert kendall_tau(r1, r2) == 1
    with pytest.raises(ValueError):
        kendall_tau(r1, r3)


def test_nkt_examples():
    r1 = _perm_row(range(6))
    assert nkt(r1, r1) == 0.0
    assert nkt(r1, _perm_row(range(5, -1, -1))) == 1.0


def test_kt_metric_axioms_exhaustive_small():
    # identity, symmetry and the triangle inequality over every ranking pair
    for s in (2, 3, 4, 5):
        perms = list(itertools.permutations(range(s)))
        pos = np.array(perms)
        inv = np.empty_like(pos)
        for i, p in enumerate(perms):
            inv[i, list(p)] = np.arange(s)
        pairs = list(itertools.combinations(range(s), 2))
        signs = np.sign(inv[:, [a for a, _ in pairs]] - inv[:, [b for _, b in pairs]])
        agree = signs @ signs.T
        d = (len(pairs) - agree) / 2
        assert np.all(d == d.T)
        assert np.all(np.diag(d) == 0)
        off = d + np.eye(len(perms))
        assert np.all(off[~np.eye(len(perms), dtype=bool)] > 0)
        assert np.all(d[:, :, None] <= d[:, None, :] + d[None, :, :].transpose(0, 2, 1) + 1e-9)
        # spot-check the matrix against the public function
        gen = np.random.default_rng(s)
        for _ in range(10):
            i, j = gen.integers(0, len(perms), 2)
            assert kendall_tau(_perm_row(perms[i]), _perm_row(perms[j])) == d[i, j]


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_fast_matches_naive(data):
    m = data.draw(st.integers(2, 40))
    base = list(range(m))
    r1 = _perm_row(data.draw(st.permutations(base)))
    r2 = _perm_row(data.draw(st.permutations(base)))
    assert kendall_tau(r1, r2) == kendall_tau_naive(r1, r2)


def test_fast_matches_naive_on_partial():
    gen = np.random.default_rng(0)
    for _ in range(25):
        m = 30
        o1 = gen.permutation(m)[: gen.integers(5, m)]
        o2 = gen.permutation(m)[: gen.integers(5, m)]
        r1, r2 = rank_matrix([o1, o2], m=m)
        if np.count_nonzero((r1 >= 0) & (r2 >= 0)) < 2:
            continue
        assert kendall_tau(r1, r2) == kendall_tau_naive(r1, r2)


@st.composite
def _permutation_sets(draw, min_n=1):
    m = draw(st.integers(2, 30))
    n = draw(st.integers(min_n, 6))
    return [draw(st.permutations(range(m))) for _ in range(n)]


@st.composite
def _partial_pairs(draw):
    """Two rankings over their own subsets of range(m), sharing s >= 2
    alternatives; s = 2 and s = 3 are drawn as often as larger overlaps."""
    m = draw(st.integers(2, 30))
    alts = draw(st.permutations(range(m)))
    s = draw(st.sampled_from(sorted({2, min(3, m), m})))
    shared, rest = alts[:s], alts[s:]
    cut = draw(st.integers(0, len(rest)))
    o1 = draw(st.permutations(shared + rest[:cut]))
    o2 = draw(st.permutations(shared + rest[cut:]))
    return tuple(rank_matrix([o1, o2], m=m))


@settings(deadline=None, max_examples=60)
@given(_permutation_sets())
def test_discordance_matrix_matches_naive(orders):
    rankings = rank_matrix(orders)
    d = discordance_matrix(rankings)
    n = len(rankings)
    assert d.shape == (n, n) and d.dtype == np.int64
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)
    for i, j in itertools.combinations(range(n), 2):
        assert d[i, j] == kendall_tau_naive(rankings[i], rankings[j])


@settings(deadline=None, max_examples=40)
@given(_permutation_sets(), st.integers(2, 3))
def test_discordance_matrix_threads_match_serial(orders, extra):
    # rows split across threads give the serial integers, also with more
    # threads than rows
    matrix = rank_matrix(orders)
    serial = discordance_matrix(matrix)
    for n_jobs in (2, 3, matrix.shape[0] + extra):
        assert np.array_equal(discordance_matrix(matrix, n_jobs=n_jobs), serial)


@settings(deadline=None, max_examples=80)
@given(_partial_pairs())
def test_fast_matches_naive_on_partial_property(pair):
    r1, r2 = pair
    assert kendall_tau(r1, r2) == kendall_tau_naive(r1, r2)


@settings(deadline=None, max_examples=40)
@given(_permutation_sets(min_n=3))
def test_discordance_matrix_triangle_inequality(orders):
    rankings = rank_matrix(orders)
    d = discordance_matrix(rankings)
    naive = np.array([[kendall_tau_naive(a, b) for b in rankings] for a in rankings])
    assert np.array_equal(d, naive)
    # d[i, j] <= d[i, k] + d[k, j] for every triple
    assert np.all(d[:, :, None] <= d[:, None, :] + d.T[None, :, :])


@settings(deadline=None, max_examples=40)
@given(_permutation_sets(), st.data())
def test_discordance_matrix_right_invariance(orders, data):
    # relabeling the alternatives (permuting columns) keeps every distance
    # (Diaconis & Graham 1977)
    matrix = rank_matrix(orders)
    perm = data.draw(st.permutations(range(matrix.shape[1])))
    relabeled = matrix[:, perm]
    d = discordance_matrix(relabeled)
    assert np.array_equal(d, discordance_matrix(matrix))
    for i, j in itertools.combinations(range(len(relabeled)), 2):
        assert d[i, j] == kendall_tau_naive(relabeled[i], relabeled[j])


@settings(deadline=None, max_examples=40)
@given(_permutation_sets())
def test_discordance_matrix_reversal_identity(orders):
    # d(s, rev p) = C(m, 2) - d(s, p)
    matrix = rank_matrix(orders)
    m = matrix.shape[1]
    both = np.vstack([matrix, m - 1 - matrix])
    d = discordance_matrix(both)
    n = matrix.shape[0]
    assert np.array_equal(d[:n, n:], m * (m - 1) // 2 - d[:n, :n])
    assert d[0, n] == kendall_tau_naive(both[0], both[n]) == m * (m - 1) // 2


@st.composite
def _partial_matrices(draw):
    """Positions matrices whose rows observe random subsets of at least 2 of
    the first m alternatives; up to 5 trailing columns nobody observes."""
    n = draw(st.integers(3, 10))
    m = draw(st.integers(2, 30))
    sizes = draw(st.lists(st.integers(2, m), min_size=n, max_size=n))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rank_matrix([gen.permutation(m)[:s] for s in sizes], m=m + draw(st.integers(0, 5)))


def _partial_features_per_pair(matrix, pairing_seed):
    """Reference: the per-pair enkt_feature loop, pairing consecutive shared
    alternatives in one seed-derived shuffle of the ids up to the highest one
    observed."""
    width = 1 + int(np.flatnonzero((matrix >= 0).any(axis=0))[-1])
    perm = rng.substream(pairing_seed, rng.PAIRING).permutation(width)
    shuffle = np.empty(width, dtype=np.int64)
    shuffle[perm] = np.arange(width)
    n = len(matrix)
    values = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        shared = np.flatnonzero((matrix[i] >= 0) & (matrix[j] >= 0))
        ordered = shared[np.argsort(shuffle[shared], kind="stable")]
        pairing = ordered[: 2 * (ordered.size // 2)].reshape(-1, 2)
        values[i, j] = values[j, i] = enkt_feature(matrix[i], matrix[j], pairing)
    return values


@settings(deadline=None, max_examples=80)
@given(_partial_matrices(), st.integers(0, 1000))
def test_partial_feature_matrix_equals_per_pair_loop(matrix, pairing_seed):
    seen = matrix >= 0
    assume(not np.all(seen == seen[0]))
    try:
        expected = _partial_features_per_pair(matrix, pairing_seed)
    except ValueError:  # some pair shares fewer than 2 alternatives
        with pytest.raises(ValueError, match="share fewer than 2"):
            feature_matrix(matrix, pairing_seed)
        return
    got = feature_matrix(matrix, pairing_seed)
    assert np.array_equal(got.values, expected) and got.n_pairs == 0


@st.composite
def _pair_sharing_last_column(draw):
    """(matrix, pairing_seed) where two agents share exactly 2 or 3
    alternatives, one of them the id the shuffle puts last; the others
    observe all m alternatives, so the shuffle spans all m ids."""
    n = draw(st.integers(3, 8))
    m = draw(st.integers(4, 20))
    pairing_seed = draw(st.integers(0, 1000))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    last = rng.substream(pairing_seed, rng.PAIRING).permutation(m)[-1]
    ids = np.concatenate([[last], gen.permutation(np.delete(np.arange(m), last))])
    size = draw(st.integers(2, 3))
    split = draw(st.integers(size, m))
    a = gen.permutation(ids[:split])  # ids[:size] are the shared alternatives
    b = gen.permutation(np.concatenate([ids[:size], ids[split:]]))
    orders = [gen.permutation(m) for _ in range(n - 2)] + [a, b]
    return rank_matrix([orders[t] for t in gen.permutation(n)], m=m), pairing_seed


@settings(deadline=None, max_examples=80)
@given(_pair_sharing_last_column())
def test_partial_feature_matrix_odd_drop_at_last_column(case):
    matrix, pairing_seed = case
    got = feature_matrix(matrix, pairing_seed)
    assert np.array_equal(got.values, _partial_features_per_pair(matrix, pairing_seed))


# sha256 of feature_matrix(...).values.tobytes() at the knn-partial benchmark
# size (n=120, m=500, box 5), keyed by (seed, c_obs)
PARTIAL_FEATURE_DIGESTS = {
    (0, 2.0): "47b6df5592cdad8ac3b831067274d2bf852a4d615f167d1ad408970864efa67a",
    (1, 2.0): "f1df0c0512bdb0f6211937e0485a60361973acdbea4f517bf12e6cda38096093",
    (0, 1.25): "bf2d5550fc32a1268bd31a6896416c319b4e1555bd7fce16af9ccd4c91d140d1",
}


@pytest.mark.parametrize("seed, c_obs", list(PARTIAL_FEATURE_DIGESTS))
def test_partial_feature_bytes_pinned(seed, c_obs):
    cfg = ModelConfig(n_agents=120, n_alternatives=500, dim=1, box=5.0, seed=seed)
    rankings = sample_rankings(sample_population(cfg), seed=seed, c_obs=c_obs)
    values = feature_matrix(rankings, pairing_seed=seed).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == PARTIAL_FEATURE_DIGESTS[seed, c_obs]


@settings(deadline=None, max_examples=80)
@given(_partial_matrices(), st.data())
def test_kt_knn_matches_naive_neighbor_order(matrix, data):
    n = matrix.shape[0]
    q = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(1, n - 1))
    try:
        d = {j: kendall_tau_naive(matrix[q], matrix[j]) for j in range(n) if j != q}
    except ValueError:  # the query shares fewer than 2 alternatives with someone
        with pytest.raises(ValueError, match="share fewer than 2"):
            kt_knn(matrix, q, k)
        return
    assert kt_knn(matrix, q, k).members == tuple(sorted(d, key=lambda j: (d[j], j))[:k])


@contextlib.contextmanager
def _kernel_as(kernel):
    """Count with ``kernel`` in place of scipy's compiled one (None: the
    public statistic)."""
    saved = plknn.kendall._kendall_dis
    plknn.kendall._kendall_dis = kernel
    try:
        yield
    finally:
        plknn.kendall._kendall_dis = saved


@settings(deadline=None, max_examples=100)
@given(_partial_matrices(), st.data())
def test_discordances_match_naive_on_partial_rows(matrix, data):
    q = data.draw(st.integers(0, matrix.shape[0] - 1))
    # a block of a few entries spreads the rows over several row blocks
    block = data.draw(st.sampled_from([None, 1, 2 * matrix.shape[1], 5 * matrix.shape[1]]))
    try:
        expect = [kendall_tau_naive(matrix[q], r) for r in matrix]
    except ValueError:  # the row shares fewer than 2 alternatives with one of them
        expect = None
    compiled = plknn.kendall._resolve_kernel()

    def guarded(x, y):
        # the compiled kernel never returns on a 0, so fail instead of calling it
        assert y.min() >= 1, "an unobserved entry reached the kernel"
        return compiled(x, y)

    for kernel in (None, guarded if compiled is not None else None):  # None: public statistic
        with _kernel_as(kernel), pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr("plknn.rankings._BLOCK", block)
            if expect is None:
                with pytest.raises(ValueError, match="share fewer than 2"):
                    _discordances(matrix[q], matrix)
            else:
                got = _discordances(matrix[q], matrix)
                assert got.dtype == np.int64 and got.tolist() == expect


def _naive_rows(matrix, q):
    return [kendall_tau_naive(matrix[q], r) for r in matrix]


@pytest.mark.parametrize("smallest", [12, 6])  # 12: every row full
def test_discordances_across_row_blocks(monkeypatch, smallest):
    gen = np.random.default_rng(smallest)
    orders = [gen.permutation(12)[: gen.integers(smallest, 13)] for _ in range(9)]
    matrix = rank_matrix(orders, m=12)
    monkeypatch.setattr("plknn.rankings._BLOCK", 25)  # a few rows per block, the last ragged
    for q in range(len(matrix)):
        assert _discordances(matrix[q], matrix).tolist() == _naive_rows(matrix, q)


def test_discordances_mixed_full_and_partial_blocks(monkeypatch):
    # the query observes 0..5; with 2 rows per block, blocks 0 and 1 hold
    # rows that observe all of those (no 0 after the shift), block 2 mixes
    # one such row with one that misses some, and both rows of block 3 miss some
    gen = np.random.default_rng(6)
    full = [gen.permutation(8) for _ in range(4)]
    partial = [np.array([5, 1, 3, 7]), np.array([2, 6, 0, 4, 1]), np.array([3, 0, 5])]
    rows = [[4, 0, 2, 1, 5, 3], full[0], full[1], full[2], partial[0], full[3]]
    matrix = rank_matrix(rows + partial[1:], m=8)
    monkeypatch.setattr("plknn.rankings._BLOCK", 12)
    assert _discordances(matrix[0], matrix).tolist() == _naive_rows(matrix, 0)


def test_discordances_too_few_shared_in_a_later_block(monkeypatch):
    gen = np.random.default_rng(7)
    rows = [gen.permutation(10) for _ in range(6)] + [[9, 4, 7], [3]]
    matrix = rank_matrix(rows, m=10)
    monkeypatch.setattr("plknn.rankings._BLOCK", 20)  # 2 rows per block: row 7 is in the last
    assert _discordances(matrix[0], matrix[:7]).tolist() == _naive_rows(matrix[:7], 0)
    with pytest.raises(ValueError, match="share fewer than 2"):
        _discordances(matrix[0], matrix)
    # a row that observes nothing shares nothing with any row
    with pytest.raises(ValueError, match="share fewer than 2"):
        _discordances(np.full(10, -1), matrix)


def test_discordance_matrix_rejects_unobserved_without_hanging():
    # the compiled kernel loops forever on a 0 after the +1 shift, so the
    # call runs in a thread with a deadline
    matrix = np.array([[0, 1, 2, 3], [3, 2, -1, 0], [1, 0, 3, 2]])
    outcome = []

    def call():
        try:
            discordance_matrix(matrix)
        except ValueError as exc:
            outcome.append(exc)

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "discordance_matrix hung on an unobserved entry"
    assert len(outcome) == 1


def test_discordance_matrix_threads_under_fast_switching():
    # more threads than cores, switching as often as the interpreter allows:
    # a lost or misplaced write shows as a cell that differs from serial
    gen = np.random.default_rng(3)
    matrix = np.array([gen.permutation(200) for _ in range(60)])
    serial = discordance_matrix(matrix)
    outcome = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(
            target=lambda: outcome.append(discordance_matrix(matrix, n_jobs=8)), daemon=True
        )
        worker.start()
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive(), "threaded discordance_matrix did not finish"
    assert len(outcome) == 1 and np.array_equal(outcome[0], serial)


@settings(deadline=None, max_examples=40)
@given(_permutation_sets(), _partial_pairs())
def test_public_fallback_gives_identical_counts(orders, pair):
    matrix = rank_matrix(orders)
    fast = discordance_matrix(matrix), kendall_tau(*pair)
    with _kernel_as(None):
        slow = discordance_matrix(matrix), kendall_tau(*pair)
    assert np.array_equal(fast[0], slow[0]) and fast[1] == slow[1]


def test_importing_plknn_loads_no_scipy():
    # scipy is imported by the first Kendall count, not by `import plknn`
    code = (
        "import sys, plknn\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "plknn.kendall_tau([0, 1, 2], [2, 1, 0])\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    src = str(Path(plknn.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "True"]


def test_nkt_random_rankings_concentrate_at_half():
    gen = np.random.default_rng(7)
    trials, s = 10_000, 50
    p1 = np.argsort(gen.random((trials, s)), axis=1)
    p2 = np.argsort(gen.random((trials, s)), axis=1)
    pairs = list(itertools.combinations(range(s), 2))
    a = [i for i, _ in pairs]
    b = [j for _, j in pairs]
    disc = np.mean(
        np.sign(p1[:, a] - p1[:, b]) * np.sign(p2[:, a] - p2[:, b]) < 0, axis=1
    )
    assert abs(disc.mean() - 0.5) < 0.01


def test_enkt_feature_examples():
    r1 = _perm_row(range(8))
    pairing = make_pairing(np.arange(8), pairing_seed=5)
    assert enkt_feature(r1, r1, pairing) == 0.0
    assert enkt_feature(r1, _perm_row(range(7, -1, -1)), pairing) == 1.0
    values = enkt_feature(r1, _perm_row([1, 0, 2, 3, 5, 4, 7, 6]), pairing)
    assert 0.0 <= values <= 1.0
    assert values * pairing.shape[0] == pytest.approx(round(values * pairing.shape[0]))


def test_enkt_feature_validation():
    r1 = _perm_row(range(6))
    r2 = _perm_row([5, 4, 3, 2, 1, 0])
    with pytest.raises(ValueError):
        enkt_feature(r1, r2, [[0, 1], [1, 2]])  # overlapping
    partial = rank_matrix([[0, 1, 2]], m=6)[0]
    # unobserved, or not an alternative of the rows: -1 must not wrap to the last column
    for other, pairing in ((r2, [[0, 9]]), (r2, [[-1, 0]]), (r2, [[0, 6]]), (partial, [[0, 3]])):
        with pytest.raises(ValueError, match="not observed by both"):
            enkt_feature(r1, other, pairing)
    with pytest.raises(ValueError):
        enkt_feature(r1, r2, np.empty((0, 2), dtype=int))


_METRICS = {
    "kendall_tau": kendall_tau,
    "kendall_tau_naive": kendall_tau_naive,
    "nkt": nkt,
    "enkt_feature": lambda r1, r2: enkt_feature(r1, r2, [[0, 1]]),
}
_BAD_ROWS = {
    "2-D": [[0, 1, 2, 3], [3, 2, 1, 0]],
    "repeated position": [0, 0, 1, 2],
    "gap": [0, 1, 3, -1],
    "unequal length": [0, 1, 2],
}


@pytest.mark.parametrize("bad", list(_BAD_ROWS))
@pytest.mark.parametrize("metric", list(_METRICS))
def test_metrics_reject_malformed_rows(metric, bad):
    good = [3, 1, 0, 2]
    assert _METRICS[metric](good, good) == 0
    for pair in ((_BAD_ROWS[bad], good), (good, _BAD_ROWS[bad])):
        with pytest.raises(ValueError):
            _METRICS[metric](*pair)
    if bad != "unequal length":  # restrict_ranking reads one row
        with pytest.raises(ValueError):
            restrict_ranking(_BAD_ROWS[bad], [0, 1])


def test_metrics_reject_a_bool_row():
    # a bool row would read as positions 1 and 0
    with pytest.raises(ValueError, match="must hold integers"):
        kendall_tau([True, False], [0, 1])


def test_metrics_reject_a_float_row():
    with pytest.raises(ValueError, match="must hold integers"):
        kendall_tau([0.0, 1.0], [0, 1])


def test_pairing_disjoint_and_drops_odd():
    pairing = make_pairing(np.arange(9), pairing_seed=3)
    assert pairing.shape == (4, 2)
    assert np.unique(pairing).size == 8
    assert np.array_equal(make_pairing(np.arange(9), 3), pairing)


def test_feature_matrix_symmetry_and_range():
    cfg = ModelConfig(n_agents=8, n_alternatives=60, dim=1, box=1.0, seed=31)
    pop = sample_population(cfg)
    rankings = sample_rankings(pop, seed=31)
    feats = feature_matrix(rankings, pairing_seed=31)
    vals = feats.values
    assert np.array_equal(vals, vals.T)
    assert np.all((vals >= 0) & (vals <= 1))
    assert np.all(np.diag(vals) == 0)
    # entries are multiples of 1/n_pairs
    scaled = vals * feats.n_pairs
    assert np.allclose(scaled, np.round(scaled))
    # identical rankings give all-zero features
    same = rankings[[0, 0, 0]]
    assert np.all(feature_matrix(same, pairing_seed=1).values == 0)


def test_feature_matrix_matches_enkt_feature():
    cfg = ModelConfig(n_agents=5, n_alternatives=20, dim=1, box=1.0, seed=13)
    pop = sample_population(cfg)
    rankings = sample_rankings(pop, seed=13)
    feats = feature_matrix(rankings, pairing_seed=99)
    pairing = make_pairing(np.arange(20), pairing_seed=99)
    for i in range(5):
        for j in range(i + 1, 5):
            expect = enkt_feature(rankings[i], rankings[j], pairing)
            assert feats.values[i, j] == pytest.approx(expect)


def test_feature_matrix_partial_observation_paths():
    cfg = ModelConfig(n_agents=5, n_alternatives=40, dim=1, box=1.0, seed=17)
    pop = sample_population(cfg)
    rankings = sample_rankings(pop, seed=17, c_obs=1.6)
    feats = feature_matrix(rankings, pairing_seed=7)
    assert np.array_equal(feats.values, feats.values.T)
    assert np.all((feats.values >= 0) & (feats.values <= 1))
    # tiny intersections are an error
    # one shared alternative forms no pair (once NaN features and a warning)
    with pytest.raises(ValueError, match="fewer than 2"):
        feature_matrix(rank_matrix([[0]] * 4), pairing_seed=1)
    with pytest.raises(ValueError, match="agents 0 and 1 share fewer than 2"):
        feature_matrix(rank_matrix([[0, 1], [2, 3], [0, 1, 2, 3]]), pairing_seed=1)


def test_agent_distance_properties():
    cfg = ModelConfig(n_agents=7, n_alternatives=50, dim=1, box=1.0, seed=23)
    rankings = sample_rankings(sample_population(cfg), seed=23)
    feats = feature_matrix(rankings, pairing_seed=23)
    d01 = agent_distance(feats, 0, 1)
    assert d01 >= 0
    assert d01 == pytest.approx(agent_distance(feats, 1, 0))
    with pytest.raises(ValueError):
        agent_distance(feats, 2, 2)
    # identical feature rows give distance zero
    same = rankings[[0, 0, 1, 2]]
    feats_same = feature_matrix(same, pairing_seed=23)
    assert agent_distance(feats_same, 0, 1) == pytest.approx(0.0)
    # pseudometric triangle inequality over all triples
    n = feats.n_agents
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                dist[i, j] = agent_distance(feats, i, j)
    # the coordinate masks differ per pair, so allow the boundary-term slack
    # of the two excluded coordinates
    slack = 2.0 / (n - 2)
    for i, j, k in itertools.permutations(range(n), 3):
        assert dist[i, j] <= dist[i, k] + dist[k, j] + slack


def test_agent_distances_from_matches_pairwise():
    cfg = ModelConfig(n_agents=9, n_alternatives=30, dim=1, box=1.0, seed=29)
    rankings = sample_rankings(sample_population(cfg), seed=29)
    feats = feature_matrix(rankings, pairing_seed=29)
    row = agent_distances_from(feats, 4)
    assert math.isnan(row[4])
    for j in range(9):
        if j != 4:
            assert row[j] == pytest.approx(agent_distance(feats, 4, j))


def test_relabeling_permutes_features_consistently():
    cfg = ModelConfig(n_agents=6, n_alternatives=40, dim=1, box=1.0, seed=37)
    rankings = sample_rankings(sample_population(cfg), seed=37)
    feats = feature_matrix(rankings, pairing_seed=11)
    perm = [3, 0, 5, 1, 4, 2]
    permuted = feature_matrix(rankings[perm], pairing_seed=11)
    assert np.allclose(permuted.values, feats.values[np.ix_(perm, perm)])


def test_expected_distance_envelope_at_small_gap():
    # frozen envelope constants fitted once from the fine gap sweep of the
    # exact expected distance (see agent_bound_check); the expected distance
    # at gap 0.05 must sit between the quadratic and linear envelopes
    eps = 0.05
    interp = expected_agent_gap_curve(eps, x_base=0.35, grid_size=201)
    xk = (np.arange(10_000) + 0.5) / 10_000
    value = float(np.mean(np.abs(interp(xk))))
    assert 0.15 * eps**2 <= value <= 0.05 * eps


def test_feature_matrix_experiment_scale():
    # full experiment scale: n^2 entries stay in bounded memory
    cfg = ModelConfig(n_agents=1200, n_alternatives=6000, dim=1, box=5.0, seed=2)
    pop = sample_population(cfg)
    rankings = sample_rankings(pop, seed=2)
    feats = feature_matrix(rankings, pairing_seed=2)
    assert feats.values.shape == (1200, 1200)
    assert feats.n_pairs == 3000
    assert np.all((feats.values >= 0) & (feats.values <= 1))

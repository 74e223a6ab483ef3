"""Kendall-tau machinery: exact distances, pair-sampled estimators, and the
global feature matrix with its agent distance.

The pairwise metrics (``kendall_tau``, ``kendall_tau_naive``, ``nkt``,
``enkt_feature``) take two positions rows of one length, rows of the matrix
``sample_rankings`` returns, and compare the alternatives both observe.

Every exact distance is an integer discordant-pair count made by one routine,
``_discordances(row, rows)``: it argsorts one positions row once and reads the
other rows in the row blocks of ``rankings._row_blocks``. Per block it
gathers their positions in that order in one intp array, shifted by one, of
at most max(2^16, s) entries for a row observing s alternatives, so memory
stays fixed at any number of rows. A block in which some row leaves one of
those alternatives unobserved (-1, now 0) is compacted to its nonzero
entries; a block without a 0 is not. Each row is then counted with
``_count_inversions``. ``kendall_tau``, ``nkt``, ``agents.kt_knn`` and
``discordance_matrix`` all call it. The count runs scipy's private compiled
merge-sort/Fenwick kernel (``scipy.stats._stats._kendall_dis``; Knight 1966,
JASA 61:436), which takes 1-based values and loops forever on a 0.
Without that symbol the count is recovered from the public
``stats.kendalltau`` statistic, the same integer for strict orders. scipy is
imported by the first count, not with plknn.

Convention note: the per-pair indicator S_k is 1 when the pair is DISCORDANT
between the two rankings (product of rank differences negative). Only this
direction makes the pair-sampled estimator unbiased for the expected
normalized Kendall-tau distance, which is what every downstream bound needs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .latent import _check_number
from .rankings import _id, _integers, _matrix, _order, _row_blocks

_UNRESOLVED = object()
# scipy's compiled kernel once resolved; None selects the public statistic
_kendall_dis = _UNRESOLVED


def _resolve_kernel():
    """scipy's compiled counting kernel, or None when its private symbol is
    missing; the first call imports scipy."""
    global _kendall_dis
    if _kendall_dis is _UNRESOLVED:
        try:
            from scipy.stats._stats import _kendall_dis
        except ImportError:  # private symbol; fall back to the public statistic
            _kendall_dis = None
    return _kendall_dis


def _rows(r1, r2) -> tuple[np.ndarray, np.ndarray]:
    """Two positions rows as arrays, each checked by ``rankings._order`` before
    conversion (so a bool in a list is seen); unequal lengths raise ``ValueError``."""
    _order(r1)
    _order(r2)
    r1, r2 = np.asarray(r1), np.asarray(r2)
    if r1.size != r2.size:
        raise ValueError(f"positions rows differ in length: {r1.size} and {r2.size}")
    return r1, r2


def kendall_tau_naive(r1, r2) -> int:
    """Reference O(s^2) discordant-pair count over the shared alternatives."""
    r1, r2 = _rows(r1, r2)
    shared = (r1 >= 0) & (r2 >= 0)
    if np.count_nonzero(shared) < 2:
        raise ValueError("rankings share fewer than 2 alternatives")
    p1, p2 = r1[shared], r2[shared]
    d1 = np.sign(p1[:, None] - p1[None, :])
    d2 = np.sign(p2[:, None] - p2[None, :])
    return int(np.sum(d1 * d2 < 0) // 2)


def kendall_tau(r1, r2) -> int:
    """Discordant-pair count over the shared alternatives, O(s log s)."""
    r1, r2 = _rows(r1, r2)
    return int(_discordances(r1, r2[None, :])[0])


def nkt(r1, r2) -> float:
    """Normalized Kendall-tau distance: discordant pairs over C(s, 2)."""
    r1, r2 = _rows(r1, r2)
    s = np.count_nonzero((r1 >= 0) & (r2 >= 0))
    return float(kendall_tau(r1, r2) / (s * (s - 1) // 2))


def _discordances(row: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Exact Kendall-tau distance (int64) from one positions row to each row
    of the 2-D ``rows``, counted over the alternatives both observe (-1 marks
    unobserved). Fewer than 2 shared alternatives raise ``ValueError``.

    ``rows`` is read in blocks from ``rankings._row_blocks``: each block's
    positions at ``row``'s s observed alternatives, in ``row``'s order, are
    gathered at once into one intp array of at most max(_BLOCK, s) entries
    and shifted by one in place, so 0 marks an unobserved entry. A block
    without a 0 passes its rows to the kernel as they are. Otherwise the
    nonzero entries are compacted row-major into one flat array, and each
    row's slice of it is counted, so the kernel never sees a 0."""
    order = np.argsort(row)[np.count_nonzero(row < 0) :]  # row's observed alternatives, best first
    s = order.size
    x = np.arange(1, s + 1, dtype=np.intp)
    out = np.empty(len(rows), dtype=np.int64)
    for block in _row_blocks(len(rows), s):
        ys = np.take(rows[block], order, axis=1).astype(np.intp, copy=False)
        ys += 1  # in row's order, shifted by one: 0 is unobserved
        if np.count_nonzero(ys) == ys.size:
            if s < 2:
                raise ValueError("rankings share fewer than 2 alternatives")
            for t, y in enumerate(ys, block.start):
                out[t] = _count_inversions(x, y)
            continue
        seen = ys > 0
        counts = np.count_nonzero(seen, axis=1)
        if counts.min() < 2:
            raise ValueError("rankings share fewer than 2 alternatives")
        # ys[seen], row-major, so each row's shared entries are consecutive;
        # compress is several times faster than a 2-D boolean index
        flat = np.compress(seen.ravel(), ys)
        end = 0
        for t, k in enumerate(counts.tolist(), block.start):
            out[t] = _count_inversions(x[:k], flat[end : end + k])
            end += k
    return out


def _count_inversions(x: np.ndarray, y: np.ndarray) -> int:
    """Discordant pairs of (x, y), where x is 1..s ascending and y holds
    distinct values >= 1: the second ranking's positions, shifted by one, in
    the first ranking's order. The compiled kernel needs y >= 1; a 0 never
    terminates."""
    kernel = _resolve_kernel()
    if kernel is None:
        from scipy import stats

        # Strict orders have no ties, so tau-b reduces to
        # (concordant - discordant) / C(s, 2) and the count recovers exactly.
        pairs = x.size * (x.size - 1) // 2
        tau = stats.kendalltau(x, y).statistic
        return int(round(pairs * (1.0 - tau) / 2.0))
    return int(kernel(x, y.astype(np.intp, copy=False)))


def discordance_matrix(matrix: np.ndarray, n_jobs: int | None = None) -> np.ndarray:
    """Symmetric (n, n) int64 matrix of exact Kendall-tau distances between
    the rows of a fully observed (n, m) positions matrix; zero diagonal.

    Each unordered pair is counted once. An unobserved (-1) entry raises
    ``ValueError``: partially observed rankings compare on their shared
    alternatives only, which ``kendall_tau`` handles.

    With ``n_jobs > 1`` the rows are dealt round-robin (row i has n-1-i
    pairs) to that many threads; the compiled kernel releases the GIL. Each
    thread writes only the cells of its own rows, so the integers are the
    serial ones.
    """
    matrix = _matrix(matrix).astype(np.intp, copy=False)  # the kernel's type, cast once
    if n_jobs is not None:
        _check_number(n_jobs, "n_jobs", 1, integer=True)
    if matrix.size and matrix.min() < 0:
        raise ValueError("positions matrix has unobserved (-1) entries")
    n = matrix.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    jobs = max(1, min(n_jobs or 1, n - 1))  # no thread without a row

    def count_rows(first: int) -> None:
        for i in range(first, n - 1, jobs):
            out[i, i + 1 :] = out[i + 1 :, i] = _discordances(matrix[i], matrix[i + 1 :])

    if jobs == 1:
        count_rows(0)
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(count_rows, range(jobs)))
    return out


def make_pairing(alt_ids, pairing_seed: int) -> np.ndarray:
    """Disjoint pairs (k, 2) formed after a seed-derived shuffle of ``alt_ids``.

    The shuffle removes any accidental order dependence; an odd leftover
    alternative is dropped.
    """
    alt_ids = _integers(alt_ids, "alt_ids").astype(np.int64, copy=False)
    perm = rng.substream(pairing_seed, rng.PAIRING).permutation(alt_ids.size)
    return alt_ids[perm][: 2 * (alt_ids.size // 2)].reshape(-1, 2)


def enkt_feature(r1, r2, pairing) -> float:
    """Mean per-pair discordance indicator over disjoint alternative pairs.

    Each pair must be fully observed by both rankings; pairs must not share
    alternatives. The result is a multiple of 1/len(pairing) in [0, 1] and is
    an unbiased estimate of E[NKT(r1, r2)] for i.i.d. alternatives.
    """
    r1, r2 = _rows(r1, r2)
    pairing = _integers(pairing, "pairing")
    if pairing.ndim != 2 or pairing.shape[1] != 2 or pairing.shape[0] == 0:
        raise ValueError("pairing must be a nonempty (k, 2) index array")
    flat = pairing.ravel()
    if np.unique(flat).size != flat.size:
        raise ValueError("pairing contains overlapping pairs")
    # ids outside [0, m) are rejected before they index (-1 would wrap)
    if flat.min() < 0 or flat.max() >= r1.size or np.any(r1[flat] < 0) or np.any(r2[flat] < 0):
        raise ValueError("pairing contains alternatives not observed by both rankings")
    a, b = pairing[:, 0], pairing[:, 1]
    return float(np.mean((r1[a] < r1[b]) != (r2[a] < r2[b])))


@dataclass(frozen=True)
class FeatureMatrix:
    """Symmetric (n, n) matrix of pair-sampled NKT estimates F[i, j].

    The diagonal is held at 0 and excluded by every consumer. ``n_pairs`` is
    the number of disjoint alternative pairs behind each entry when every
    agent observes the same alternatives. Under partial observation each
    entry has its own pairing inside O_i and O_j, and ``n_pairs = 0``.
    """

    values: np.ndarray
    n_pairs: int

    @property
    def n_agents(self) -> int:
        return self.values.shape[0]


def feature_matrix(matrix: np.ndarray, pairing_seed: int) -> FeatureMatrix:
    """All-pairs feature matrix F[i, j] = enkt_feature(R_i, R_j, pairing) over
    the rows of an (n, m) positions matrix (-1 marking unobserved).

    When every agent observes the same alternatives the pairing is shared and
    the matrix is computed by one sign-matrix product. With partial
    observations the pairing for (i, j) is formed inside the intersection
    O_i and O_j, pairing consecutive elements of one seed-derived shuffle of
    the ids up to the highest observed one; an odd last element is dropped
    and any intersection smaller than 2 is an error.

    The partial loop compares agent i with the agents after it on O_i's
    columns only, in shuffled order. One row-major flat index picks the
    shared entries of all those rows, and i's own positions at the same
    columns; they pair up two by two, and one ``reduceat`` counts each row's
    discordant pairs. It costs
    O(sum_i (n - i) |O_i|) time and (n - 1) |O_i| memory per row.
    """
    matrix = _matrix(matrix)
    n = matrix.shape[0]
    if n < 3:
        raise ValueError("feature matrix needs at least 3 agents")
    seen = matrix >= 0
    if np.all(seen == seen[0]):
        pairing = make_pairing(np.flatnonzero(seen[0]), pairing_seed)
        p = pairing.shape[0]
        if p == 0:
            raise ValueError("rankings share fewer than 2 alternatives")
        signs = np.sign(matrix[:, pairing[:, 0]] - matrix[:, pairing[:, 1]]).astype(np.float32)
        agree = signs @ signs.T  # in [-p, p]
        values = (p - agree) / (2.0 * p)
        np.fill_diagonal(values, 0.0)
        return FeatureMatrix(values=values.astype(float), n_pairs=p)

    # the shuffle covers the ids up to the highest one any agent observes
    width = 1 + int(np.flatnonzero(seen.any(axis=0))[-1])
    shuffled = matrix[:, rng.substream(pairing_seed, rng.PAIRING).permutation(width)]
    values = np.zeros((n, n), dtype=float)
    for i in range(n - 1):
        cols = np.flatnonzero(shuffled[i] >= 0)  # O_i in shuffled order
        rest = shuffled[i + 1 :, cols]
        shared = rest >= 0
        counts = shared.sum(axis=1)
        if np.any(counts < 2):
            j = i + 1 + int(np.argmax(counts < 2))
            raise ValueError(f"agents {i} and {j} share fewer than 2 alternatives")
        # pair consecutive shared entries of each row; an odd last one is dropped
        odd = np.flatnonzero(counts % 2)
        shared[odd, cols.size - 1 - np.argmax(shared[odd, ::-1], axis=1)] = False
        idx = np.flatnonzero(shared)  # row-major: each row's pairs are consecutive
        mine, theirs = np.tile(shuffled[i, cols], len(rest))[idx], rest.ravel()[idx]
        discordant = (mine[0::2] < mine[1::2]) != (theirs[0::2] < theirs[1::2])
        half = counts // 2
        starts = np.cumsum(half) - half
        values[i, i + 1 :] = np.add.reduceat(discordant, starts, dtype=np.int64) / half
        values[i + 1 :, i] = values[i, i + 1 :]
    return FeatureMatrix(values=values, n_pairs=0)


def agent_distance(features: FeatureMatrix, i: int, j: int) -> float:
    """Mean absolute feature gap over shared coordinates k not in {i, j}.

    The mean (rather than a sum) keeps threshold semantics independent of the
    number of agents.
    """
    n = features.n_agents
    i, j = _id(i, n, "agent i"), _id(j, n, "agent j")
    if i == j:
        raise ValueError("agent distance to itself is undefined")
    if n < 3:
        raise ValueError("agent distance needs at least 3 agents")
    mask = np.ones(n, dtype=bool)
    mask[[i, j]] = False
    diff = np.abs(features.values[i] - features.values[j])
    return float(diff[mask].mean())


def agent_distances_from(features: FeatureMatrix, i: int) -> np.ndarray:
    """Vector of agent_distance(features, i, j) for all j (NaN at i)."""
    n = features.n_agents
    i = _id(i, n, "agent i")
    vals = features.values
    diff = np.abs(vals[i][None, :] - vals)  # (n, n)
    # remove the i and j columns from each row's mean
    total = diff.sum(axis=1) - diff[:, i] - np.diag(diff)
    out = total / (n - 2)
    out[i] = np.nan
    return out


"""Two-step alternative-neighbor algorithm: sign-statistic candidates, then
split-cluster filtering of the mirror cluster.

Everything here reads only the positions matrix: a pair's statistic depends
on its two columns (the half statistic also on each agent's number of
observed alternatives); no global feature matrix is involved. Both
statistics are integer counts summed over cache-sized row blocks of the
matrix (``rankings._row_blocks``); the block size never changes a count.
Each block's boolean masks are built in place and counted for every column
by one helper, ``_counts``. The filtering step assumes a 1-D latent geometry
(the mirror point of y is the reflection through the box midpoint); in
higher dimensions only the candidate stage is meaningful and callers should
treat it as experimental.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .latent import _check_number
from .rankings import _id, _ids, _matrix, _row_blocks


@dataclass(frozen=True)
class CandidateSet:
    """Alternatives whose sign distance to the query is below 1/ell.

    The query belongs to its own candidate set by convention (its
    self-distance is undefined).
    """

    query: int
    members: tuple[int, ...]
    ell: float

    def __post_init__(self):
        if self.query not in self.members:
            raise ValueError("candidate set must contain its query")


def sign_distance(matrix: np.ndarray, a: int, b: int) -> float:
    """Absolute mean of the per-agent preference sign between two alternatives.

    Agent k contributes s_k = +1 when it ranks ``a`` below ``b`` and -1
    otherwise, so exchangeable alternatives give mean 0. Agents that do not
    rank both are skipped; at least one must rank both.
    """
    matrix = _matrix(matrix)
    a, b = (_id(x, matrix.shape[1], "alternative index") for x in (a, b))
    if a == b:
        raise ValueError("sign distance of an alternative against itself is undefined")
    value = float(_sign_distance_columns(matrix, a)[b])
    if math.isnan(value):
        raise ValueError(f"no agent ranks both {a} and {b}")
    return value


def _counts(mask: np.ndarray, axis: int) -> np.ndarray:
    """True count of a 2-D boolean mask along ``axis``: its bytes summed into
    int32, which holds any count of a row or of a block's column."""
    return np.add.reduce(mask.view(np.uint8), axis=axis, dtype=np.int32)


def _sign_distance_columns(matrix: np.ndarray, a: int) -> np.ndarray:
    """Vector of sign distances from alternative ``a`` to every alternative.

    Entry ``a`` is NaN (self-pair undefined); entries with no co-ranking
    agent are NaN as well.
    """
    # above counts the +1 signs; the sum of all signs is above - (counts - above)
    counts, above = np.zeros((2, matrix.shape[1]), dtype=np.int64)
    for rows in _row_blocks(*matrix.shape):
        block = matrix[rows]
        pos_a, mask = block[:, a, None], block >= 0
        mask &= pos_a >= 0
        counts += _counts(mask, 0)
        mask &= pos_a > block  # pos_a > x >= 0: both observed, a ranked below x
        above += _counts(mask, 0)
    with np.errstate(invalid="ignore"):
        out = np.abs(2 * above - counts) / counts
    out[counts == 0] = np.nan
    out[a] = np.nan
    return out


def candidate_set(matrix: np.ndarray, a: int, ell: float) -> CandidateSet:
    """All alternatives whose sign distance to ``a`` is at most 1/ell."""
    matrix = _matrix(matrix)
    a = _id(a, matrix.shape[1], "alternative index")
    _check_number(ell, "ell", 1)
    distances = _sign_distance_columns(matrix, a)
    # NaN entries (the query itself, pairs no agent ranks) compare False
    members = [a, *np.flatnonzero(distances <= 1.0 / ell).tolist()]
    return CandidateSet(query=a, members=tuple(sorted(members)), ell=float(ell))


def _half_boundaries(observed: np.ndarray) -> np.ndarray:
    """Per-agent bound of the first half, as an (n, 1) int32 column, from the
    (n, m) mask of observed entries: an agent observing s alternatives puts
    0-based positions below ceil(s/2) in its first half."""
    return ((_counts(observed, 1) + 1) // 2)[:, None]


def _first_half(matrix: np.ndarray) -> np.ndarray:
    """Boolean first-half membership per (agent, alternative).

    For an agent observing s alternatives the first half is positions
    1..ceil(s/2) (1-based); unobserved entries are False.
    """
    observed = matrix >= 0
    return observed & (matrix < _half_boundaries(observed))


def _half_stats(matrix: np.ndarray, a: int, others) -> np.ndarray:
    """Half statistic of ``a`` against each alternative in ``others``: the
    fraction of the agents ranking both that put the two in the same half.

    Every column is counted, in one pass over each block's rows, and
    ``others`` is picked out at the end; each agent's half boundary counts
    every alternative it observes."""
    counts, same = np.zeros((2, matrix.shape[1]), dtype=np.int64)
    for rows in _row_blocks(*matrix.shape):
        block = matrix[rows]
        pos_a, usable = block[:, a, None], block >= 0
        boundary = _half_boundaries(usable)  # per row: blocks give the same ones
        usable &= pos_a >= 0
        counts += _counts(usable, 0)
        # where both positions are observed, first-half membership is position < boundary
        same_half = block < boundary
        same_half ^= pos_a >= boundary  # x < boundary exactly when pos_a < boundary
        usable &= same_half
        same += _counts(usable, 0)
    counts, same = counts[others], same[others]
    if np.any(counts == 0):
        raise ValueError(f"no agent ranks both {a} and {others[int(np.argmin(counts))]}")
    return same / counts


def half_stat(matrix: np.ndarray, a: int, b: int) -> float:
    """Fraction of co-ranking agents placing ``a`` and ``b`` in the same half."""
    matrix = _matrix(matrix)
    a, b = (_id(x, matrix.shape[1], "alternative index") for x in (a, b))
    return float(_half_stats(matrix, a, [b])[0])


def two_means_1d(values) -> tuple[np.ndarray, np.ndarray]:
    """Exact 1-D 2-means: labels (0 = smaller centroid) and the two centroids.

    Optimal clusters are contiguous in sorted order, so the best split is the
    prefix cut minimizing within-cluster sum of squares; resolved by a single
    scan over prefix sums.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("need at least 2 values")
    order = np.argsort(values, kind="stable")
    v = values[order]
    p = np.size(v)
    csum = np.cumsum(v)
    csq = np.cumsum(v * v)
    sizes = np.arange(1, p, dtype=float)  # left cluster sizes 1..p-1
    left_sum = csum[:-1]
    left_sse = csq[:-1] - left_sum**2 / sizes
    right_sum = csum[-1] - left_sum
    right_sse = (csq[-1] - csq[:-1]) - right_sum**2 / (p - sizes)
    cut = int(np.argmin(left_sse + right_sse))
    labels_sorted = np.zeros(p, dtype=np.int64)
    labels_sorted[cut + 1 :] = 1
    centroids = np.array([v[: cut + 1].mean(), v[cut + 1 :].mean()])
    labels = np.empty(p, dtype=np.int64)
    labels[order] = labels_sorted
    return labels, centroids


@dataclass(frozen=True, eq=False)
class SplitStep:
    """The split step for one query alternative: the candidates other than
    the query (none when fewer than two), their half statistics, 2-means
    labels (0 = smaller centroid) and centroids, and the kept set."""

    clustered: tuple[int, ...]
    stats: np.ndarray
    labels: np.ndarray
    centroids: np.ndarray
    kept: frozenset[int]


def split_step(matrix: np.ndarray, a: int, candidates: CandidateSet) -> SplitStep:
    """Keep the candidate cluster co-located with the query alternative.

    Computes the half statistic for every candidate, 2-means-clusters the 1-D
    values exactly, and keeps the cluster with the larger centroid (agents
    put co-located alternatives in the same half far more often than mirror
    images). When the centroid gap falls below 2/sqrt(n_agents), the noise
    scale of the statistic, the clusters are indistinguishable - the query
    sits near the box midpoint and no filtering is needed - so the whole
    candidate set is kept.
    """
    matrix = _matrix(matrix)
    a = _id(a, matrix.shape[1], "alternative index")
    members = _ids(candidates.members, matrix.shape[1], "alternative index").tolist()
    # the query itself is always kept; its degenerate self-statistic (1.0)
    # must not take part in the clustering
    others = [b for b in members if b != a]
    if len(others) < 2:
        empty = np.empty(0)
        return SplitStep((), empty, empty.astype(np.int64), empty, frozenset(members))
    stats = _half_stats(matrix, a, others)
    labels, centroids = two_means_1d(stats)
    if abs(centroids[1] - centroids[0]) < 2.0 / math.sqrt(matrix.shape[0]):
        kept = members
    else:
        keep = int(np.argmax(centroids))
        kept = [b for b, lab in zip(others, labels) if lab == keep]
        if a in members:
            kept.append(a)
    return SplitStep(tuple(others), stats, labels, centroids, frozenset(kept))


def split_cluster(matrix: np.ndarray, a: int, candidates: CandidateSet) -> set[int]:
    """The neighbor set kept by ``split_step``."""
    return set(split_step(matrix, a, candidates).kept)


def alt_neighbors(matrix: np.ndarray, a: int, ell: float) -> set[int]:
    """Two-step neighbor set for an alternative: candidates, then filtering."""
    return split_cluster(matrix, a, candidate_set(matrix, a, ell))

"""Agent-neighbor algorithms and pairwise preference prediction.

Three ways to pick an agent's neighbors: the raw rank-distance baseline
(kt_knn, provably biased toward the support boundary under nondeterministic
preferences), the corrected global-feature algorithm (global_knn), and the
latent-space oracle (oracle_knn, simulation only). Predictions are made by
neighbor voting on pairwise preferences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kendall import FeatureMatrix, _discordances, agent_distances_from
from .latent import Population, _check_number, pairwise_prob
from .rankings import _id, _ids, _integers, _matrix

METHODS = ("kt_knn", "global_knn", "oracle")


@dataclass(frozen=True)
class NeighborSet:
    """Result of a neighbor query with provenance.

    ``selector`` is ("top_k", k) or ("threshold", eps). In top-k mode
    ``members`` has k entries (the neighbor functions refuse k > n - 1); in
    threshold mode it holds every agent within the threshold. The query never
    appears among the members. The query is stored as an int and the members
    as a tuple of ints, by the integer rule of ``rankings._integers``.
    """

    query: int
    members: tuple[int, ...]
    method: str
    selector: tuple[str, float]

    def __post_init__(self):
        object.__setattr__(self, "query", int(_integers(self.query, "query", 0)))
        object.__setattr__(self, "members", tuple(_integers(self.members, "members", 1).tolist()))
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.query in self.members:
            raise ValueError("query must not be a member of its own neighbor set")

    def to_dict(self) -> dict:
        mode, value = self.selector
        return {
            "query": self.query,
            "members": list(self.members),
            "method": self.method,
            "selector": {"mode": mode, ("k" if mode == "top_k" else "eps"): value},
        }


def _check_query(n: int, query, k=None, eps=None) -> int:
    """The query as an int; reject a query that is not an agent index in
    [0, n) and a selector out of range: an eps that is not a finite number
    >= 0 or, when no eps is given, a k that is not an integer in [1, n - 1]."""
    query = _id(query, n, "query agent index")
    if eps is not None:
        _check_number(eps, "eps", 0)
    else:
        _check_number(k, "k", 1, n - 1, integer=True)
    return query


def neighbor_order(distances: np.ndarray, query: int, count: int) -> np.ndarray:
    """Indices of the min(count, n - 1) smallest distances, nearest first,
    query excluded, ties broken by ascending index."""
    n = distances.size
    order = np.lexsort((np.arange(n), distances))
    return order[order != query][: min(count, n - 1)]


def global_distances(features: FeatureMatrix, query: int) -> np.ndarray:
    """Global-feature agent distances from the query (inf at the query)."""
    d = agent_distances_from(features, query)
    return np.where(np.isnan(d), np.inf, d)


def oracle_distances(population: Population, query: int) -> np.ndarray:
    """Latent Euclidean distances from the query agent (inf at the query)."""
    query = _id(query, population.n_agents, "query agent index")
    d = np.linalg.norm(population.agents - population.agents[query], axis=1)
    d[query] = np.inf
    return d


def kt_knn(matrix: np.ndarray, query: int, k: int) -> NeighborSet:
    """The k agents whose rankings (positions matrix rows) are closest to the
    query's in raw Kendall-tau distance, ties broken by ascending agent index."""
    matrix = _matrix(matrix)
    query = _check_query(matrix.shape[0], query, k=k)
    distances = _discordances(matrix[query], matrix).astype(float)
    distances[query] = np.inf
    return NeighborSet(query, neighbor_order(distances, query, k), "kt_knn", ("top_k", k))


def global_knn(
    features: FeatureMatrix,
    query: int,
    k: int | None = None,
    eps: float | None = None,
) -> NeighborSet:
    """Neighbors under the global-feature agent distance.

    Threshold mode (``eps``) returns every agent within distance eps, the
    form the correctness guarantee addresses; top-k mode exists for
    experiment parity. Exactly one selector must be given.
    """
    if (k is None) == (eps is None):
        raise ValueError("specify exactly one of k or eps")
    if features.n_agents < 3:
        raise ValueError("need at least 3 agents")
    query = _check_query(features.n_agents, query, k=k, eps=eps)
    distances = global_distances(features, query)
    if eps is not None:
        members = np.flatnonzero(distances <= eps)
        return NeighborSet(query, members, "global_knn", ("threshold", float(eps)))
    return NeighborSet(query, neighbor_order(distances, query, k), "global_knn", ("top_k", k))


def oracle_knn(population: Population, query: int, k: int) -> NeighborSet:
    """The k agents truly closest to the query in latent space."""
    query = _check_query(population.n_agents, query, k=k)
    distances = oracle_distances(population, query)
    return NeighborSet(query, neighbor_order(distances, query, k), "oracle", ("top_k", k))


def predict_pair(neighbors: NeighborSet, matrix: np.ndarray, a: int, b: int) -> float:
    """Fraction of usable neighbors ranking alternative ``a`` above ``b``.

    Neighbors that do not observe both alternatives are skipped; at least one
    usable neighbor is required.
    """
    return float(vote_probabilities(matrix, neighbors.members, [[a, b]])[0])


def _check_pairs(pair_sample, m: int) -> np.ndarray:
    """``pair_sample`` as an int64 array; anything but a nonempty (k, 2)
    array of alternative ids in [0, m) with a != b in every row raises
    ``ValueError``."""
    try:
        pairs = _ids(pair_sample, m, "pairs")
    except ValueError:  # reported below, with the shape faults, in one message
        pairs = np.empty((0, 2), dtype=np.int64)
    if pairs.shape[1:] != (2,) or not pairs.size or np.any(pairs[:, 0] == pairs[:, 1]):
        raise ValueError(f"pairs must be a nonempty (k, 2) integer array of ids in [0, {m}), a != b")
    return pairs


def sample_pairs(m: int, count: int, generator: np.random.Generator) -> np.ndarray:
    """(count, 2) array of uniformly sampled distinct alternative pairs."""
    if m < 2:
        raise ValueError(f"distinct pairs need m >= 2 alternatives, got m={m}")
    a = generator.integers(0, m, size=count)
    b = generator.integers(0, m - 1, size=count)
    b = np.where(b >= a, b + 1, b)
    return np.stack([a, b], axis=1)


def prediction_error(
    method: str,
    query: int,
    population: Population,
    matrix: np.ndarray,
    pair_sample: np.ndarray,
    k: int | None = None,
    eps: float | None = None,
    features: FeatureMatrix | None = None,
) -> float:
    """Mean absolute deviation between the neighbor vote and the ground-truth
    pairwise probability over the sampled alternative pairs."""
    if method == "kt_knn":
        neighbors = kt_knn(matrix, query, k)
    elif method == "global_knn":
        if features is None:
            raise ValueError("global_knn needs a feature matrix")
        neighbors = global_knn(features, query, k=k, eps=eps)
    elif method == "oracle":
        neighbors = oracle_knn(population, query, k)
    else:
        raise ValueError(f"unknown method {method!r}")

    votes = vote_probabilities(matrix, neighbors.members, pair_sample)  # checks the pairs
    truth = true_probabilities(population, query, np.asarray(pair_sample))
    return float(np.mean(np.abs(votes - truth)))


def true_probabilities(population: Population, query: int, pair_sample: np.ndarray) -> np.ndarray:
    """Ground-truth probability that the query prefers a to b, per sampled pair (a, b)."""
    query = _id(query, population.n_agents, "query agent index")
    y = population.alternatives[pair_sample]
    return pairwise_prob(population.agents[query], y[:, 0], y[:, 1])


def vote_probabilities(matrix: np.ndarray, members, pair_sample: np.ndarray) -> np.ndarray:
    """Per-pair fraction of usable members ranking a above b (vectorized).

    A member that is not an agent index in [0, n), or pairs that
    ``_check_pairs`` refuses, raise ``ValueError``."""
    matrix = _matrix(matrix)
    pair_sample = _check_pairs(pair_sample, matrix.shape[1])
    sub = matrix[_ids(members, len(matrix), "neighbor agent indices", ndim=1)]  # repeats vote again
    prefer, usable = _vote_counts(sub.T, pair_sample, [np.arange(len(sub))], [len(sub)])
    if np.any(usable == 0):
        raise ValueError("no neighbor ranks both alternatives of a sampled pair")
    return prefer[0, 0] / usable[0, 0]


def _vote_counts(columns: np.ndarray, pairs: np.ndarray, orders, sizes):
    """Exact float64 counts ``(prefer, usable)``, shaped (len(orders), len(sizes), P):
    of the first ``sizes[t]`` agents of ``orders[i]`` (no repeats), those ranking
    pair p's a above b and those observing both (last axis 1 when no -1 is read),
    read from ``columns``, the positions matrix transposed to (m, n)."""
    pos_a, pos_b = columns[pairs[:, 0]], columns[pairs[:, 1]]
    prefer, observed = pos_a < pos_b, None
    if min(pos_a.min(initial=0), pos_b.min(initial=0)) < 0:  # an unobserved (-1) entry
        observed = (pos_a >= 0) & (pos_b >= 0)
        prefer &= observed
    del pos_a, pos_b  # once they are freed, the float64 copy below allocates faster
    t = len(sizes)
    select = np.zeros((columns.shape[1], len(orders) * t))
    for i, order in enumerate(orders):
        select[order, i * t : (i + 1) * t] = np.arange(len(order))[:, None] < sizes
    counts = select.T @ prefer.astype(np.float64).T  # one product for every order and size
    usable = select.sum(axis=0) if observed is None else select.T @ observed.astype(np.float64).T
    return counts.reshape(len(orders), t, -1), usable.reshape(len(orders), t, -1)

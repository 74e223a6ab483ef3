"""Plackett-Luce ranking sampler and exact order probabilities.

Rankings are strict total orders over an observed subset of alternative
indices, held as an (n, m) int32 positions matrix: 0-based positions, -1 for
unobserved. A function on one ranking takes or returns one row of it. A
best-first sequence of alternative ids is the input only where a ranking is
written down: ``rank_matrix``, the rankings CSV and ``exact_order_prob``.
Sampling follows the sequential-choice model: at each step the next
alternative is drawn from the remaining pool with probability proportional to
its utility. The Gumbel-max sampler (rank by log-utility plus i.i.d. Gumbel
noise) is the default because it is a single sort; the sequential roulette
sampler realizes the product formula directly and the two are cross-checked
in the tests. Inputs that name agents or alternatives, or hold positions,
pass one rule, kept here: ``_integers`` (integer dtype, no bool in a list),
``_ids`` (int64 ids in [0, bound); ``_id`` for one, ``_id_or_ids`` for one
or a 1-D run of them) and ``_matrix`` (2-D).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import rng
from .latent import Population, _check_number

_MAX_EXACT_M = 8
_BLOCK = 2**16  # entries per row block: a block's temporaries fit in a core's L2 cache


def _row_blocks(n: int, m: int):
    """Row slices of an (n, m) matrix, max(1, _BLOCK // m) rows each (all n
    in one block when m is 0), the last ragged."""
    rows = max(1, _BLOCK // max(m, 1))
    for start in range(0, n, rows):
        yield slice(start, min(start + rows, n))


def _integers(values, what: str, ndim: int | None = None) -> np.ndarray:
    """``values`` as an array; a ragged sequence, a nonempty one of a
    non-integer dtype, a list holding a bool, or one not ``ndim``-D raises
    ``ValueError``. An array is not scanned for bools: its dtype already says
    what it holds."""
    try:
        array = np.asarray(values)
    except ValueError:  # numpy's message does not name the argument
        raise ValueError(f"{what} must hold integers, got a ragged sequence") from None
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(f"{what} must hold integers, got dtype {array.dtype}")
    scan = array.ndim and not isinstance(values, np.ndarray)
    if scan and {bool, np.bool_} & set(map(type, np.asarray(values, dtype=object).flat)):
        raise ValueError(f"{what} must hold integers, got a bool")
    if ndim is not None and array.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-D, got shape {array.shape}")
    return array


def _ids(values, bound: int, what: str, ndim: int | None = None) -> np.ndarray:
    """``values`` as int64 ids by the rule of ``_integers``, each in [0, bound)."""
    ids = _integers(values, what, ndim)
    bad = ids[(ids < 0) | (ids >= bound)]
    if bad.size:
        raise ValueError(f"{what} must be in [0, {bound}), got {bad.flat[0]}")
    return ids.astype(np.int64, copy=False)


def _id(value, bound: int, what: str) -> int:
    """One id (a query, an agent, an alternative) by the rule of ``_ids``."""
    return int(_ids(value, bound, what, ndim=0))


def _id_or_ids(value, bound: int, what: str):
    """One id as an int (``_id``), or a 1-D sequence of them as int64 ids (``_ids``)."""
    ids = _ids(value, bound, what)
    if ids.ndim > 1:
        raise ValueError(f"{what} must be one id or a 1-D sequence of ids, got shape {ids.shape}")
    return ids if ids.ndim else int(ids)


def _matrix(matrix) -> np.ndarray:
    """A positions matrix: 2-D, of an integer dtype; O(1), no row is scanned."""
    return _integers(matrix, "positions matrix", ndim=2)


def _order(row) -> np.ndarray:
    """Best-first alternative ids of one positions row (0-based positions, -1
    unobserved). A row that is not 1-D or of an integer dtype, observes
    nothing, or whose observed positions are not 0..s-1 each once raises
    ``ValueError``."""
    row = _integers(row, "a positions row", ndim=1)
    observed = np.flatnonzero(row >= 0)
    if observed.size == 0 or not np.array_equal(np.sort(row[observed]), np.arange(observed.size)):
        raise ValueError("observed positions must be 0..s-1, each once, with s >= 1")
    return observed[np.argsort(row[observed])]


def _utilities(x: np.ndarray, alternatives: np.ndarray) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    alternatives = np.asarray(alternatives, dtype=float)
    if alternatives.ndim == 1:
        alternatives = alternatives[:, None]
    if alternatives.shape[0] == 0:
        raise ValueError("alternative list must be nonempty")
    if alternatives.shape[1] != x.shape[-1]:
        raise ValueError("dimension mismatch between agent and alternatives")
    return np.exp(-np.linalg.norm(alternatives - x[None, :], axis=1))


def _gumbel_keys(neg_log_util: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Sort keys of the Gumbel-max sampler, best first: minus the perceived
    utility log(util) - log(-log(U)), computed in place in ``uniforms``.

    Each key equals the negated perceived utility bit for bit (IEEE negation
    and rounding are symmetric), except that a zero may change sign."""
    np.log(uniforms, out=uniforms)
    np.negative(uniforms, out=uniforms)
    np.log(uniforms, out=uniforms)
    uniforms += neg_log_util
    return uniforms


def _row_orders(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, axis=1, kind="stable")`` of float64 ``keys`` (left
    as they are), by one in-place float sort per row.

    Each key's low b = ceil(log2 m) mantissa bits are overwritten by its
    column index, the packed rows are sorted, and the order is read back from
    those bits. Truncating low mantissa bits is monotone, so where a row's
    truncated keys strictly increase along its sorted order, its keys are
    distinct and in that order, the only one any sort returns. Every other
    row is sorted again stably, ties by ascending index: equal keys, keys
    closer than the truncation, -0 beside +0, an infinity at an index >= 1
    (it packs to NaN). So is every row holding a NaN: a NaN whose payload is
    only in the low bits packs to an infinity, and at index 0 to a first -inf.
    """
    n, m = keys.shape
    low = np.uint64((1 << (m - 1).bit_length()) - 1)
    packed = keys.view(np.uint64) & ~low
    packed |= np.arange(m, dtype=np.uint64)
    packed.view(np.float64).sort(axis=1)
    order = (packed & low).view(np.int64)
    packed &= ~low  # the truncated keys, sorted
    # rising[i, j]: truncated key j of sorted row i is below key j + 1, compared
    # in one pass over the flat array; the last column compares across rows
    flat = packed.view(np.float64).reshape(-1)
    rising = np.empty((n, m), dtype=bool)
    np.greater(flat[1:], flat[:-1], out=rising.reshape(-1)[:-1])
    rising[:, -1] = True
    if not rising.all() or np.isnan(keys.max()):  # look for the rows only if there are any
        redo = ~rising.all(axis=1) | np.isnan(keys.max(axis=1))
        order[redo] = np.argsort(keys[redo], axis=1, kind="stable")
    return order


def _gumbel_order(log_u: np.ndarray, generator: np.random.Generator) -> np.ndarray:
    keys = _gumbel_keys(-log_u, generator.random(log_u.shape[-1]))
    return _row_orders(keys[None, :])[0]


def sample_ranking(
    x, alternatives, rng_stream: np.random.Generator, method: str = "gumbel"
) -> np.ndarray:
    """Sample one full ranking of ``alternatives`` for the agent at ``x``, as a positions row.

    ``method`` selects between the Gumbel-max sampler and the sequential
    roulette sampler; both realize the same order distribution.
    """
    u = _utilities(x, alternatives)
    if method == "gumbel":
        order = _gumbel_order(np.log(u), rng_stream)
    elif method == "sequential":
        order = _sequential_order(u, rng_stream)
    else:
        raise ValueError(f"unknown sampling method {method!r}")
    return rank_matrix([order], m=u.size)[0]


def _sequential_order(utilities: np.ndarray, generator: np.random.Generator) -> np.ndarray:
    weights = utilities.astype(float).copy()
    m = weights.size
    order = np.empty(m, dtype=np.int64)
    alive = np.arange(m)
    for step in range(m):
        cum = np.cumsum(weights[alive])
        pick = np.searchsorted(cum, generator.random() * cum[-1], side="right")
        pick = min(pick, alive.size - 1)
        order[step] = alive[pick]
        alive = np.delete(alive, pick)
    return order


def sample_rankings(population: Population, seed: int, c_obs: float = 1.0) -> np.ndarray:
    """Every agent's ranking as an (n, m) positions matrix.

    Agent ``i`` draws from substream (seed, RANKINGS, i), so rankings can be
    generated in parallel with results identical to serial execution. With
    ``c_obs > 1`` each agent reveals its order on a uniformly random subset of
    floor(m / c_obs) alternatives, chosen from substream (seed, OBSERVATION, i):
    those are renumbered 0..floor(m / c_obs) - 1 and the rest read -1.
    """
    _check_number(c_obs, "c_obs", 1)
    n, m = population.n_agents, population.n_alternatives
    matrix = positions_matrix(population, seed, stream="per_agent")
    n_obs = int(m // c_obs)
    if n_obs < 1:
        raise ValueError("observation fraction leaves no alternatives")
    if n_obs == m:
        return matrix
    keep = np.zeros((n, m), dtype=bool)
    for i in range(n):
        keep[i, rng.substream(seed, rng.OBSERVATION, i).choice(m, size=n_obs, replace=False)] = True
    kept_order = np.argsort(np.where(keep, matrix, m), axis=1)[:, :n_obs]
    out = np.full_like(matrix, -1)
    np.put_along_axis(out, kept_order, np.arange(n_obs, dtype=np.int32)[None, :], axis=1)
    return out


def exact_order_prob(x, alternatives, order) -> float:
    """Exact probability of producing ``order`` under the sequential model.

    Guarded to m <= 8: full-distribution checks enumerate all m! orders.
    """
    u = _utilities(x, alternatives)
    m = u.size
    if m > _MAX_EXACT_M:
        raise ValueError(f"exact order probabilities are limited to m <= {_MAX_EXACT_M}")
    order = _integers(order, "order").astype(np.int64)
    if sorted(order.tolist()) != list(range(m)):
        raise ValueError("order must be a permutation of range(m)")
    chosen = u[order]
    remaining = np.cumsum(chosen[::-1])[::-1]
    return float(np.prod(chosen / remaining))


def restrict_ranking(row, subset) -> np.ndarray:
    """Positions row of the induced order on ``subset``: relative order is
    preserved, positions are renumbered 0..|subset|-1, the rest read -1."""
    order = _order(row)
    subset = np.unique(_integers(list(subset), "subset")).astype(np.int64)
    if subset.size == 0:
        raise ValueError("subset must be nonempty")
    missing = np.setdiff1d(subset, order)
    if missing.size:
        raise ValueError(f"subset contains unobserved alternatives: {missing.tolist()}")
    return rank_matrix([order[np.isin(order, subset)]], m=len(row))[0]


def rank_matrix(orders, m: int | None = None) -> np.ndarray:
    """(n, m) int32 matrix of 0-based positions from best-first sequences of
    alternative ids; -1 marks unobserved alternatives. ``m`` defaults to one
    past the highest id. An empty order, or a repeated id or one outside
    [0, m), or one that is not an integer, raises ``ValueError``."""
    orders = [_integers(order, f"order {i}").astype(np.int64) for i, order in enumerate(orders)]
    if m is None:
        m = 1 + max((int(order.max(initial=-1)) for order in orders), default=-1)
    out = np.full((len(orders), m), -1, dtype=np.int32)
    for i, order in enumerate(orders):
        if order.ndim != 1 or order.size == 0 or order.min() < 0 or order.max() >= m:
            raise ValueError(
                f"order {i} must be a nonempty 1-D sequence of alternative ids in [0, {m})"
            )
        out[i, order] = np.arange(order.size)
        if np.count_nonzero(out[i] >= 0) < order.size:
            raise ValueError(f"order {i} repeats an alternative id")
    return out


def positions_matrix(population: Population, seed: int, stream: str = "per_agent") -> np.ndarray:
    """Full-observation Gumbel-max positions matrix, computed in row blocks of
    ``_BLOCK`` entries: fixed memory beyond the output, same output at any block size.

    With ``stream="per_agent"`` agent i draws from its own substream, as in
    ``sample_rankings``. With ``stream="batched"`` all agents draw from one
    substream in row blocks (agent i owns block i, so prefixes are stable
    under n growth); this is distributionally identical and much faster at
    very large n.
    """
    if stream not in ("per_agent", "batched"):
        raise ValueError(f"unknown stream mode {stream!r}")
    n, m = population.n_agents, population.n_alternatives
    if m == 0:
        raise ValueError("alternative list must be nonempty")
    batched_gen = rng.substream(seed, rng.RANKINGS) if stream == "batched" else None
    out = np.empty((n, m), dtype=np.int32)
    values = None  # positions 0..m-1 per row, tiled once, for the first (largest) block
    for rows in _row_blocks(n, m):
        # np.linalg.norm(axis=2) without its copies: sqrt(add.reduce(diff * diff))
        diff = population.agents[rows, None, :] - population.alternatives[None, :, :]
        diff *= diff
        dists = np.add.reduce(diff, axis=2)
        np.sqrt(dists, out=dists)
        if batched_gen is not None:
            u = batched_gen.random(dists.shape)
        else:
            u = np.empty(dists.shape)
            for i in range(rows.start, rows.stop):
                u[i - rows.start] = rng.substream(seed, rng.RANKINGS, i).random(m)
        order = _row_orders(_gumbel_keys(dists, u))
        order += np.arange(0, order.size, m)[:, None]
        if values is None:  # a full-size value array scatters twice as fast as a broadcast row
            values = np.tile(np.arange(m, dtype=np.int32), (len(order), 1))
        out[rows].reshape(-1)[order] = values[: len(order)]
    return out


def write_rankings_csv(matrix: np.ndarray, path, seed: int) -> None:
    """One file per (n, m) positions matrix: a header naming n, m, seed, then
    one row per agent: agent_id, alternative ids best-first. Written in one
    call once every row passes: a refused input creates or truncates no file."""
    matrix = _matrix(matrix)
    _check_number(seed, "seed", 0, 2**64 - 1, integer=True)
    n, m = matrix.shape
    lines = [f"n={n},m={m},seed={seed}"]
    lines += [",".join(map(str, [i, *_order(row).tolist()])) for i, row in enumerate(matrix)]
    Path(path).write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))


def read_rankings_csv(path) -> tuple[np.ndarray, dict]:
    """Read a file written by ``write_rankings_csv`` into an (n, m) positions
    matrix; a malformed header or row raises ``ValueError``."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not lines:
        raise ValueError("rankings file is empty")
    fields = [kv.split("=") for kv in lines[0].split(",")]
    if any(len(kv) != 2 for kv in fields) or sorted(k for k, _ in fields) != ["m", "n", "seed"]:
        raise ValueError(f"header {lines[0]!r} is not n=<int>,m=<int>,seed=<int>")
    try:
        meta = {k: int(v) for k, v in fields}
    except ValueError:
        raise ValueError(f"header {lines[0]!r} has a non-integer value") from None
    n, m = meta["n"], meta["m"]
    if n < 0 or m < 0:
        raise ValueError(f"header {lines[0]!r} has a negative size")
    orders: list = [None] * n
    for line in lines[1:]:
        agent, *order = (int(v) for v in line.split(","))
        if not 0 <= agent < n:
            raise ValueError(f"agent id {agent} outside [0, {n})")
        if orders[agent] is not None:
            raise ValueError(f"duplicate row for agent {agent}")
        orders[agent] = order
    if any(order is None for order in orders):
        raise ValueError("rankings file is missing agents")
    return rank_matrix(orders, m=m), meta

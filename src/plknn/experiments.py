"""Reproducible experiment runner: error-vs-k, error-vs-position, and the
high-dimensional neighbor-distance sweep.

Every agent serves once as the query; the query's own ranking feeds the
distance computations a method needs but never votes. Queries execute
independently (optionally across a thread pool) and their results come back
in query order, so the emitted CSV bytes are identical for any worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import agents, rng
from .agents import METHODS, sample_pairs
from .kendall import FeatureMatrix, discordance_matrix, feature_matrix
from .latent import ModelConfig, Population, _check_number, _Config, _field_kinds, check_field_types
from .latent import sample_population
from .rankings import sample_rankings

POSITION_BINS = 40


@dataclass(frozen=True)
class ExperimentConfig(_Config):
    """Full description of a reproducible synthetic run."""

    model: ModelConfig
    k_grid: tuple[int, ...]
    methods: tuple[str, ...] = METHODS
    pair_sample_size: int = 1000
    dims: tuple[int, ...] = (1,)
    output_dir: str = "."
    replicate_seeds: tuple[int, ...] = (0,)

    def validate(self) -> None:
        check_field_types(self)
        self.model.validate()
        if not self.k_grid or list(self.k_grid) != sorted(set(self.k_grid)):
            raise ValueError("k_grid must be sorted ascending without duplicates")
        if any(k < 1 for k in self.k_grid):
            raise ValueError("k values must be positive")
        # k values above the per-query candidate pool (n - 1) are cut to n - 1
        # at query time: the runner calls neighbor_order directly, while the
        # public neighbor functions refuse such a k
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if self.pair_sample_size < 1:
            raise ValueError("pair_sample_size must be positive")
        if any(d < 1 for d in self.dims):
            raise ValueError("dims must be positive")
        if not self.replicate_seeds:
            raise ValueError("at least one replicate seed is required")

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class ReportRow:
    method: str
    k: int
    dim: int
    seed: int
    query_bin: int | None
    error_mean: float | None
    error_stderr: float | None
    neighbor_dist_mean: float

    def validate(self) -> None:
        check_field_types(self)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.k < 1 or self.dim < 1:
            raise ValueError(f"k and dim must be >= 1, got k={self.k}, dim={self.dim}")
        if self.query_bin is not None and not 0 <= self.query_bin < POSITION_BINS:
            raise ValueError(f"query_bin must be in [0, {POSITION_BINS}), got {self.query_bin}")
        if self.error_mean is not None and not 0.0 <= self.error_mean <= 1.0:
            raise ValueError("error_mean must lie in [0, 1]")
        # the CSV keeps 10 significant digits: above 1e308 they can round to inf
        if self.error_stderr is not None and not 0 <= self.error_stderr < 1e308:
            raise ValueError("error_stderr must be nonnegative and below 1e308")
        if not 0 <= self.neighbor_dist_mean < 1e308:
            raise ValueError("neighbor distances are nonnegative and below 1e308")


CSV_HEADER = ",".join([*(f.name for f in fields(ReportRow)), "config_hash"])


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ReportRow, ...]
    config_hash: str

    def merge(self, other: "ExperimentReport") -> "ExperimentReport":
        if other.config_hash != self.config_hash:
            raise ValueError(
                f"refusing to merge reports from different configs "
                f"({self.config_hash} vs {other.config_hash})"
            )
        return ExperimentReport(rows=self.rows + other.rows, config_hash=self.config_hash)

    def best_errors(self, seed: int | None = None) -> dict[str, float]:
        """Per-method minimum error over k (optionally within one seed)."""
        best: dict[str, float] = {}
        for row in self.rows:
            if row.error_mean is None or (seed is not None and row.seed != seed):
                continue
            if row.method not in best or row.error_mean < best[row.method]:
                best[row.method] = row.error_mean
        return best


def _fmt(value, kind) -> str:
    """One CSV field: empty for None, else cast to ``kind``; a float to 10 significant digits."""
    if value is None:
        return ""
    return f"{float(value):.10g}" if kind is float else str(kind(value))


def write_report_csv(report: ExperimentReport, path) -> None:
    """Write ``report`` in one call once its rows, their presence (the config
    hash lives only in them) and the hash pass: a refused one touches no file."""
    check_field_types(report)
    if not report.rows:
        raise ValueError("a report needs at least one row to carry its config hash")
    if "," in report.config_hash or "".join(report.config_hash.splitlines()) != report.config_hash:
        raise ValueError(f"config hash {report.config_hash!r} holds a comma or a line break")
    names, kinds = zip(*(f[:2] for f in _field_kinds(ReportRow)))
    values = attrgetter(*names)
    lines = [CSV_HEADER]
    for row in report.rows:
        row.validate()
        lines.append(",".join([*map(_fmt, values(row), kinds), report.config_hash]))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def read_report_csv(path) -> ExperimentReport:
    """Read a ``write_report_csv`` file, each field parsed by its annotation
    in ``ReportRow``; an empty field reads as None, which only ``T | None`` accepts."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized report header")
    kinds, rows, hashes = [f[1] for f in _field_kinds(ReportRow)], [], set()
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        *values, config_hash = line.split(",")
        try:
            if len(values) != len(kinds):
                raise ValueError(f"expected {len(kinds) + 1} fields, got {len(values) + 1}")
            row = ReportRow(*(kind(v) if v else None for kind, v in zip(kinds, values)))
            row.validate()
        except ValueError as exc:
            raise ValueError(f"report line {number}: {exc}") from None
        rows.append(row)
        hashes.add(config_hash)
    if not rows:
        raise ValueError("report file has no rows")
    if len(hashes) != 1:
        raise ValueError("report file mixes config hashes")
    return ExperimentReport(rows=tuple(rows), config_hash=hashes.pop())


@dataclass(frozen=True)
class _SeedContext:
    """Shared read-only state for one replicate."""

    population: Population
    matrix: np.ndarray
    features: FeatureMatrix | None  # built only when global_knn runs
    discordance: np.ndarray | None  # (n, n) Kendall-tau distances; only when kt_knn runs
    seed: int
    columns: np.ndarray = field(init=False)  # contiguous (m, n) int32 transpose of matrix

    def __post_init__(self):
        # the vote skips neighbors that do not observe a pair, but the runner
        # has no rule yet for a sampled pair that none of the k neighbors
        # observes (the public API raises), so it takes full rankings only
        if self.matrix.size and self.matrix.min() < 0:
            raise ValueError("the runner votes on fully observed rankings; matrix has -1 entries")
        object.__setattr__(self, "columns", np.ascontiguousarray(self.matrix.T, dtype=np.int32))


def _build_context(
    model: ModelConfig, seed: int, methods, n_jobs: int | None = None
) -> _SeedContext:
    cfg = replace(model, seed=seed)
    pop = sample_population(cfg)
    matrix = sample_rankings(pop, seed=seed)
    features = feature_matrix(matrix, pairing_seed=seed) if "global_knn" in methods else None
    discordance = discordance_matrix(matrix, n_jobs) if "kt_knn" in methods else None
    return _SeedContext(
        population=pop, matrix=matrix, features=features, discordance=discordance, seed=seed
    )


def _method_distances(ctx: _SeedContext, method: str, q: int) -> np.ndarray:
    if method == "kt_knn":
        d = ctx.discordance[q].astype(float)
        d[q] = np.inf
        return d
    if method == "global_knn":
        return agents.global_distances(ctx.features, q)
    return agents.oracle_distances(ctx.population, q)  # methods are checked by the config


def _query_errors(
    ctx: _SeedContext, q: int, methods, k_grid, pair_count: int
) -> dict[tuple[str, int], tuple[float, float]]:
    """Per (method, k): (prediction error, mean latent distance of neighbors)."""
    pairs = sample_pairs(
        ctx.population.n_alternatives, pair_count, rng.substream(ctx.seed, rng.PAIR_SAMPLE, q)
    )
    truth = agents.true_probabilities(ctx.population, q, pairs)
    latent = agents.oracle_distances(ctx.population, q)
    sizes = np.minimum(k_grid, ctx.population.n_agents - 1)  # neighbors voting at each k
    dists = [latent if m == "oracle" else _method_distances(ctx, m, q) for m in methods]
    # no k votes with more neighbors than the largest k
    orders = [agents.neighbor_order(dist, q, max(k_grid)) for dist in dists]
    prefer, usable = agents._vote_counts(ctx.columns, pairs, orders, sizes)
    votes = prefer / usable
    out: dict[tuple[str, int], tuple[float, float]] = {}
    for method, order, method_votes in zip(methods, orders, votes):
        cum_dist = np.cumsum(latent[order])
        for k, kk, vote in zip(k_grid, sizes, method_votes):
            err = float(np.mean(np.abs(vote - truth)))
            out[(method, k)] = (err, float(cum_dist[kk - 1] / kk))
    return out


def _map_queries(ctx, queries, methods, k_grid, pair_count, n_jobs):
    def work(q):
        return _query_errors(ctx, q, methods, k_grid, pair_count)

    if n_jobs is None or n_jobs <= 1:
        return [work(q) for q in queries]
    with ThreadPoolExecutor(max_workers=n_jobs) as pool:
        return list(pool.map(work, queries))


def _sweep(cfg: ExperimentConfig, models, k_grid, pair_count: int, n_jobs: int | None):
    """(seed, dim, context, per-query stats) for each replicate seed and model
    in turn; every agent serves once as the query, stats in query order."""
    if n_jobs is not None:
        _check_number(n_jobs, "n_jobs", 1, integer=True)
    for seed in cfg.replicate_seeds:
        for model in models:
            ctx = _build_context(model, seed, cfg.methods, n_jobs)
            queries = range(model.n_agents)
            yield seed, model.dim, ctx, _map_queries(
                ctx, queries, cfg.methods, k_grid, pair_count, n_jobs
            )


def _summary_row(
    per_query, method: str, k: int, dim: int, seed: int, query_bin=None, errors: bool = True
) -> ReportRow:
    """Mean error, its standard error (0.0 for one query) and mean neighbor
    distance over ``per_query`` at (method, k); ``errors=False`` leaves the
    error columns empty."""
    errs = np.array([stats[(method, k)][0] for stats in per_query])
    dists = np.array([stats[(method, k)][1] for stats in per_query])
    stderr = float(errs.std(ddof=1) / math.sqrt(errs.size)) if errs.size > 1 else 0.0
    return ReportRow(
        method=method,
        k=k,
        dim=dim,
        seed=seed,
        query_bin=query_bin,
        error_mean=float(errs.mean()) if errors else None,
        error_stderr=stderr if errors else None,
        neighbor_dist_mean=float(dists.mean()),
    )


def run_error_vs_k(cfg: ExperimentConfig, n_jobs: int | None = None) -> ExperimentReport:
    """Error and neighbor-distance summary per (method, k, seed); every agent
    serves once as the query and errors are averaged over queries. Each of the
    ``n_jobs`` query threads' vote products starts OpenBLAS threads of its
    own, so with ``n_jobs > 1`` set ``OPENBLAS_NUM_THREADS=1``."""
    cfg.validate()
    rows = [
        _summary_row(per_query, method, k, dim, seed)
        for seed, dim, _, per_query in _sweep(
            cfg, [cfg.model], cfg.k_grid, cfg.pair_sample_size, n_jobs
        )
        for method in cfg.methods
        for k in cfg.k_grid
    ]
    return ExperimentReport(rows=tuple(rows), config_hash=cfg.config_hash())


def run_error_vs_position(
    cfg: ExperimentConfig, k: int, n_jobs: int | None = None
) -> ExperimentReport:
    """Errors at a fixed k, binned by the query's latent position. With
    ``n_jobs > 1`` set ``OPENBLAS_NUM_THREADS=1`` (see ``run_error_vs_k``)."""
    cfg.validate()
    if cfg.model.dim != 1:
        raise ValueError("position binning is defined for dim = 1")
    _check_number(k, "k", 1, cfg.model.n_agents - 1, integer=True)
    rows = []
    edges = np.linspace(0.0, cfg.model.box, POSITION_BINS + 1)
    for seed, dim, ctx, per_query in _sweep(cfg, [cfg.model], (k,), cfg.pair_sample_size, n_jobs):
        bins = np.clip(np.digitize(ctx.population.agents[:, 0], edges) - 1, 0, POSITION_BINS - 1)
        for method in cfg.methods:
            for b in range(POSITION_BINS):
                in_bin = [per_query[q] for q in np.flatnonzero(bins == b)]
                if in_bin:
                    rows.append(_summary_row(in_bin, method, k, dim, seed, query_bin=b))
    return ExperimentReport(rows=tuple(rows), config_hash=cfg.config_hash())


def run_dim_sweep(cfg: ExperimentConfig, n_jobs: int | None = None) -> ExperimentReport:
    """Mean latent distance to the selected neighbors per (method, k, dim).

    For dimension d the box edge is scaled to box / sqrt(d), keeping the
    diameter of the support comparable across dimensions. Prediction-error
    columns are left empty. With ``n_jobs > 1`` set ``OPENBLAS_NUM_THREADS=1``.
    """
    cfg.validate()
    if not cfg.dims:
        raise ValueError("dims must be nonempty")
    models = [replace(cfg.model, dim=d, box=cfg.model.box / math.sqrt(d)) for d in cfg.dims]
    rows = [
        _summary_row(per_query, method, k, dim, seed, errors=False)
        for seed, dim, _, per_query in _sweep(cfg, models, cfg.k_grid, 1, n_jobs)
        for method in cfg.methods
        for k in cfg.k_grid
    ]
    return ExperimentReport(rows=tuple(rows), config_hash=cfg.config_hash())

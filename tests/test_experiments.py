from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plknn import (
    ExperimentConfig,
    ModelConfig,
    kt_knn,
    read_report_csv,
    run_dim_sweep,
    run_error_vs_k,
    run_error_vs_position,
    sample_population,
    sample_rankings,
    write_report_csv,
)
from plknn import agents, rng
from plknn.agents import METHODS
from plknn.experiments import (
    CSV_HEADER,
    POSITION_BINS,
    ExperimentReport,
    ReportRow,
    _build_context,
    _method_distances,
    _query_errors,
    _SeedContext,
)


def _tiny_config(seed=0, **overrides):
    model = ModelConfig(n_agents=40, n_alternatives=120, dim=1, box=5.0, seed=seed)
    defaults = dict(
        model=model,
        k_grid=(3, 8),
        pair_sample_size=60,
        replicate_seeds=(0, 1),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_config_validation_and_roundtrip():
    cfg = _tiny_config()
    cfg.validate()
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg
    with pytest.raises(ValueError):
        _tiny_config(k_grid=(8, 3)).validate()
    with pytest.raises(ValueError):
        _tiny_config(methods=("kt_knn", "bogus")).validate()
    with pytest.raises(ValueError):
        _tiny_config(pair_sample_size=0).validate()
    with pytest.raises(ValueError):
        _tiny_config(replicate_seeds=()).validate()


def test_context_builds_only_the_distances_its_methods_use():
    model = _tiny_config().model
    assert _build_context(model, 0, ("global_knn", "oracle")).discordance is None
    ctx = _build_context(model, 0, ("kt_knn", "oracle"))
    assert ctx.features is None
    # the runner's Kendall row picks the same neighbors as the public kt_knn
    matrix = sample_rankings(sample_population(model), seed=0)
    assert np.array_equal(ctx.matrix, matrix)
    for q in (0, 17, 39):
        dist = _method_distances(ctx, "kt_knn", q)
        assert dist[q] == np.inf
        order = [j for j in np.lexsort((np.arange(dist.size), dist)) if j != q]
        assert tuple(order[:8]) == kt_knn(matrix, q, 8).members


def _query_errors_reference(ctx, q, methods, k_grid, pair_count):
    """The vote as two row-major gathers per method and a cumulative sum over
    the neighbors, nearest first."""
    pairs = agents.sample_pairs(
        ctx.population.n_alternatives, pair_count, rng.substream(ctx.seed, rng.PAIR_SAMPLE, q)
    )
    truth = agents.true_probabilities(ctx.population, q, pairs)
    latent = agents.oracle_distances(ctx.population, q)
    out = {}
    for method in methods:
        dist = latent if method == "oracle" else _method_distances(ctx, method, q)
        order = agents.neighbor_order(dist, q, max(k_grid))
        prefer = ctx.matrix[np.ix_(order, pairs[:, 0])] < ctx.matrix[np.ix_(order, pairs[:, 1])]
        cum_votes = np.cumsum(prefer, axis=0, dtype=np.float64)
        cum_dist = np.cumsum(latent[order])
        for k in k_grid:
            kk = min(k, order.size)
            votes = cum_votes[kk - 1] / kk
            err = float(np.mean(np.abs(votes - truth)))
            out[(method, k)] = (err, float(cum_dist[kk - 1] / kk))
    return out


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(3, 14),
    m=st.integers(2, 40),
    pair_count=st.integers(1, 60),
    methods=st.lists(st.sampled_from(METHODS), min_size=1, max_size=3, unique=True),
    k_grid=st.lists(st.integers(1, 18), min_size=1, max_size=5, unique=True).map(sorted),
    seed=st.integers(0, 2**16),
)
def test_query_errors_match_the_cumulative_vote(n, m, pair_count, methods, k_grid, seed):
    # the shared vote count (one gather and one product for every method and
    # k) equals the per-method gathers and cumulative sums bit for bit,
    # k >= n - 1 included
    model = ModelConfig(n_agents=n, n_alternatives=m, dim=1, box=5.0, seed=seed)
    ctx = _build_context(model, seed, methods)
    k_grid = tuple(k_grid) + (n - 1, n + 3) if max(k_grid) < n - 1 else tuple(k_grid)
    for q in range(n):
        got = _query_errors(ctx, q, methods, k_grid, pair_count)
        assert got == _query_errors_reference(ctx, q, methods, k_grid, pair_count)


def test_context_refuses_unobserved_entries():
    # the vote counts usable neighbors, but the runner has no rule yet for a
    # sampled pair that none of the k neighbors observes
    model = _tiny_config().model
    ctx = _build_context(model, 0, ("oracle",))
    assert ctx.columns.flags.c_contiguous and ctx.columns.dtype == np.int32
    assert np.array_equal(ctx.columns, ctx.matrix.T)
    matrix = ctx.matrix.copy()
    matrix[3, 5] = -1
    with pytest.raises(ValueError, match="-1"):
        _SeedContext(
            population=ctx.population, matrix=matrix, features=None, discordance=None, seed=0
        )


def test_config_hash_sensitivity():
    assert _tiny_config().config_hash() == _tiny_config().config_hash()
    changed = _tiny_config(pair_sample_size=61)
    assert changed.config_hash() != _tiny_config().config_hash()


def test_error_vs_k_rows_and_determinism(tmp_path):
    cfg = _tiny_config()
    report = run_error_vs_k(cfg)
    assert len(report.rows) == 3 * 2 * 2  # methods x k x seeds
    for row in report.rows:
        assert 0.0 <= row.error_mean <= 1.0
        assert row.neighbor_dist_mean >= 0.0
        row.validate()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv(report, p1)
    write_report_csv(run_error_vs_k(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = read_report_csv(p1)
    assert loaded.config_hash == report.config_hash
    assert len(loaded.rows) == len(report.rows)
    for got, want in zip(loaded.rows, report.rows):
        assert (got.method, got.k, got.dim, got.seed, got.query_bin) == (
            want.method, want.k, want.dim, want.seed, want.query_bin,
        )
        assert got.error_mean == pytest.approx(want.error_mean, rel=1e-9)
        assert got.neighbor_dist_mean == pytest.approx(want.neighbor_dist_mean, rel=1e-9)


def test_error_vs_k_parallel_matches_serial(tmp_path):
    # n_jobs reaches both the query pool and the Kendall build
    cfg = _tiny_config()
    assert set(cfg.methods) == set(METHODS)
    written = []
    for n_jobs in (None, 1, 2, 4):
        path = tmp_path / f"jobs{n_jobs}.csv"
        write_report_csv(run_error_vs_k(cfg, n_jobs=n_jobs), path)
        written.append(path.read_bytes())
    assert all(data == written[0] for data in written)


def test_csv_schema_and_hash_column(tmp_path):
    cfg = _tiny_config()
    report = run_error_vs_k(cfg)
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0].split(",")[:8] == [
        "method", "k", "dim", "seed", "query_bin",
        "error_mean", "error_stderr", "neighbor_dist_mean",
    ]
    for line in lines[1:]:
        assert line.split(",")[-1] == report.config_hash


@pytest.mark.parametrize(
    "change, message",
    [
        ({"error_mean": 1.5}, "error_mean"),
        ({"neighbor_dist_mean": -5.6}, "nonnegative"),
        # these four once wrote a file that read_report_csv refused
        ({"k": True}, "ReportRow.k has the wrong type"),
        ({"k": 2.5}, "ReportRow.k has the wrong type"),
        ({"dim": 1.0}, "ReportRow.dim has the wrong type"),
        ({"seed": "x"}, "ReportRow.seed has the wrong type"),
        # changes to the report: its config hash lives only in the rows
        ({"rows": ()}, "at least one row"),
        ({"config_hash": "a,b"}, "comma or a line break"),
        ({"config_hash": "ab\n"}, "comma or a line break"),
        ({"config_hash": 7}, "config_hash has the wrong type"),
        ({"config_hash": "\ud800"}, "codec can't encode"),
    ],
)
def test_write_report_refuses_an_invalid_row(tmp_path, change, message):
    row = ReportRow("kt_knn", 3, 1, 0, None, 0.1, 0.01, 0.5)
    report = ExperimentReport(rows=(row, row), config_hash="abc")
    if set(change) <= {"rows", "config_hash"}:
        report = replace(report, **change)
    else:
        report = replace(report, rows=(row, replace(row, **change)))
    # everything is checked before the file is opened: no file is created,
    # and an existing one is left as it was
    path = tmp_path / "report.csv"
    with pytest.raises(ValueError, match=message):
        write_report_csv(report, path)
    assert not path.exists()
    path.write_text("kept\n")
    with pytest.raises(ValueError, match=message):
        write_report_csv(report, path)
    assert path.read_text() == "kept\n"


# a float field accepts any real number: written as a float, read back as one
_ANY_FLOAT = st.floats() | st.integers(-3, 3) | st.fractions(-2, 2)
_REPORT_ROWS = st.builds(
    ReportRow,
    method=st.sampled_from(METHODS),
    k=st.integers(-1, 10**6) | st.integers(0, 50).map(np.int64),
    dim=st.integers(-1, 50),
    seed=st.integers(),
    query_bin=st.none() | st.integers(-1, POSITION_BINS),
    error_mean=st.none() | _ANY_FLOAT,
    error_stderr=st.none() | _ANY_FLOAT,
    neighbor_dist_mean=_ANY_FLOAT,
)
# a UTF-8 config hash without a comma or a line break (str.splitlines' characters)
_HASHES = st.text(st.characters(
    blacklist_categories=("Cs",),
    blacklist_characters=",\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029",
))


def _is_valid(row) -> bool:
    try:
        row.validate()
    except ValueError:
        return False
    return True


@settings(deadline=None, max_examples=150)
@given(rows=st.lists(_REPORT_ROWS, max_size=6), config_hash=_HASHES)
def test_any_valid_report_reads_back_and_rewrites_to_the_same_bytes(
    tmp_path_factory, rows, config_hash
):
    rows = tuple(row for row in rows if _is_valid(row))
    assume(rows)
    report = ExperimentReport(rows=rows, config_hash=config_hash)
    path, again = (tmp_path_factory.mktemp("report") / name for name in ("a.csv", "b.csv"))
    write_report_csv(report, path)
    loaded = read_report_csv(path)
    assert loaded.config_hash == config_hash and len(loaded.rows) == len(rows)
    for got, want in zip(loaded.rows, rows):
        assert (got.method, got.k, got.dim, got.seed, got.query_bin) == (
            want.method, want.k, want.dim, want.seed, want.query_bin,
        )
        assert (got.error_mean is None, got.error_stderr is None) == (
            want.error_mean is None, want.error_stderr is None,
        )
    write_report_csv(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_merge_refuses_mismatched_configs():
    r1 = run_error_vs_k(_tiny_config())
    r2 = run_error_vs_k(_tiny_config(pair_sample_size=61))
    with pytest.raises(ValueError):
        r1.merge(r2)
    merged = r1.merge(run_error_vs_k(_tiny_config()))
    assert len(merged.rows) == 2 * len(r1.rows)


def test_read_report_rejects_mixed_hashes(tmp_path):
    row = "kt_knn,3,1,0,,0.1,0.01,0.5,"
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\n" + row + "aaa\n" + row + "bbb\n")
    with pytest.raises(ValueError, match="mixes config hashes"):
        read_report_csv(path)
    # a header alone once read back as "mixes config hashes"
    path.write_text(CSV_HEADER + "\n\n")
    with pytest.raises(ValueError, match="report file has no rows"):
        read_report_csv(path)
    # a bad row is refused with its line number; the first three once read
    # back (k = -2 with a negative distance, an unknown method) or ended in
    # an IndexError
    bad_rows = {
        "kt_knn,-2,1,0,3,0.5391652619,0,-5.57109167,abc": "k and dim",
        "bogus,3,1,0,,0.1,0.01,0.5,abc": "unknown method",
        "kt_knn,3,1": "expected 9 fields",
        "kt_knn,3,0,0,,0.1,0.01,0.5,abc": "k and dim",
        f"oracle,3,1,0,{POSITION_BINS},0.1,0.01,0.5,abc": "query_bin",
        "oracle,3,1,0,-1,0.1,0.01,0.5,abc": "query_bin",
        "oracle,3,1,0,,0.1,-0.01,0.5,abc": "error_stderr",
        "oracle,3,1,0,,0.1,0.01,nan,abc": "nonnegative",
        "oracle,x,1,0,,0.1,0.01,0.5,abc": "invalid literal",
    }
    for bad, message in bad_rows.items():
        path.write_text(CSV_HEADER + "\n" + row + "abc\n" + bad + "\n")
        with pytest.raises(ValueError, match=f"report line 3: .*{message}"):
            read_report_csv(path)


def test_oracle_never_worse_at_every_k():
    report = run_error_vs_k(_tiny_config(pair_sample_size=300))
    by = {(r.method, r.k, r.seed): r.error_mean for r in report.rows}
    for k in (3, 8):
        for seed in (0, 1):
            assert by[("oracle", k, seed)] <= by[("kt_knn", k, seed)] + 0.02


def test_error_vs_position_bins():
    model = ModelConfig(n_agents=200, n_alternatives=800, dim=1, box=5.0, seed=0)
    cfg = ExperimentConfig(
        model=model, k_grid=(40,), pair_sample_size=400, replicate_seeds=(0,)
    )
    report = run_error_vs_position(cfg, k=40)
    curves = {}
    for method in ("kt_knn", "global_knn", "oracle"):
        errs = {r.query_bin: r.error_mean for r in report.rows if r.method == method}
        assert all(0 <= b < 40 for b in errs)
        curves[method] = np.array([errs.get(b, np.nan) for b in range(40)])
    # oracle is the envelope on average; the rank-distance baseline both
    # peaks higher and peaks away from corners and center
    assert np.nanmean(curves["oracle"]) <= np.nanmean(curves["global_knn"])
    assert np.nanmean(curves["global_knn"]) < np.nanmean(curves["kt_knn"])
    assert np.nanmax(curves["kt_knn"]) > np.nanmax(curves["global_knn"]) + 0.02
    peak = int(np.nanargmax(curves["kt_knn"]))
    assert peak not in set(range(4)) | set(range(36, 40))
    assert peak not in set(range(17, 23))
    with pytest.raises(ValueError):
        run_error_vs_position(
            ExperimentConfig(
                model=ModelConfig(n_agents=30, n_alternatives=20, dim=2, box=1.0, seed=0),
                k_grid=(3,),
                replicate_seeds=(0,),
            ),
            k=3,
        )


def test_dim_sweep_ordering_and_scaling():
    model = ModelConfig(n_agents=200, n_alternatives=800, dim=1, box=5.0, seed=0)
    cfg = ExperimentConfig(
        model=model, k_grid=(40,), pair_sample_size=50, dims=(1, 2, 3), replicate_seeds=(0,)
    )
    report = run_dim_sweep(cfg)
    dist = {(r.method, r.dim): r.neighbor_dist_mean for r in report.rows}
    for d in (1, 2, 3):
        assert dist[("oracle", d)] <= dist[("global_knn", d)] < dist[("kt_knn", d)]
        # the box edge is normalized to 5/sqrt(d); distances stay within the
        # (constant) diameter while growing with dimension at fixed n
        assert dist[("oracle", d)] < 5.0
    assert dist[("oracle", 1)] < dist[("oracle", 2)] < dist[("oracle", 3)]
    for row in report.rows:
        assert row.error_mean is None


def test_dim_sweep_consistent_with_error_run_bookkeeping():
    model = ModelConfig(n_agents=60, n_alternatives=150, dim=1, box=5.0, seed=0)
    cfg = ExperimentConfig(
        model=model, k_grid=(5,), pair_sample_size=20, dims=(1,), replicate_seeds=(0,)
    )
    sweep = {(r.method,): r.neighbor_dist_mean for r in run_dim_sweep(cfg).rows}
    errk = {(r.method,): r.neighbor_dist_mean for r in run_error_vs_k(cfg).rows}
    for key, value in sweep.items():
        assert value == pytest.approx(errk[key], rel=1e-12)


def test_position_bins_average_to_the_error_vs_k_row():
    # the same queries summarized two ways: weighting each bin by its query
    # count gives back the all-query mean, and a lone query has no spread
    cfg = _tiny_config(k_grid=(8,))
    by_k = {(r.method, r.seed): r for r in run_error_vs_k(cfg).rows}
    by_bin = run_error_vs_position(cfg, k=8)
    edges = np.linspace(0.0, cfg.model.box, POSITION_BINS + 1)
    lone = 0
    for seed in cfg.replicate_seeds:
        positions = sample_population(replace(cfg.model, seed=seed)).agents[:, 0]
        counts = np.bincount(np.clip(np.digitize(positions, edges) - 1, 0, POSITION_BINS - 1))
        for method in cfg.methods:
            rows = [r for r in by_bin.rows if (r.method, r.seed) == (method, seed)]
            assert [r.query_bin for r in rows] == np.flatnonzero(counts).tolist()
            weights = counts[[r.query_bin for r in rows]]
            for column in ("error_mean", "neighbor_dist_mean"):
                mean = np.dot(weights, [getattr(r, column) for r in rows]) / weights.sum()
                assert mean == pytest.approx(getattr(by_k[(method, seed)], column), rel=1e-12)
            for row, count in zip(rows, weights):
                if count == 1:
                    lone += 1
                    assert row.error_stderr == 0.0
    assert lone > 0

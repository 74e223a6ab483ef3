"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 5 is implemented exactly at its stated scale and is expected to
fail. At box size 1 the expected rank-distance curve against a query at 0.2
spans only ~2e-3 (0.48436 at the boundary vs 0.48620 at the query itself)
while the per-agent rank-distance noise at m=2000 has std ~7e-3, so neighbor
selection is noise-dominated regardless of implementation; meeting the
stated thresholds needs orders of magnitude more alternatives than m=2000.
The empirical curve matches quadrature to four decimals, ruling out an
implementation bug, and the identical witness passes comfortably in a wider
box where the curve is steep (test_agents.py, wide-box witness). See also
the README's note on this criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest

from plknn import (
    ExperimentConfig,
    ModelConfig,
    enkt_feature,
    exact_order_prob,
    kendall_tau,
    nkt,
    rank_matrix,
    restrict_ranking,
    run_error_vs_k,
    write_report_csv,
)
from plknn import rng
from plknn.theory import (
    agent_bound_check,
    item_bound_check,
    verify_example_one,
    verify_theorem_bias,
)

from _harness import bias_witness, gumbel_orders, planted_split_trial, sequential_orders


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_pl_sampler_fidelity():
    t0 = time.time()
    x, ys = 0.0, np.array([0.1, 0.5, 0.9])
    n = 1_000_000
    probs = {
        perm: exact_order_prob(np.array([x]), ys[:, None], perm)
        for perm in itertools.permutations(range(3))
    }
    worst = 0.0
    for name, sampler in (("gumbel", gumbel_orders), ("sequential", sequential_orders)):
        orders = sampler(x, ys, rng.substream(2024, 0), n)
        keys = orders[:, 0] * 9 + orders[:, 1] * 3 + orders[:, 2]
        for perm, p in probs.items():
            key = perm[0] * 9 + perm[1] * 3 + perm[2]
            freq = float(np.mean(keys == key))
            se = math.sqrt(p * (1 - p) / n)
            worst = max(worst, abs(freq - p) / se)
    elapsed = time.time() - t0
    ok = worst < 4.0 and elapsed < 30.0
    assert _report("1", ok, f"max |freq-p| = {worst:.2f} standard errors, {elapsed:.1f}s")
    assert worst < 4.0
    assert elapsed < 30.0


def test_criterion_2_estimator_unbiasedness():
    t0 = time.time()
    gen = rng.substream(7, rng.TRIAL, 1)
    trials, m = 10_000, 20
    pair_a = np.arange(0, m, 2)
    pair_b = pair_a + 1
    all_pairs = list(itertools.combinations(range(m), 2))
    worst = 0.0
    details = []
    for case in range(5):
        x_i, x_j = gen.random(2)
        ys = gen.random((trials, m))
        stream_i = rng.substream(11, rng.TRIAL, case * 2)
        stream_j = rng.substream(11, rng.TRIAL, case * 2 + 1)
        u_i = stream_i.random((trials, m))
        u_j = stream_j.random((trials, m))
        pos_i = np.argsort(
            np.argsort(-(-np.abs(ys - x_i) - np.log(-np.log(u_i))), axis=1, kind="stable"),
            axis=1, kind="stable",
        )
        pos_j = np.argsort(
            np.argsort(-(-np.abs(ys - x_j) - np.log(-np.log(u_j))), axis=1, kind="stable"),
            axis=1, kind="stable",
        )
        enkt_vals = np.mean(
            (pos_i[:, pair_a] - pos_i[:, pair_b]) * (pos_j[:, pair_a] - pos_j[:, pair_b]) < 0,
            axis=1,
        )
        aa = [a for a, _ in all_pairs]
        bb = [b for _, b in all_pairs]
        nkt_vals = np.mean(
            np.sign(pos_i[:, aa] - pos_i[:, bb]) * np.sign(pos_j[:, aa] - pos_j[:, bb]) < 0,
            axis=1,
        )
        if case == 0:
            # pin the vectorized harness to the public estimator functions
            pairing = np.stack([pair_a, pair_b], axis=1)
            for t in range(5):
                r_i = pos_i[t]
                r_j = pos_j[t]
                assert enkt_feature(r_i, r_j, pairing) == pytest.approx(enkt_vals[t])
                assert nkt(r_i, r_j) == pytest.approx(nkt_vals[t])
        diff = enkt_vals - nkt_vals
        se = diff.std(ddof=1) / math.sqrt(trials)
        z = abs(diff.mean()) / se
        worst = max(worst, z)
        details.append(f"{z:.2f}")
    elapsed = time.time() - t0
    ok = worst < 3.0 and elapsed < 60.0
    assert _report("2", ok, f"|mean gap| in paired stderr units: {details}, {elapsed:.1f}s")
    assert worst < 3.0
    assert elapsed < 60.0


def test_criterion_3_bias_curve_quadrature():
    t0 = time.time()
    report = verify_theorem_bias(
        left_queries=(0.05, 0.1, 0.2, 0.25), right_queries=(0.75, 0.9)
    )
    elapsed = time.time() - t0
    detail = "; ".join(f"{c.name}={c.status}" for c in report.claims)
    ok = report.passed and elapsed < 300.0
    assert _report("3", ok, f"{detail}, {elapsed:.1f}s")
    assert report.passed
    assert elapsed < 300.0


def test_criterion_4_two_alternative_example():
    report = verify_example_one(tol=1e-6)
    detail = "; ".join(f"{c.name}={c.status}" for c in report.claims)
    assert _report("4", report.passed, detail)
    assert report.passed


def test_criterion_5_bias_witness_stated_scale():
    # stated parameters: n=500, m=2000, box=1, query 0.2, 5 seeds; see the
    # module docstring - the box=1 effect size cannot clear sampling noise
    t0 = time.time()
    kt_hits = global_hits = oracle_hits = 0
    observed = []
    for seed in range(5):
        means = bias_witness(seed=seed, n=500, m=2000, box=1.0, x_q=0.2, k=10)
        kt_hits += means["kt_knn"] < 0.1
        global_hits += abs(means["global_knn"] - 0.2) <= 0.05
        oracle_hits += abs(means["oracle"] - 0.2) <= 0.05
        observed.append({k: round(v, 3) for k, v in means.items()})
    elapsed = time.time() - t0
    ok = kt_hits >= 4 and global_hits >= 4 and oracle_hits >= 4 and elapsed < 600.0
    _report(
        "5",
        ok,
        f"kt<0.1 in {kt_hits}/5, global within 0.05 in {global_hits}/5, "
        f"oracle within 0.05 in {oracle_hits}/5, means={observed}, {elapsed:.0f}s",
    )
    assert elapsed < 600.0
    assert kt_hits >= 4, "rank-distance neighbor means do not concentrate below 0.1"
    assert global_hits >= 4, "global-feature neighbor means miss the 0.05 band"
    assert oracle_hits >= 4


def test_criterion_6_reduced_scale_ordering():
    t0 = time.time()
    cfg = ExperimentConfig(
        model=ModelConfig(n_agents=300, n_alternatives=1500, dim=1, box=5.0, seed=0),
        k_grid=(20, 80, 160, 240, 320),
        pair_sample_size=1000,
        replicate_seeds=(0, 1, 2),
    )
    report = run_error_vs_k(cfg)
    ok = True
    gaps = []
    for seed in cfg.replicate_seeds:
        best = report.best_errors(seed=seed)
        gaps.append(round(best["kt_knn"] - best["global_knn"], 4))
        ok &= best["oracle"] <= best["global_knn"] < best["kt_knn"]
        ok &= best["kt_knn"] - best["global_knn"] > 0.01
    elapsed = time.time() - t0
    ok = ok and elapsed < 600.0
    assert _report("6", ok, f"per-seed kt-global gaps {gaps}, {elapsed:.0f}s")
    assert ok


@pytest.mark.fullscale
def test_criterion_6_full_scale_reproduction(tmp_path):
    # opt-in long check against the reported optimal errors; single seed
    t0 = time.time()
    cfg = ExperimentConfig(
        model=ModelConfig(n_agents=1200, n_alternatives=6000, dim=1, box=5.0, seed=0),
        k_grid=tuple(range(20, 501, 20)),
        pair_sample_size=1000,
        replicate_seeds=(0,),
    )
    report = run_error_vs_k(cfg, n_jobs=4)
    write_report_csv(report, tmp_path / "full_scale_fig1a.csv")
    best = report.best_errors()
    elapsed = time.time() - t0
    targets = {"kt_knn": 0.0466, "global_knn": 0.0258, "oracle": 0.0246}
    detail = ", ".join(
        f"{m}: best={best[m]:.4f} target={t:.4f}" for m, t in targets.items()
    )
    ok = all(abs(best[m] - t) <= 0.010 for m, t in targets.items())
    assert _report("6-full", ok, f"{detail}, {elapsed:.0f}s")
    assert ok


def test_criterion_7_bound_shapes():
    t0 = time.time()
    agent = agent_bound_check(trials=10_000, seed=0)
    t_agent = time.time() - t0
    t0 = time.time()
    item = item_bound_check(seed=0)
    t_item = time.time() - t0
    agent_slope = next(c for c in agent.claims if c.name == "envelope_slope")
    item_slope = next(c for c in item.claims if c.name == "envelope_slope")
    ok = (
        agent.passed and item.passed and t_agent < 600.0 and t_item < 600.0
    )
    assert _report(
        "7",
        ok,
        f"agent slope={agent_slope.details['slope']:.3f} "
        f"(r2={agent_slope.details['r_squared']:.4f}), "
        f"item slope={item_slope.details['slope']:.3f} "
        f"(r2={item_slope.details['r_squared']:.4f}), "
        f"{t_agent:.0f}s + {t_item:.0f}s",
    )
    assert agent.passed and item.passed
    assert t_agent < 600.0 and t_item < 600.0


def test_criterion_8_split_cluster_planted():
    t0 = time.time()
    trials = 100
    perfect = 0
    for seed in range(trials):
        near_ok, mirror_out = planted_split_trial(seed, n=125_000, m=100, delta=0.02)
        perfect += near_ok and mirror_out
    elapsed = time.time() - t0
    ok = perfect >= 95 and elapsed < 300.0
    assert _report("8", ok, f"{perfect}/{trials} trials exact, {elapsed:.0f}s")
    assert perfect >= 95
    assert elapsed < 300.0


def test_criterion_9_metric_and_property_suites(tmp_path):
    failures = []

    # exhaustive rank-distance metric axioms for 2 <= s <= 5
    for s in (2, 3, 4, 5):
        perms = rank_matrix(list(itertools.permutations(range(s))))
        for i, r1 in enumerate(perms):
            for j, r2 in enumerate(perms):
                d = kendall_tau(r1, r2)
                if (d == 0) != (i == j):
                    failures.append(f"identity s={s}")
                if d != kendall_tau(r2, r1):
                    failures.append(f"symmetry s={s}")
        dmat = np.array([[kendall_tau(a, b) for b in perms] for a in perms])
        if not np.all(dmat[:, :, None] <= dmat[:, None, :] + dmat[None, :, :].transpose(0, 2, 1)):
            failures.append(f"triangle s={s}")

    # restriction commutation, exhaustively for one 5-element ranking
    base = rank_matrix([[3, 0, 4, 1, 2]])[0]
    universe = range(5)
    for size_a in (2, 3, 4, 5):
        for a_set in itertools.combinations(universe, size_a):
            for size_b in range(1, size_a + 1):
                for b_set in itertools.combinations(a_set, size_b):
                    lhs = restrict_ranking(restrict_ranking(base, a_set), b_set)
                    if not np.array_equal(lhs, restrict_ranking(base, b_set)):
                        failures.append(f"restriction {a_set}->{b_set}")

    # determinism under thread-count variation
    cfg = ExperimentConfig(
        model=ModelConfig(n_agents=40, n_alternatives=100, dim=1, box=5.0, seed=5),
        k_grid=(4, 9),
        pair_sample_size=50,
        replicate_seeds=(0,),
    )
    p1, p2 = tmp_path / "jobs1.csv", tmp_path / "jobs3.csv"
    write_report_csv(run_error_vs_k(cfg, n_jobs=1), p1)
    write_report_csv(run_error_vs_k(cfg, n_jobs=3), p2)
    if p1.read_bytes() != p2.read_bytes():
        failures.append("thread-count determinism")

    ok = not failures
    assert _report("9", ok, "zero failures" if ok else f"failures: {failures[:5]}")
    assert not failures

#!/usr/bin/env python3
"""Reduced-scale prediction-error sweep over the neighbor count k.

Every agent serves once as the query; each method's neighbors vote on 1000
sampled alternative pairs and the voted probability is scored against the
ground-truth pairwise probability. Prints the error table per (method, k)
and each method's best error, mirroring the synthetic benchmark layout.

Pass --full for the full-scale configuration (1200 agents, 6000
alternatives, 25 k values; about 5 minutes, 298 s measured on 2 vCPUs).
"""

import argparse
import time

from plknn import ExperimentConfig, ModelConfig, run_error_vs_k


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true", help="run the full-scale sweep")
    parser.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args()

    if args.full:
        model = ModelConfig(n_agents=1200, n_alternatives=6000, dim=1, box=5.0, seed=0)
        cfg = ExperimentConfig(
            model=model, k_grid=tuple(range(20, 501, 20)),
            pair_sample_size=1000, replicate_seeds=(0,),
        )
    else:
        model = ModelConfig(n_agents=300, n_alternatives=1500, dim=1, box=5.0, seed=0)
        cfg = ExperimentConfig(
            model=model, k_grid=(20, 80, 160, 240, 320),
            pair_sample_size=1000, replicate_seeds=(0,),
        )

    t0 = time.time()
    report = run_error_vs_k(cfg, n_jobs=args.jobs)
    print(f"{model.n_agents} agents, {model.n_alternatives} alternatives, "
          f"box {model.box:g} ({time.time() - t0:.0f}s)\n")
    print(f"{'k':>5s} {'kt_knn':>8s} {'global_knn':>11s} {'oracle':>8s}")
    table = {(r.method, r.k): r.error_mean for r in report.rows}
    for k in cfg.k_grid:
        print(f"{k:5d} {table[('kt_knn', k)]:8.4f} "
              f"{table[('global_knn', k)]:11.4f} {table[('oracle', k)]:8.4f}")
    best = report.best_errors()
    print("\nbest error per method:")
    for method in ("kt_knn", "global_knn", "oracle"):
        print(f"  {method:11s} {best[method]:.4f}")


if __name__ == "__main__":
    main()

"""Command-line interface.

Subcommands: simulate, knn, alt-sim, verify, experiment {fig1a|fig1b|fig1c}.
Exit codes: 0 success, 2 failed verification assertion or bad input (one
``error:`` line on stderr), 3 inconclusive statistics.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .agents import METHODS, global_knn, kt_knn, oracle_knn
from .alternatives import candidate_set, split_step
from .experiments import (
    ExperimentConfig,
    run_dim_sweep,
    run_error_vs_k,
    run_error_vs_position,
    write_report_csv,
)
from .kendall import feature_matrix
from .latent import ModelConfig, sample_population
from .rankings import sample_rankings, write_rankings_csv
from .theory import (
    VerifyReport,
    agent_bound_check,
    item_bound_check,
    verify_example_one,
    verify_theorem_bias,
)

EXIT_OK = 0
EXIT_FAILED = 2
EXIT_INCONCLUSIVE = 3

# ``plknn verify`` targets: name -> report of the seed (None for the default)
VERIFY_TARGETS = {
    "theorem-bias": lambda seed: verify_theorem_bias(),
    "example-1": lambda seed: verify_example_one(),
    "agent-bounds": lambda seed: agent_bound_check(seed=seed or 0),
    "item-bounds": lambda seed: item_bound_check(seed=seed or 0),
}


def _load_model_config(path: str, seed: int | None) -> ModelConfig:
    cfg = ModelConfig.from_json(Path(path).read_text(encoding="utf-8"))
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg


def _load_experiment_config(path: str, seed: int | None) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(Path(path).read_text(encoding="utf-8"))
    if seed is not None:
        cfg = replace(cfg, model=replace(cfg.model, seed=seed), replicate_seeds=(seed,))
    cfg.validate()
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    cfg = _load_model_config(args.config, args.seed)
    out = _out_dir(args)
    pop = sample_population(cfg)
    matrix = sample_rankings(pop, seed=cfg.seed, c_obs=args.c_obs)
    write_rankings_csv(matrix, out / "rankings.csv", seed=cfg.seed)
    np.savetxt(out / "agents.csv", pop.agents, delimiter=",", fmt="%.17g")
    np.savetxt(out / "alternatives.csv", pop.alternatives, delimiter=",", fmt="%.17g")
    print(f"wrote rankings.csv, agents.csv, alternatives.csv to {out}")
    return EXIT_OK


def _cmd_knn(args) -> int:
    cfg = _load_model_config(args.config, args.seed)
    if (args.k is None) == (args.eps is None):
        raise ValueError("specify exactly one of --k or --eps")
    if args.eps is not None and args.method != "global_knn":
        raise ValueError("--eps is only meaningful for global_knn")

    pop = sample_population(cfg)
    query = args.query
    if args.coords is not None:
        coords = np.array([float(v) for v in args.coords.split(",")], dtype=float)
        if coords.size != cfg.dim:
            raise ValueError(f"expected {cfg.dim} coordinates")
        pop = type(pop)(
            agents=np.vstack([pop.agents, coords[None, :]]), alternatives=pop.alternatives
        )
        query = pop.n_agents - 1
    elif query is None:
        raise ValueError("provide --query or --coords")

    matrix = sample_rankings(pop, seed=cfg.seed)
    if args.method == "kt_knn":
        result = kt_knn(matrix, query, args.k)
    elif args.method == "global_knn":
        features = feature_matrix(matrix, pairing_seed=cfg.seed)
        result = global_knn(features, query, k=args.k, eps=args.eps)
    else:
        result = oracle_knn(pop, query, args.k)
    print(json.dumps(result.to_dict(), indent=2))
    return EXIT_OK


def _cmd_alt_sim(args) -> int:
    cfg = _load_model_config(args.config, args.seed)
    pop = sample_population(cfg)
    matrix = sample_rankings(pop, seed=cfg.seed)
    candidates = candidate_set(matrix, args.query, args.ell)
    payload = {
        "query": args.query,
        "ell": args.ell,
        "candidates": list(candidates.members),
    }
    if cfg.dim == 1:
        step = split_step(matrix, args.query, candidates)
        payload.update(
            {
                "half_stats": {b: float(v) for b, v in zip(step.clustered, step.stats)},
                "clusters": {
                    str(lab): [b for b, l in zip(step.clustered, step.labels) if l == lab]
                    for lab in np.unique(step.labels).tolist()
                },
                "centroids": step.centroids.tolist(),
                "final": sorted(step.kept),
            }
        )
    else:
        # the mirror-filtering analysis is 1-D; expose candidates only
        payload["note"] = "filtering step skipped: experimental for dim > 1"
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _write_verify_outputs(report: VerifyReport, out: Path) -> None:
    (out / f"{report.target}.json").write_text(
        json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    for name, curve in report.curves.items():
        path = out / f"{report.target}_{name}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fp:
            fp.write("x,value,stderr\n")
            for x, v, s in zip(curve.x_grid, curve.values, curve.stderr):
                fp.write(f"{x:.10g},{v:.17g},{s:.10g}\n")


def verify_exit_code(report: VerifyReport) -> int:
    if any(c.status == "fail" for c in report.claims):
        return EXIT_FAILED
    if report.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_verify(args) -> int:
    out = _out_dir(args)
    report = VERIFY_TARGETS[args.target](args.seed)
    _write_verify_outputs(report, out)
    print(json.dumps(report.to_dict(), indent=2))
    return verify_exit_code(report)


def _cmd_experiment(args) -> int:
    cfg = _load_experiment_config(args.config, args.seed)
    if args.out is None and cfg.output_dir:
        args.out = cfg.output_dir
    out = _out_dir(args)
    if args.figure == "fig1a":
        report = run_error_vs_k(cfg, n_jobs=args.jobs)
    elif args.figure == "fig1b":
        k = args.k if args.k is not None else cfg.k_grid[-1]
        report = run_error_vs_position(cfg, k, n_jobs=args.jobs)
    else:
        report = run_dim_sweep(cfg, n_jobs=args.jobs)
    path = out / f"{args.figure}.csv"
    write_report_csv(report, path)
    print(f"wrote {path} ({len(report.rows)} rows, config {report.config_hash})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plknn",
        description="Simulation and verification harness for rank-based nearest neighbors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a population and its rankings")
    p.add_argument("--config", required=True, help="ModelConfig JSON file")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--c-obs", type=float, default=1.0, help="observation thinning (>= 1)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("knn", help="query agent neighbors")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--query", type=int, default=None, help="agent index")
    p.add_argument("--coords", default=None, help="comma-separated latent coordinates")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_knn)

    p = sub.add_parser("alt-sim", help="query alternative neighbors")
    p.add_argument("--query", type=int, required=True, help="alternative index")
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_alt_sim)

    p = sub.add_parser("verify", help="run a numerical verification target")
    p.add_argument("target", choices=VERIFY_TARGETS)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("experiment", help="run a synthetic experiment")
    p.add_argument("figure", choices=["fig1a", "fig1b", "fig1c"])
    p.add_argument("--config", required=True, help="ExperimentConfig JSON file")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k", type=int, default=None, help="fixed k for fig1b")
    jobs_help = ("query worker threads, each answering a block of queries; every vote in a "
                 "block starts OpenBLAS threads, so with more than one set "
                 "OPENBLAS_NUM_THREADS=1")
    p.add_argument("--jobs", type=int, default=None, help=jobs_help)
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs made from a seed, one timed operation,
and the checks on its output.

Every call into the library goes through a module attribute looked up at call
time (``plknn.run_error_vs_k``, ``plknn.rankings.positions_matrix``), so that
the tracer can wrap those names from outside.

A workload object is built by its constructor, which is the timed set-up.
``prepare(i)`` makes the inputs of operation ``i`` (untimed), ``run`` is the
timed operation, and ``digest`` / ``problems`` check its output (untimed).
``key`` names the operation inside the run, so stored references can be
looked up per operation; operations ``0 .. distinct_ops - 1`` cover every key.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

import plknn
import plknn.rankings

METHODS = ("kt_knn", "global_knn", "oracle")

# Sizes per scale. "full" is what the benchmark measures; "tiny" only checks
# that every workload runs end to end (see smoke.py). The full sizes are cut
# down from the paper's fig1a so that one operation takes at most about a
# second and a 25-second run holds 20 or more of them on a 2-core machine: the
# run's p90 is then taken over many operations. Every full workload runs on one
# thread: on two shared vCPUs a two-thread sweep waits for whichever vCPU the
# host slows, and its p90 spread past a quarter of its median between runs.
SIZES = {
    "fig1a-kt": {
        "full": {"n": 16, "m": 1200, "k_grid": [3, 8, 15], "pairs": 1000, "n_jobs": 1,
                 "methods": list(METHODS)},
        "tiny": {"n": 16, "m": 60, "k_grid": [3, 8], "pairs": 40, "n_jobs": 1,
                 "methods": list(METHODS)},
    },
    "fig1a-global": {
        "full": {"n": 50, "m": 750, "k_grid": [10, 25, 45], "pairs": 1000, "n_jobs": 1,
                 "methods": ["global_knn", "oracle"]},
        "tiny": {"n": 24, "m": 60, "k_grid": [4, 12], "pairs": 40, "n_jobs": 2,
                 "methods": ["global_knn", "oracle"]},
    },
    "knn-partial": {
        "full": {"n": 120, "m": 500, "c_obs": 2.0, "k": 50, "pairs": 200},
        "tiny": {"n": 24, "m": 40, "c_obs": 1.25, "k": 15, "pairs": 20},
    },
    "alt-split": {
        "full": {"n": 60_000, "m": 100, "delta": 0.02, "ell": 10.0, "cycle": 12},
        "tiny": {"n": 20_000, "m": 100, "delta": 0.02, "ell": 10.0, "cycle": 3},
    },
}

BOX = 5.0


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Fig1a:
    """One error-vs-k sweep (``run_error_vs_k``) and its report CSV.

    Every operation repeats the sweep on the inputs the seed fixes, so each
    report must have the same bytes.
    """

    def __init__(self, size: dict, seed: int, workdir: Path):
        self.size = size
        self.config = plknn.ExperimentConfig(
            model=plknn.ModelConfig(
                n_agents=size["n"], n_alternatives=size["m"], dim=1, box=BOX, seed=seed
            ),
            k_grid=tuple(size["k_grid"]),
            methods=tuple(size["methods"]),
            pair_sample_size=size["pairs"],
            replicate_seeds=(seed,),
        )
        self.n_jobs = size["n_jobs"]
        self.distinct_ops = 1
        self.csv = workdir / f"fig1a-{os.getpid()}.csv"

    def prepare(self, i: int):
        return None

    def run(self, inputs) -> tuple[str, Path]:
        report = plknn.run_error_vs_k(self.config, n_jobs=self.n_jobs)
        plknn.write_report_csv(report, self.csv)
        return "sweep", self.csv

    def digest(self, path: Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def problems(self, path: Path) -> list[str]:
        """Checks that hold for any seed: the report has one row per (method,
        k), errors lie in [0, 1], and the oracle's neighbors are, on average,
        the latent-nearest at every k (it picks them by latent distance)."""
        lines = path.read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        dist: dict[tuple[str, int], float] = {}
        out = []
        for f in rows:
            error, stderr, dist_mean = float(f[5]), float(f[6]), float(f[7])
            if not (0.0 <= error <= 1.0 and stderr >= 0.0 and dist_mean >= 0.0):
                out.append(f"out-of-range row {f}")
            dist[(f[0], int(f[1]))] = dist_mean
        expected = {(m, k) for m in self.size["methods"] for k in self.size["k_grid"]}
        if set(dist) != expected or len(rows) != len(expected):
            return out + [f"report rows {sorted(dist)} != {sorted(expected)}"]
        for k in self.size["k_grid"]:
            for method in self.size["methods"]:
                if dist[("oracle", k)] > dist[(method, k)] * (1 + 1e-12):
                    out.append(f"oracle neighbors farther than {method} at k={k}")
        return out

    def close(self) -> None:
        self.csv.unlink(missing_ok=True)


class KnnPartial:
    """Library use under partial observation: the set-up samples a population,
    rankings with c_obs > 1 and the feature matrix; each operation is one
    query agent's prediction error under every method (a closed loop with
    one client)."""

    def __init__(self, size: dict, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        model = plknn.ModelConfig(
            n_agents=size["n"], n_alternatives=size["m"], dim=1, box=BOX, seed=seed
        )
        self.population = plknn.sample_population(model)
        self.rankings = plknn.sample_rankings(self.population, seed=seed, c_obs=size["c_obs"])
        self.features = plknn.feature_matrix(self.rankings, pairing_seed=seed)
        self.order = np.random.default_rng([seed, 1]).permutation(size["n"])
        self.distinct_ops = size["n"]

    def prepare(self, i: int) -> int:
        return int(self.order[i % self.size["n"]])

    def run(self, query: int) -> tuple[str, tuple[float, ...]]:
        pairs = plknn.sample_pairs(
            self.size["m"], self.size["pairs"], np.random.default_rng([self.seed, 2, query])
        )
        errors = tuple(
            plknn.prediction_error(
                method, query, self.population, self.rankings, pairs,
                k=self.size["k"], features=self.features,
            )
            for method in METHODS
        )
        return str(query), errors

    def digest(self, errors) -> str:
        # 12 significant digits: a change in summation order may move the last
        # bits of a mean; anything larger is a different answer.
        return _sha256(";".join(f"{m}={e:.12g}" for m, e in zip(METHODS, errors)))

    def problems(self, errors) -> list[str]:
        return [f"{m} error {e} outside [0, 1]" for m, e in zip(METHODS, errors)
                if not (math.isfinite(e) and 0.0 <= e <= 1.0)]

    def close(self) -> None:
        pass


class AltSplit:
    """Planted split-cluster trials: a query alternative at 0.2, 20 planted
    near it, 20 planted near its mirror 0.8, uniform fillers. Each operation
    samples the positions matrix of a fresh trial and runs the two-step
    alternative-neighbor query on alternative 0."""

    NEAR = range(1, 21)
    MIRROR = range(21, 41)

    def __init__(self, size: dict, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        self.distinct_ops = size["cycle"]

    def prepare(self, i: int):
        t = i % self.size["cycle"]
        gen = np.random.default_rng([self.seed, 3, t])
        trial_seed = int(gen.integers(2**31))
        delta, m = self.size["delta"], self.size["m"]
        near = 0.2 + delta * (2.0 * gen.random(20) - 1.0)
        mirror = 0.8 + delta * (2.0 * gen.random(20) - 1.0)
        fillers = gen.random(m - 41)
        alternatives = np.concatenate([[0.2], near, mirror, fillers])[:, None]
        agents = gen.random(self.size["n"])[:, None]
        return str(t), plknn.Population(agents=agents, alternatives=alternatives), trial_seed

    def run(self, inputs) -> tuple[str, list[int]]:
        key, population, trial_seed = inputs
        matrix = plknn.rankings.positions_matrix(population, seed=trial_seed, stream="batched")
        kept = plknn.alt_neighbors(matrix, 0, ell=self.size["ell"])
        return key, sorted(int(j) for j in kept)

    def digest(self, kept) -> str:
        return _sha256(",".join(map(str, kept)))

    def problems(self, kept) -> list[str]:
        kept = set(kept)
        out = []
        if not ({0, *self.NEAR} <= kept):
            out.append(f"near alternatives dropped: {sorted({0, *self.NEAR} - kept)}")
        if kept & set(self.MIRROR):
            out.append(f"mirror alternatives kept: {sorted(kept & set(self.MIRROR))}")
        return out

    def close(self) -> None:
        pass


WORKLOADS = {
    "fig1a-kt": Fig1a,
    "fig1a-global": Fig1a,
    "knn-partial": KnnPartial,
    "alt-split": AltSplit,
}


def config_of(name: str, scale: str) -> dict:
    return {"workload": name, "scale": scale, **SIZES[name][scale]}


def config_hash(name: str, scale: str) -> str:
    canonical = json.dumps(config_of(name, scale), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def make(name: str, scale: str, seed: int, workdir: Path):
    """Build (set up) the named workload."""
    return WORKLOADS[name](SIZES[name][scale], seed, workdir)


def n_jobs_of(name: str, scale: str) -> int:
    return SIZES[name][scale].get("n_jobs", 1)

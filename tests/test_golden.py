"""Golden sha256 digests of the bytes plknn writes and of the arrays its
library returns: the three figure reports, the rankings CSV, the exact and
pair-sampled Kendall-tau arrays, both positions samplers, one planted
alternative-neighbor query, four verify reports and one concentration
claim. Every output is
byte-reproducible by contract, so a refactor or a faster path must leave
these digests unchanged."""

import hashlib
import json

import numpy as np
import pytest
import scipy

from plknn import (
    DistSpec,
    ExperimentConfig,
    ModelConfig,
    Population,
    candidate_set,
    discordance_matrix,
    feature_matrix,
    run_dim_sweep,
    run_error_vs_k,
    run_error_vs_position,
    sample_population,
    sample_rankings,
    split_cluster,
    verify_example_one,
    verify_theorem_bias,
    write_report_csv,
    write_rankings_csv,
)
from plknn import rng
from plknn.kendall import _discordances
from plknn.rankings import _row_blocks, positions_matrix
from plknn.theory import _concentration_claim, _jsonable, agent_bound_check, item_bound_check

MODEL = ModelConfig(n_agents=60, n_alternatives=200, dim=1, box=5.0, seed=0)
CONFIG = ExperimentConfig(
    model=MODEL,
    k_grid=(3, 8, 20, 59, 70),
    pair_sample_size=150,
    dims=(1, 2, 4),
    replicate_seeds=(0, 1),
)

REPORT_DIGESTS = {
    "fig1a": "4edfd06136787d946c6957b14c76579937accbf74b691e06c8febe335380dda9",
    "fig1b": "539a2d1d8a0fe0483fa091886b6cad700cc9b6a6882c20abf461bb4035973d6c",
    "fig1c": "f7ab0e7323f54995a671d9739322a59929d273f719763b3d28b6992ad0955085",
}
RUNNERS = {
    "fig1a": run_error_vs_k,
    "fig1b": lambda cfg, n_jobs: run_error_vs_position(cfg, k=8, n_jobs=n_jobs),
    "fig1c": run_dim_sweep,
}
RANKINGS_DIGESTS = {
    1: "53b725894c3f2a3d887276ea365e568a8a79739ef5232a06d4c97c8529d91050",
    2: "840fb9441caf7bb19b04952a92034ad7815ce64ffeb81a0d38eaf07223dbc58f",
}


ARRAY_DIGESTS = {
    "knn-partial discordances": "b4f40d1dd7438d38e3b89fffcdca74b00999584b028d263b8c8cc8e36ed1ffd3",
    "discordance_matrix": "10363cb76f09b4d86d152d6ae72deec5e72297a0982ecfaa48e4bd36d1fdabdb",
    "feature_matrix": "f4f35268d5cefb1f38f813cd75af71f4b872a0cb7a7dfad8b64fd8d7b53fb298",
    "positions_matrix per_agent": "4b471c2a6d2c05f659a7aee682aa949781c8b378331bd9c79f203b845ba880e9",
    "positions_matrix batched": "75965ae351268e66de90cf80e1cda995f56bf068bc9f552265c2a1bc0ea395f0",
    "positions_matrix per_agent m=129": "1a77a8874ae7f0a515baaf77cea8a2d24801f0a35803b3d59c5d2202d65f1470",
    "positions_matrix batched m=129": "a68689ef2ee46f75d8ce874852ecbeb0d1e36a7bda970476d67d1eae014dc790",
    "positions_matrix batched dim 9": "57874c2d6564c8627e54210f9c29f47a548fd3e7759ae4fe456b7980425c8694",
    "alternative neighbors": "552d06d2e0e31794d8ab29273a9b4f4b476fde18dd3ad0147982771b169ead06",
}
VERIFY_DIGESTS = {
    "theorem-bias": "cf980ae110bd878bf2acc37f0a23ed6a946f45c9c3033ee7568976f1b05f7b85",
    "example-1": "9e0eb30734a8b3f8adb2fa730cefbe5fcfc627b99dd106cc9180e04e0ad6bbbf",
    "item-bounds": "b178ae66bd58bb232e37ca54a2ad625bdef1f3467fd646a466782d85c2498326",
    # a reduced agent-bounds report: 2 gaps, 500 trials, no concentration claim
    "agent-bounds": "458caf774677b436547ce471a77018c70f673c516a36cf9f8c59933ee4d431df",
}
VERIFY_RUNNERS = {
    "theorem-bias": verify_theorem_bias,
    "example-1": verify_example_one,
    "item-bounds": item_bound_check,
    "agent-bounds": lambda: agent_bound_check(
        eps_grid=(0.1, 0.2), trials=500, seed=0, concentration=False
    ),
}
# a near-uniform dist_x and a default dist_y, which is written compactly
PINNED_MODEL = ModelConfig(
    n_agents=7,
    n_alternatives=9,
    dim=2,
    box=5.0,
    dist_x=DistSpec(kind="near_uniform", ratio=2.0, cells=6),
    seed=123,
)
PINNED_MODEL_JSON = """{
  "n_agents": 7,
  "n_alternatives": 9,
  "dim": 2,
  "box": 5.0,
  "dist_x": {
    "kind": "near_uniform",
    "ratio": 2.0,
    "cells": 6
  },
  "dist_y": {
    "kind": "uniform"
  },
  "seed": 123
}"""
# every tuple field set away from its default
PINNED_EXPERIMENT = ExperimentConfig(
    model=PINNED_MODEL,
    k_grid=(2, 4, 6),
    methods=("oracle", "kt_knn"),
    pair_sample_size=50,
    dims=(1, 3),
    output_dir="out",
    replicate_seeds=(5, 7),
)
PINNED_EXPERIMENT_DIGEST = "9ed819295962f42a6b79db91b7bf204136a54991972f62381215a12c903459fa"
PINNED_EXPERIMENT_HASH = "700fbd860fca"
# the concentration claim at 20 repetitions: a pin on its bytes, not a claim
# (its status reads "fail" at this size)
CONCENTRATION_DIGEST = "b49e24f8ad7b604b1416b67f87daa094cef9852bd2194f9e3a19562a5727560c"


def _assert_bytes(data, expected, artifact):
    got = hashlib.sha256(data).hexdigest()
    assert got == expected, (
        f"{artifact}: sha256 {got} != {expected} "
        f"(numpy {np.__version__}, scipy {scipy.__version__})"
    )


@pytest.mark.parametrize("n_jobs", [None, 2])
@pytest.mark.parametrize("figure", list(REPORT_DIGESTS))
def test_report_bytes_pinned(tmp_path, figure, n_jobs):
    path = tmp_path / f"{figure}.csv"
    write_report_csv(RUNNERS[figure](CONFIG, n_jobs=n_jobs), path)
    artifact = f"{figure} report, n_jobs={n_jobs}"
    _assert_bytes(path.read_bytes(), REPORT_DIGESTS[figure], artifact)


@pytest.mark.parametrize("c_obs", list(RANKINGS_DIGESTS))
def test_rankings_csv_bytes_pinned(tmp_path, c_obs):
    path = tmp_path / "rankings.csv"
    write_rankings_csv(sample_rankings(sample_population(MODEL), seed=0, c_obs=c_obs), path, seed=0)
    _assert_bytes(path.read_bytes(), RANKINGS_DIGESTS[c_obs], f"rankings CSV, c_obs={c_obs}")


def test_kendall_arrays_pinned():
    # the knn-partial benchmark's rankings (n=120, m=500, c_obs 2, seed 0):
    # every query's exact distances to all agents, stacked
    partial = sample_rankings(
        sample_population(ModelConfig(n_agents=120, n_alternatives=500, dim=1, box=5.0, seed=0)),
        seed=0,
        c_obs=2.0,
    )
    stacked = np.stack([_discordances(partial[q], partial) for q in range(len(partial))])
    assert stacked.dtype == np.int64
    artifact = "knn-partial discordances"
    _assert_bytes(stacked.tobytes(), ARRAY_DIGESTS[artifact], artifact)
    full = sample_rankings(sample_population(MODEL), seed=0)
    _assert_bytes(
        discordance_matrix(full).tobytes(), ARRAY_DIGESTS["discordance_matrix"], "discordance_matrix"
    )
    features = feature_matrix(full, pairing_seed=0)
    assert features.n_pairs == 100
    _assert_bytes(features.values.tobytes(), ARRAY_DIGESTS["feature_matrix"], "feature_matrix")


@pytest.mark.parametrize("stream", ["per_agent", "batched"])
def test_positions_matrix_pinned(stream):
    pop = sample_population(ModelConfig(n_agents=1500, n_alternatives=50, dim=1, box=5.0, seed=0))
    assert len(list(_row_blocks(1500, 50))) == 2  # the rows cross a block boundary
    artifact = f"positions_matrix {stream}"
    matrix = positions_matrix(pop, seed=0, stream=stream)
    _assert_bytes(matrix.tobytes(), ARRAY_DIGESTS[artifact], artifact)


@pytest.mark.parametrize(
    "artifact, stream, n, m, dim",
    [
        # 129 alternatives need one index bit more than 128 in the sort keys
        ("positions_matrix per_agent m=129", "per_agent", 600, 129, 1),
        ("positions_matrix batched m=129", "batched", 600, 129, 1),
        ("positions_matrix batched dim 9", "batched", 1200, 60, 9),
    ],
)
def test_positions_matrix_pinned_at_other_shapes(artifact, stream, n, m, dim):
    pop = sample_population(ModelConfig(n_agents=n, n_alternatives=m, dim=dim, box=5.0, seed=0))
    assert len(list(_row_blocks(n, m))) == 2
    matrix = positions_matrix(pop, seed=0, stream=stream)
    _assert_bytes(matrix.tobytes(), ARRAY_DIGESTS[artifact], artifact)


def test_alternative_neighbors_pinned():
    # the planted world of the alternatives tests, in which the threshold
    # drops the midpoint cluster and the split drops the mirror one
    gen = rng.substream(31, rng.TRIAL, 0)
    near = 0.2 + np.linspace(-0.01, 0.01, 10)
    mirror = 0.8 + np.linspace(-0.01, 0.01, 10)
    middle = np.linspace(0.4, 0.6, 10)
    alts = 5.0 * np.concatenate([[0.2], near, mirror, middle, gen.random(19)])[:, None]
    pop = Population(agents=5.0 * gen.random(20_000)[:, None], alternatives=alts)
    matrix = positions_matrix(pop, seed=31, stream="batched")
    candidates = candidate_set(matrix, 0, ell=12)
    kept = sorted(split_cluster(matrix, 0, candidates))
    text = json.dumps({"candidates": list(candidates.members), "kept": kept})
    _assert_bytes(text.encode(), ARRAY_DIGESTS["alternative neighbors"], "alternative neighbors")


@pytest.mark.parametrize("target", list(VERIFY_DIGESTS))
def test_verify_report_pinned(target):
    text = json.dumps(VERIFY_RUNNERS[target]().to_dict(), indent=2)
    _assert_bytes(text.encode(), VERIFY_DIGESTS[target], f"{target} verify report")


def test_concentration_claim_pinned():
    claim = _concentration_claim(0, reps=20)
    entry = {"name": claim.name, "status": claim.status, "details": _jsonable(claim.details)}
    text = json.dumps(entry, indent=2)
    _assert_bytes(text.encode(), CONCENTRATION_DIGEST, "concentration claim, 20 reps")


def test_config_json_pinned():
    # the JSON text feeds config_hash, which is written on every report row
    assert PINNED_MODEL.to_json() == PINNED_MODEL_JSON
    text = PINNED_EXPERIMENT.to_json()
    _assert_bytes(text.encode(), PINNED_EXPERIMENT_DIGEST, "experiment config JSON")
    assert PINNED_EXPERIMENT.config_hash() == PINNED_EXPERIMENT_HASH
    # tuples are written as JSON lists and read back as tuples
    assert json.loads(text)["k_grid"] == [2, 4, 6]
    assert ModelConfig.from_json(PINNED_MODEL_JSON) == PINNED_MODEL
    assert ExperimentConfig.from_json(text) == PINNED_EXPERIMENT

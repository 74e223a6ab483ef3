"""Golden sha256 digests of the bytes plknn writes: the three figure reports
and the rankings CSV. Every output is byte-reproducible by contract, so a
refactor or a faster path must leave these digests unchanged."""

import hashlib

import numpy as np
import pytest
import scipy

from plknn import (
    ExperimentConfig,
    ModelConfig,
    run_dim_sweep,
    run_error_vs_k,
    run_error_vs_position,
    sample_population,
    sample_rankings,
    write_report_csv,
    write_rankings_csv,
)

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


def _assert_digest(path, expected, artifact):
    got = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == expected, (
        f"{artifact}: sha256 {got} != {expected} "
        f"(numpy {np.__version__}, scipy {scipy.__version__})"
    )


@pytest.mark.parametrize("n_jobs", [None, 2])
@pytest.mark.parametrize("figure", list(REPORT_DIGESTS))
def test_report_bytes_pinned(tmp_path, figure, n_jobs):
    path = tmp_path / f"{figure}.csv"
    write_report_csv(RUNNERS[figure](CONFIG, n_jobs=n_jobs), path)
    _assert_digest(path, REPORT_DIGESTS[figure], f"{figure} report, n_jobs={n_jobs}")


@pytest.mark.parametrize("c_obs", list(RANKINGS_DIGESTS))
def test_rankings_csv_bytes_pinned(tmp_path, c_obs):
    path = tmp_path / "rankings.csv"
    write_rankings_csv(sample_rankings(sample_population(MODEL), seed=0, c_obs=c_obs), path, seed=0)
    _assert_digest(path, RANKINGS_DIGESTS[c_obs], f"rankings CSV, c_obs={c_obs}")

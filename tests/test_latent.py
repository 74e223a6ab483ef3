import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plknn import DistSpec, ModelConfig, pairwise_prob, sample_population, utility


def test_utility_examples():
    assert utility(np.array([0.3]), np.array([0.3])) == 1.0
    assert utility(np.array([0.0]), np.array([1.0])) == pytest.approx(math.exp(-1), abs=1e-12)
    assert utility(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(
        math.exp(-5), rel=1e-12
    )


def test_utility_dimension_mismatch():
    with pytest.raises(ValueError):
        utility(np.array([0.0]), np.array([0.0, 1.0]))


def test_utility_strictly_decreasing_in_distance():
    x = np.array([0.2])
    values = [utility(x, np.array([0.2 + r])) for r in (0.0, 0.1, 0.3, 0.7)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_pairwise_prob_examples():
    # equidistant alternatives are a coin flip; unequal distances are not
    assert pairwise_prob(np.array([0.5]), np.array([0.3]), np.array([0.7])) == pytest.approx(0.5)
    assert pairwise_prob(np.array([0.5]), np.array([0.3]), np.array([0.8])) > 0.5
    # the worked two-alternative instance
    expected = math.exp(-0.1) / (math.exp(-0.1) + math.exp(-0.2))
    assert pairwise_prob(np.array([0.5]), np.array([0.4]), np.array([0.7])) == pytest.approx(
        expected, rel=1e-12
    )
    # rows of (count, dim) alternatives give one probability each, bit-equal
    # to one call per row
    gen = np.random.default_rng(0)
    for dim in (1, 2, 3):
        x, y1, y2 = gen.random(dim), gen.random((50, dim)), gen.random((50, dim))
        rows = [pairwise_prob(x, a, b) for a, b in zip(y1, y2)]
        assert np.array_equal(pairwise_prob(x, y1, y2), rows)


@settings(deadline=None, max_examples=60)
@given(
    st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)
)
def test_pairwise_prob_complement(x, y1, y2):
    x, y1, y2 = np.array([x]), np.array([y1]), np.array([y2])
    p = pairwise_prob(x, y1, y2)
    q = pairwise_prob(x, y2, y1)
    assert 0.0 < p < 1.0
    assert p + q == pytest.approx(1.0, abs=1e-12)


def test_population_support_and_determinism():
    cfg = ModelConfig(n_agents=2, n_alternatives=3, dim=1, box=1.0, seed=11)
    pop = sample_population(cfg)
    assert pop.agents.shape == (2, 1) and pop.alternatives.shape == (3, 1)
    for arr in (pop.agents, pop.alternatives):
        assert np.all(arr >= 0) and np.all(arr <= 1)
    again = sample_population(cfg)
    assert np.array_equal(pop.agents, again.agents)
    assert np.array_equal(pop.alternatives, again.alternatives)


def test_population_experiment_scale_support():
    cfg = ModelConfig(n_agents=1200, n_alternatives=6000, dim=1, box=5.0, seed=3)
    pop = sample_population(cfg)
    assert pop.agents.shape == (1200, 1)
    assert pop.alternatives.shape == (6000, 1)
    assert np.all(pop.agents >= 0) and np.all(pop.agents <= 5)
    assert np.all(pop.alternatives >= 0) and np.all(pop.alternatives <= 5)


def test_population_stable_under_other_kind_changes():
    base = ModelConfig(n_agents=50, n_alternatives=60, dim=2, box=1.0, seed=5)
    more_alts = ModelConfig(n_agents=50, n_alternatives=500, dim=2, box=1.0, seed=5)
    assert np.array_equal(sample_population(base).agents, sample_population(more_alts).agents)
    more_agents = ModelConfig(n_agents=300, n_alternatives=60, dim=2, box=1.0, seed=5)
    assert np.array_equal(
        sample_population(base).alternatives, sample_population(more_agents).alternatives
    )


def test_near_uniform_sampling():
    spec = DistSpec(kind="near_uniform", ratio=4.0, cells=4)
    cfg = ModelConfig(
        n_agents=200_00, n_alternatives=1, dim=1, box=1.0, dist_x=spec, seed=9
    )
    pop = sample_population(cfg)
    xs = pop.agents[:, 0]
    assert np.all((xs >= 0) & (xs <= 1))
    # alternating cell weights 1,4,1,4 over 4 cells: dense cells hold 4x mass
    counts, _ = np.histogram(xs, bins=np.linspace(0, 1, 5))
    ratio = counts[1] / counts[0]
    assert 3.3 < ratio < 4.7
    assert cfg.c_x == 4.0
    assert cfg.c_y == 1.0
    # the recorded joint ratio compounds across independent coordinates
    planar = ModelConfig(n_agents=2, n_alternatives=2, dim=2, dist_x=spec, seed=1)
    assert planar.c_x == 16.0


def test_distribution_validation():
    with pytest.raises(ValueError):
        DistSpec(kind="near_uniform", ratio=0.5).validate()
    with pytest.raises(ValueError):
        DistSpec(kind="wrong").validate()
    # a uniform spec is written as its kind alone, so a ratio or cell count
    # it carried would not come back from JSON
    for spec in (DistSpec("uniform", ratio=3.0, cells=5), DistSpec(ratio=2.0), DistSpec(cells=4)):
        with pytest.raises(ValueError, match="uniform"):
            ModelConfig(n_agents=3, n_alternatives=3, dist_x=spec).validate()
    DistSpec(ratio=1, cells=8).validate()  # the defaults, spelled out
    with pytest.raises(ValueError):
        ModelConfig(n_agents=0, n_alternatives=3).validate()
    with pytest.raises(ValueError):
        ModelConfig(n_agents=3, n_alternatives=3, box=-1.0).validate()


def test_config_json_roundtrip():
    cfg = ModelConfig(
        n_agents=7,
        n_alternatives=9,
        dim=2,
        box=5.0,
        dist_x=DistSpec(kind="near_uniform", ratio=2.0, cells=6),
        seed=123,
    )
    text = cfg.to_json()
    data = json.loads(text)
    assert set(data) == {
        "n_agents", "n_alternatives", "dim", "box", "dist_x", "dist_y", "seed",
    }
    assert ModelConfig.from_json(text) == cfg

import math

import numpy as np
import pytest

from plknn import (
    CurveSample,
    QuadratureError,
    expected_nkt_curve,
    expected_nkt_pair,
    pairwise_prob,
)
import plknn.theory
from plknn import rng
from plknn.cli import EXIT_INCONCLUSIVE, verify_exit_code
from plknn.theory import (
    agent_bound_check,
    example_deterministic_kt,
    example_one,
    integrate_unit_square,
    item_bound_check,
    item_sign_mean,
    verify_example_one,
    verify_theorem_bias,
)

from _harness import gumbel_orders


def test_expected_nkt_pair_closed_form():
    # self-comparison: discordance is 2p(1-p) <= 1/2
    p = float(pairwise_prob(np.array([0.3]), np.array([0.1]), np.array([0.6])))
    assert expected_nkt_pair(0.3, 0.3, 0.1, 0.6) == pytest.approx(2 * p * (1 - p))
    assert expected_nkt_pair(0.3, 0.3, 0.1, 0.6) <= 0.5
    # one agent indifferent between the pair: discordance is exactly 1/2
    assert expected_nkt_pair(0.5, 0.9, 0.4, 0.6) == pytest.approx(0.5)


def test_expected_nkt_pair_matches_simulation():
    # Monte Carlo discordance frequency of sampled pair rankings
    x_q, x, y1, y2 = 0.2, 0.7, 0.35, 0.9
    n = 40_000
    ys = np.array([y1, y2])
    o_q = gumbel_orders(x_q, ys, rng.substream(4, 0), n)
    o_x = gumbel_orders(x, ys, rng.substream(4, 1), n)
    disc = np.mean(o_q[:, 0] != o_x[:, 0])
    expected = expected_nkt_pair(x_q, x, y1, y2)
    se = math.sqrt(expected * (1 - expected) / n)
    assert abs(disc - expected) < 3 * se


def test_quadrature_integrates_known_functions():
    value, err = integrate_unit_square(lambda a, b: a * b, rtol=1e-10)
    assert value == pytest.approx(0.25, rel=1e-9)
    value, _ = integrate_unit_square(
        lambda a, b: np.abs(a - 0.3) + 0 * b, kinks=(0.3,), rtol=1e-10
    )
    assert value == pytest.approx(0.3**2 / 2 + 0.7**2 / 2, rel=1e-9)
    with pytest.raises(QuadratureError):
        # an undeclared kink converges too slowly for the requested rtol
        integrate_unit_square(
            lambda a, b: np.abs(a - 0.37) + 0 * b, rtol=1e-13, max_order=64
        )


def test_quadrature_matches_monte_carlo():
    grid = np.array([0.0, 0.3, 0.7])
    quad = expected_nkt_curve(0.2, grid, integrator="quadrature")
    mc = expected_nkt_curve(0.2, grid, integrator="monte_carlo", mc_samples=200_000, seed=8)
    assert np.all(quad.stderr == 0)
    for q, m, s in zip(quad.values, mc.values, mc.stderr):
        assert abs(q - m) < 3 * max(s, 1e-12)


def test_curve_reflection_symmetry():
    grid = np.linspace(0, 1, 11)
    left = expected_nkt_curve(0.2, grid)
    right = expected_nkt_curve(0.8, 1.0 - grid)
    assert np.allclose(left.values, right.values, atol=1e-8)


def test_curve_determinism():
    grid = np.linspace(0, 1, 5)
    a = expected_nkt_curve(0.1, grid, integrator="monte_carlo", mc_samples=1000, seed=5)
    b = expected_nkt_curve(0.1, grid, integrator="monte_carlo", mc_samples=1000, seed=5)
    assert np.array_equal(a.values, b.values)
    with pytest.raises(ValueError):
        expected_nkt_curve(0.1, grid, integrator="bogus")


def test_curve_sample_validation():
    with pytest.raises(ValueError):
        CurveSample(x_grid=np.arange(3), values=np.arange(2), stderr=np.zeros(3))
    with pytest.raises(ValueError):
        CurveSample(x_grid=np.arange(2), values=np.arange(2), stderr=np.array([0.1, -1]))


def test_bias_curve_argmins_spot():
    grid = np.round(np.arange(0, 1.0001, 1 / 100), 10)
    curve = expected_nkt_curve(0.2, grid)
    assert grid[int(np.argmin(curve.values))] == 0.0
    center = expected_nkt_curve(0.5, grid)
    assert grid[int(np.argmin(center.values))] == 0.5
    high = expected_nkt_curve(0.8, grid)
    assert grid[int(np.argmin(high.values))] == 1.0


def test_example_one_values():
    report = example_one()
    assert report["deterministic_boundary"] == 0.55
    assert report["deterministic_left_of_boundary"] == 0
    assert report["deterministic_right_of_boundary"] == 1
    assert example_deterministic_kt(0.5) == 0
    # the curve is exactly flat left of the smaller alternative
    assert report["derivatives"][0.0] == pytest.approx(0.0, abs=1e-9)
    assert report["derivatives"][0.25] == pytest.approx(0.0, abs=1e-9)
    assert report["derivatives"][0.5] > 0.02
    assert report["value_at_minus_1"] < report["value_at_x1"]
    assert report["flat_region_end"] == pytest.approx(0.4, abs=0.011)


def test_item_sign_mean_mirror_cancellation():
    x = np.linspace(0, 1, 100_001)
    vals = item_sign_mean(0.2, 0.8, x)
    assert abs(np.trapezoid(vals, x)) < 1e-9


def test_verify_example_one_passes():
    report = verify_example_one()
    assert report.passed
    assert {c.name for c in report.claims} >= {
        "deterministic_boundary",
        "derivative_positive_at_0.5",
        "far_left_beats_own_position",
    }
    payload = report.to_dict()
    assert payload["target"] == "example-1"
    assert payload["passed"] is True


def test_verify_theorem_bias_small_grid():
    # a light version of the acceptance run: two query positions
    report = verify_theorem_bias(left_queries=(0.2,), right_queries=(0.8,))
    assert report.passed


@pytest.mark.parametrize("side, x_q", [("left", 0.001), ("right", 0.999), ("left", 1.5), ("right", -0.3)])
def test_verify_theorem_bias_rejects_query_off_its_side(monkeypatch, side, x_q):
    # next to the boundary there is no grid step to check, and a query on
    # the wrong side would report a fail; both are rejected before any curve
    def no_curve(*args, **kwargs):
        raise AssertionError("a curve was computed")

    monkeypatch.setattr(plknn.theory, "expected_nkt_curve", no_curve)
    with pytest.raises(ValueError, match=f"{side} query {x_q}"):
        verify_theorem_bias(**{f"{side}_queries": (x_q,)})


def test_bound_reports_deterministic():
    a = item_bound_check(trials=20_000, seed=3)
    b = item_bound_check(trials=20_000, seed=3)
    for ca, cb in zip(a.claims, b.claims):
        assert (ca.name, ca.status) == (cb.name, cb.status)
    assert np.array_equal(
        a.curves["gap_curve_near_fold"].values, b.curves["gap_curve_near_fold"].values
    )


def test_verify_claim_names_in_order():
    # the CLI writes these names, in this order, to each target's JSON report
    reports = {
        "example-1": verify_example_one(),
        "theorem-bias": verify_theorem_bias(left_queries=(0.2,), right_queries=(0.8,)),
        "item-bounds": item_bound_check(seed=0),
        "agent-bounds": agent_bound_check(
            eps_grid=(0.05, 0.1, 0.2), trials=2000, seed=0, concentration=False
        ),
    }
    expected = {
        "example-1": [
            "deterministic_boundary",
            "derivative_nonneg_at_0",
            "derivative_nonneg_at_0.25",
            "derivative_positive_at_0.5",
            "far_left_beats_own_position",
            "flat_region_ends_at_smaller_alternative",
        ],
        "theorem-bias": [
            "boundary_argmin_left_xq_0.2",
            "boundary_argmin_right_xq_0.8",
            "center_fixed_point",
        ],
        "item-bounds": [
            "envelope_slope",
            "monotone_in_gap_near_fold",
            "quadratic_to_linear_envelope_near_fold",
            "monotone_in_gap_off_center",
            "quadratic_to_linear_envelope_off_center",
            "mirror_pair_vanishes",
        ],
        "agent-bounds": [
            "envelope_slope",
            "monotone_in_gap",
            "quadratic_lower_envelope",
            "vanishes_toward_zero_gap",
        ],
    }
    for target, report in reports.items():
        assert report.target == target
        assert [c.name for c in report.claims] == expected[target]


def test_underpowered_bound_check_is_inconclusive():
    # 50 agent draws leave the stderrs above a fifth of their means
    report = item_bound_check(trials=50, seed=0)
    power = report.claims[0]
    assert power.name == "statistical_power" and power.status == "inconclusive"
    slope = next(c for c in report.claims if c.name == "envelope_slope")
    assert slope.status == "inconclusive"
    assert report.inconclusive
    assert verify_exit_code(report) == EXIT_INCONCLUSIVE

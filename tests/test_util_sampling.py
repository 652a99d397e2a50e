"""Unit and property tests for the workload samplers."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.sampling import (
    DIURNAL_PROFILE,
    bounded_lognormal,
    bounded_pareto,
    diurnal_weight,
    weighted_choice,
)


def test_bounded_lognormal_respects_bounds():
    rng = random.Random(1)
    for _ in range(500):
        v = bounded_lognormal(rng, median=4.0, sigma=1.2, low=0.1, high=100.0)
        assert 0.1 <= v <= 100.0


def test_bounded_lognormal_median_roughly_preserved():
    rng = random.Random(2)
    samples = sorted(
        bounded_lognormal(rng, median=4.0, sigma=1.0, low=0.01, high=1e6)
        for _ in range(4000)
    )
    median = samples[len(samples) // 2]
    assert 3.2 < median < 4.8


def test_bounded_lognormal_invalid_bounds():
    with pytest.raises(ValueError):
        bounded_lognormal(random.Random(0), 4.0, 1.0, low=10.0, high=1.0)


def test_bounded_pareto_bounds_and_tail():
    rng = random.Random(3)
    samples = [bounded_pareto(rng, alpha=1.1, scale=1.0, high=10_000.0) for _ in range(5000)]
    assert all(1.0 <= s <= 10_000.0 for s in samples)
    # Heavy tail: some samples far above the median.
    samples.sort()
    assert samples[-1] > 50 * samples[len(samples) // 2]


def test_bounded_pareto_validation():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        bounded_pareto(rng, alpha=0.0, scale=1.0, high=10.0)
    with pytest.raises(ValueError):
        bounded_pareto(rng, alpha=1.0, scale=5.0, high=5.0)


@given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_diurnal_weight_in_profile_range(hour):
    w = diurnal_weight(hour)
    assert min(DIURNAL_PROFILE) <= w <= max(DIURNAL_PROFILE)


def test_diurnal_profile_shape_matches_paper():
    # Early-hours slump, morning peak, rise towards midnight (Fig. 2b).
    assert diurnal_weight(4) == min(DIURNAL_PROFILE)
    assert diurnal_weight(9) > diurnal_weight(13)
    assert diurnal_weight(22) > diurnal_weight(16)


def test_diurnal_weight_interpolates():
    w = diurnal_weight(4.5)
    assert min(diurnal_weight(4), diurnal_weight(5)) <= w <= max(
        diurnal_weight(4), diurnal_weight(5)
    )


def test_diurnal_weight_wraps():
    assert diurnal_weight(23.5) == pytest.approx(
        (DIURNAL_PROFILE[23] + DIURNAL_PROFILE[0]) / 2
    )


def test_weighted_choice_respects_zero_weight():
    rng = random.Random(4)
    for _ in range(200):
        assert weighted_choice(rng, ["a", "b"], [0.0, 1.0]) == "b"


def test_weighted_choice_roughly_proportional():
    rng = random.Random(5)
    picks = [weighted_choice(rng, ["x", "y"], [3.0, 1.0]) for _ in range(4000)]
    share = picks.count("x") / len(picks)
    assert 0.70 < share < 0.80


def test_weighted_choice_validation():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        weighted_choice(rng, ["a"], [1.0, 2.0])
    with pytest.raises(ValueError):
        weighted_choice(rng, [], [])
    with pytest.raises(ValueError):
        weighted_choice(rng, ["a"], [0.0])
    with pytest.raises(ValueError):
        weighted_choice(rng, ["a", "b"], [-1.0, 2.0])

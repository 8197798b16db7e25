import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracerecon import CalibrationError, estimate_threshold, threshold_from_stats


@pytest.mark.parametrize(
    "mean, sigma, k, expected",
    [
        (27.4, 16.76, 2, 61),  # 60.92 rounds half-up
        (24.5, 12.96, 2, 50),  # 50.42
        (10, 0, 2, 10),
        (0.1, 0.0, 2, 1),  # floor at one second
        (10.25, 0.125, 2, 11),  # 10.5 rounds up, not to even
    ],
)
def test_threshold_from_stats(mean, sigma, k, expected):
    assert threshold_from_stats(mean, sigma, k) == expected


@pytest.mark.parametrize(
    "mean, sigma, k",
    [
        (-1, 5, 2), (5, -1, 2), (5, 5, 0), (5, 5, -2),
        # the cutoff mean + k*sigma is not finite
        (math.nan, 5, 2), (5, math.inf, 2), (5, 5, math.nan), (5, 5, math.inf),
        (1e308, 1e308, 2),
    ],
)
def test_invalid_stats_rejected(mean, sigma, k):
    with pytest.raises(CalibrationError):
        threshold_from_stats(mean, sigma, k)


def test_estimate_from_two_samples():
    # hand check: mean 15, stdev sqrt(((10-15)^2 + (20-15)^2)/1) = sqrt(50),
    # 15 + 2*7.0710678 = 29.142 -> 29
    estimate = estimate_threshold([10, 20], k=2)
    assert estimate.n == 2
    assert estimate.mean == pytest.approx(15)
    assert estimate.sigma == pytest.approx(math.sqrt(50))
    assert estimate.theta == 29


def test_zero_variance_collapses_to_the_mean():
    assert estimate_threshold([5, 5, 5], k=2).theta == 5


def test_single_sample_is_insufficient():
    with pytest.raises(CalibrationError, match="insufficient"):
        estimate_threshold([10], k=2)


@pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf, -math.inf])
def test_negative_or_non_finite_samples_rejected(bad):
    with pytest.raises(CalibrationError):
        estimate_threshold([3.0, bad], k=2)


samples_strategy = st.lists(
    st.floats(min_value=0, max_value=1e5, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=30,
)


@given(samples_strategy, st.floats(min_value=0.1, max_value=5), st.floats(min_value=0, max_value=5))
def test_threshold_never_decreases_with_k(samples, k, bump):
    assert estimate_threshold(samples, k + bump).theta >= estimate_threshold(samples, k).theta


@given(samples_strategy, st.floats(min_value=0.1, max_value=5))
def test_adding_a_mean_valued_sample_never_raises_the_threshold(samples, k):
    before = estimate_threshold(samples, k)
    after = estimate_threshold(samples + [before.mean], k)
    assert after.theta <= before.theta


@given(
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0, max_value=1e4, allow_nan=False),
    st.floats(min_value=0.1, max_value=10),
)
def test_threshold_at_least_the_rounded_mean(mean, sigma, k):
    assert threshold_from_stats(mean, sigma, k) >= max(1, math.floor(mean + 0.5))

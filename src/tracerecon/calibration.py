"""Update-threshold estimation from measured trace-update durations.

The delay between an action instance and the last of its trace updates is
measured repeatedly (one duration sample per observed execution), modeled as
a normal distribution, and cut off at ``mean + k * sigma`` to obtain the
action's update threshold in whole seconds.  ``k`` defaults to 2.
"""

from __future__ import annotations

import math
import statistics
from collections import namedtuple
from collections.abc import Sequence

from .model import DEFAULT_SIGMA_MULTIPLIER, CalibrationError


class ThresholdEstimate(namedtuple("ThresholdEstimate", "mean sigma k theta n")):
    """Sample statistics and the integer threshold derived from them."""

    mean: float
    sigma: float
    k: float
    theta: int
    n: int

    __slots__ = ()


def _round_half_up(x: float) -> int:
    # Ties round away from zero for non-negative x; banker's rounding would
    # under-report thresholds ending in .5.
    return math.floor(x + 0.5)


def threshold_from_stats(mean: float, sigma: float, k: float) -> int:
    """Threshold in whole seconds from distribution statistics.

    Rounds ``mean + k * sigma`` half-up and floors the result at 1 second;
    a zero threshold would make every pair of observations a separate
    instance, which is never the intent.  A cutoff that is not a finite
    number (a NaN or infinite input, or an overflow) is rejected.
    """
    if mean < 0 or sigma < 0:
        raise CalibrationError("mean and sigma must be non-negative")
    if k <= 0:
        raise CalibrationError("sigma multiplier k must be positive")
    cutoff = mean + k * sigma
    if not math.isfinite(cutoff):
        raise CalibrationError(f"cutoff mean + k*sigma is not finite: {cutoff}")
    return max(1, _round_half_up(cutoff))


def estimate_threshold(
    samples: Sequence[float], k: float = DEFAULT_SIGMA_MULTIPLIER
) -> ThresholdEstimate:
    """Estimate a threshold from raw duration samples (seconds).

    Uses the arithmetic mean and the sample standard deviation (n-1
    divisor).  Requires at least two samples, all finite and non-negative.
    """
    if len(samples) < 2:
        raise CalibrationError("insufficient samples: need at least 2 durations")
    if not all(math.isfinite(s) for s in samples):
        raise CalibrationError("duration samples must be finite numbers")
    if any(s < 0 for s in samples):
        raise CalibrationError("duration samples must be non-negative")
    mean = statistics.mean(samples)
    sigma = statistics.stdev(samples)
    theta = threshold_from_stats(mean, sigma, k)
    return ThresholdEstimate(mean=mean, sigma=sigma, k=k, theta=theta, n=len(samples))

"""The Hypothesis profile that CI runs load draws new examples on every run."""

from hypothesis import settings


def test_the_ci_profile_is_not_derandomized():
    assert settings.get_profile("ci").derandomize is False
    assert settings.default.derandomize is False

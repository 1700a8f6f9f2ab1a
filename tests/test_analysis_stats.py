"""Tests for statistics and folding observables."""

import numpy as np
import pytest

from repro.analysis.folding import half_time
from repro.analysis.stats import ensemble_mean_sd
from repro.util.errors import ConfigurationError


def test_ensemble_mean_sd():
    curves = np.array([[0.0, 1.0], [2.0, 3.0]])
    mean, sd = ensemble_mean_sd(curves)
    np.testing.assert_allclose(mean, [1.0, 2.0])
    np.testing.assert_allclose(sd, np.std([0, 2], ddof=1))


def test_ensemble_mean_sd_needs_two_members():
    with pytest.raises(ConfigurationError):
        ensemble_mean_sd(np.zeros((1, 5)))


# ------------------------------------------------------------ folding


def test_half_time_linear_curve():
    times = np.linspace(0, 10, 11)
    curve = times / 10.0  # plateau 1.0 at t=10
    assert half_time(curve, times) == pytest.approx(5.0)


def test_half_time_explicit_plateau():
    times = np.linspace(0, 10, 11)
    curve = times / 10.0
    # half of plateau 0.6 is 0.3, reached at t=3
    assert half_time(curve, times, plateau=0.6) == pytest.approx(3.0)


def test_half_time_exponential_matches_log2():
    """For 1 - exp(-t/tau), t_half = tau ln 2."""
    tau = 4.0
    times = np.linspace(0, 60, 2000)
    curve = 1.0 - np.exp(-times / tau)
    assert half_time(curve, times, plateau=1.0) == pytest.approx(
        tau * np.log(2), rel=1e-3
    )


def test_half_time_never_reached():
    times = np.linspace(0, 5, 6)
    curve = np.zeros(6)
    assert half_time(curve, times, plateau=1.0) is None


def test_half_time_validation():
    with pytest.raises(ConfigurationError):
        half_time(np.array([1.0]), np.array([1.0]))

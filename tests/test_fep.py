"""Tests for free-energy estimation: BAR, EXP, harmonic systems."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fep.bar import (
    bar_error,
    bar_free_energy,
    exp_free_energy,
)
from repro.fep.sampling import run_fep_window, sample_window
from repro.fep.systems import (
    HarmonicWindow,
    harmonic_free_energy_difference,
    window_ladder,
)
from repro.util.errors import ConfigurationError, EstimationError
from repro.util.rng import RandomStream


def harmonic_work_samples(a, b, n, kt=1.0, seed=0):
    """Forward/reverse work for a pair of harmonic windows."""
    rng_f, rng_r = RandomStream(seed).spawn(2)
    x_a = a.sample(n, kt, rng_f)
    x_b = b.sample(n, kt, rng_r)
    w_f = b.energy(x_a) - a.energy(x_a)
    w_r = a.energy(x_b) - b.energy(x_b)
    return w_f, w_r


# -------------------------------------------------------------- systems


def test_window_validation():
    with pytest.raises(ConfigurationError):
        HarmonicWindow(k=-1.0)


def test_window_energy():
    w = HarmonicWindow(k=2.0, x0=1.0)
    assert w.energy(np.array([2.0]))[0] == pytest.approx(1.0)


def test_window_free_energy_scaling():
    """dF between two windows is kT/2 ln(k2/k1), independent of centres."""
    kt = 2.5
    a = HarmonicWindow(k=1.0, x0=0.0)
    b = HarmonicWindow(k=4.0, x0=3.0)
    assert harmonic_free_energy_difference(a, b, kt) == pytest.approx(
        0.5 * kt * np.log(4.0)
    )


def test_window_sampling_distribution():
    w = HarmonicWindow(k=4.0, x0=2.0)
    samples = w.sample(20000, kt=1.0, rng=RandomStream(0))
    assert samples.mean() == pytest.approx(2.0, abs=0.02)
    assert samples.std() == pytest.approx(0.5, rel=0.05)  # sqrt(kt/k)


def test_window_interpolation_endpoints():
    a, b = HarmonicWindow(1.0, 0.0), HarmonicWindow(9.0, 1.0)
    assert HarmonicWindow.interpolate(a, b, 0.0) == a
    assert HarmonicWindow.interpolate(a, b, 1.0) == b
    mid = HarmonicWindow.interpolate(a, b, 0.5)
    assert mid.k == pytest.approx(3.0)  # geometric mean
    assert mid.x0 == pytest.approx(0.5)


def test_window_interpolation_validation():
    a, b = HarmonicWindow(1.0), HarmonicWindow(2.0)
    with pytest.raises(ConfigurationError):
        HarmonicWindow.interpolate(a, b, 1.5)


def test_window_ladder():
    ladder = window_ladder(HarmonicWindow(1.0), HarmonicWindow(16.0), 5)
    assert len(ladder) == 5
    ks = [w.k for w in ladder]
    np.testing.assert_allclose(ks, [1, 2, 4, 8, 16], rtol=1e-12)
    with pytest.raises(ConfigurationError):
        window_ladder(HarmonicWindow(1.0), HarmonicWindow(2.0), 1)


# ------------------------------------------------------------------ BAR


def test_bar_recovers_harmonic_df():
    kt = 1.0
    a, b = HarmonicWindow(k=1.0), HarmonicWindow(k=4.0)
    w_f, w_r = harmonic_work_samples(a, b, 20000, kt=kt, seed=1)
    df = bar_free_energy(w_f, w_r, kt=kt)
    exact = harmonic_free_energy_difference(a, b, kt)
    assert df == pytest.approx(exact, abs=0.02)


def test_bar_zero_for_identical_states():
    a = HarmonicWindow(k=2.0)
    w_f, w_r = harmonic_work_samples(a, a, 5000, seed=2)
    assert bar_free_energy(w_f, w_r) == pytest.approx(0.0, abs=0.05)


def test_bar_antisymmetric():
    a, b = HarmonicWindow(k=1.0), HarmonicWindow(k=3.0)
    w_f, w_r = harmonic_work_samples(a, b, 10000, seed=3)
    df_fwd = bar_free_energy(w_f, w_r)
    df_rev = bar_free_energy(w_r, w_f)
    assert df_fwd == pytest.approx(-df_rev, abs=1e-6)


def test_bar_beats_exp_averaging():
    """BAR error vs exact should not exceed one-sided EXP's by much;
    with poor overlap EXP is badly biased while BAR stays close."""
    kt = 1.0
    a, b = HarmonicWindow(k=1.0), HarmonicWindow(k=50.0)  # poor overlap
    exact = harmonic_free_energy_difference(a, b, kt)
    w_f, w_r = harmonic_work_samples(a, b, 3000, kt=kt, seed=4)
    bar = bar_free_energy(w_f, w_r, kt=kt)
    exp = exp_free_energy(w_f, kt=kt)
    assert abs(bar - exact) < abs(exp - exact)


def test_bar_error_positive_and_shrinks():
    a, b = HarmonicWindow(k=1.0), HarmonicWindow(k=4.0)
    w_f_small, w_r_small = harmonic_work_samples(a, b, 200, seed=5)
    w_f_big, w_r_big = harmonic_work_samples(a, b, 20000, seed=5)
    err_small = bar_error(
        w_f_small, w_r_small, bar_free_energy(w_f_small, w_r_small)
    )
    err_big = bar_error(w_f_big, w_r_big, bar_free_energy(w_f_big, w_r_big))
    assert err_small > 0 and err_big > 0
    assert err_big < err_small


def test_bar_error_calibrated():
    """Repeated estimates scatter consistently with the reported error."""
    kt = 1.0
    a, b = HarmonicWindow(k=1.0), HarmonicWindow(k=4.0)
    estimates, errors = [], []
    for seed in range(20):
        w_f, w_r = harmonic_work_samples(a, b, 500, kt=kt, seed=seed)
        df = bar_free_energy(w_f, w_r, kt=kt)
        err = bar_error(w_f, w_r, df, kt=kt)
        estimates.append(df)
        errors.append(err)
    scatter = np.std(estimates)
    mean_err = np.mean(errors)
    assert 0.4 < scatter / mean_err < 2.5


def test_bar_validation():
    with pytest.raises(EstimationError):
        bar_free_energy(np.array([]), np.array([1.0]))
    with pytest.raises(EstimationError):
        bar_free_energy(np.array([1.0]), np.array([1.0]), kt=-1.0)
    with pytest.raises(EstimationError):
        bar_free_energy(np.array([np.nan]), np.array([1.0]))


def test_exp_free_energy_simple():
    # all work values equal w -> dF = w
    assert exp_free_energy(np.full(100, 2.5)) == pytest.approx(2.5)


def test_exp_validation():
    with pytest.raises(EstimationError):
        exp_free_energy(np.array([1.0]), kt=0.0)


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=8.0),
    st.floats(min_value=0.5, max_value=8.0),
    st.integers(min_value=0, max_value=10**6),
)
def test_property_bar_harmonic_consistency(k_a, k_b, seed):
    kt = 1.0
    a, b = HarmonicWindow(k=k_a), HarmonicWindow(k=k_b)
    w_f, w_r = harmonic_work_samples(a, b, 4000, kt=kt, seed=seed)
    df = bar_free_energy(w_f, w_r, kt=kt)
    exact = harmonic_free_energy_difference(a, b, kt)
    err = bar_error(w_f, w_r, df, kt=kt)
    assert abs(df - exact) < max(6.0 * err, 0.05)


# --------------------------------------------------------------- sampling


def test_sample_window_md_matches_exact_distribution():
    w = HarmonicWindow(k=4.0, x0=1.0)
    samples = sample_window(w, 800, kt=1.0, seed=3, method="md")
    assert samples.mean() == pytest.approx(1.0, abs=0.1)
    assert samples.std() == pytest.approx(0.5, rel=0.25)


def test_sample_window_unknown_method():
    with pytest.raises(ConfigurationError):
        sample_window(HarmonicWindow(1.0), 10, 1.0, 0, method="magic")


def test_run_fep_window_payload():
    payload = {
        "k": 1.0,
        "x0": 0.0,
        "k_next": 2.0,
        "x0_next": 0.0,
        "k_prev": 0.5,
        "x0_prev": 0.0,
        "n_samples": 100,
        "kt": 1.0,
        "seed": 7,
        "window_index": 3,
    }
    out = run_fep_window(payload)
    assert out["window_index"] == 3
    assert len(out["work_to_next"]) == 100
    assert len(out["work_to_prev"]) == 100
    # stiffer neighbour costs energy on average; softer neighbour gains
    assert out["work_to_next"].mean() > 0
    assert out["work_to_prev"].mean() < 0

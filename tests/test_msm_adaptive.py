"""Tests for adaptive-sampling weights, the scheme table, validation tools
and the MSM facade."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.msm_controller import (
    AdaptiveMSMController,
    MSMProjectConfig,
    TrajectoryRecord,
)
from repro.msm.adaptive import (
    WEIGHTINGS,
    allocate_starts,
    even_weights,
    mincounts_weights,
    uncertainty_weights,
    weighted_counts_weights,
)
from repro.msm.model import MarkovStateModel
from repro.msm.validation import (
    chapman_kolmogorov,
    implied_timescale_scan,
    markovian_lag,
)
from repro.util.errors import ConfigurationError, EstimationError
from repro.util.rng import RandomStream


def markov_chain_dtraj(T, n_steps, seed=0, start=0):
    rng = np.random.default_rng(seed)
    states = np.empty(n_steps, dtype=int)
    s = start
    for t in range(n_steps):
        states[t] = s
        s = rng.choice(len(T), p=T[s])
    return states


# -------------------------------------------------------------- weights


_count_matrices = st.integers(min_value=2, max_value=7).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(min_value=0, max_value=50), min_size=k, max_size=k),
        min_size=k,
        max_size=k,
    )
).map(np.asarray).filter(lambda c: (c.sum(axis=0) + c.sum(axis=1)).max() > 0)


def test_even_weights_uniform_over_visited():
    C = np.array([[5, 1, 0], [2, 3, 0], [0, 0, 0]])
    w = even_weights(C)
    np.testing.assert_allclose(w, [0.5, 0.5, 0.0])


def test_even_weights_rejects_empty():
    with pytest.raises(EstimationError):
        even_weights(np.zeros((3, 3)))


def test_mincounts_prefers_rare_states():
    C = np.array([[100, 1], [1, 2]])
    w = mincounts_weights(C)
    assert w[1] > w[0]
    assert w.sum() == pytest.approx(1.0)


def test_uncertainty_weights_prefer_undersampled_rows():
    # state 0 heavily sampled, state 1 sparsely sampled, same split
    C = np.array([[500, 500], [5, 5]])
    w = uncertainty_weights(C)
    assert w[1] > w[0]
    assert w.sum() == pytest.approx(1.0)


def test_uncertainty_weights_deterministic_rows_low():
    # state 0 always goes to itself (no uncertainty after many counts);
    # state 1 is a coin flip with the same number of counts
    C = np.array([[1000, 0], [500, 500]])
    w = uncertainty_weights(C)
    assert w[1] > w[0]


def test_uncertainty_weights_destination_only_state_max():
    """A state seen only as a destination is maximally uncertain."""
    C = np.array([[5, 5, 2], [5, 5, 0], [0, 0, 0]])
    w = uncertainty_weights(C)
    assert w[2] == pytest.approx(w.max())


def test_uncertainty_weights_single_state_is_certain():
    # K = 1: the only posterior p is exactly 1, so the row variance is 0
    np.testing.assert_array_equal(uncertainty_weights(np.array([[7.0]])), [1.0])


@settings(max_examples=60)
@given(_count_matrices, st.floats(min_value=1e-3, max_value=1e3))
def test_property_uncertainty_weights_positive_on_every_visited_row(
    counts, prior
):
    """K >= 2 and prior > 0 put every posterior p_ij strictly inside (0, 1),
    so every visited row has positive weight (the sum is never zero) and a
    row with no outgoing counts, the bare prior, has the largest weight."""
    counts = counts.astype(float)
    w = uncertainty_weights(counts, prior=prior)
    visited = (counts.sum(axis=0) + counts.sum(axis=1)) > 0
    assert np.all(w[visited] > 0)
    no_out = visited & (counts.sum(axis=1) == 0)
    assert np.all(w[no_out] == w.max())


def test_weights_reject_nonsquare():
    for fn in (even_weights, mincounts_weights, uncertainty_weights):
        with pytest.raises(EstimationError):
            fn(np.ones((2, 3)))


def test_allocate_starts_exact_total():
    w = np.array([0.5, 0.3, 0.2])
    alloc = allocate_starts(w, 10, rng=0)
    assert alloc.sum() == 10
    assert alloc[0] == 5 and alloc[1] == 3 and alloc[2] == 2


def test_allocate_starts_rounding():
    w = np.array([1.0, 1.0, 1.0])
    alloc = allocate_starts(w, 10, rng=0)
    assert alloc.sum() == 10
    assert set(alloc.tolist()) <= {3, 4}


def test_allocate_starts_zero_trajectories():
    assert allocate_starts(np.array([1.0]), 0).sum() == 0


def test_allocate_starts_validation():
    with pytest.raises(ConfigurationError):
        allocate_starts(np.array([-1.0, 2.0]), 5)
    with pytest.raises(ConfigurationError):
        allocate_starts(np.array([1.0]), -2)
    with pytest.raises(ConfigurationError):
        allocate_starts(np.array([np.nan, 1.0]), 5)


def test_allocate_starts_rejects_all_zero_weights():
    with pytest.raises(ConfigurationError):
        allocate_starts(np.zeros(4), 8, rng=0)


@settings(max_examples=40)
@given(
    st.lists(st.floats(min_value=0.01, max_value=10), min_size=1, max_size=20),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=10**6),
)
def test_property_allocation_exact_and_proportional(weights, n, seed):
    w = np.asarray(weights)
    alloc = allocate_starts(w, n, rng=seed)
    assert alloc.sum() == n
    assert np.all(alloc >= 0)
    # never deviates from the real-valued quota by 1 or more
    quota = w / w.sum() * n
    assert np.all(np.abs(alloc - quota) < 1.0 + 1e-9)


# ------------------------------------------- weight-function properties

_weight_functions = [
    even_weights,
    mincounts_weights,
    uncertainty_weights,
    lambda c: weighted_counts_weights(c, n=0.5),
    lambda c: weighted_counts_weights(c, n=2.0),
]


@settings(max_examples=40)
@given(_count_matrices, st.integers(min_value=0, max_value=4))
def test_property_weights_normalised_on_visited_support(counts, which):
    w = _weight_functions[which](counts.astype(float))
    visited = (counts.sum(axis=0) + counts.sum(axis=1)) > 0
    assert np.all(w >= 0)
    assert w.sum() == pytest.approx(1.0)
    # support restricted to visited states
    assert not np.any(w[~visited] > 0)


@settings(max_examples=40)
@given(_count_matrices)
def test_property_weighted_counts_monotone_in_exponent(counts):
    counts = counts.astype(float)
    visits = counts.sum(axis=0) + counts.sum(axis=1)
    visited = np.flatnonzero(visits > 0)
    rare = visited[np.argmin(visits[visited])]
    popular = visited[np.argmax(visits[visited])]
    ratios = []
    for n in (0.0, 0.5, 1.0, 2.0, 4.0):
        w = weighted_counts_weights(counts, n=n)
        ratios.append(w[rare] / w[popular])
    # concentrating harder on the least-visited state as n grows
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_weighted_counts_endpoints_match_named_schemes():
    counts = np.array([[5.0, 1.0, 0.0], [2.0, 8.0, 0.0], [0.0, 0.0, 0.0]])
    weighted = WEIGHTINGS["weighted-counts"]
    np.testing.assert_allclose(
        weighted(counts, n=0.0), WEIGHTINGS["uniform"](counts)
    )
    np.testing.assert_allclose(
        weighted(counts, n=1.0), WEIGHTINGS["min-counts"](counts)
    )
    with pytest.raises(ConfigurationError):
        weighted(counts, n=-0.5)


# ---------------------------------------------------------- scheme table


def test_weightings_table_names_the_four_schemes():
    assert sorted(WEIGHTINGS) == [
        "min-counts",
        "uncertainty",
        "uniform",
        "weighted-counts",
    ]


def test_weightings_table_maps_to_weight_functions():
    assert WEIGHTINGS == {
        "uniform": even_weights,
        "min-counts": mincounts_weights,
        "weighted-counts": weighted_counts_weights,
        "uncertainty": uncertainty_weights,
    }
    counts = np.array([[4.0, 2.0, 0.0], [1.0, 9.0, 0.0], [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(
        WEIGHTINGS["weighted-counts"](counts, n=2.0),
        weighted_counts_weights(counts, n=2.0),
    )
    np.testing.assert_allclose(
        WEIGHTINGS["uncertainty"](counts, prior=2.0),
        uncertainty_weights(counts, prior=2.0),
    )


def test_weight_parameter_validation():
    counts = np.ones((2, 2))
    with pytest.raises(ConfigurationError):
        weighted_counts_weights(counts, n=-1.0)
    for prior in (0.0, -1.0):
        with pytest.raises(ConfigurationError):
            uncertainty_weights(counts, prior=prior)


def test_unknown_weighting_error_lists_table_names():
    with pytest.raises(ConfigurationError) as excinfo:
        MSMProjectConfig(weighting="magic")
    message = str(excinfo.value)
    for name in WEIGHTINGS:
        assert name in message


def test_config_rejects_bad_weighting_at_construction():
    # "even" was a pre-laboratory alias of "uniform"; it is unknown now
    for weighting in ("magic", "even", None):
        with pytest.raises(ConfigurationError) as excinfo:
            MSMProjectConfig(weighting=weighting)
        for name in WEIGHTINGS:
            assert name in str(excinfo.value)
    for weighting, params in (
        ("weighted-counts", {"n": -1.0}),
        ("uncertainty", {"prior": 0.0}),
    ):
        with pytest.raises(ConfigurationError):
            MSMProjectConfig(weighting=weighting, weighting_params=params)


def test_controller_weights_come_from_the_table(monkeypatch):
    seen = []

    def spy(counts, **params):
        seen.append(params)
        return weighted_counts_weights(counts, **params)

    monkeypatch.setitem(WEIGHTINGS, "weighted-counts", spy)
    cfg = MSMProjectConfig(
        model="double-well",
        weighting="weighted-counts",
        weighting_params={"n": 3.0},
        n_clusters=3,
        lag_frames=1,
    )
    controller = AdaptiveMSMController(cfg)
    frames = RandomStream(0).normal(size=(30, 1, 1))
    controller.trajectories["t0"] = TrajectoryRecord("t0", 0, frames=frames)
    summary = controller._cluster_and_summarise()
    assert seen[-1] == {"n": 3.0}
    np.testing.assert_array_equal(
        summary["weights"], weighted_counts_weights(summary["counts"], n=3.0)
    )


# ------------------------------------------------------------ validation


def test_implied_timescale_scan_flat_for_markovian_chain():
    """Data generated by a true Markov chain plateaus immediately."""
    T = np.array([[0.95, 0.05], [0.1, 0.9]])
    dtrajs = [markov_chain_dtraj(T, 30000, seed=k) for k in range(3)]
    scan = implied_timescale_scan(dtrajs, 2, lags=[1, 2, 4], frame_time=1.0, k=1)
    t1, t2, t4 = scan[1][0], scan[2][0], scan[4][0]
    assert t1 == pytest.approx(t2, rel=0.15)
    assert t1 == pytest.approx(t4, rel=0.2)
    assert markovian_lag(scan) == 1


def test_implied_timescale_scan_empty_lags():
    with pytest.raises(EstimationError):
        implied_timescale_scan([np.array([0, 1])], 2, lags=[])


def test_markovian_lag_needs_two():
    with pytest.raises(EstimationError):
        markovian_lag({1: np.array([5.0])})


def test_chapman_kolmogorov_small_for_markov_chain():
    T = np.array([[0.9, 0.1], [0.2, 0.8]])
    dtrajs = [markov_chain_dtraj(T, 50000, seed=k) for k in range(2)]
    ck = chapman_kolmogorov(dtrajs, 2, lag=1, factors=(2, 3))
    assert ck[2] < 0.05
    assert ck[3] < 0.05


def test_chapman_kolmogorov_validation():
    with pytest.raises(EstimationError):
        chapman_kolmogorov([np.array([0, 1, 0])], 2, lag=0)
    with pytest.raises(EstimationError):
        chapman_kolmogorov([np.array([0, 1, 0, 1])], 2, lag=1, factors=(1,))


# ------------------------------------------------------------ MSM facade


def test_msm_fit_two_state():
    T_true = np.array([[0.9, 0.1], [0.2, 0.8]])
    dtrajs = [markov_chain_dtraj(T_true, 20000, seed=3)]
    msm = MarkovStateModel(lag=1).fit(dtrajs)
    np.testing.assert_allclose(msm.transition_matrix, T_true, atol=0.03)
    np.testing.assert_allclose(
        msm.stationary_distribution(), [2 / 3, 1 / 3], atol=0.05
    )


def test_msm_equilibrium_state_prediction():
    T_true = np.array([[0.9, 0.1], [0.02, 0.98]])  # state 1 dominates
    dtrajs = [markov_chain_dtraj(T_true, 20000, seed=4)]
    msm = MarkovStateModel(lag=1).fit(dtrajs)
    assert msm.equilibrium_state() == 1


def test_msm_trims_disconnected_states():
    # state 2 never appears
    dtrajs = [np.array([0, 1, 0, 1, 0, 1])]
    msm = MarkovStateModel(lag=1).fit(dtrajs, n_states=3)
    assert msm.n_states == 2
    np.testing.assert_array_equal(msm.active_set, [0, 1])
    np.testing.assert_array_equal(msm.map_to_active([0, 2]), [0, -1])


def test_msm_reversible_mode():
    T_true = np.array([[0.9, 0.1], [0.2, 0.8]])
    dtrajs = [markov_chain_dtraj(T_true, 20000, seed=5)]
    msm = MarkovStateModel(lag=1, reversible=True).fit(dtrajs)
    from repro.msm.estimation import detailed_balance_violation

    assert (
        detailed_balance_violation(
            msm.transition_matrix, msm.stationary_distribution()
        )
        < 1e-8
    )


def test_msm_lag_time_units():
    msm = MarkovStateModel(lag=4, frame_time=0.5)
    assert msm.lag_time == 2.0


def test_msm_requires_fit():
    with pytest.raises(EstimationError):
        MarkovStateModel().stationary_distribution()


def test_msm_invalid_params():
    with pytest.raises(EstimationError):
        MarkovStateModel(lag=0)
    with pytest.raises(EstimationError):
        MarkovStateModel(frame_time=0.0)


def test_msm_timescale_recovery():
    p, q = 0.05, 0.1
    T_true = np.array([[1 - p, p], [q, 1 - q]])
    dtrajs = [markov_chain_dtraj(T_true, 60000, seed=6)]
    msm = MarkovStateModel(lag=1, frame_time=2.0).fit(dtrajs)
    expected = -2.0 / np.log(1 - p - q)
    assert msm.timescales(1)[0] == pytest.approx(expected, rel=0.15)
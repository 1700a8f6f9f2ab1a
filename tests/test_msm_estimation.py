"""Tests for counting, estimation, connectivity and spectral analysis."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.msm.analysis import (
    eigenvalues,
    implied_timescales,
    population_evolution,
    propagate,
    stationary_distribution,
)
from repro.msm.connectivity import (
    largest_connected_set,
    trim_counts,
)
from repro.msm.counts import count_matrix_multi, count_transitions
from repro.msm.estimation import (
    detailed_balance_violation,
    estimate_transition_matrix,
    is_stochastic,
    reversible_transition_matrix,
)
from repro.util.errors import ConfigurationError, EstimationError
from repro.util.rng import RandomStream


# ------------------------------------------------------------- counting


def test_count_transitions_sliding():
    d = np.array([0, 0, 1, 1, 0])
    C = count_transitions(d, n_states=2, lag=1)
    expected = np.array([[1, 1], [1, 1]])
    np.testing.assert_array_equal(C, expected)


def test_count_transitions_lag_two():
    d = np.array([0, 1, 0, 1, 0])
    C = count_transitions(d, 2, lag=2)
    np.testing.assert_array_equal(C, [[2, 0], [0, 1]])


def test_count_transitions_disjoint():
    d = np.array([0, 1, 0, 1, 0])
    C = count_transitions(d, 2, lag=2, sliding=False)
    # strided sequence 0,0,0 -> two 0->0 transitions
    np.testing.assert_array_equal(C, [[2, 0], [0, 0]])


def test_count_transitions_short_trajectory():
    C = count_transitions(np.array([0]), 2, lag=1)
    assert C.sum() == 0


def test_count_transitions_validation():
    with pytest.raises(ConfigurationError):
        count_transitions(np.array([0, 1]), 2, lag=0)
    with pytest.raises(ConfigurationError):
        count_transitions(np.array([0, 5]), 2, lag=1)


def test_count_matrix_multi_no_boundary_crossing():
    """Counts never bridge two separate trajectories."""
    a = np.array([0, 0])
    b = np.array([1, 1])
    C = count_matrix_multi([a, b], 2, lag=1)
    assert C[0, 1] == 0 and C[1, 0] == 0
    assert C[0, 0] == 1 and C[1, 1] == 1


def test_count_matrix_multi_empty_rejected():
    with pytest.raises(EstimationError):
        count_matrix_multi([], 2, lag=1)


# ------------------------------------------------------------ estimation


def test_mle_row_normalisation():
    C = np.array([[6, 2], [1, 3]])
    T = estimate_transition_matrix(C)
    np.testing.assert_allclose(T, [[0.75, 0.25], [0.25, 0.75]])
    assert is_stochastic(T)


def test_mle_empty_row_becomes_absorbing():
    C = np.array([[0, 0], [1, 1]])
    T = estimate_transition_matrix(C)
    assert T[0, 0] == 1.0
    assert is_stochastic(T)


def test_mle_prior_smooths():
    C = np.array([[10, 0], [0, 10]])
    T = estimate_transition_matrix(C, prior=1.0)
    assert 0 < T[0, 1] < 0.2


def test_mle_rejects_negative_counts():
    with pytest.raises(EstimationError):
        estimate_transition_matrix(np.array([[1, -1], [0, 1]]))


def test_mle_rejects_nonsquare():
    with pytest.raises(EstimationError):
        estimate_transition_matrix(np.ones((2, 3)))


def test_reversible_satisfies_detailed_balance():
    rng = RandomStream(0)
    C = rng.integers(1, 50, size=(5, 5)).astype(float)
    T = reversible_transition_matrix(C)
    assert is_stochastic(T)
    pi = stationary_distribution(T)
    assert detailed_balance_violation(T, pi) < 1e-8


def test_reversible_symmetric_counts_identity():
    """For already-symmetric counts the reversible MLE equals the naive MLE."""
    C = np.array([[4.0, 2.0], [2.0, 6.0]])
    T_rev = reversible_transition_matrix(C)
    T_mle = estimate_transition_matrix(C)
    np.testing.assert_allclose(T_rev, T_mle, atol=1e-8)


def test_reversible_rejects_empty_state():
    C = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(EstimationError):
        reversible_transition_matrix(C)


def test_is_stochastic_rejects_bad():
    assert not is_stochastic(np.array([[0.5, 0.4], [0.2, 0.8]]))
    assert not is_stochastic(np.array([[1.2, -0.2], [0.0, 1.0]]))


# -------------------------------------------------------------- analysis


def test_stationary_distribution_two_state():
    T = np.array([[0.9, 0.1], [0.2, 0.8]])
    pi = stationary_distribution(T)
    np.testing.assert_allclose(pi, [2 / 3, 1 / 3], atol=1e-10)


def test_stationary_distribution_is_fixed_point():
    rng = RandomStream(1)
    C = rng.integers(1, 30, size=(6, 6)).astype(float)
    T = estimate_transition_matrix(C)
    pi = stationary_distribution(T)
    np.testing.assert_allclose(pi @ T, pi, atol=1e-10)


def test_stationary_rejects_nonstochastic():
    with pytest.raises(EstimationError):
        stationary_distribution(np.array([[0.5, 0.4], [0.5, 0.5]]))


def test_eigenvalues_sorted_leading_one():
    T = np.array([[0.9, 0.1], [0.2, 0.8]])
    vals = eigenvalues(T)
    assert vals[0] == pytest.approx(1.0)
    assert abs(vals[1]) <= 1.0


def test_implied_timescales_two_state_analytic():
    """t = -lag / ln(lambda_2), lambda_2 = 1 - p - q for a 2-state chain."""
    p, q = 0.1, 0.2
    T = np.array([[1 - p, p], [q, 1 - q]])
    ts = implied_timescales(T, lag_time=2.0, k=1)
    assert ts[0] == pytest.approx(-2.0 / np.log(1 - p - q))


def test_implied_timescales_invalid_lag():
    with pytest.raises(EstimationError):
        implied_timescales(np.eye(2), lag_time=0.0)


def test_propagate_conserves_probability():
    T = np.array([[0.7, 0.3], [0.4, 0.6]])
    traj = propagate(np.array([1.0, 0.0]), T, 20)
    np.testing.assert_allclose(traj.sum(axis=1), 1.0, atol=1e-12)
    # converges to stationary
    pi = stationary_distribution(T)
    np.testing.assert_allclose(traj[-1], pi, atol=1e-3)


def test_propagate_validation():
    T = np.array([[0.7, 0.3], [0.4, 0.6]])
    with pytest.raises(EstimationError):
        propagate(np.array([0.5, 0.6]), T, 5)  # not normalised
    with pytest.raises(EstimationError):
        propagate(np.array([1.0, 0.0, 0.0]), T, 5)  # wrong shape
    with pytest.raises(EstimationError):
        propagate(np.array([1.0, 0.0]), T, -1)


def test_population_evolution_masked():
    T = np.array([[0.7, 0.3], [0.4, 0.6]])
    times, curve = population_evolution(
        np.array([1.0, 0.0]), T, 10, lag_time=5.0, member_mask=np.array([False, True])
    )
    assert times[1] == 5.0
    assert curve[0] == 0.0
    assert curve[-1] == pytest.approx(stationary_distribution(T)[1], abs=1e-2)


# ------------------------------------------------------------ connectivity


def test_largest_connected_set_basic():
    # states 0-1 strongly connected; 2 is a sink only
    C = np.array([[1, 5, 1], [4, 1, 0], [0, 0, 0]])
    kept = largest_connected_set(C)
    np.testing.assert_array_equal(kept, [0, 1])


def test_largest_connected_set_prefers_heavy_component():
    # two disjoint 2-cycles; the second has more counts
    C = np.zeros((4, 4))
    C[0, 1] = C[1, 0] = 1
    C[2, 3] = C[3, 2] = 100
    np.testing.assert_array_equal(largest_connected_set(C), [2, 3])


def test_trim_counts_shapes():
    C = np.array([[1, 5, 1], [4, 1, 0], [0, 0, 0]])
    trimmed, kept = trim_counts(C)
    assert trimmed.shape == (2, 2)
    np.testing.assert_array_equal(trimmed, C[:2, :2])


def test_connected_set_rejects_nonsquare():
    with pytest.raises(EstimationError):
        largest_connected_set(np.ones((2, 3)))


def test_connected_set_rejects_empty_matrix():
    with pytest.raises(EstimationError, match="empty"):
        largest_connected_set(np.zeros((0, 0)))


def networkx_largest_connected_set(counts, directed):
    """The reference answer: networkx's components, the same
    (total counts, size) key, the first component on a tie."""
    nx = pytest.importorskip("networkx")
    graph = nx.from_numpy_array(
        counts, create_using=nx.DiGraph if directed else nx.Graph
    )
    components = (
        nx.strongly_connected_components(graph)
        if directed
        else nx.connected_components(graph)
    )
    return max(
        (np.sort(np.fromiter(c, dtype=int)) for c in components),
        key=lambda idx: (float(counts[idx].sum()), len(idx)),
    )


def random_count_matrix(rng, n):
    """Sparse or dense patterns of small integer counts (ties are
    common) or float weights, with self-loops and all-zero rows."""
    density = rng.choice([rng.uniform(0.0, 0.15), rng.uniform(0.3, 0.9)])
    pattern = rng.random((n, n)) < density
    if rng.random() < 0.5:
        counts = pattern * rng.integers(1, 3, (n, n))
    else:
        counts = pattern * rng.random((n, n))
    counts[np.diag_indices(n)] *= rng.random(n) < 0.5
    counts[rng.random(n) < 0.1] = 0
    return counts


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_largest_connected_set_matches_networkx(seed, directed):
    rng = np.random.default_rng(seed)
    for _ in range(150):
        counts = random_count_matrix(rng, int(rng.integers(1, 41)))
        got = largest_connected_set(counts, directed=directed)
        assert np.array_equal(
            got, networkx_largest_connected_set(counts, directed)
        ), counts


@pytest.mark.parametrize("directed, expected", [(True, [3, 4]), (False, [0, 3, 4])])
def test_largest_connected_set_tie_goes_to_networkx_choice(directed, expected):
    # 0 -> 3 leads into the 2-cycle 3 <-> 4, which ties 1 <-> 2 on
    # weight and size.  The search from source 0 finishes {3, 4} first,
    # so that is networkx's pick even though {1, 2} has smaller states.
    C = np.zeros((5, 5))
    C[3, 4] = C[4, 3] = C[1, 2] = C[2, 1] = 2
    C[0, 3] = 1
    got = largest_connected_set(C, directed=directed)
    np.testing.assert_array_equal(got, networkx_largest_connected_set(C, directed))
    np.testing.assert_array_equal(got, expected)


def test_largest_connected_set_long_chain_is_not_recursive():
    """A 5 000-state path (a cycle when closed) is one component, found
    without touching the recursion limit."""
    n = 5000
    path = np.eye(n, k=1)
    np.testing.assert_array_equal(largest_connected_set(path, directed=False), np.arange(n))
    path[-1, 0] = 1
    np.testing.assert_array_equal(largest_connected_set(path), np.arange(n))


_FOOTPRINT_PROBE = """
import sys
import repro.api, repro.core.msm_controller, repro.msm, repro.lab
print(sorted(m for m in ("networkx", "scipy") if m in sys.modules))
sys.modules["networkx"] = None  # any import of it now fails
import numpy as np
from repro.msm import MarkovStateModel, trim_counts
rng = np.random.default_rng(0)
dtrajs = [rng.integers(0, 5, 200) for _ in range(3)]
msm = MarkovStateModel(lag=1).fit(dtrajs, n_states=6)
print(msm.transition_matrix.shape)
print(trim_counts(np.array([[1, 5, 1], [4, 1, 0], [0, 0, 0]]))[1].tolist())
"""


def test_runtime_needs_neither_networkx_nor_scipy():
    """The run path imports neither, and fits an MSM with networkx
    unimportable.  A fresh interpreter, so this suite's own imports
    cannot hide one."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert out == ["[]", "(5, 5)", "[0, 1]"]


# ------------------------------------------------------------ properties


@settings(max_examples=40)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=10**6),
)
def test_property_mle_always_stochastic(n, seed):
    rng = RandomStream(seed)
    C = rng.integers(0, 20, size=(n, n)).astype(float)
    T = estimate_transition_matrix(C)
    assert is_stochastic(T)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
def test_property_reversible_detailed_balance(n, seed):
    rng = RandomStream(seed)
    C = rng.integers(1, 30, size=(n, n)).astype(float)
    T = reversible_transition_matrix(C)
    assert is_stochastic(T)
    pi = stationary_distribution(T)
    assert detailed_balance_violation(T, pi) < 1e-7


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=5, max_size=60),
    st.integers(min_value=1, max_value=4),
)
def test_property_counts_total(dtraj, lag):
    """Sliding-window counting yields exactly len - lag transitions."""
    d = np.asarray(dtraj)
    C = count_transitions(d, 5, lag)
    assert C.sum() == max(len(d) - lag, 0)

"""Tests for the exact-ground-truth Markov-chain toy systems."""

import numpy as np
import pytest

from repro.md.engine import MDEngine, MDTask, MODEL_REGISTRY
from repro.md.models.markov_chain import (
    MARKOV_CHAIN_MODELS,
    MarkovChainSpec,
    alanine_chain_spec,
    build_markov_chain,
    markov_chain_initial_state,
    metropolis_transition_matrix,
    muller_brown_chain_spec,
)
from repro.util.errors import ConfigurationError


# ------------------------------------------------------------ the spec


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        MarkovChainSpec(np.ones((2, 3)), np.zeros((2, 1)))
    with pytest.raises(ConfigurationError):  # rows not stochastic
        MarkovChainSpec(np.ones((2, 2)), np.arange(2.0))
    T = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ConfigurationError):  # duplicate embedding
        MarkovChainSpec(T, np.zeros((2, 1)))
    with pytest.raises(ConfigurationError):  # bad start
        MarkovChainSpec(T, np.arange(2.0), default_start=5)


def test_sample_next_inverts_the_cdf():
    T = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
    spec = MarkovChainSpec(T, np.arange(3.0))
    assert spec.sample_next(0, 0.1) == 0
    assert spec.sample_next(0, 0.25) == 1
    assert spec.sample_next(0, 0.9) == 2
    assert spec.sample_next(1, 0.999999) == 0
    assert spec.sample_next(2, 0.49) == 1


def test_sample_next_is_searchsorted_right_at_and_around_every_edge():
    spec = muller_brown_chain_spec()
    cumulative = np.cumsum(spec.transition_matrix, axis=1)
    cumulative[:, -1] = 1.0
    rng = np.random.default_rng(3)
    for state in range(spec.n_states):
        edges = cumulative[state][cumulative[state] < 1.0]
        draws = np.concatenate(
            [edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0), rng.random(20)]
        )
        for u in draws:
            assert spec.sample_next(state, float(u)) == int(
                np.searchsorted(cumulative[state], u, side="right")
            )
    np.testing.assert_array_equal(
        spec.positions_of([3, 0, 3]),
        np.stack([spec.position_of(s) for s in (3, 0, 3)]),
    )


def test_discretize_round_trips_positions():
    spec = alanine_chain_spec()
    for state in (0, 7, spec.n_states - 1):
        assert spec.state_of(spec.position_of(state)) == state
    frames = np.stack([spec.position_of(s) for s in (3, 1, 4)])
    np.testing.assert_array_equal(spec.discretize(frames), [3, 1, 4])


def test_frame_matrix_is_matrix_power():
    spec = alanine_chain_spec(n_states=6)
    np.testing.assert_allclose(
        spec.frame_matrix(3),
        spec.transition_matrix @ spec.transition_matrix @ spec.transition_matrix,
    )
    with pytest.raises(ConfigurationError):
        spec.frame_matrix(0)


# -------------------------------------------------- metropolis builder


def test_metropolis_chain_is_exactly_reversible():
    spec = alanine_chain_spec(n_states=12)
    pi = np.exp(-spec.energies)
    pi /= pi.sum()
    T = spec.transition_matrix
    # detailed balance against exp(-beta E), entry by entry
    np.testing.assert_allclose(pi[:, None] * T, (pi[:, None] * T).T, atol=1e-12)
    np.testing.assert_allclose(spec.stationary_distribution(), pi, atol=1e-8)


def test_muller_brown_chain_is_connected_and_reversible():
    spec = muller_brown_chain_spec()
    assert spec.n_states > 10
    assert spec.dim == 2
    pi = np.exp(-0.4 * (spec.energies - spec.energies.min()))
    pi /= pi.sum()
    T = spec.transition_matrix
    np.testing.assert_allclose(pi[:, None] * T, (pi[:, None] * T).T, atol=1e-12)
    # every state reachable: T + T^2 + ... has no all-zero column block
    reach = np.linalg.matrix_power(
        np.eye(spec.n_states) + T, spec.n_states
    )
    assert np.all(reach[spec.default_start] > 0)


# ------------------------------------------------- engine integration


def test_chain_models_are_registered():
    for name in MARKOV_CHAIN_MODELS:
        assert name in MODEL_REGISTRY
    with pytest.raises(ConfigurationError):
        build_markov_chain("markov-nope")


@pytest.mark.parametrize("model", sorted(MARKOV_CHAIN_MODELS))
def test_engine_runs_chain_on_embedding_points(model):
    spec = build_markov_chain(model).spec
    task = MDTask(
        model=model,
        n_steps=200,
        report_interval=10,
        integrator="markov-chain",
        seed=3,
        task_id="chain",
    )
    result = MDEngine().run(task)
    frames = np.asarray(result.frames)
    assert len(frames) == 21  # initial frame + 200/10 reports
    states = spec.discretize(frames)
    # every frame sits exactly on an embedding point
    recon = np.stack([spec.position_of(s) for s in states])
    np.testing.assert_array_equal(frames.reshape(recon.shape), recon)


def test_engine_chain_runs_are_seed_deterministic():
    def run(seed):
        task = MDTask(
            model="markov-ala20",
            n_steps=300,
            report_interval=10,
            integrator="markov-chain",
            seed=seed,
            task_id=f"chain-{seed}",
        )
        return np.asarray(MDEngine().run(task).frames)

    np.testing.assert_array_equal(run(5), run(5))
    assert not np.array_equal(run(5), run(6))


def test_chain_sampling_statistics_match_truth():
    spec = alanine_chain_spec(n_states=8, barrier=1.0, tilt=0.5)
    task = MDTask(
        model="markov-ala20",
        model_params={"n_states": 8, "barrier": 1.0, "tilt": 0.5},
        n_steps=20000,
        report_interval=1,
        integrator="markov-chain",
        seed=11,
        task_id="stats",
    )
    frames = np.asarray(MDEngine().run(task).frames)
    states = spec.discretize(frames)
    visits = np.bincount(states, minlength=spec.n_states).astype(float)
    visits /= visits.sum()
    pi = spec.stationary_distribution()
    # a flat 8-state chain mixes in ~100s of steps; 20k steps pin the
    # histogram to the exact stationary law within a few percent
    assert np.abs(visits - pi).max() < 0.05


def test_integrator_rereads_a_particle_the_caller_moved():
    """The integrator remembers where it put the particle; a caller
    that moves it between steps (or restores a checkpoint) must get the
    jump out of the state the particle is *in*."""
    from repro.md.integrators import MarkovChainIntegrator
    from repro.md.simulation import Simulation

    system = build_markov_chain("markov-ala20")
    spec = system.spec

    def jumps(move_to):
        sim = Simulation(
            system,
            MarkovChainIntegrator(0.02, rng=5),
            markov_chain_initial_state(system),
            report_interval=1,
        )
        sim.run(20)
        if move_to is not None:
            sim.state.positions[...] = spec.position_of(move_to)
        moved_to = spec.state_of(sim.state.positions)
        sim.run(20)
        # one frame per step: steps 0-20, then 21-40 after the move
        states = [spec.state_of(frame) for frame in sim.trajectory.frames]
        states.insert(21, moved_to)
        visited = list(zip(states[:20], states[1:21]))
        return visited + list(zip(states[21:-1], states[22:])), sim.integrator.rng_state

    # same uniforms either way, so the reference is a chain whose every
    # step re-derives the state from the coordinates
    moved, rng_state = jumps(move_to=13)
    assert moved[20][0] == 13
    draws = MarkovChainIntegrator(0.02, rng=5).rng.generator
    for start, end in moved:
        assert end == spec.sample_next(start, float(draws.random()))
    assert rng_state == draws.bit_generator.state
    assert abs(moved[20][1] - 13) <= 1  # a neighbour of 13, not of the old state
    untouched, _ = jumps(move_to=None)
    assert untouched[:20] == moved[:20]


def test_markov_chain_initial_state_bounds():
    system = build_markov_chain("markov-ala20")
    state = markov_chain_initial_state(system, 4)
    assert system.spec.state_of(state.positions) == 4
    with pytest.raises(ConfigurationError):
        markov_chain_initial_state(system, 99)


def test_metropolis_builder_validation():
    with pytest.raises(ConfigurationError):
        metropolis_transition_matrix(np.zeros(3), [[], [], []])
    with pytest.raises(ConfigurationError):
        metropolis_transition_matrix(np.zeros(2), [[1], [0]], beta=0.0)
    with pytest.raises(ConfigurationError):
        alanine_chain_spec(n_states=1)

"""Integrator correctness: conservation, thermostats, determinism."""

import numpy as np
import pytest

from repro.md import (
    LangevinIntegrator,
    NoseHooverIntegrator,
    Simulation,
    VelocityVerletIntegrator,
)
from repro.md.models.doublewell import double_well_initial_state, double_well_system
from repro.md.models.villin import build_villin
from repro.md.system import State, System
from repro.md.forcefield.bonded import HarmonicBondForce
from repro.util.errors import ConfigurationError
from repro.util.rng import RandomStream
from repro.util.units import KB


def _harmonic_dimer():
    """Two atoms joined by a spring — analytically tractable."""
    system = System(
        masses=[1.0, 1.0],
        forces=[HarmonicBondForce([[0, 1]], [1.0], [100.0])],
        dim=3,
    )
    positions = np.array([[0.0, 0.0, 0.0], [1.2, 0.0, 0.0]])  # stretched
    velocities = np.zeros((2, 3))
    return system, State(positions, velocities)


def test_verlet_conserves_energy():
    system, state = _harmonic_dimer()
    integrator = VelocityVerletIntegrator(timestep=0.002)
    sim = Simulation(system, integrator, state)
    e0 = sim.total_energy()
    sim.run(5000)
    assert sim.total_energy() == pytest.approx(e0, rel=1e-4)


def test_verlet_energy_drift_small_on_villin():
    model = build_villin("fast")
    state = model.native_state(rng=0, temperature=100.0)
    sim = Simulation(model.system, VelocityVerletIntegrator(0.005), state)
    e0 = sim.total_energy()
    sim.run(2000)
    drift = abs(sim.total_energy() - e0) / abs(e0)
    assert drift < 1e-3


def test_verlet_oscillation_period():
    """Spring period T = 2 pi sqrt(mu/k) with reduced mass mu = 1/2."""
    system, state = _harmonic_dimer()
    integrator = VelocityVerletIntegrator(timestep=0.001)
    sim = Simulation(system, integrator, state, report_interval=1)
    sim.run(2000)
    separations = np.linalg.norm(
        sim.trajectory.frames[:, 1] - sim.trajectory.frames[:, 0], axis=1
    )
    # count zero crossings of (r - r0)
    signs = np.sign(separations - 1.0)
    crossings = np.sum(signs[1:] != signs[:-1])
    expected_period = 2 * np.pi * np.sqrt(0.5 / 100.0)
    total_time = sim.trajectory.times[-1] - sim.trajectory.times[0]
    expected_crossings = 2 * total_time / expected_period
    assert crossings == pytest.approx(expected_crossings, rel=0.05)


def test_langevin_reaches_target_temperature():
    model = build_villin("fast")
    state = model.native_state(rng=1, temperature=100.0)  # start cold
    integrator = LangevinIntegrator(0.02, 300.0, friction=5.0, rng=4)
    sim = Simulation(model.system, integrator, state)
    sim.run(2000)  # equilibrate
    temps = []
    for _ in range(50):
        sim.run(100)
        temps.append(model.system.instantaneous_temperature(sim.state.velocities))
    assert np.mean(temps) == pytest.approx(300.0, rel=0.1)


def test_langevin_velocity_distribution_width():
    """Single free particle velocities sample the Maxwell distribution."""
    system = System(masses=[2.0], forces=[], dim=3)
    state = State(np.zeros((1, 3)), np.zeros((1, 3)))
    integrator = LangevinIntegrator(0.05, 300.0, friction=2.0, rng=9)
    sim = Simulation(system, integrator, state)
    sim.run(200)
    samples = []
    for _ in range(3000):
        sim.run(5)
        samples.append(sim.state.velocities[0, 0])
    expected_sigma = np.sqrt(KB * 300.0 / 2.0)
    assert np.std(samples) == pytest.approx(expected_sigma, rel=0.1)


def test_langevin_deterministic_given_seed():
    model = build_villin("fast")

    def run_once():
        state = model.native_state(rng=2, temperature=300.0)
        sim = Simulation(
            model.system, LangevinIntegrator(0.02, 300.0, rng=7), state
        )
        sim.run(500)
        return sim.state.positions.copy()

    np.testing.assert_array_equal(run_once(), run_once())


def test_langevin_different_seeds_diverge():
    model = build_villin("fast")

    def run_once(seed):
        state = model.native_state(rng=2, temperature=300.0)
        sim = Simulation(
            model.system, LangevinIntegrator(0.02, 300.0, rng=seed), state
        )
        sim.run(200)
        return sim.state.positions.copy()

    assert not np.array_equal(run_once(1), run_once(2))


def test_nose_hoover_controls_temperature():
    model = build_villin("fast")
    state = model.native_state(rng=3, temperature=300.0)
    integrator = NoseHooverIntegrator(0.01, 300.0, oscillation_period=0.5)
    sim = Simulation(model.system, integrator, state)
    sim.run(2000)
    temps = []
    for _ in range(60):
        sim.run(50)
        temps.append(model.system.instantaneous_temperature(sim.state.velocities))
    assert np.mean(temps) == pytest.approx(300.0, rel=0.12)


def test_nose_hoover_is_deterministic():
    model = build_villin("fast")

    def run_once():
        state = model.native_state(rng=5, temperature=300.0)
        sim = Simulation(
            model.system, NoseHooverIntegrator(0.01, 300.0), state
        )
        sim.run(300)
        return sim.state.positions.copy()

    np.testing.assert_array_equal(run_once(), run_once())


def test_nose_hoover_thermostat_state_roundtrip():
    integ = NoseHooverIntegrator(0.01, 300.0)
    integ.thermostat_state = 0.25
    assert integ.thermostat_state == 0.25


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigurationError):
        VelocityVerletIntegrator(timestep=0.0)
    with pytest.raises(ConfigurationError):
        LangevinIntegrator(0.01, -5.0)
    with pytest.raises(ConfigurationError):
        LangevinIntegrator(0.01, 300.0, friction=0.0)
    with pytest.raises(ConfigurationError):
        NoseHooverIntegrator(0.01, 0.0)
    with pytest.raises(ConfigurationError):
        NoseHooverIntegrator(0.01, 300.0, oscillation_period=-1.0)


def test_double_well_hopping_at_high_temperature():
    """Langevin dynamics crosses the barrier when kT ~ barrier."""
    barrier = 2.0
    system = double_well_system(barrier=barrier, width=0.5)
    state = double_well_initial_state(side=-1, rng=1, width=0.5)
    integrator = LangevinIntegrator(0.01, 600.0, friction=2.0, rng=3)
    sim = Simulation(system, integrator, state, report_interval=10)
    sim.run(40000)
    xs = sim.trajectory.frames[:, 0, 0]
    assert xs.min() < -0.25 and xs.max() > 0.25, "never crossed the barrier"


def test_maxwell_boltzmann_velocities_have_zero_momentum():
    model = build_villin("fast")
    v = model.system.maxwell_boltzmann_velocities(300.0, RandomStream(0))
    momentum = (model.system.masses[:, None] * v).sum(axis=0)
    np.testing.assert_allclose(momentum, 0.0, atol=1e-9)


def test_maxwell_boltzmann_temperature_scale():
    model = build_villin("full")
    temps = [
        model.system.instantaneous_temperature(
            model.system.maxwell_boltzmann_velocities(250.0, rng)
        )
        for rng in RandomStream(1).spawn(40)
    ]
    assert np.mean(temps) == pytest.approx(250.0, rel=0.05)


def test_batched_langevin_step_matches_serial_bits_and_rng_state():
    """The stacked step hoists per-run constants and draws noise with
    ``standard_normal(out=...)``: same stream, same arithmetic order —
    positions, velocities and the post-step ``bit_generator.state`` are
    those of each replica stepped alone (a stack of one), also on a
    compacted stack, and the stream is the one a lone allocate-and-
    return draw would advance."""
    from repro.md.batched import BatchedLangevinIntegrator, BatchedSystem

    model = build_villin("fast")
    system = model.system
    seeds = [11, 12, 13, 14]
    states = [model.native_state(rng=seed, temperature=300.0) for seed in seeds]

    serial = [LangevinIntegrator(0.02, 300.0, friction=2.0, rng=seed) for seed in seeds]
    batched = BatchedLangevinIntegrator(0.02, 300.0, friction=2.0, rngs=seeds)
    stack = BatchedSystem(system, len(seeds))
    alone = BatchedSystem(system, 1)
    positions = np.stack([s.positions for s in states])
    velocities = np.stack([s.velocities for s in states])
    ids = np.arange(len(seeds))
    forces = batched.initial_forces(stack, positions, ids)
    lone = [
        [s.positions[None].copy(), s.velocities[None].copy()] for s in states
    ]
    for pair in lone:
        pair.append(serial[0].initial_forces(alone, pair[0]))

    def advance(rows, n_steps):
        nonlocal positions, velocities, forces
        pos, vel, frc = positions[rows], velocities[rows], forces[rows]
        for _ in range(n_steps):
            frc = batched.step(stack, pos, vel, frc, ids[rows])
            for r in rows:
                pos1, vel1, frc1 = lone[r]
                lone[r][2] = serial[r].step(alone, pos1, vel1, frc1, ids[:1])
        positions[rows], velocities[rows], forces[rows] = pos, vel, frc

    advance([0, 1, 2, 3], 5)
    advance([1, 3], 4)  # compacted: replicas 0 and 2 stop drawing

    for r, (pos1, vel1, frc1) in enumerate(lone):
        assert positions[r].tobytes() == pos1[0].tobytes()
        assert velocities[r].tobytes() == vel1[0].tobytes()
        assert forces[r].tobytes() == frc1[0].tobytes()
        assert batched.rng_state_of(r) == serial[r].rng_state
    # the stream is the allocate-and-return one, draw for draw
    reference = RandomStream(seeds[0]).generator
    for _ in range(5):
        reference.standard_normal((system.n_atoms, 3))
    assert batched.rng_state_of(0) == reference.bit_generator.state

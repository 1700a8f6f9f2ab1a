"""Time integrators: velocity Verlet, Langevin (BAOAB), Nosé–Hoover.

Each integrator advances a :class:`~repro.md.system.State` in place by
one timestep and returns the forces at the new positions so the caller
never computes forces twice per step.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.md.system import State, System
from repro.util.errors import ConfigurationError
from repro.util.rng import RandomStream, ensure_stream
from repro.util.units import KB


def make_integrator(
    name: str,
    *,
    timestep: float,
    temperature: float = 300.0,
    friction: float = 1.0,
    seed: int = 0,
):
    """Build an integrator by name — the one lookup shared by the MD
    engine and the :meth:`~repro.md.simulation.Simulation.configure`
    facade.

    ``seed`` follows the engine convention: the Langevin noise stream
    is ``seed + 1`` (stream 0 is reserved for initial velocities), so a
    task propagated here is bit-identical to one run by the engine.
    """
    if name == "langevin":
        return LangevinIntegrator(
            timestep, temperature, friction=friction, rng=seed + 1
        )
    if name == "nose-hoover":
        return NoseHooverIntegrator(timestep, temperature)
    if name == "verlet":
        return VelocityVerletIntegrator(timestep)
    if name == "markov-chain":
        return MarkovChainIntegrator(timestep, rng=seed + 1)
    raise ConfigurationError(f"unknown integrator {name!r}")


class _IntegratorBase:
    """Shared timestep plumbing."""

    def __init__(self, timestep: float) -> None:
        if timestep <= 0:
            raise ConfigurationError(f"timestep must be positive, got {timestep}")
        self.timestep = float(timestep)
        self._masses: Optional[np.ndarray] = None

    def initial_forces(self, system: System, state: State) -> np.ndarray:
        """Forces at the current positions (used to prime the loop)."""
        return self._forces(system, state.positions)

    @staticmethod
    def _forces(system: System, positions: np.ndarray) -> np.ndarray:
        """Forces alone: no step reads the energy, so *system* skips it."""
        return system.energy_forces(positions, need_energy=False)[1]

    def _inverse_masses(self, masses: np.ndarray) -> np.ndarray:
        """``1/m`` as an ``(N, 1)`` column.

        Constant for a run, so computed once per masses array rather
        than on every step (:meth:`_mass_constants` is the hook for
        further per-masses constants).
        """
        if self._masses is not masses:
            self._masses = masses
            self._inv_m = 1.0 / masses[:, None]
            self._mass_constants(masses)
        return self._inv_m

    def _mass_constants(self, masses: np.ndarray) -> None:
        """Cache anything else that depends only on the masses."""

    def _advance_clock(self, state: State) -> None:
        state.step += 1
        state.time += self.timestep


class VelocityVerletIntegrator(_IntegratorBase):
    """Symplectic NVE integrator (no thermostat)."""

    def step(
        self, system: System, state: State, forces: np.ndarray
    ) -> np.ndarray:
        """Advance one timestep in place; returns the new forces."""
        dt = self.timestep
        half_dt = 0.5 * dt
        inv_m = self._inverse_masses(system.masses)
        state.velocities += half_dt * forces * inv_m
        state.positions += dt * state.velocities
        new_forces = self._forces(system, state.positions)
        state.velocities += half_dt * new_forces * inv_m
        self._advance_clock(state)
        return new_forces


class LangevinIntegrator(_IntegratorBase):
    """BAOAB-splitting Langevin dynamics (Leimkuhler–Matthews).

    The workhorse thermostat for the coarse-grained folding runs: the
    friction models solvent drag that the paper's explicit TIP3P water
    provided physically.

    Parameters
    ----------
    timestep:
        dt in ps.
    temperature:
        Bath temperature in kelvin.
    friction:
        Collision rate gamma in ps^-1.
    rng:
        Noise stream (int seed or :class:`RandomStream`).
    """

    def __init__(
        self,
        timestep: float,
        temperature: float,
        friction: float = 1.0,
        rng: int | RandomStream | None = 0,
    ) -> None:
        super().__init__(timestep)
        if temperature < 0:
            raise ConfigurationError(f"temperature must be >= 0, got {temperature}")
        if friction <= 0:
            raise ConfigurationError(f"friction must be positive, got {friction}")
        self.temperature = float(temperature)
        self.friction = float(friction)
        self.rng = ensure_stream(rng)
        self._decay = np.exp(-friction * self.timestep)
        self._noise_scale = np.sqrt(1.0 - self._decay * self._decay)

    @property
    def rng_state(self) -> dict:
        """Serialisable noise-generator state (checkpointed so a resumed
        run continues the exact same noise sequence)."""
        return self.rng.generator.bit_generator.state

    @rng_state.setter
    def rng_state(self, state: dict) -> None:
        self.rng.generator.bit_generator.state = state

    def step(
        self, system: System, state: State, forces: np.ndarray
    ) -> np.ndarray:
        """Advance one timestep in place; returns the new forces."""
        half_dt = 0.5 * self.timestep
        inv_m = self._inverse_masses(system.masses)
        # B: half kick
        state.velocities += half_dt * forces * inv_m
        # A: half drift
        state.positions += half_dt * state.velocities
        # O: Ornstein-Uhlenbeck exact solve
        noise = self.rng.generator.standard_normal(state.velocities.shape)
        state.velocities *= self._decay
        state.velocities += self._noise_sigma * noise
        # A: half drift
        state.positions += half_dt * state.velocities
        # B: half kick with new forces
        new_forces = self._forces(system, state.positions)
        state.velocities += half_dt * new_forces * inv_m
        self._advance_clock(state)
        return new_forces

    def _mass_constants(self, masses: np.ndarray) -> None:
        """``noise_scale * sqrt(kT/m)`` as an ``(N, 1)`` column."""
        kt = KB * self.temperature
        self._noise_sigma = self._noise_scale * np.sqrt(kt / masses)[:, None]


class MarkovChainIntegrator(_IntegratorBase):
    """Discrete jumps drawn from a known transition matrix.

    The lab's exact-ground-truth propagator: the system must be a
    :class:`repro.md.models.markov_chain.MarkovChainSystem` (anything
    exposing a chain ``spec``); each step reads the particle's current
    state from its position, draws the successor from the spec's
    matrix, and teleports the particle to the successor's embedding.
    Velocities and forces are untouched — there is no force field.

    Follows the Langevin noise-stream conventions (``rng`` seeded with
    ``task seed + 1``, PCG64 state exposed as ``rng_state``) so
    checkpoints resume the exact same jump sequence.

    The state the particle was last put in is remembered with its
    coordinates, so a step reads the position back (``spec.state_of``)
    only when the particle is somewhere else: the first step, after a
    restore, or when the caller moved it.
    """

    def __init__(
        self, timestep: float, rng: int | RandomStream | None = 0
    ) -> None:
        super().__init__(timestep)
        self.rng = ensure_stream(rng)
        #: ``(spec, state index, its coordinates as a list)`` after a step
        self._landed = (None, 0, None)

    @property
    def rng_state(self) -> dict:
        """Serialisable jump-generator state (checkpointed)."""
        return self.rng.generator.bit_generator.state

    @rng_state.setter
    def rng_state(self, state: dict) -> None:
        self.rng.generator.bit_generator.state = state

    def step(
        self, system: System, state: State, forces: np.ndarray
    ) -> np.ndarray:
        """Advance one discrete jump in place; forces pass through."""
        spec = getattr(system, "spec", None)
        if spec is None:
            raise ConfigurationError(
                "the markov-chain integrator needs a MarkovChainSystem "
                "(a system with a chain spec)"
            )
        landed_spec, current, coordinates = self._landed
        if landed_spec is not spec or state.positions.tolist() != coordinates:
            current = spec.state_of(state.positions)
        nxt = spec.sample_next(current, float(self.rng.generator.random()))
        state.positions[...] = spec.position_of(nxt)
        self._landed = (spec, nxt, state.positions.tolist())
        self._advance_clock(state)
        return forces


class NoseHooverIntegrator(_IntegratorBase):
    """Nosé–Hoover thermostat (single chain), the paper's choice.

    Section 3.1: "the temperature was kept at 300 K with a Nosé–Hoover
    thermostat with an oscillation period of 0.5 ps".  The coupling
    mass follows from that period: ``Q = N_df kT tau^2 / (4 pi^2)``.
    Deterministic dynamics, canonical sampling for ergodic systems.
    """

    def __init__(
        self,
        timestep: float,
        temperature: float,
        oscillation_period: float = 0.5,
    ) -> None:
        super().__init__(timestep)
        if temperature <= 0:
            raise ConfigurationError(
                f"temperature must be positive, got {temperature}"
            )
        if oscillation_period <= 0:
            raise ConfigurationError(
                f"oscillation_period must be positive, got {oscillation_period}"
            )
        self.temperature = float(temperature)
        self.tau = float(oscillation_period)
        self._xi = 0.0  # thermostat friction variable

    def _thermostat_mass(self, system: System) -> float:
        n_df = system.dim * system.n_atoms
        return n_df * KB * self.temperature * self.tau**2 / (4.0 * np.pi**2)

    def step(
        self, system: System, state: State, forces: np.ndarray
    ) -> np.ndarray:
        """Advance one timestep in place; returns the new forces."""
        dt = self.timestep
        half_dt = 0.5 * dt
        inv_m = self._inverse_masses(system.masses)
        n_df = system.dim * system.n_atoms
        kt = KB * self.temperature
        q_mass = self._thermostat_mass(system)

        # Half-update of the thermostat variable, then a scaled kick.
        ke = system.kinetic_energy(state.velocities)
        self._xi += half_dt * (2.0 * ke - n_df * kt) / q_mass
        scale = np.exp(-self._xi * half_dt)
        state.velocities = state.velocities * scale + half_dt * forces * inv_m
        state.positions += dt * state.velocities
        new_forces = self._forces(system, state.positions)
        state.velocities += half_dt * new_forces * inv_m
        scale = np.exp(-self._xi * half_dt)
        state.velocities *= scale
        ke = system.kinetic_energy(state.velocities)
        self._xi += half_dt * (2.0 * ke - n_df * kt) / q_mass
        self._advance_clock(state)
        return new_forces

    @property
    def thermostat_state(self) -> float:
        """The thermostat friction variable (checkpointed)."""
        return self._xi

    @thermostat_state.setter
    def thermostat_state(self, value: float) -> None:
        self._xi = float(value)

"""Time integrators for one replica: stacks of one.

Every integrator is a batched integrator of :mod:`repro.md.batched`
over a single replica; the classes here only build the one-stream
form, so a lone run and a replica of any stack share one arithmetic.
Velocity Verlet (NVE), Langevin BAOAB, Nosé–Hoover and the exact
chains' discrete jumps; :func:`make_integrator` looks one up by name.
"""

from __future__ import annotations

from repro.md.batched import (
    BatchedLangevinIntegrator,
    BatchedMarkovChainIntegrator,
    BatchedNoseHooverIntegrator,
    BatchedVelocityVerletIntegrator,
    make_batched_integrator,
)
from repro.util.rng import RandomStream


def make_integrator(
    name: str,
    *,
    timestep: float,
    temperature: float = 300.0,
    friction: float = 1.0,
    seed: int = 0,
):
    """One-replica integrator by name, seeded like an engine task.

    ``seed`` follows the engine convention: the noise or jump stream is
    ``seed + 1`` (stream ``seed`` draws the initial velocities), so a
    task propagated here is bit-identical to one run by the engine.
    """
    return make_batched_integrator(
        name, timestep, temperature, friction, [seed]
    )


class _OneStream:
    """``rng`` / ``rng_state`` of a one-replica stochastic integrator."""

    @property
    def rng(self) -> RandomStream:
        """The replica's noise stream."""
        return self.rngs[0]

    @property
    def rng_state(self) -> dict:
        """Serialisable generator state (checkpointed so a resumed run
        continues the exact same noise sequence)."""
        return self.rng_state_of(0)

    @rng_state.setter
    def rng_state(self, state: dict) -> None:
        self.set_rng_state_of(0, state)


class VelocityVerletIntegrator(BatchedVelocityVerletIntegrator):
    """Symplectic NVE integrator (no thermostat)."""


class LangevinIntegrator(_OneStream, BatchedLangevinIntegrator):
    """BAOAB Langevin dynamics of one replica with noise stream *rng*."""

    def __init__(
        self,
        timestep: float,
        temperature: float,
        friction: float = 1.0,
        rng: int | RandomStream | None = 0,
    ) -> None:
        super().__init__(timestep, temperature, friction, rngs=[rng])


class MarkovChainIntegrator(_OneStream, BatchedMarkovChainIntegrator):
    """Discrete jumps of one chain replica with jump stream *rng*."""

    def __init__(
        self, timestep: float, rng: int | RandomStream | None = 0
    ) -> None:
        super().__init__(timestep, rngs=[rng])


class NoseHooverIntegrator(BatchedNoseHooverIntegrator):
    """Nosé–Hoover thermostat of one replica."""

    def __init__(
        self,
        timestep: float,
        temperature: float,
        oscillation_period: float = 0.5,
    ) -> None:
        super().__init__(timestep, temperature, oscillation_period)

    @property
    def thermostat_state(self) -> float:
        """The thermostat friction variable (checkpointed)."""
        return self.thermostat_state_of(0)

    @thermostat_state.setter
    def thermostat_state(self, value: float) -> None:
        self.set_thermostat_state_of(0, value)

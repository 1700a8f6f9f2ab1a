"""Quartic double-well potentials with known analytic properties.

``E(x) = barrier * ((x/width)^2 - 1)^2`` per coordinate: minima at
x = ±width, barrier height ``barrier`` at x = 0.  The 1-D version is
the workhorse for validating MSM estimators against exactly computable
equilibrium populations.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.md.system import State, System
from repro.util.rng import RandomStream, ensure_stream


class DoubleWellForce:
    """Independent double wells along each coordinate of each particle."""

    def __init__(self, barrier: float = 5.0, width: float = 1.0) -> None:
        if barrier <= 0 or width <= 0:
            raise ValueError("barrier and width must be positive")
        self.barrier = float(barrier)
        self.width = float(width)

    def compute_batch(
        self,
        planes: np.ndarray,
        replica_ids: Optional[np.ndarray] = None,
        need_energy: bool = True,
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """``(energies, force planes)`` over ``(dim, N, R)`` planes.

        Elementwise over the replica axis, so a replica's forces do not
        depend on its stack.
        """
        u = planes / self.width
        q = u * u - 1.0
        energies = (
            self.barrier * np.sum(q * q, axis=(0, 1)) if need_energy else None
        )
        # dE/dx = barrier * 2 q * 2u / width
        forces = -(4.0 * self.barrier / self.width) * q * u
        return energies, forces


class TiltedDoubleWellForce(DoubleWellForce):
    """Double well with a linear tilt: ``E += slope * x``.

    Asymmetric wells give unequal equilibrium populations — the shape
    needed to test stationary-distribution estimation quantitatively.
    """

    def __init__(
        self, barrier: float = 5.0, width: float = 1.0, slope: float = 1.0
    ) -> None:
        super().__init__(barrier, width)
        self.slope = float(slope)

    def compute_batch(
        self,
        planes: np.ndarray,
        replica_ids: Optional[np.ndarray] = None,
        need_energy: bool = True,
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """``(energies, force planes)`` over ``(dim, N, R)`` planes."""
        energies, forces = super().compute_batch(planes, replica_ids, need_energy)
        if need_energy:
            energies += self.slope * np.sum(planes, axis=(0, 1))
        forces -= self.slope
        return energies, forces


def double_well_system(
    barrier: float = 5.0,
    width: float = 1.0,
    mass: float = 1.0,
    dim: int = 1,
    slope: float = 0.0,
) -> System:
    """A single particle in a (possibly tilted) double well."""
    force = (
        TiltedDoubleWellForce(barrier, width, slope)
        if slope != 0.0
        else DoubleWellForce(barrier, width)
    )
    return System(masses=[mass], forces=[force], dim=dim)


def double_well_initial_state(
    side: int = -1,
    temperature: float = 300.0,
    rng: int | RandomStream | None = 0,
    width: float = 1.0,
    dim: int = 1,
) -> State:
    """A state starting in the left (side=-1) or right (side=+1) well."""
    stream = ensure_stream(rng)
    system = double_well_system(width=width, dim=dim)
    positions = np.full((1, dim), side * width) + stream.normal(
        scale=0.05, size=(1, dim)
    )
    velocities = system.maxwell_boltzmann_velocities(temperature, stream)
    return State(positions, velocities)

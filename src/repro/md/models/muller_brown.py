"""The Müller–Brown potential: a 2-D benchmark surface for MSM tests.

Three metastable minima separated by saddle points — the canonical
test landscape for rare-event sampling methods.  A single particle
diffusing on this surface exercises the complete clustering /
transition-counting / adaptive-sampling stack in milliseconds.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.md.system import State, System
from repro.util.rng import RandomStream, ensure_stream

# Canonical Müller-Brown parameters.
_A = np.array([-200.0, -100.0, -170.0, 15.0])
_a = np.array([-1.0, -1.0, -6.5, 0.7])
_b = np.array([0.0, 0.0, 11.0, 0.6])
_c = np.array([-10.0, -10.0, -6.5, 0.7])
_x0 = np.array([1.0, 0.0, -0.5, -1.0])
_y0 = np.array([0.0, 0.5, 1.5, 1.0])

#: Approximate locations of the three minima (useful for tests).
MINIMA = np.array([[-0.558, 1.442], [0.623, 0.028], [-0.050, 0.467]])


class MullerBrownForce:
    """Müller–Brown energy/force for one particle in 2-D.

    Parameters
    ----------
    scale:
        Multiplies the canonical potential.  The raw surface has
        barriers of ~100 units; ``scale`` maps them onto kJ/mol so that
        barrier / kT is experimentally convenient (default 0.05 gives
        ~5 kJ/mol barriers: frequent transitions at 300 K).
    """

    def __init__(self, scale: float = 0.05) -> None:
        self.scale = float(scale)

    def energy_forces(
        self, positions: np.ndarray, need_energy: bool = True
    ) -> Tuple[Optional[float], np.ndarray]:
        """Return (energy, forces) of the Muller-Brown surface.

        ``need_energy=False`` (the step loops) skips the energy sum and
        returns ``None`` for it.
        """
        x = positions[:, 0][:, None]
        y = positions[:, 1][:, None]
        dx = x - _x0[None, :]
        dy = y - _y0[None, :]
        expo = _a * dx * dx + _b * dx * dy + _c * dy * dy
        terms = _A * np.exp(expo)
        energy = self.scale * float(np.sum(terms)) if need_energy else None
        dE_dx = np.sum(terms * (2.0 * _a * dx + _b * dy), axis=1)
        dE_dy = np.sum(terms * (_b * dx + 2.0 * _c * dy), axis=1)
        forces = -self.scale * np.stack([dE_dx, dE_dy], axis=1)
        return energy, forces

    def energy_grid(
        self, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Vectorised energy on a meshgrid (for plotting / tests)."""
        dx = x[..., None] - _x0
        dy = y[..., None] - _y0
        expo = _a * dx * dx + _b * dx * dy + _c * dy * dy
        return self.scale * np.sum(_A * np.exp(expo), axis=-1)


def muller_brown_system(scale: float = 0.05, mass: float = 1.0) -> System:
    """A single particle on the Müller–Brown surface."""
    return System(masses=[mass], forces=[MullerBrownForce(scale)], dim=2)


def muller_brown_initial_state(
    minimum: int = 1,
    temperature: float = 300.0,
    rng: int | RandomStream | None = 0,
    scale: float = 0.05,
) -> State:
    """A state starting near one of the three minima."""
    stream = ensure_stream(rng)
    system = muller_brown_system(scale)
    positions = MINIMA[minimum][None, :] + stream.normal(scale=0.02, size=(1, 2))
    velocities = system.maxwell_boltzmann_velocities(temperature, stream)
    return State(positions, velocities)

"""The Müller–Brown potential: a 2-D benchmark surface for MSM tests.

Three metastable minima separated by saddle points — the canonical
test landscape for rare-event sampling methods.  A single particle
diffusing on this surface exercises the complete clustering /
transition-counting / adaptive-sampling stack in milliseconds.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.md.forcefield.base import plane_dot
from repro.md.system import State, System
from repro.util.rng import RandomStream, ensure_stream

# Canonical Müller-Brown parameters.
_A = np.array([-200.0, -100.0, -170.0, 15.0])
_a = np.array([-1.0, -1.0, -6.5, 0.7])
_b = np.array([0.0, 0.0, 11.0, 0.6])
_c = np.array([-10.0, -10.0, -6.5, 0.7])
_x0 = np.array([1.0, 0.0, -0.5, -1.0])
_y0 = np.array([0.0, 0.5, 1.5, 1.0])
# The same six as (4, 1, 1) columns, for the batched kernel's planes.
_A3, _a3, _b3, _c3, _x03, _y03 = (
    p[:, None, None] for p in (_A, _a, _b, _c, _x0, _y0)
)

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

    def compute_batch(
        self,
        planes: np.ndarray,
        replica_ids: Optional[np.ndarray] = None,
        need_energy: bool = True,
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """``(energies, force planes)`` over ``(2, N, R)`` planes.

        The four terms lead, as ``(4, N, R)``: every product associates
        as in a per-particle ``(N, 4)`` kernel, ``np.exp`` sees a
        contiguous array, and :func:`~repro.md.forcefield.base.plane_dot`
        adds the four terms left to right like ``np.sum`` over a
        length-4 axis — a replica's forces do not depend on its stack.
        """
        dx = planes[0] - _x03
        dy = planes[1] - _y03
        expo = _a3 * dx * dx + _b3 * dx * dy + _c3 * dy * dy
        terms = _A3 * np.exp(expo)
        energies = (
            self.scale * np.sum(terms, axis=(0, 1)) if need_energy else None
        )
        forces = np.empty(planes.shape)
        forces[0] = plane_dot(terms, 2.0 * _a3 * dx + _b3 * dy)
        forces[1] = plane_dot(terms, _b3 * dx + 2.0 * _c3 * dy)
        forces *= -self.scale
        return energies, forces

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

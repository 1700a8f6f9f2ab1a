"""The per-replica force kernels the stacked kernels replaced.

Each term's ``compute_batch`` once had an ``(N, dim)`` twin,
``energy_forces``, with its own arithmetic: ``np.add.at`` scatters,
``np.sum(..., axis=1)`` dot products, ``np.dot`` / pairwise energy
sums.  The twins are kept here, as they were, as the reference the
bit-identity suites compare the stacked kernels against: a replica's
forces must be these bits, and its energies these values to rounding.
(The nonbonded twins run the terms' ``_energy_forces_pairs``, which is
still the stacked kernel for positions-dependent pair lists.)

:func:`energy_forces` evaluates one term and
:func:`system_energy_forces` a whole system, summing terms as the
per-replica composite did.
"""

from typing import Optional, Tuple

import numpy as np

from repro.fep.sampling import _WindowForce
from repro.md.forcefield.bonded import (
    HarmonicAngleForce,
    HarmonicBondForce,
    PeriodicDihedralForce,
)
from repro.md.forcefield.go_model import GoContactForce
from repro.md.forcefield.nonbonded import (
    ExcludedVolumeForce,
    LennardJonesForce,
    ReactionFieldElectrostatics,
)
from repro.md.models.doublewell import DoubleWellForce, TiltedDoubleWellForce
from repro.md.models.muller_brown import (
    MullerBrownForce,
    _A,
    _a,
    _b,
    _c,
    _x0,
    _y0,
)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Last-axis cross product without np.cross's axis-juggling overhead."""
    out = np.empty_like(a)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


class SerialBond:
    """``energy_forces`` of :class:`HarmonicBondForce`."""

    def energy_forces(
        self, positions: np.ndarray, need_energy: bool = True
    ) -> Tuple[Optional[float], np.ndarray]:
        """Return (energy, forces) at *positions* (see module docstring)."""
        forces = np.zeros(positions.shape, positions.dtype)
        if len(self.pairs) == 0:
            return 0.0, forces
        rij = positions[self._j] - positions[self._i]
        r = np.sqrt(np.sum(rij * rij, axis=1))
        dr = r - self.r0
        energy = 0.5 * float(np.dot(self.k, dr * dr)) if need_energy else None
        # dE/dr = k dr ; force on j is -dE/dr * rij/r
        fscale = -(self.k * dr) / np.maximum(r, 1e-12)
        fij = fscale[:, None] * rij
        np.add.at(forces, self._j, fij)
        np.add.at(forces, self._i, -fij)
        return energy, forces


class SerialAngle:
    """``energy_forces`` of :class:`HarmonicAngleForce`."""

    def energy_forces(
        self, positions: np.ndarray, need_energy: bool = True
    ) -> Tuple[Optional[float], np.ndarray]:
        """Return (energy, forces) at *positions* (see module docstring)."""
        forces = np.zeros(positions.shape, positions.dtype)
        if len(self.triples) == 0:
            return 0.0, forces
        rij = positions[self._i] - positions[self._j]
        rkj = positions[self._k] - positions[self._j]
        nij = np.sqrt(np.sum(rij * rij, axis=1))
        nkj = np.sqrt(np.sum(rkj * rkj, axis=1))
        cos_t = np.sum(rij * rkj, axis=1) / np.maximum(nij * nkj, 1e-12)
        cos_t = np.clip(cos_t, -1.0 + 1e-10, 1.0 - 1e-10)
        theta = np.arccos(cos_t)
        dtheta = theta - self.theta0
        energy = (
            0.5 * float(np.dot(self.k, dtheta * dtheta)) if need_energy else None
        )
        # F_i = (k dtheta / sin theta) * d(cos theta)/d r_i
        sin_t = np.sqrt(1.0 - cos_t * cos_t)
        coeff = (self.k * dtheta) / np.maximum(sin_t, 1e-12)
        fi = (coeff / nij)[:, None] * (
            rkj / nkj[:, None] - cos_t[:, None] * rij / nij[:, None]
        )
        fk = (coeff / nkj)[:, None] * (
            rij / nij[:, None] - cos_t[:, None] * rkj / nkj[:, None]
        )
        np.add.at(forces, self._i, fi)
        np.add.at(forces, self._k, fk)
        np.add.at(forces, self._j, -(fi + fk))
        return energy, forces


class SerialDihedral:
    """``energy_forces`` of :class:`PeriodicDihedralForce`."""

    def energy_forces(
        self, positions: np.ndarray, need_energy: bool = True
    ) -> Tuple[Optional[float], np.ndarray]:
        """Return (energy, forces) at *positions* (see module docstring)."""
        forces = np.zeros(positions.shape, positions.dtype)
        if len(self.quads) == 0:
            return 0.0, forces
        b1 = positions[self._j] - positions[self._i]
        b2 = positions[self._k] - positions[self._j]
        b3 = positions[self._l] - positions[self._k]
        n1 = _cross(b1, b2)
        n2 = _cross(b2, b3)
        nb2 = np.sqrt(np.sum(b2 * b2, axis=1))
        m1 = _cross(n1, b2 / nb2[:, None])
        x = np.sum(n1 * n2, axis=1)
        y = np.sum(m1 * n2, axis=1)
        phi = np.arctan2(y, x)
        angle = self.mult * phi - self.phi0
        energy = (
            float(np.sum(self.k * (1.0 + np.cos(angle)))) if need_energy else None
        )
        # dE/dphi
        dE = -self.k * self.mult * np.sin(angle)
        # Gradient of phi for *this* sign/b-vector convention (verified
        # against central differences in the test suite):
        #   dphi/dr_i = +|b2| m / |m|^2           (m = b1 x b2)
        #   dphi/dr_l = -|b2| n / |n|^2           (n = b2 x b3)
        #   dphi/dr_j = -(1+s12) dphi/dr_i + s32 dphi/dr_l
        #   dphi/dr_k = s12 dphi/dr_i - (1+s32) dphi/dr_l
        n1sq = np.maximum(np.sum(n1 * n1, axis=1), 1e-12)
        n2sq = np.maximum(np.sum(n2 * n2, axis=1), 1e-12)
        dphi_i = (nb2 / n1sq)[:, None] * n1
        dphi_l = -(nb2 / n2sq)[:, None] * n2
        s12 = np.sum(b1 * b2, axis=1) / np.maximum(nb2 * nb2, 1e-12)
        s32 = np.sum(b3 * b2, axis=1) / np.maximum(nb2 * nb2, 1e-12)
        dphi_j = -(1.0 + s12)[:, None] * dphi_i + s32[:, None] * dphi_l
        dphi_k = s12[:, None] * dphi_i - (1.0 + s32)[:, None] * dphi_l
        fi = -dE[:, None] * dphi_i
        fj = -dE[:, None] * dphi_j
        fk = -dE[:, None] * dphi_k
        fl = -dE[:, None] * dphi_l
        np.add.at(forces, self._i, fi)
        np.add.at(forces, self._j, fj)
        np.add.at(forces, self._k, fk)
        np.add.at(forces, self._l, fl)
        return energy, forces


class SerialGo:
    """``energy_forces`` of :class:`GoContactForce`."""

    def energy_forces(
        self, positions: np.ndarray, need_energy: bool = True
    ) -> Tuple[Optional[float], np.ndarray]:
        """Return (energy, forces) of the 12-10 contact wells."""
        forces = np.zeros(positions.shape, positions.dtype)
        if len(self.pairs) == 0:
            return 0.0, forces
        rij = positions[self._j] - positions[self._i]
        r2 = np.sum(rij * rij, axis=1)
        inv_r2 = self.r0 * self.r0 / r2
        s10 = inv_r2**5
        s12 = s10 * inv_r2
        energy = (
            float(np.sum(self.epsilon * (5.0 * s12 - 6.0 * s10)))
            if need_energy
            else None
        )
        # -dE/dr * 1/r acting along rij, force on j:
        # dE/dr = eps [ -60 r0^12/r^13 + 60 r0^10/r^11 ]
        fscale = 60.0 * self.epsilon * (s12 - s10) / r2
        fij = fscale[:, None] * rij
        np.add.at(forces, self._j, fij)
        np.add.at(forces, self._i, -fij)
        return energy, forces


class SerialLennardJones:
    """``energy_forces`` of :class:`LennardJonesForce`."""

    def energy_forces(
        self, positions: np.ndarray, need_energy: bool = True
    ) -> Tuple[Optional[float], np.ndarray]:
        """Return (energy, forces) at *positions* (see class docstring)."""
        i, j = self.pair_provider.pairs(positions)
        return self._energy_forces_pairs(positions, i, j, need_energy)


class SerialReactionField:
    """``energy_forces`` of :class:`ReactionFieldElectrostatics`."""

    def energy_forces(
        self, positions: np.ndarray, need_energy: bool = True
    ) -> Tuple[Optional[float], np.ndarray]:
        """Return (energy, forces) at *positions* (see class docstring)."""
        i, j = self.pair_provider.pairs(positions)
        return self._energy_forces_pairs(positions, i, j, need_energy)


class SerialExcludedVolume:
    """``energy_forces`` of :class:`ExcludedVolumeForce`."""

    def energy_forces(
        self, positions: np.ndarray, need_energy: bool = True
    ) -> Tuple[Optional[float], np.ndarray]:
        """Return (energy, forces) at *positions* (see class docstring)."""
        i, j = self.pair_provider.pairs(positions)
        return self._energy_forces_pairs(positions, i, j, need_energy)


class SerialDoubleWell:
    """``energy_forces`` of :class:`DoubleWellForce`."""

    def energy_forces(
        self, positions: np.ndarray, need_energy: bool = True
    ) -> Tuple[Optional[float], np.ndarray]:
        """Return (energy, forces) of the double-well potential.

        ``need_energy=False`` (the step loops) skips the energy sum and
        returns ``None`` for it.
        """
        u = positions / self.width
        q = u * u - 1.0
        energy = self.barrier * float(np.sum(q * q)) if need_energy else None
        # dE/dx = barrier * 2 q * 2u / width
        forces = -(4.0 * self.barrier / self.width) * q * u
        return energy, forces


class SerialTiltedDoubleWell:
    """``energy_forces`` of :class:`TiltedDoubleWellForce`."""

    def energy_forces(
        self, positions: np.ndarray, need_energy: bool = True
    ) -> Tuple[Optional[float], np.ndarray]:
        """Return (energy, forces) of the tilted double-well potential."""
        energy, forces = SerialDoubleWell.energy_forces(self, positions, need_energy)
        if need_energy:
            energy += self.slope * float(np.sum(positions))
        forces = forces - self.slope
        return energy, forces


class SerialMullerBrown:
    """``energy_forces`` of :class:`MullerBrownForce`."""

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


class SerialWindow:
    """``energy_forces`` of :class:`_WindowForce`."""

    def energy_forces(self, positions: np.ndarray, need_energy: bool = True):
        """Return (energy, forces) of the window's harmonic bias."""
        x = positions[:, 0]
        energy = float(self.window.energy(x).sum()) if need_energy else None
        forces = np.zeros_like(positions)
        forces[:, 0] = -self.window.k * (x - self.window.x0)
        return energy, forces


#: term class -> the class holding its per-replica ``energy_forces``
SERIAL = {
    HarmonicBondForce: SerialBond,
    HarmonicAngleForce: SerialAngle,
    PeriodicDihedralForce: SerialDihedral,
    GoContactForce: SerialGo,
    LennardJonesForce: SerialLennardJones,
    ReactionFieldElectrostatics: SerialReactionField,
    ExcludedVolumeForce: SerialExcludedVolume,
    DoubleWellForce: SerialDoubleWell,
    TiltedDoubleWellForce: SerialTiltedDoubleWell,
    MullerBrownForce: SerialMullerBrown,
    _WindowForce: SerialWindow,
}


def energy_forces(
    term, positions: np.ndarray, need_energy: bool = True
) -> Tuple[Optional[float], np.ndarray]:
    """*term*'s per-replica ``(energy, forces)`` at ``(N, dim)`` positions."""
    return SERIAL[type(term)].energy_forces(term, positions, need_energy)


def system_energy_forces(
    system, positions: np.ndarray, need_energy: bool = True
) -> Tuple[Optional[float], np.ndarray]:
    """Sum of every term of *system*, as the per-replica composite did."""
    total_e = 0.0 if need_energy else None
    total_f = np.zeros(positions.shape, positions.dtype)
    for force in system.forces:
        e, f = energy_forces(force, positions, need_energy)
        if need_energy:
            total_e += e
        total_f += f
    return total_e, total_f

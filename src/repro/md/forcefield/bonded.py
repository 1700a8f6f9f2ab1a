"""Bonded force-field terms: bonds, angles, periodic dihedrals.

Each term precomputes its index arrays once; ``energy_forces`` is pure
vectorised numpy with ``np.add.at`` scatter-adds into the force buffer.
Every term also implements ``compute_batch`` over ``(3, N, R)``
replica-minor component planes (see :mod:`repro.md.forcefield.base`):
the index arrays are shared across replicas, all arithmetic is
elementwise over the replica axis in the serial operand order, and
scatters go through :class:`~repro.md.forcefield.base.SegmentScatter`,
so per-replica forces are bit-identical to the serial kernels.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.md.forcefield.base import (
    SegmentScatter,
    empty_batch,
    pair_force_planes,
    plane_dot,
)
from repro.util.errors import ConfigurationError


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Last-axis cross product without np.cross's axis-juggling overhead."""
    out = np.empty_like(a)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def _plane_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`_cross` over the leading axis of ``(3, P, R)`` planes."""
    out = np.empty_like(a)
    out[0] = a[1] * b[2] - a[2] * b[1]
    out[1] = a[2] * b[0] - a[0] * b[2]
    out[2] = a[0] * b[1] - a[1] * b[0]
    return out


class HarmonicBondForce:
    """``E = 0.5 k (r - r0)^2`` over a fixed list of atom pairs."""

    def __init__(self, pairs: np.ndarray, r0: np.ndarray, k: np.ndarray) -> None:
        self.pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
        self.r0 = np.asarray(r0, dtype=float)
        self.k = np.asarray(k, dtype=float)
        if not (len(self.pairs) == len(self.r0) == len(self.k)):
            raise ConfigurationError("bond arrays misaligned")
        self._i = self.pairs[:, 0]
        self._j = self.pairs[:, 1]

    def energy_forces(self, positions: np.ndarray) -> Tuple[float, np.ndarray]:
        """Return (energy, forces) at *positions* (see module docstring)."""
        forces = np.zeros_like(positions)
        if len(self.pairs) == 0:
            return 0.0, forces
        rij = positions[self._j] - positions[self._i]
        r = np.sqrt(np.sum(rij * rij, axis=1))
        dr = r - self.r0
        energy = 0.5 * float(np.dot(self.k, dr * dr))
        # dE/dr = k dr ; force on j is -dE/dr * rij/r
        fscale = -(self.k * dr) / np.maximum(r, 1e-12)
        fij = fscale[:, None] * rij
        np.add.at(forces, self._j, fij)
        np.add.at(forces, self._i, -fij)
        return energy, forces

    def compute_batch(
        self, planes: np.ndarray, replica_ids=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched ``energy_forces`` over ``(3, N, R)`` planes."""
        if len(self.pairs) == 0:
            return empty_batch(planes)
        rij = np.take(planes, self._j, axis=1) - np.take(planes, self._i, axis=1)
        r = np.sqrt(plane_dot(rij, rij))
        dr = r - self.r0[:, None]
        k = self.k[:, None]
        energies = 0.5 * np.sum(k * (dr * dr), axis=0)
        fscale = -(k * dr) / np.maximum(r, 1e-12)
        return energies, pair_force_planes(
            self, self._i, self._j, fscale, rij, planes.shape[1]
        )


class HarmonicAngleForce:
    """``E = 0.5 k (theta - theta0)^2`` over i-j-k triples (vertex j)."""

    def __init__(
        self, triples: np.ndarray, theta0: np.ndarray, k: np.ndarray
    ) -> None:
        self.triples = np.asarray(triples, dtype=int).reshape(-1, 3)
        self.theta0 = np.asarray(theta0, dtype=float)
        self.k = np.asarray(k, dtype=float)
        if not (len(self.triples) == len(self.theta0) == len(self.k)):
            raise ConfigurationError("angle arrays misaligned")
        self._i = self.triples[:, 0]
        self._j = self.triples[:, 1]
        self._k = self.triples[:, 2]
        self._scatter: Optional[SegmentScatter] = None

    def energy_forces(self, positions: np.ndarray) -> Tuple[float, np.ndarray]:
        """Return (energy, forces) at *positions* (see module docstring)."""
        forces = np.zeros_like(positions)
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
        energy = 0.5 * float(np.dot(self.k, dtheta * dtheta))
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

    def compute_batch(
        self, planes: np.ndarray, replica_ids=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched ``energy_forces`` over ``(3, N, R)`` planes."""
        dim, n_atoms, n_replicas = planes.shape
        n_triples = len(self.triples)
        if n_triples == 0:
            return empty_batch(planes)
        if self._scatter is None:
            self._scatter = SegmentScatter(
                np.concatenate([self._i, self._k, self._j]), n_atoms
            )
        vertex = np.take(planes, self._j, axis=1)
        rij = np.take(planes, self._i, axis=1) - vertex
        rkj = np.take(planes, self._k, axis=1) - vertex
        nij = np.sqrt(plane_dot(rij, rij))
        nkj = np.sqrt(plane_dot(rkj, rkj))
        cos_t = plane_dot(rij, rkj) / np.maximum(nij * nkj, 1e-12)
        cos_t = np.clip(cos_t, -1.0 + 1e-10, 1.0 - 1e-10)
        theta = np.arccos(cos_t)
        dtheta = theta - self.theta0[:, None]
        k = self.k[:, None]
        energies = 0.5 * np.sum(k * (dtheta * dtheta), axis=0)
        sin_t = np.sqrt(1.0 - cos_t * cos_t)
        coeff = (k * dtheta) / np.maximum(sin_t, 1e-12)
        rows = self._scatter.workspace(dim, n_replicas)
        fi = np.multiply(
            coeff / nij, rkj / nkj - cos_t * rij / nij, out=rows[:, :n_triples]
        )
        fk = np.multiply(
            coeff / nkj,
            rij / nij - cos_t * rkj / nkj,
            out=rows[:, n_triples : 2 * n_triples],
        )
        vertex_force = np.add(fi, fk, out=rows[:, 2 * n_triples : -1])
        np.negative(vertex_force, out=vertex_force)
        forces = np.zeros(planes.shape)
        self._scatter.add(forces, rows)
        return energies, forces


class PeriodicDihedralForce:
    """``E = k (1 + cos(n phi - phi0))`` over i-j-k-l quadruples."""

    def __init__(
        self,
        quads: np.ndarray,
        phi0: np.ndarray,
        k: np.ndarray,
        mult: np.ndarray,
    ) -> None:
        self.quads = np.asarray(quads, dtype=int).reshape(-1, 4)
        self.phi0 = np.asarray(phi0, dtype=float)
        self.k = np.asarray(k, dtype=float)
        self.mult = np.asarray(mult, dtype=int)
        if not (
            len(self.quads) == len(self.phi0) == len(self.k) == len(self.mult)
        ):
            raise ConfigurationError("dihedral arrays misaligned")
        self._i = self.quads[:, 0]
        self._j = self.quads[:, 1]
        self._k = self.quads[:, 2]
        self._l = self.quads[:, 3]
        # Built on the first batched call: the scatter plan and the
        # unique quadruples with each term's row among them.
        self._scatter: Optional[SegmentScatter] = None
        self._unique: Optional[np.ndarray] = None
        self._expand: Optional[np.ndarray] = None

    @staticmethod
    def dihedral_angles(
        positions: np.ndarray, quads: np.ndarray
    ) -> np.ndarray:
        """Signed dihedral angles (rad) for each quadruple."""
        i, j, k, l = quads[:, 0], quads[:, 1], quads[:, 2], quads[:, 3]
        b1 = positions[j] - positions[i]
        b2 = positions[k] - positions[j]
        b3 = positions[l] - positions[k]
        n1 = _cross(b1, b2)
        n2 = _cross(b2, b3)
        nb2 = np.sqrt(np.sum(b2 * b2, axis=1))
        m1 = _cross(n1, b2 / nb2[:, None])
        x = np.sum(n1 * n2, axis=1)
        y = np.sum(m1 * n2, axis=1)
        return np.arctan2(y, x)

    def energy_forces(self, positions: np.ndarray) -> Tuple[float, np.ndarray]:
        """Return (energy, forces) at *positions* (see module docstring)."""
        forces = np.zeros_like(positions)
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
        energy = float(np.sum(self.k * (1.0 + np.cos(self.mult * phi - self.phi0))))
        # dE/dphi
        dE = -self.k * self.mult * np.sin(self.mult * phi - self.phi0)
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

    def compute_batch(
        self, planes: np.ndarray, replica_ids=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched ``energy_forces`` over ``(3, N, R)`` planes.

        Geometry (angle and its four gradients) is evaluated once per
        *unique* quadruple and expanded by index to the registered
        terms — force fields commonly register several multiplicities
        on one quadruple, and elementwise ops on equal inputs give
        equal bits, so the expansion is exact.
        """
        dim, n_atoms, n_replicas = planes.shape
        n_quads = len(self.quads)
        if n_quads == 0:
            return empty_batch(planes)
        if self._scatter is None:
            self._scatter = SegmentScatter(
                np.concatenate([self._i, self._j, self._k, self._l]), n_atoms
            )
            self._unique, self._expand = np.unique(
                self.quads, axis=0, return_inverse=True
            )
            self._expand = self._expand.reshape(-1)
        pi, pj, pk, pl = (
            np.take(planes, self._unique[:, column], axis=1)
            for column in range(4)
        )
        b1 = pj - pi
        b2 = pk - pj
        b3 = pl - pk
        n1 = _plane_cross(b1, b2)
        n2 = _plane_cross(b2, b3)
        nb2 = np.sqrt(plane_dot(b2, b2))
        m1 = _plane_cross(n1, b2 / nb2)
        x = plane_dot(n1, n2)
        y = plane_dot(m1, n2)
        n1sq = np.maximum(plane_dot(n1, n1), 1e-12)
        n2sq = np.maximum(plane_dot(n2, n2), 1e-12)
        dphi_i = (nb2 / n1sq) * n1
        dphi_l = -(nb2 / n2sq) * n2
        nb2sq = np.maximum(nb2 * nb2, 1e-12)
        s12 = plane_dot(b1, b2) / nb2sq
        s32 = plane_dot(b3, b2) / nb2sq
        dphi_j = -(1.0 + s12) * dphi_i + s32 * dphi_l
        dphi_k = s12 * dphi_i - (1.0 + s32) * dphi_l

        phi = np.take(np.arctan2(y, x), self._expand, axis=0)
        k = self.k[:, None]
        mult = self.mult[:, None]
        angle = mult * phi - self.phi0[:, None]
        energies = np.sum(k * (1.0 + np.cos(angle)), axis=0)
        neg_dE = k * mult * np.sin(angle)  # -dE/dphi; sign flips are exact
        rows = self._scatter.workspace(dim, n_replicas)
        for slot, dphi in enumerate((dphi_i, dphi_j, dphi_k, dphi_l)):
            np.multiply(
                neg_dE,
                np.take(dphi, self._expand, axis=1),
                out=rows[:, slot * n_quads : (slot + 1) * n_quads],
            )
        forces = np.zeros(planes.shape)
        self._scatter.add(forces, rows)
        return energies, forces

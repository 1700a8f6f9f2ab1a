"""Bonded force-field terms: bonds, angles, periodic dihedrals.

Each term precomputes its index arrays once and implements
``compute_batch`` over ``(3, N, R)`` replica-minor component planes
(see :mod:`repro.md.forcefield.base`): the index arrays are shared
across replicas, all arithmetic is elementwise over the replica axis,
and scatters go through
:class:`~repro.md.forcefield.base.SegmentScatter`, so a replica's
forces do not depend on the stack it is in.

At the stack sizes the adaptive loop runs (R = 6) a batched evaluation
is mostly the fixed cost of its numpy calls, so the batched kernels
*stack* operands that go through the same arithmetic — the two arms of
an angle, the three bond vectors and two plane normals of a dihedral —
along an extra axis and make one call where a per-replica kernel
would make two or three.  Stacking only changes which elements share a
call: every element still sees the same operands in the same order.
``need_energy=False`` skips the energy lines.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.md.forcefield.base import (
    SegmentScatter,
    empty_batch,
    pair_force_planes,
    pair_vectors,
    plane_dot,
)
from repro.util.errors import ConfigurationError


def _wrap(planes: np.ndarray) -> np.ndarray:
    """Repeat components x, y behind z: ``planes[:3]`` -> ``(x, y, z, x, y)``.

    *planes* has five leading rows with the first three filled.  In
    this layout the cyclic shifts a cross product needs are the plain
    slices ``[1:4]`` = ``(y, z, x)`` and ``[2:5]`` = ``(z, x, y)``.
    """
    planes[3:] = planes[:2]
    return planes


def _wrapped_cross(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Cross product over the leading axis of :func:`_wrap`-ped planes.

    ``(5, ...) x (5, ...) -> (3, ...)``: component ``c`` is
    ``a[c+1] * b[c+2] - a[c+2] * b[c+1]``, for all three components in
    three calls on slices (no copies).
    """
    out = np.multiply(a[1:4], b[2:5], out=out)
    out -= a[2:5] * b[1:4]
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
        # (P, 1) parameter columns of the batched kernel.
        self._r0_col = self.r0[:, None]
        self._k_col = self.k[:, None]

    def compute_batch(
        self, planes: np.ndarray, replica_ids=None, need_energy: bool = True
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """``(energies, force planes)`` over ``(3, N, R)`` planes."""
        if len(self.pairs) == 0:
            return empty_batch(planes)
        rij = pair_vectors(planes, self._i, self._j)
        r = np.sqrt(plane_dot(rij, rij))
        dr = r - self._r0_col
        k = self._k_col
        energies = 0.5 * np.sum(k * (dr * dr), axis=0) if need_energy else None
        # dE/dr = k dr; the force on j is -dE/dr * rij / r
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
        # Batched kernel: both end atoms in one (2, T) gather, (T, 1)
        # parameter columns, and the scatter plan (built on first use).
        self._ends = np.stack([self._i, self._k])
        self._theta0_col = self.theta0[:, None]
        self._k_col = self.k[:, None]
        self._scatter: Optional[SegmentScatter] = None

    def compute_batch(
        self, planes: np.ndarray, replica_ids=None, need_energy: bool = True
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """``(energies, force planes)`` over ``(3, N, R)`` planes.

        The two arms ``rij | rkj`` are stacked on an axis of length 2
        behind the component axis, so their norms, unit vectors and
        force directions each take one call for both.
        """
        dim, n_atoms, n_replicas = planes.shape
        n_triples = len(self.triples)
        if n_triples == 0:
            return empty_batch(planes)
        if self._scatter is None:
            self._scatter = SegmentScatter(
                np.concatenate([self._i, self._k, self._j]), n_atoms
            )
        # arms[:, 0] = rij, arms[:, 1] = rkj: (3, 2, T, R)
        arms = planes.take(self._ends, axis=1)
        arms -= planes.take(self._j, axis=1)[:, None]
        norms = np.sqrt(plane_dot(arms, arms))  # nij | nkj
        cos_t = plane_dot(arms[:, 0], arms[:, 1]) / np.maximum(
            norms[0] * norms[1], 1e-12
        )
        cos_t = np.minimum(np.maximum(cos_t, -1.0 + 1e-10), 1.0 - 1e-10)
        theta = np.arccos(cos_t)
        dtheta = theta - self._theta0_col
        k = self._k_col
        energies = (
            0.5 * np.sum(k * (dtheta * dtheta), axis=0) if need_energy else None
        )
        sin_t = np.sqrt(1.0 - cos_t * cos_t)
        coeff = (k * dtheta) / np.maximum(sin_t, 1e-12)
        # fi = coeff/nij * (rkj/nkj - cos_t*rij/nij) and fk with the
        # arms swapped: the other arm's unit vector is the reversed view.
        directions = (arms / norms)[:, ::-1] - cos_t * arms / norms
        rows = self._scatter.workspace(dim, n_replicas)
        ends_force = np.multiply(
            (coeff / norms).reshape(2 * n_triples, n_replicas),
            directions.reshape(dim, 2 * n_triples, n_replicas),
            out=rows[:, : 2 * n_triples],
        )
        vertex_force = np.add(
            ends_force[:, :n_triples],
            ends_force[:, n_triples:],
            out=rows[:, 2 * n_triples : -1],
        )
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
        # Batched kernel.  Geometry runs over the *unique* quadruples:
        # (3, U) index tables of the atoms each bond vector b1 | b2 | b3
        # points to and from, each term's row among the unique ones,
        # and its four rows in the (dphi_i | dphi_l | dphi_j | dphi_k)
        # gradient block, in the scatter's slot order i, j, k, l.
        unique, expand = np.unique(self.quads, axis=0, return_inverse=True)
        n_unique = len(unique)
        self._heads = np.ascontiguousarray(unique[:, 1:].T)
        self._tails = np.ascontiguousarray(unique[:, :3].T)
        self._expand = expand.reshape(-1)
        self._gradient_rows = self._expand + n_unique * np.array(
            [[0], [2], [3], [1]]
        )
        self._mult_col = self.mult[:, None].astype(float)
        self._phi0_col = self.phi0[:, None]
        self._k_col = self.k[:, None]
        self._k_mult_col = self._k_col * self._mult_col
        self._scatter: Optional[SegmentScatter] = None  # built on first use

    @staticmethod
    def dihedral_angles(
        positions: np.ndarray, quads: np.ndarray
    ) -> np.ndarray:
        """Signed dihedral angles (rad) for each quadruple."""
        n_quads = len(np.asarray(quads).reshape(-1, 4))
        term = PeriodicDihedralForce(
            quads, np.zeros(n_quads), np.zeros(n_quads), np.ones(n_quads)
        )
        planes = np.asarray(positions, dtype=float).T[:, :, None].copy()
        phi = term._angle_and_normals(planes)[0]
        return phi[term._expand, 0]

    def compute_batch(
        self, planes: np.ndarray, replica_ids=None, need_energy: bool = True
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """``(energies, force planes)`` over ``(3, N, R)`` planes.

        Geometry (angle and its four gradients) is evaluated once per
        *unique* quadruple and expanded by index to the registered
        terms — force fields commonly register several multiplicities
        on one quadruple, and elementwise ops on equal inputs give
        equal bits, so the expansion is exact.

        The three bond vectors and the two plane normals are stacked on
        an axis behind the component axis and stored wrapped (see
        :func:`_wrap`), so both normals are one cross product, both
        ``n.n`` one dot product, and the four gradients one block.
        """
        dim, n_atoms, n_replicas = planes.shape
        n_quads = len(self.quads)
        if n_quads == 0:
            return empty_batch(planes)
        if self._scatter is None:
            self._scatter = SegmentScatter(
                np.concatenate([self._i, self._j, self._k, self._l]), n_atoms
            )
        phi, gradients = self._unique_geometry(planes)
        angle = self._mult_col * phi.take(self._expand, axis=0)
        angle -= self._phi0_col
        energies = (
            np.sum(self._k_col * (1.0 + np.cos(angle)), axis=0)
            if need_energy
            else None
        )
        neg_dE = self._k_mult_col * np.sin(angle)  # -dE/dphi
        rows = self._scatter.workspace(dim, n_replicas)
        np.multiply(
            neg_dE,
            gradients.take(self._gradient_rows, axis=1),
            out=rows[:, :-1].reshape(dim, 4, n_quads, n_replicas),
        )
        forces = np.zeros(planes.shape)
        self._scatter.add(forces, rows)
        return energies, forces

    def _unique_geometry(self, planes: np.ndarray):
        """Angle ``(U, R)`` and gradient block ``(3, 4U, R)`` of the
        unique quadruples; the block holds ``dphi_i | dphi_l | dphi_j |
        dphi_k`` with

            dphi_i = |b2|/|n1|^2 n1        dphi_l = -|b2|/|n2|^2 n2
            dphi_j = -(1+s12) dphi_i + s32 dphi_l
            dphi_k = s12 dphi_i - (1+s32) dphi_l

        where ``s12 = b1.b2/|b2|^2`` and ``s32 = b3.b2/|b2|^2``.
        """
        phi, normals, nb2, s = self._angle_and_normals(planes)
        n_unique, n_replicas = phi.shape
        gradients = np.empty((3, 4, n_unique, n_replicas))
        scale = nb2 / np.maximum(plane_dot(normals, normals), 1e-12)
        np.negative(scale[1], out=scale[1])
        ends = np.multiply(scale, normals, out=gradients[:, :2])
        # Sign flips are exact, so -(1+s12) dphi_i + s32 dphi_l is
        # s32 dphi_l - (1+s12) dphi_i: the reversed pair times the
        # reversed s, less the pair times 1+s.
        middles = np.multiply(s[::-1], ends[:, ::-1], out=gradients[:, 2:])
        middles -= (1.0 + s) * ends
        return phi, gradients.reshape(3, 4 * n_unique, n_replicas)

    def _angle_and_normals(self, planes: np.ndarray):
        """``phi (U, R)``, ``n1 | n2 (3, 2, U, R)``, ``|b2| (U, R)`` and
        ``s12 | s32 (2, U, R)`` of the unique quadruples.  (A method of
        its own so that the bond vectors are freed before the gradient
        block and the expansion to terms are allocated: DESIGN.md
        "Kernel memory layout" on what large live temporaries cost.)"""
        n_unique = self._heads.shape[1]
        n_replicas = planes.shape[2]
        # bonds[:, 0..2] = b1, b2, b3.  mode="clip" lets take() write
        # into ``out`` directly; the indices were range-checked when
        # the scatter was built.
        bonds = np.empty((5, 3, n_unique, n_replicas))
        heads = planes.take(self._heads, axis=1, out=bonds[:3], mode="clip")
        heads -= planes.take(self._tails, axis=1)
        _wrap(bonds)
        # normals[:, 0..1] = n1, n2 = b1 x b2, b2 x b3
        normals = np.empty((5, 2, n_unique, n_replicas))
        _wrapped_cross(bonds[:, :2], bonds[:, 1:], out=normals[:3])
        _wrap(normals)
        b2 = bonds[:, 1]
        n1, n2 = normals[:, 0], normals[:3, 1]
        nb2 = np.sqrt(plane_dot(b2[:3], b2[:3]))
        m1 = _wrapped_cross(n1, b2 / nb2)
        phi = np.arctan2(plane_dot(m1, n2), plane_dot(n1[:3], n2))
        s = plane_dot(bonds[:3, :2], bonds[:3, 1:])  # b1.b2 | b2.b3
        s /= np.maximum(nb2 * nb2, 1e-12)
        return phi, normals[:3], nb2, s

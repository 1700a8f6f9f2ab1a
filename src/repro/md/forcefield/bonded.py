"""Bonded force-field terms: bonds, angles, periodic dihedrals.

Each is a fixed-list term of a :class:`~repro.md.forcefield.base.StepPlan`:
``fixed_list`` declares the vectors it reads, and ``plane_forces`` runs
its arithmetic on its slice of the plan's vectors and squared lengths,
elementwise over the replica axis, into its own scatter rows.  Operands
that go through the same arithmetic — the two arms of an angle, the
three bond vectors and two plane normals of a dihedral — are stacked on
an axis so one numpy call serves them all; every element still sees the
per-replica kernel's operands in its order.
"""

from __future__ import annotations

import numpy as np

from repro.md.forcefield.base import (
    StepPlan,
    _wrap,
    columns,
    fixed_list_batch,
    pair_rows,
    plane_dot,
    scratch,
    squared_norms,
)
from repro.util.errors import ConfigurationError


def _wrapped_cross(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Cross product over the leading axis of :func:`_wrap`-ped planes:
    ``(5, ...) x (5, ...) -> (3, ...)``, component ``c`` being
    ``a[c+1] * b[c+2] - a[c+2] * b[c+1]``, in three calls on slices."""
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
        self._r0_col = self.r0[:, None]
        self._k_col = self.k[:, None]

    compute_batch = fixed_list_batch

    def fixed_list(self):
        """``r_j - r_i`` per bond; force rows on ``[j, i]``."""
        return self._j, self._i, np.concatenate([self._j, self._i])

    def plane_forces(self, vectors, squares, rows, work, need_energy):
        """Energies at the bond vectors; fills the scatter *rows*."""
        r0, k, neg_k = columns(
            work, rows.shape[2], self._r0_col, self._k_col, -self._k_col
        )
        r = np.sqrt(squares)
        dr = r - r0
        energies = 0.5 * np.sum(k * (dr * dr), axis=0) if need_energy else None
        # the force on j is -dE/dr * rij / r with dE/dr = k dr, and
        # -(k dr) is (-k) dr: a sign flip is exact
        pair_rows(rows, (neg_k * dr) / np.maximum(r, 1e-12), vectors)
        return energies


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
        self._theta0_col = self.theta0[:, None]
        self._k_col = self.k[:, None]

    compute_batch = fixed_list_batch

    def fixed_list(self):
        """Arms ``r_i - r_j | r_k - r_j``; force rows on ``[i, k, j]``."""
        return (
            np.concatenate([self._i, self._k]),
            np.concatenate([self._j, self._j]),
            np.concatenate([self._i, self._k, self._j]),
        )

    def plane_forces(self, vectors, squares, rows, work, need_energy):
        """Energies at the arms ``rij | rkj`` (an axis of length 2, so
        norms, unit vectors and force directions take one call each);
        fills the scatter *rows*."""
        dim, _, n_replicas = rows.shape
        n_triples = len(self.triples)
        arms = vectors[:3].reshape(3, 2, n_triples, n_replicas)
        norms = np.sqrt(squares.reshape(2, n_triples, n_replicas))  # nij | nkj
        cos_t = plane_dot(arms[:, 0], arms[:, 1]) / np.maximum(
            norms[0] * norms[1], 1e-12
        )
        cos_t.clip(-1.0 + 1e-10, 1.0 - 1e-10, out=cos_t)
        theta0, k = columns(work, n_replicas, self._theta0_col, self._k_col)
        dtheta = np.arccos(cos_t) - theta0
        energies = (
            0.5 * np.sum(k * (dtheta * dtheta), axis=0) if need_energy else None
        )
        sin_t = np.sqrt(1.0 - cos_t * cos_t)
        coeff = (k * dtheta) / np.maximum(sin_t, 1e-12)
        # fi = coeff/nij * (rkj/nkj - cos_t*rij/nij) and fk with the
        # arms swapped: the other arm's unit vector is the reversed view.
        directions = (arms / norms)[:, ::-1] - cos_t * arms / norms
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
        return energies


class PeriodicDihedralForce:
    """``E = k (1 + cos(n phi - phi0))`` over i-j-k-l quadruples.

    The geometry runs once per *unique* quadruple and is expanded by
    index to the registered terms (force fields register several
    multiplicities on one quadruple; equal inputs give equal bits).
    """

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
        # (3, U) tables of the atoms each bond vector b1 | b2 | b3 of the
        # unique quadruples points to and from, each term's row among
        # them, and its four rows in the (dphi_i | dphi_l | dphi_j |
        # dphi_k) gradient block, in the scatter's slot order i, j, k, l.
        unique, expand = np.unique(self.quads, axis=0, return_inverse=True)
        self._heads = np.ascontiguousarray(unique[:, 1:].T)
        self._tails = np.ascontiguousarray(unique[:, :3].T)
        self._expand = expand.reshape(-1)
        self._gradient_rows = self._expand + len(unique) * np.array(
            [[0], [2], [3], [1]]
        )
        self._mult_col = self.mult[:, None].astype(float)
        self._phi0_col = self.phi0[:, None]
        self._k_col = self.k[:, None]
        self._k_mult_col = self._k_col * self._mult_col

    compute_batch = fixed_list_batch

    @staticmethod
    def dihedral_angles(
        positions: np.ndarray, quads: np.ndarray
    ) -> np.ndarray:
        """Signed dihedral angles (rad) for each quadruple."""
        n_quads = len(np.asarray(quads).reshape(-1, 4))
        if n_quads == 0:
            return np.zeros(0)
        term = PeriodicDihedralForce(
            quads, np.zeros(n_quads), np.zeros(n_quads), np.ones(n_quads)
        )
        planes = np.asarray(positions, dtype=float).T[:, :, None].copy()
        vectors, squares = StepPlan([term], planes.shape[1]).gather(planes)
        return term._geometry(vectors, squares, {})[0][term._expand, 0]

    def fixed_list(self):
        """``b1 | b2 | b3`` of the unique quadruples; force rows on
        ``[i, j, k, l]``."""
        return (
            self._heads.reshape(-1),
            self._tails.reshape(-1),
            np.concatenate([self._i, self._j, self._k, self._l]),
        )

    def plane_forces(self, vectors, squares, rows, work, need_energy):
        """Energies at the bond vectors; fills the scatter *rows*."""
        dim, _, n_replicas = rows.shape
        n_quads = len(self.quads)
        phi, gradients = self._geometry(vectors, squares, work)
        mult, phi0, k, k_mult = columns(
            work, n_replicas, self._mult_col, self._phi0_col, self._k_col,
            self._k_mult_col,
        )
        angle = mult * phi.take(self._expand, axis=0)
        angle -= phi0
        energies = (
            np.sum(k * (1.0 + np.cos(angle)), axis=0) if need_energy else None
        )
        neg_dE = k_mult * np.sin(angle)  # -dE/dphi
        expanded = scratch(work, "expanded", (dim, 4, n_quads, n_replicas))
        gradients.take(self._gradient_rows, axis=1, out=expanded, mode="clip")
        np.multiply(
            neg_dE,
            expanded,
            out=rows[:, :-1].reshape(dim, 4, n_quads, n_replicas),
        )
        return energies

    def _geometry(self, vectors: np.ndarray, squares: np.ndarray, work: dict):
        """Angle ``(U, R)`` and gradient block ``(3, 4U, R)`` of the
        unique quadruples, from their bond vectors (wrapped here) and
        squared lengths.  The block holds ``dphi_i | dphi_l | dphi_j |
        dphi_k`` with

            dphi_i = |b2|/|n1|^2 n1        dphi_l = -|b2|/|n2|^2 n2
            dphi_j = -(1+s12) dphi_i + s32 dphi_l
            dphi_k = s12 dphi_i - (1+s32) dphi_l

        where ``n1, n2 = b1 x b2, b2 x b3``, ``s12 = b1.b2/|b2|^2`` and
        ``s32 = b3.b2/|b2|^2``.
        """
        n_unique = self._heads.shape[1]
        bonds = _wrap(vectors.reshape(5, 3, n_unique, -1))
        nb2 = np.sqrt(squares[n_unique : 2 * n_unique])
        # frame[:, 0..2] = m1, n1, n2 with m1 = n1 x b2/|b2|, so that
        # y | x = m1.n2 | n1.n2 are one dot product
        frame = scratch(work, "frame", (5, 3) + nb2.shape)
        normals = frame[:, 1:]
        _wrapped_cross(bonds[:, :2], bonds[:, 1:], out=normals[:3])
        _wrap(normals[:, 0])
        _wrapped_cross(normals[:, 0], bonds[:, 1] / nb2, out=frame[:3, 0])
        y, x = plane_dot(frame[:3, :2], normals[:3, 1:])
        s = plane_dot(bonds[:3, :2], bonds[:3, 1:])  # b1.b2 | b2.b3
        s /= np.maximum(nb2 * nb2, 1e-12)
        gradients = scratch(work, "gradients", (3, 4) + nb2.shape)
        scale = nb2 / np.maximum(squared_norms(normals[:3]), 1e-12)
        np.negative(scale[1], out=scale[1])
        ends = np.multiply(scale, normals[:3], out=gradients[:, :2])
        # Sign flips are exact, so -(1+s12) dphi_i + s32 dphi_l is
        # s32 dphi_l - (1+s12) dphi_i: the reversed pair times the
        # reversed s, less the pair times 1+s.
        middles = np.multiply(s[::-1], ends[:, ::-1], out=gradients[:, 2:])
        middles -= (1.0 + s) * ends
        return np.arctan2(y, x), gradients.reshape(3, 4 * n_unique, -1)

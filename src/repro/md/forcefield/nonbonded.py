"""Nonbonded force-field terms: Lennard-Jones, reaction field, excluded volume.

All terms take a *pair provider* (see :mod:`repro.md.neighborlist`), so
the same kernel runs all-pairs for small systems and cell-list pruned
for large ones.  Energies are cutoff-shifted so the potential is
continuous at the cutoff.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.md.forcefield.base import fixed_list_batch, pair_rows
from repro.util.errors import ConfigurationError


class _PairForce:
    """The driver the cutoff pair terms share.  A term defines
    ``_pair_terms(i, j, r2, need_energy, column)`` -> ``(per-pair
    energies or None, force scales)`` over ``r2`` of shape ``(P,)`` (one
    replica) or ``(P, R)`` (``column=True``: parameters as ``(P, 1)``
    columns), the same expressions either way, and binds
    :meth:`compute_batch` under its own class (a per-class profile sees
    every term's kernel).
    """

    box: Optional[np.ndarray] = None

    def _energy_forces_pairs(
        self, positions: np.ndarray, i: np.ndarray, j: np.ndarray, need_energy=True
    ) -> Tuple[Optional[float], np.ndarray]:
        """One replica's ``(energy, forces)`` over a candidate pair list."""
        forces = np.zeros(positions.shape)
        rij = positions[j] - positions[i]
        if self.box is not None:
            rij -= self.box * np.round(rij / self.box)
        r2 = np.sum(rij * rij, axis=1)
        within = r2 < self.cutoff * self.cutoff
        if not np.any(within):
            return 0.0, forces
        i, j, rij, r2 = i[within], j[within], rij[within], r2[within]
        terms, fscale = self._pair_terms(i, j, r2, need_energy, column=False)
        energy = float(np.sum(terms)) if need_energy else None
        fij = fscale[:, None] * rij  # on j, along +rij
        np.add.at(forces, j, fij)
        np.add.at(forces, i, -fij)
        return energy, forces

    def fixed_list(self):
        """``r_j - r_i`` per pair of a positions-independent provider
        (``AllPairs``), force rows on ``[j, i]``; else ``None``."""
        if not getattr(self.pair_provider, "positions_independent", False):
            return None
        i, j = self.pair_provider.pairs(None)
        return j, i, np.concatenate([j, i])

    def minimum_image(self, rij: np.ndarray) -> None:
        """Fold the ``(dim, P, R)`` pair vectors into the box, in place."""
        if self.box is not None:
            box = self.box[:, None, None]
            rij -= box * np.round(rij / box)

    def plane_forces(self, vectors, squares, rows, work, need_energy):
        """Energies at the pair vectors; fills the scatter *rows*.  A pair
        past the cutoff gets a zero force scale instead of leaving."""
        i, j = self.pair_provider.pairs(None)
        within = squares < self.cutoff * self.cutoff
        terms, fscale = self._pair_terms(i, j, squares, need_energy, column=True)
        energies = None
        if need_energy:
            energies = np.sum(np.where(within, terms, 0.0), axis=0)
        pair_rows(rows, np.where(within, fscale, 0.0), vectors)
        return energies

    def compute_batch(
        self, planes: np.ndarray, replica_ids=None, need_energy: bool = True
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """``(energies, force planes)`` over ``(dim, N, R)`` planes.

        A positions-independent provider's term is a one-term step plan.
        Otherwise each column runs :meth:`_energy_forces_pairs` on its
        own list: a ``SharedNeighborList`` hands it its own replica's
        lazily-cached list, keyed by the true replica id (``None`` ids:
        column ``r`` is replica ``r``); any other provider is asked for
        ``pairs(positions)`` column by column.
        """
        provider = self.pair_provider
        if getattr(provider, "positions_independent", False):
            return fixed_list_batch(self, planes, replica_ids, need_energy)
        replica_pairs = getattr(provider, "replica_pairs", None)
        if replica_ids is None:
            replica_ids = range(planes.shape[2])
        energies = np.empty(planes.shape[2]) if need_energy else None
        forces = np.empty(planes.shape)
        for row, replica in enumerate(replica_ids):
            positions = np.ascontiguousarray(planes[:, :, row].T)
            if replica_pairs is None:
                i, j = provider.pairs(positions)
            else:
                i, j = replica_pairs(int(replica), positions)
            energy, row_forces = self._energy_forces_pairs(
                positions, i, j, need_energy
            )
            if need_energy:
                energies[row] = energy
            forces[:, :, row] = row_forces.T
        return energies, forces


#: Coulomb prefactor f = 1/(4 pi eps0) in kJ mol^-1 nm e^-2 (Gromacs value).
COULOMB_PREFACTOR = 138.935458


class LennardJonesForce(_PairForce):
    """12-6 Lennard-Jones with cutoff shift.

    ``E(r) = 4 eps [(sigma/r)^12 - (sigma/r)^6] - E(cutoff)`` for r <
    cutoff.  Per-atom ``sigma``/``epsilon`` arrays combine with
    Lorentz–Berthelot rules; scalars apply uniformly.  With ``box``
    set, pair vectors use the minimum-image convention (periodic
    boundaries for bulk fluids).
    """

    def __init__(
        self,
        pair_provider,
        sigma: float | np.ndarray,
        epsilon: float | np.ndarray,
        cutoff: float = 1.2,
        box: Optional[np.ndarray] = None,
    ) -> None:
        if cutoff <= 0:
            raise ConfigurationError(f"cutoff must be positive, got {cutoff}")
        self.pair_provider = pair_provider
        self.sigma = sigma
        self.epsilon = epsilon
        self.cutoff = float(cutoff)
        self.box = np.asarray(box, dtype=float) if box is not None else None
        if self.box is not None:
            if np.any(self.box <= 0):
                raise ConfigurationError("box lengths must be positive")
            if self.cutoff > 0.5 * self.box.min():
                raise ConfigurationError(
                    "cutoff exceeds half the smallest box length"
                )

    compute_batch = _PairForce.compute_batch

    def _pair_params(
        self, i: np.ndarray, j: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        if np.isscalar(self.sigma):
            sig = np.full(len(i), self.sigma, dtype=float)
        else:
            sig = 0.5 * (np.asarray(self.sigma)[i] + np.asarray(self.sigma)[j])
        if np.isscalar(self.epsilon):
            eps = np.full(len(i), self.epsilon, dtype=float)
        else:
            eps = np.sqrt(np.asarray(self.epsilon)[i] * np.asarray(self.epsilon)[j])
        return sig, eps

    def _pair_terms(self, i, j, r2, need_energy, column):
        sig, eps = self._pair_params(i, j)
        if column:
            sig, eps = sig[:, None], eps[:, None]
        inv_r2 = 1.0 / r2
        s6 = (sig * sig * inv_r2) ** 3
        s12 = s6 * s6
        terms = None
        if need_energy:
            # shift so E(cutoff) = 0
            sc6 = (sig / self.cutoff) ** 6
            shift = 4.0 * eps * (sc6 * sc6 - sc6)
            terms = 4.0 * eps * (s12 - s6) - shift
        return terms, 24.0 * eps * (2.0 * s12 - s6) * inv_r2


class ReactionFieldElectrostatics(_PairForce):
    """Coulomb interaction with reaction-field correction (Gromacs form).

    The paper's villin runs treat long-range electrostatics with a
    reaction field and continuum dielectric 78 (section 3.1):

    ``E(r) = f q_i q_j (1/r + k_rf r^2 - c_rf)`` for r < cutoff, with
    ``k_rf = (eps_rf - 1) / (2 eps_rf + 1) / rc^3`` and
    ``c_rf = 1/rc + k_rf rc^2`` making the potential vanish at rc.
    """

    def __init__(
        self,
        pair_provider,
        charges: np.ndarray,
        cutoff: float = 1.2,
        epsilon_rf: float = 78.0,
    ) -> None:
        if cutoff <= 0:
            raise ConfigurationError(f"cutoff must be positive, got {cutoff}")
        if epsilon_rf <= 0.5:
            raise ConfigurationError(
                f"epsilon_rf must exceed 0.5, got {epsilon_rf}"
            )
        self.pair_provider = pair_provider
        self.charges = np.asarray(charges, dtype=float)
        self.cutoff = float(cutoff)
        self.epsilon_rf = float(epsilon_rf)
        rc = self.cutoff
        self.k_rf = (epsilon_rf - 1.0) / (2.0 * epsilon_rf + 1.0) / rc**3
        self.c_rf = 1.0 / rc + self.k_rf * rc**2

    compute_batch = _PairForce.compute_batch

    def _pair_terms(self, i, j, r2, need_energy, column):
        qq = COULOMB_PREFACTOR * self.charges[i] * self.charges[j]
        if column:
            qq = qq[:, None]
        r = np.sqrt(r2)
        terms = None
        if need_energy:
            terms = qq * (1.0 / r + self.k_rf * r2 - self.c_rf)
        # -dE/dr / r = qq (1/r^3 - 2 k_rf)
        return terms, qq * (1.0 / (r2 * r) - 2.0 * self.k_rf)


class ExcludedVolumeForce(_PairForce):
    """Purely repulsive ``eps (sigma/r)^12`` wall, cutoff at ``r = sigma * factor``.

    Used for the non-native pairs of a Gō model: chains cannot pass
    through themselves but gain no attraction from non-native contacts.
    """

    def __init__(
        self,
        pair_provider,
        sigma: float = 0.4,
        epsilon: float = 1.0,
        cutoff_factor: float = 3.0,
    ) -> None:
        if sigma <= 0 or epsilon <= 0:
            raise ConfigurationError("sigma and epsilon must be positive")
        self.pair_provider = pair_provider
        self.sigma = float(sigma)
        self.epsilon = float(epsilon)
        self.cutoff = float(sigma * cutoff_factor)

    compute_batch = _PairForce.compute_batch

    def _pair_terms(self, i, j, r2, need_energy, column):
        inv_r2 = 1.0 / r2
        s12 = (self.sigma * self.sigma * inv_r2) ** 6
        terms = None
        if need_energy:
            shift = self.epsilon * (self.sigma / self.cutoff) ** 12
            terms = self.epsilon * s12 - shift
        return terms, 12.0 * self.epsilon * s12 * inv_r2

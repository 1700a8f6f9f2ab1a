"""Gō-type native-contact potential.

A structure-based (Gō) model rewards the contacts present in the native
structure with a 12-10 well whose minimum sits at the native distance:

``E(r) = eps [5 (r0/r)^12 - 6 (r0/r)^10]``

so ``E(r0) = -eps`` and the force vanishes at ``r = r0``.  Combined
with chain connectivity (bonds/angles/dihedrals) and excluded volume on
non-native pairs this produces a funnelled landscape that folds to the
native state — the standard minimal model of protein folding, and the
behaviour the paper's adaptive-MSM machinery consumes.
"""

from __future__ import annotations

import numpy as np

from repro.md.forcefield.base import columns, fixed_list_batch, pair_rows
from repro.util.errors import ConfigurationError


class GoContactForce:
    """12-10 native-contact attraction over a fixed pair list."""

    def __init__(
        self,
        pairs: np.ndarray,
        r0: np.ndarray,
        epsilon: float | np.ndarray = 1.0,
        cutoff_factor: float = 3.0,
    ) -> None:
        self.pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
        self.r0 = np.asarray(r0, dtype=float)
        if len(self.pairs) != len(self.r0):
            raise ConfigurationError("contact pair/r0 arrays misaligned")
        if np.any(self.r0 <= 0):
            raise ConfigurationError("native distances must be positive")
        eps = np.asarray(epsilon, dtype=float)
        self.epsilon = (
            np.full(len(self.pairs), float(eps)) if eps.ndim == 0 else eps
        )
        if len(self.epsilon) != len(self.pairs):
            raise ConfigurationError("epsilon array misaligned with pairs")
        self.cutoff = self.r0 * cutoff_factor
        self._i = self.pairs[:, 0]
        self._j = self.pairs[:, 1]
        # (P, 1) parameter columns of the batched kernel.
        self._r0_sq_col = (self.r0 * self.r0)[:, None]
        self._epsilon_col = self.epsilon[:, None]
        self._epsilon60_col = 60.0 * self._epsilon_col

    compute_batch = fixed_list_batch

    def fixed_list(self):
        """``r_j - r_i`` per contact; force rows on ``[j, i]``."""
        return self._j, self._i, np.concatenate([self._j, self._i])

    def plane_forces(self, vectors, squares, rows, work, need_energy):
        """Energies at the contact vectors; fills the scatter *rows*."""
        r0_sq, eps, eps60 = columns(
            work, rows.shape[2], self._r0_sq_col, self._epsilon_col,
            self._epsilon60_col,
        )
        inv_r2 = r0_sq / squares
        s10 = inv_r2**5
        s12 = s10 * inv_r2
        energies = (
            np.sum(eps * (5.0 * s12 - 6.0 * s10), axis=0) if need_energy else None
        )
        # -dE/dr / r along rij, on j: dE/dr = 60 eps (r0^10/r^11 - r0^12/r^13)
        pair_rows(rows, eps60 * (s12 - s10) / squares, vectors)
        return energies

    def fraction_native_batch(
        self, positions: np.ndarray, tolerance: float = 1.2
    ) -> np.ndarray:
        """Per-replica Q over an ``(R, N, 3)`` stack (see fraction_native)."""
        if len(self.pairs) == 0:
            return np.ones(positions.shape[0])
        rij = positions[:, self._j] - positions[:, self._i]
        r = np.sqrt(np.sum(rij * rij, axis=2))
        return np.mean(r < tolerance * self.r0, axis=1)

    def fraction_native(
        self, positions: np.ndarray, tolerance: float = 1.2
    ) -> float:
        """Fraction of native contacts formed (r < tolerance * r0): the
        classic folding reaction coordinate Q, a stack of one."""
        return float(self.fraction_native_batch(positions[None], tolerance)[0])

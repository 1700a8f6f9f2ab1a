"""Simulated domain decomposition: the MPI level of the hierarchy.

Gromacs parallelises one simulation across ranks by spatial domain
decomposition: each rank owns the atoms in a slab of space, computes
the interactions assigned to it, imports *halo* positions it reads but
does not own, and exports the forces it produced on remote atoms.
This module reproduces that layer in-process:

* atoms are assigned to ranks by slabs along one axis (balanced by
  atom count);
* every interaction of every force term is assigned to the rank owning
  its first atom, by *slicing the force objects' index arrays* — so
  the decomposed arithmetic is exactly the serial arithmetic,
  partitioned (the correctness tests assert bitwise equality);
* each rank's halo (read but not owned) and force-export sets are
  derived from its assigned interactions, giving the per-step
  communication volume that the performance model's overhead term
  abstracts.

No real MPI is involved (none is available here); what is preserved is
the decomposition logic, the exactness guarantee and the communication
accounting — the quantities the paper's Fig. 6 reasons about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.md.forcefield.base import composite_energy_forces
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
from repro.md.system import System
from repro.util.errors import ConfigurationError

#: Bytes per atom position or force record (3 doubles).
BYTES_PER_VECTOR = 24

#: Safety margin (nm) added to nonbonded cutoffs when freezing a
#: decomposition's pair lists at the reference geometry.
_PAIR_SKIN = 0.3


@dataclass
class CommStats:
    """Per-step communication accounting for one decomposition."""

    n_ranks: int
    halo_atoms_per_rank: List[int]
    export_atoms_per_rank: List[int]

    @property
    def total_bytes_per_step(self) -> int:
        """Positions imported plus forces exported, all ranks."""
        return BYTES_PER_VECTOR * (
            sum(self.halo_atoms_per_rank) + sum(self.export_atoms_per_rank)
        )


def _slice_indexed_force(force, keep: np.ndarray):
    """Clone *force* with only the interactions selected by *keep*."""
    if isinstance(force, HarmonicBondForce):
        return HarmonicBondForce(force.pairs[keep], force.r0[keep], force.k[keep])
    if isinstance(force, HarmonicAngleForce):
        return HarmonicAngleForce(
            force.triples[keep], force.theta0[keep], force.k[keep]
        )
    if isinstance(force, PeriodicDihedralForce):
        return PeriodicDihedralForce(
            force.quads[keep],
            force.phi0[keep],
            force.k[keep],
            force.mult[keep],
        )
    if isinstance(force, GoContactForce):
        return GoContactForce(
            force.pairs[keep],
            force.r0[keep],
            epsilon=force.epsilon[keep],
        )
    raise ConfigurationError(
        f"cannot slice force type {type(force).__name__}"
    )


def _interaction_atoms(force) -> Optional[np.ndarray]:
    """Index array (n_interactions, arity) of a force's interactions."""
    if isinstance(force, HarmonicBondForce):
        return force.pairs
    if isinstance(force, HarmonicAngleForce):
        return force.triples
    if isinstance(force, PeriodicDihedralForce):
        return force.quads
    if isinstance(force, GoContactForce):
        return force.pairs
    return None


class _SlicedPairProvider:
    """Static (i, j) arrays as a pair provider for nonbonded slices."""

    def __init__(self, i: np.ndarray, j: np.ndarray) -> None:
        self._i = np.ascontiguousarray(i)
        self._j = np.ascontiguousarray(j)

    def pairs(self, positions):
        """Return the frozen (i, j) pair arrays (positions unused)."""
        return self._i, self._j


def _slice_nonbonded(force, owner_of, rank, positions_hint):
    """Clone a pair-provider force keeping this rank's share of pairs.

    Pair (i, j) belongs to the rank owning i when i+j is even and to
    the rank owning j otherwise — the standard trick that halves the
    systematic skew of "first atom owns the pair" (low-index atoms
    appear first in far more pairs).
    """
    i, j = force.pair_provider.pairs(positions_hint)
    # prune pairs far beyond the cutoff at the reference geometry (with
    # a generous skin so short runs stay exact); an all-pairs provider
    # would otherwise make every rank's halo the whole system
    cutoff = getattr(force, "cutoff", None)
    if cutoff is not None and len(i):
        rij = positions_hint[j] - positions_hint[i]
        box = getattr(force, "box", None)
        if box is not None:
            rij = rij - box * np.round(rij / box)
        r2 = np.sum(rij * rij, axis=1)
        reach = (cutoff + _PAIR_SKIN) ** 2
        i, j = i[r2 < reach], j[r2 < reach]
    responsible = np.where((i + j) % 2 == 0, owner_of[i], owner_of[j])
    keep = responsible == rank
    provider = _SlicedPairProvider(i[keep], j[keep])
    if isinstance(force, LennardJonesForce):
        out = LennardJonesForce(
            provider, force.sigma, force.epsilon, cutoff=force.cutoff,
            box=force.box,
        )
        return out, np.stack([i[keep], j[keep]], axis=1)
    if isinstance(force, ReactionFieldElectrostatics):
        out = ReactionFieldElectrostatics(
            provider, force.charges, cutoff=force.cutoff,
            epsilon_rf=force.epsilon_rf,
        )
        return out, np.stack([i[keep], j[keep]], axis=1)
    if isinstance(force, ExcludedVolumeForce):
        out = ExcludedVolumeForce(
            provider, sigma=force.sigma, epsilon=force.epsilon,
            cutoff_factor=force.cutoff / force.sigma,
        )
        return out, np.stack([i[keep], j[keep]], axis=1)
    raise ConfigurationError(
        f"cannot slice nonbonded force type {type(force).__name__}"
    )


def slab_assignment(
    positions: np.ndarray, n_ranks: int, axis: int = 0
) -> np.ndarray:
    """Owner rank per atom: contiguous slabs balanced by atom count."""
    if n_ranks < 1:
        raise ConfigurationError("n_ranks must be >= 1")
    n = len(positions)
    if n_ranks > n:
        raise ConfigurationError("more ranks than atoms")
    order = np.argsort(positions[:, axis], kind="stable")
    owner = np.empty(n, dtype=int)
    bounds = np.linspace(0, n, n_ranks + 1).astype(int)
    for rank in range(n_ranks):
        owner[order[bounds[rank] : bounds[rank + 1]]] = rank
    return owner


class DomainDecomposition:
    """A system's force computation split across simulated ranks.

    Parameters
    ----------
    system:
        The serial system (its force terms are sliced, never copied
        numerically).
    positions:
        Reference coordinates used to place atoms into slabs (and to
        freeze nonbonded pair lists for AllPairs-style providers).
    n_ranks:
        Number of simulated MPI ranks.
    axis:
        Decomposition axis.
    """

    def __init__(
        self,
        system: System,
        positions: np.ndarray,
        n_ranks: int,
        axis: int = 0,
    ) -> None:
        positions = np.asarray(positions, dtype=float)
        if positions.shape != (system.n_atoms, system.dim):
            raise ConfigurationError("positions do not match the system")
        self.system = system
        self.n_ranks = int(n_ranks)
        self.owner_of = slab_assignment(positions, n_ranks, axis=axis)
        self._rank_forces: List[List] = [[] for _ in range(n_ranks)]
        self._touched: List[set] = [set() for _ in range(n_ranks)]

        for force in system.forces:
            atoms = _interaction_atoms(force)
            if atoms is not None:
                first = atoms[:, 0]
                for rank in range(n_ranks):
                    keep = self.owner_of[first] == rank
                    if not np.any(keep):
                        continue
                    self._rank_forces[rank].append(
                        _slice_indexed_force(force, keep)
                    )
                    self._touched[rank].update(atoms[keep].ravel().tolist())
            elif hasattr(force, "pair_provider"):
                for rank in range(n_ranks):
                    sliced, pairs = _slice_nonbonded(
                        force, self.owner_of, rank, positions
                    )
                    if len(pairs) == 0:
                        continue
                    self._rank_forces[rank].append(sliced)
                    self._touched[rank].update(pairs.ravel().tolist())
            else:
                raise ConfigurationError(
                    f"force {type(force).__name__} is not decomposable"
                )

    # -- execution -----------------------------------------------------------

    def compute_forces(
        self, positions: np.ndarray
    ) -> Tuple[float, np.ndarray, CommStats]:
        """Total energy/forces via per-rank partial sums, plus comm stats.

        The result is numerically identical to the serial computation
        term-reordering aside (and bitwise identical per interaction).
        """
        total_energy = 0.0
        total_forces = np.zeros_like(positions)
        halo, exports = [], []
        for rank in range(self.n_ranks):
            rank_energy, rank_forces = composite_energy_forces(
                self._rank_forces[rank], positions
            )
            total_energy += rank_energy
            total_forces += rank_forces
            owned = self.owner_of == rank
            touched = np.zeros(len(positions), dtype=bool)
            if self._touched[rank]:
                touched[np.fromiter(self._touched[rank], dtype=int)] = True
            halo.append(int(np.sum(touched & ~owned)))
            # forces produced on atoms this rank does not own get exported
            produced = np.any(rank_forces != 0.0, axis=1)
            exports.append(int(np.sum(produced & ~owned)))
        stats = CommStats(
            n_ranks=self.n_ranks,
            halo_atoms_per_rank=halo,
            export_atoms_per_rank=exports,
        )
        return total_energy, total_forces, stats

    # -- analysis ---------------------------------------------------------

    def load_balance(self) -> np.ndarray:
        """Interactions assigned per rank (normalised to the mean)."""
        counts = np.array(
            [
                sum(
                    len(_interaction_atoms(f))
                    if _interaction_atoms(f) is not None
                    else len(f.pair_provider.pairs(None)[0])
                    for f in rank_forces
                )
                for rank_forces in self._rank_forces
            ],
            dtype=float,
        )
        mean = counts.mean() if counts.size else 1.0
        return counts / max(mean, 1e-12)

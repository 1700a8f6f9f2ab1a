"""Coarse-grained Gō model of the villin headpiece.

The paper folds the 35-residue villin headpiece mutant 35-NleNle (PDB
2F4K), a three-helix bundle, with all-atom explicit-solvent MD.  That
substrate is replaced here by a one-bead-per-residue structure-based
model whose *native state is a procedurally built three-helix bundle*:

* three ideal alpha-helices packed on a triangular lattice,
  antiparallel, joined by two short loops (default 10+2+11+2+10 = 35
  residues, matching villin's size);
* bonds/angles/dihedrals with native equilibrium values
  (:func:`~repro.md.models.polymer.chain_topology_from_native`);
* 12-10 native-contact attractions; purely repulsive excluded volume
  on everything else.

The substitution preserves what the Copernicus layer consumes: folding
from extended chains through metastable intermediates, an RMSD-to-
native observable, and tunable kinetics via temperature and contact
strength.  A reduced ``fast`` variant (three 5-residue helices, 19
residues) folds in ~1e5 steps for tests and quick benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.md.forcefield.bonded import (
    HarmonicAngleForce,
    HarmonicBondForce,
    PeriodicDihedralForce,
)
from repro.md.forcefield.go_model import GoContactForce
from repro.md.forcefield.nonbonded import ExcludedVolumeForce
from repro.md.models.polymer import (
    build_extended_chain,
    build_helix,
    build_loop,
    chain_topology_from_native,
    native_contact_pairs,
)
from repro.md.neighborlist import AllPairs
from repro.md.system import State, System, Topology
from repro.util.errors import ConfigurationError
from repro.util.rng import RandomStream, ensure_stream

#: Residue mass (amu) — one bead carries an average residue's mass.
RESIDUE_MASS = 110.0


def build_native_bundle(
    helix_lengths: Sequence[int] = (10, 11, 10),
    loop_lengths: Sequence[int] = (2, 2),
    packing_distance: float = 1.0,
) -> np.ndarray:
    """Native C-alpha coordinates of an idealised three-helix bundle.

    Helix axes sit on the vertices of an equilateral triangle with side
    *packing_distance* (nm); successive helices run antiparallel so the
    connecting loops are short, as in the real villin fold.
    """
    if len(helix_lengths) != 3 or len(loop_lengths) != 2:
        raise ConfigurationError("bundle needs 3 helices and 2 loops")
    d = packing_distance
    centers = [
        np.array([0.0, 0.0, 0.0]),
        np.array([d, 0.0, 0.0]),
        np.array([d / 2.0, d * np.sqrt(3.0) / 2.0, 0.0]),
    ]
    z_axis = np.array([0.0, 0.0, 1.0])
    pieces: List[np.ndarray] = []
    for h, (center, length) in enumerate(zip(centers, helix_lengths)):
        direction = z_axis if h % 2 == 0 else -z_axis
        height = (length - 1) * 0.15
        start = center if h % 2 == 0 else center + np.array([0, 0, height])
        helix = build_helix(length, start, direction, phase=h * 2.0)
        pieces.append(helix)
        if h < 2:
            # Loop from this helix's last residue to the next helix's first.
            next_center = centers[h + 1]
            next_length = helix_lengths[h + 1]
            next_dir = z_axis if (h + 1) % 2 == 0 else -z_axis
            next_height = (next_length - 1) * 0.15
            next_start = (
                next_center
                if (h + 1) % 2 == 0
                else next_center + np.array([0, 0, next_height])
            )
            next_first = build_helix(1, next_start, next_dir, phase=(h + 1) * 2.0)[0]
            loop = build_loop(pieces[-1][-1], next_first, loop_lengths[h])
            pieces.append(loop)
    return np.concatenate(pieces, axis=0)


@dataclass
class VillinModel:
    """A ready-to-simulate CG villin system plus its native reference.

    Attributes
    ----------
    system:
        :class:`~repro.md.system.System` with all force terms attached.
    native:
        Native C-alpha coordinates ``(n_residues, 3)``.
    go_force:
        The native-contact force (exposes ``fraction_native``).
    contact_epsilon:
        Contact well depth used (kJ/mol).
    """

    system: System
    native: np.ndarray
    go_force: GoContactForce
    contact_epsilon: float
    topology: Topology = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def n_residues(self) -> int:
        """Number of residues (beads)."""
        return self.system.n_atoms

    def extended_state(
        self, rng: int | RandomStream | None = None, temperature: float = 300.0
    ) -> State:
        """An unfolded starting state with Maxwell–Boltzmann velocities.

        Each call with a distinct rng yields a distinct unfolded
        conformation — the paper's "nine unfolded conformations".
        """
        stream = ensure_stream(rng)
        positions = build_extended_chain(self.n_residues, rng=stream, noise=0.03)
        velocities = self.system.maxwell_boltzmann_velocities(temperature, stream)
        return State(positions, velocities)

    def native_state(
        self, rng: int | RandomStream | None = None, temperature: float = 300.0
    ) -> State:
        """The native structure with thermal velocities."""
        stream = ensure_stream(rng)
        velocities = self.system.maxwell_boltzmann_velocities(temperature, stream)
        return State(self.native.copy(), velocities)


def build_villin(
    variant: str = "full",
    contact_epsilon: float = 5.0,
    bond_k: float = 8000.0,
    angle_k: float = 40.0,
    dihedral_k: float = 2.0,
    contact_cutoff: float = 1.1,
    excluded_sigma: float = 0.38,
) -> VillinModel:
    """Construct the CG villin Gō model.

    Parameters
    ----------
    variant:
        ``"full"`` — 35 residues (10+2+11+2+10), the paper's system
        size; ``"fast"`` — 19 residues (5+2+5+2+5), folds quickly for
        tests and CI-scale benchmarks.
    contact_epsilon:
        Native-contact well depth in kJ/mol.  With the default the
        model folds readily at ~300 K and unfolds near ~400 K.
    """
    if variant == "full":
        helices, loops = (10, 11, 10), (2, 2)
    elif variant == "fast":
        helices, loops = (5, 5, 5), (2, 2)
    else:
        raise ConfigurationError(f"unknown villin variant {variant!r}")

    native = build_native_bundle(helices, loops)
    n = len(native)
    topology = chain_topology_from_native(
        native, bond_k=bond_k, angle_k=angle_k, dihedral_k=dihedral_k
    )
    contacts, contact_r0 = native_contact_pairs(
        native, cutoff=contact_cutoff, min_separation=4
    )
    if len(contacts) == 0:
        raise ConfigurationError(
            "native structure has no contacts; check builder geometry"
        )

    # Excluded volume acts on every pair except bonded neighbours,
    # angle 1-3 pairs and the native contacts (which have their own well).
    excluded = topology.all_excluded_pairs()
    excluded |= {(int(i), int(j)) for i, j in contacts}
    # 1-4 pairs are governed by dihedrals; exclude them from the wall too.
    excluded |= {(i, i + 3) for i in range(n - 3)}
    repulsive_pairs = AllPairs(n, exclusions=excluded)

    bond_force = HarmonicBondForce(
        topology.bonds, topology.bond_r0, topology.bond_k
    )
    angle_force = HarmonicAngleForce(
        topology.angles, topology.angle_theta0, topology.angle_k
    )
    # Standard two-term Gō dihedral: k(1+cos(phi-d1)) + k/2(1+cos(3phi-d3)).
    # Both terms share one force object (quads concatenated) so the
    # dihedral geometry is computed once per step.
    phi_native = topology.dihedral_phi0 + np.pi  # invert the phase relation
    dihedral_force = PeriodicDihedralForce(
        np.concatenate([topology.dihedrals, topology.dihedrals]),
        np.concatenate([topology.dihedral_phi0, 3.0 * phi_native - np.pi]),
        np.concatenate([topology.dihedral_k, 0.5 * topology.dihedral_k]),
        np.concatenate(
            [
                topology.dihedral_mult,
                np.full(len(topology.dihedrals), 3, dtype=int),
            ]
        ),
    )
    go_force = GoContactForce(contacts, contact_r0, epsilon=contact_epsilon)
    wall = ExcludedVolumeForce(repulsive_pairs, sigma=excluded_sigma, epsilon=1.0)

    system = System(
        masses=np.full(n, RESIDUE_MASS),
        topology=topology,
        forces=[bond_force, angle_force, dihedral_force, go_force, wall],
        dim=3,
    )
    return VillinModel(
        system=system,
        native=native,
        go_force=go_force,
        contact_epsilon=contact_epsilon,
        topology=topology,
    )

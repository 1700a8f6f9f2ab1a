"""Particle systems: topology, system definition and dynamic state."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.md.forcefield.base import StepPlan, check_force
from repro.util.errors import ConfigurationError
from repro.util.rng import RandomStream
from repro.util.units import KB


@dataclass
class Topology:
    """Connectivity of a molecular system.

    All index arrays are integer ndarrays; parameter arrays are float
    ndarrays aligned with them.  Empty arrays mean "no such terms".

    Attributes
    ----------
    n_atoms:
        Number of particles.
    bonds:
        ``(n_bonds, 2)`` atom index pairs.
    bond_r0 / bond_k:
        Equilibrium lengths (nm) and force constants (kJ/mol/nm^2).
    angles:
        ``(n_angles, 3)`` atom index triples (i-j-k, j is the vertex).
    angle_theta0 / angle_k:
        Equilibrium angles (rad) and force constants (kJ/mol/rad^2).
    dihedrals:
        ``(n_dihedrals, 4)`` atom index quadruples.
    dihedral_phi0 / dihedral_k / dihedral_mult:
        Phase (rad), force constant (kJ/mol) and multiplicity of
        periodic dihedral terms.
    exclusions:
        ``(n_excl, 2)`` pairs excluded from nonbonded interactions.
    names:
        Optional atom names (for reports).
    """

    n_atoms: int
    bonds: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=int))
    bond_r0: np.ndarray = field(default_factory=lambda: np.zeros(0))
    bond_k: np.ndarray = field(default_factory=lambda: np.zeros(0))
    angles: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=int))
    angle_theta0: np.ndarray = field(default_factory=lambda: np.zeros(0))
    angle_k: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dihedrals: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 4), dtype=int)
    )
    dihedral_phi0: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dihedral_k: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dihedral_mult: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=int)
    )
    exclusions: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 2), dtype=int)
    )
    names: Optional[List[str]] = None

    def __post_init__(self) -> None:
        self.bonds = np.asarray(self.bonds, dtype=int).reshape(-1, 2)
        self.angles = np.asarray(self.angles, dtype=int).reshape(-1, 3)
        self.dihedrals = np.asarray(self.dihedrals, dtype=int).reshape(-1, 4)
        self.exclusions = np.asarray(self.exclusions, dtype=int).reshape(-1, 2)
        for arr_name in ("bond_r0", "bond_k", "angle_theta0", "angle_k",
                         "dihedral_phi0", "dihedral_k"):
            setattr(self, arr_name, np.asarray(getattr(self, arr_name), dtype=float))
        self.dihedral_mult = np.asarray(self.dihedral_mult, dtype=int)
        self._validate()

    def _validate(self) -> None:
        if self.n_atoms <= 0:
            raise ConfigurationError(f"n_atoms must be positive, got {self.n_atoms}")
        for name, idx in (
            ("bonds", self.bonds),
            ("angles", self.angles),
            ("dihedrals", self.dihedrals),
            ("exclusions", self.exclusions),
        ):
            if idx.size and (idx.min() < 0 or idx.max() >= self.n_atoms):
                raise ConfigurationError(f"{name} reference atoms out of range")
        if len(self.bonds) != len(self.bond_r0) or len(self.bonds) != len(self.bond_k):
            raise ConfigurationError("bond parameter arrays misaligned")
        if len(self.angles) != len(self.angle_theta0) or len(self.angles) != len(
            self.angle_k
        ):
            raise ConfigurationError("angle parameter arrays misaligned")
        if not (
            len(self.dihedrals)
            == len(self.dihedral_phi0)
            == len(self.dihedral_k)
            == len(self.dihedral_mult)
        ):
            raise ConfigurationError("dihedral parameter arrays misaligned")

    def all_excluded_pairs(self) -> set:
        """Set of (i, j) pairs (i<j) excluded from nonbonded interactions.

        Bonds and angle 1-3 pairs are always excluded, matching standard
        force-field conventions; explicit exclusions are added on top.
        """
        pairs = set()
        for i, j in self.bonds:
            pairs.add((min(i, j), max(i, j)))
        for i, _, k in self.angles:
            pairs.add((min(i, k), max(i, k)))
        for i, j in self.exclusions:
            pairs.add((min(i, j), max(i, j)))
        return pairs


@dataclass
class State:
    """Dynamic state of a simulation: coordinates, velocities, clock."""

    positions: np.ndarray
    velocities: np.ndarray
    time: float = 0.0
    step: int = 0

    def __post_init__(self) -> None:
        self.positions = np.ascontiguousarray(self.positions, dtype=float)
        self.velocities = np.ascontiguousarray(self.velocities, dtype=float)
        if self.positions.shape != self.velocities.shape:
            raise ConfigurationError(
                f"positions {self.positions.shape} and velocities "
                f"{self.velocities.shape} shapes differ"
            )

    def copy(self) -> "State":
        """Deep copy (positions and velocities are duplicated)."""
        return State(
            self.positions.copy(), self.velocities.copy(), self.time, self.step
        )


class System:
    """A particle system: masses, topology, dimensionality and forces.

    Parameters
    ----------
    masses:
        Per-particle masses in amu, shape ``(n_atoms,)``.
    topology:
        The bonded connectivity.  Optional for unstructured systems
        (e.g. particles on a model potential surface).
    forces:
        Sequence of force terms, each implementing the
        :class:`~repro.md.forcefield.base.Force` protocol (checked
        here: a term that does not raises :class:`ConfigurationError`).
    dim:
        Spatial dimensionality (3 for molecular systems, 2 for model
        surfaces such as Müller–Brown).
    """

    def __init__(
        self,
        masses: Sequence[float],
        topology: Optional[Topology] = None,
        forces: Optional[Sequence] = None,
        dim: int = 3,
    ) -> None:
        self.masses = np.ascontiguousarray(masses, dtype=float)
        if self.masses.ndim != 1 or len(self.masses) == 0:
            raise ConfigurationError("masses must be a non-empty 1-D sequence")
        if np.any(self.masses <= 0):
            raise ConfigurationError("all masses must be positive")
        if dim not in (1, 2, 3):
            raise ConfigurationError(f"dim must be 1, 2 or 3, got {dim}")
        if topology is not None and topology.n_atoms != len(self.masses):
            raise ConfigurationError(
                f"topology has {topology.n_atoms} atoms but masses has "
                f"{len(self.masses)}"
            )
        self.topology = topology
        self.forces = []
        self._plan: Optional[StepPlan] = None
        for force in forces or ():
            self.add_force(force)
        self.dim = dim

    @property
    def n_atoms(self) -> int:
        """Number of particles."""
        return len(self.masses)

    def add_force(self, force) -> None:
        """Append a force term (checked against the Force protocol)."""
        check_force(force)
        self.forces.append(force)

    @property
    def step_plan(self) -> StepPlan:
        """The :class:`~repro.md.forcefield.base.StepPlan` of the
        registered terms: built on first use, rebuilt only when the
        term list changes, and kept with the system (so a cached model
        keeps its scratch too)."""
        plan = self._plan
        if plan is None or plan.forces != tuple(self.forces):
            plan = self._plan = StepPlan(self.forces, self.n_atoms)
        return plan

    def energy_forces(
        self, positions: np.ndarray, need_energy: bool = True
    ) -> Tuple[Optional[float], np.ndarray]:
        """Total potential energy and forces at *positions*.

        A stack of one through the system's step plan.
        ``need_energy=False`` returns ``None`` for the energy (the
        forces are the same bits either way).
        """
        energies, forces = self.step_plan.evaluate(
            positions[None], None, need_energy
        )
        return (float(energies[0]) if need_energy else None), forces[0]

    def potential_energy(self, positions: np.ndarray) -> float:
        """Total potential energy only."""
        return self.energy_forces(positions)[0]

    def kinetic_energy(self, velocities: np.ndarray) -> float:
        """Kinetic energy of *velocities* in kJ/mol."""
        return 0.5 * float(np.sum(self.masses * np.sum(velocities**2, axis=1)))

    def instantaneous_temperature(self, velocities: np.ndarray) -> float:
        """Kinetic temperature in kelvin (no constraint correction)."""
        dof = self.dim * self.n_atoms
        return 2.0 * self.kinetic_energy(velocities) / (dof * KB)

    def maxwell_boltzmann_velocities(
        self, temperature: float, rng: RandomStream
    ) -> np.ndarray:
        """Draw velocities from the Maxwell–Boltzmann distribution.

        The paper's villin runs draw initial velocities this way
        (section 3.1).  The centre-of-mass motion is removed.
        """
        sigma = np.sqrt(KB * temperature / self.masses)
        velocities = rng.normal(size=(self.n_atoms, self.dim)) * sigma[:, None]
        com_velocity = np.average(velocities, axis=0, weights=self.masses)
        velocities -= com_velocity
        return velocities

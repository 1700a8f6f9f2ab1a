"""Force-field terms for the MD engine.

Every force implements the :class:`~repro.md.forcefield.base.Force`
protocol: ``energy_forces(positions, need_energy=True) -> (energy,
forces)`` with positions of shape ``(n_atoms, dim)`` and forces of the
same shape, in kJ/mol and kJ/mol/nm, and its batched twin
``compute_batch``.  All terms are fully vectorised —
pair/triple/quad indices are precomputed once and the hot path is pure
numpy fancy indexing plus ``np.add.at`` scatter-adds, the "SIMD kernel"
level of the paper's parallelism hierarchy.
"""

from repro.md.forcefield.base import Force, composite_energy_forces
from repro.md.forcefield.bonded import (
    HarmonicBondForce,
    HarmonicAngleForce,
    PeriodicDihedralForce,
)
from repro.md.forcefield.nonbonded import (
    LennardJonesForce,
    ReactionFieldElectrostatics,
    ExcludedVolumeForce,
)
from repro.md.forcefield.go_model import GoContactForce

__all__ = [
    "Force",
    "composite_energy_forces",
    "HarmonicBondForce",
    "HarmonicAngleForce",
    "PeriodicDihedralForce",
    "LennardJonesForce",
    "ReactionFieldElectrostatics",
    "ExcludedVolumeForce",
    "GoContactForce",
]

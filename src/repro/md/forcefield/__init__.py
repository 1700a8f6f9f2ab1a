"""Force-field terms for the MD engine.

Every force implements the :class:`~repro.md.forcefield.base.Force`
protocol: ``compute_batch(planes, replica_ids=None, need_energy=True)
-> (energies, force planes)`` over a stack of replicas, in kJ/mol and
kJ/mol/nm; one configuration is a stack of one
(:func:`~repro.md.forcefield.base.composite_energy_forces`).  All terms
are fully vectorised — pair/triple/quad indices are precomputed once
and the hot path is pure numpy gathers plus precomputed scatter-adds,
the "SIMD kernel" level of the paper's parallelism hierarchy.
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

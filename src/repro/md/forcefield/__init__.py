"""Force-field terms for the MD engine.

Every term implements the :class:`~repro.md.forcefield.base.Force`
protocol over a stack of replicas (kJ/mol, kJ/mol/nm); index lists are
precomputed once and a :class:`~repro.md.forcefield.base.StepPlan` runs
them as pure numpy gathers, arithmetic and precomputed scatter-adds —
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

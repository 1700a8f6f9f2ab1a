"""Molecular-dynamics engine substrate (the Gromacs substitute).

A compact, vectorised-numpy MD engine providing everything the
Copernicus layer needs from its simulation executable: force fields
(bonded terms, Lennard-Jones + reaction-field nonbonded with cell-list
neighbour search, Gō-type native-contact potentials), integrators
(velocity Verlet, Langevin BAOAB, Nosé–Hoover), trajectory storage and
binary checkpoint/restart, plus model builders for the coarse-grained
villin headpiece used throughout the reproduction.

There is one MD path, in float64: every force term is a kernel over a
stack of R replicas (``compute_batch``) and every integrator advances a
stack (:mod:`repro.md.batched`).  A coalesced ``mdrun_batch`` command
is such a stack, a list of :class:`MDTask` run by
:meth:`MDEngine.run_batched`; a lone command, a :class:`Simulation` and
an energy evaluation (``System.energy_forces``) are a stack of one.

Units are Gromacs-flavoured: nm, ps, kJ/mol, amu, kelvin.
"""

from repro.md.system import System, State, Topology
from repro.md.integrators import (
    VelocityVerletIntegrator,
    LangevinIntegrator,
    NoseHooverIntegrator,
)
from repro.md.simulation import Simulation, Checkpoint
from repro.md.trajectory import Trajectory
from repro.md.engine import MDEngine, MDTask, MDResult

__all__ = [
    "System",
    "State",
    "Topology",
    "VelocityVerletIntegrator",
    "LangevinIntegrator",
    "NoseHooverIntegrator",
    "Simulation",
    "Checkpoint",
    "Trajectory",
    "MDEngine",
    "MDTask",
    "MDResult",
]

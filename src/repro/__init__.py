"""Copernicus reproduction: parallel adaptive molecular dynamics.

This package is a from-scratch reproduction of

    Pronk et al., "Copernicus: a new paradigm for parallel adaptive
    molecular dynamics", SC 2011.

It contains the Copernicus framework itself (an overlay network of
servers distributing massively parallel simulation *commands* to
workers, driven by plugin *controllers*), every substrate the paper
depends on (a molecular-dynamics engine standing in for Gromacs, a
Markov-state-model library, a Bennett-acceptance-ratio free-energy
estimator) and a calibrated performance model that regenerates the
paper's scaling figures.

Subpackages
-----------
``repro.util``
    Units, seeded RNG streams, serialization, errors.
``repro.md``
    Molecular-dynamics engine: force fields, integrators, models.
``repro.analysis``
    RMSD/Kabsch alignment, statistics, folding observables.
``repro.msm``
    Markov state models: clustering, estimation, validation,
    adaptive-sampling weights.
``repro.net``
    Simulated authenticated overlay network.
``repro.server`` / ``repro.worker``
    Copernicus servers (queues, matching, heartbeats) and workers
    (platforms, executables).
``repro.core``
    The controller framework and the MSM / free-energy plugins.
``repro.fep``
    Bennett acceptance ratio free-energy estimation.
``repro.perfmodel``
    Strong-scaling performance model and the controller's scheduling
    simulated as greedy list scheduling on a heap of finish times.
"""

from repro.version import __version__

__all__ = ["__version__"]

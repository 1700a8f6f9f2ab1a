"""Markov state modelling: clustering, estimation, analysis, adaptive sampling.

This subpackage is the reproduction's stand-in for the MSMBuilder-style
tooling the paper's MSM plugin used: kinetic clustering of trajectory
frames into microstates, transition counting at a lag time, maximum-
likelihood (optionally reversible) transition-matrix estimation,
spectral analysis (stationary distribution, implied timescales,
propagation ``p(t+tau) = p(t) T(tau)``), Markovianity validation and
the adaptive-sampling weight schemes that drive trajectory spawning.
"""

from repro.msm.metrics import EuclideanMetric, RMSDMetric
from repro.msm.cluster import KCentersClustering, ClusterResult
from repro.msm.counts import count_transitions, count_matrix_multi
from repro.msm.estimation import (
    estimate_transition_matrix,
    reversible_transition_matrix,
)
from repro.msm.analysis import (
    stationary_distribution,
    implied_timescales,
    eigenvalues,
    propagate,
    population_evolution,
)
from repro.msm.connectivity import largest_connected_set, trim_counts
from repro.msm.adaptive import (
    even_weights,
    mincounts_weights,
    uncertainty_weights,
    allocate_starts,
)
from repro.msm.validation import (
    implied_timescale_scan,
    chapman_kolmogorov,
)
from repro.msm.model import MarkovStateModel
from repro.msm.lumping import (
    lump_states,
    coarse_grain,
    metastability,
    spectral_embedding,
)
from repro.msm.tpt import (
    forward_committor,
    backward_committor,
    reactive_flux,
    total_flux,
    rate,
    dominant_pathways,
)

__all__ = [
    "EuclideanMetric",
    "RMSDMetric",
    "KCentersClustering",
    "ClusterResult",
    "count_transitions",
    "count_matrix_multi",
    "estimate_transition_matrix",
    "reversible_transition_matrix",
    "stationary_distribution",
    "implied_timescales",
    "eigenvalues",
    "propagate",
    "population_evolution",
    "largest_connected_set",
    "trim_counts",
    "even_weights",
    "mincounts_weights",
    "uncertainty_weights",
    "allocate_starts",
    "implied_timescale_scan",
    "chapman_kolmogorov",
    "MarkovStateModel",
    "forward_committor",
    "backward_committor",
    "reactive_flux",
    "total_flux",
    "rate",
    "dominant_pathways",
    "lump_states",
    "coarse_grain",
    "metastability",
    "spectral_embedding",
]

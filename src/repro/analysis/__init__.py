"""Trajectory analysis: alignment, RMSD, statistics, folding observables."""

from repro.analysis.rmsd import kabsch_align, rmsd, rmsd_to_reference
from repro.analysis.stats import ensemble_mean_sd
from repro.analysis.folding import half_time

__all__ = [
    "kabsch_align",
    "rmsd",
    "rmsd_to_reference",
    "ensemble_mean_sd",
    "half_time",
]

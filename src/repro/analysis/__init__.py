"""Trajectory analysis: alignment, RMSD, statistics, folding observables."""

from repro.analysis.rmsd import kabsch_align, rmsd, rmsd_to_reference
from repro.analysis.stats import standard_error, ensemble_mean_sd
from repro.analysis.folding import fraction_folded, half_time

__all__ = [
    "kabsch_align",
    "rmsd",
    "rmsd_to_reference",
    "standard_error",
    "ensemble_mean_sd",
    "fraction_folded",
    "half_time",
]

"""Statistical helpers: standard errors and ensemble curves."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.util.errors import ConfigurationError


def ensemble_mean_sd(
    curves: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation across an ensemble of aligned curves.

    *curves* is ``(n_members, n_points)``; returns ``(mean, sd)`` each
    of shape ``(n_points,)``.  This is how Fig. 5's ensemble-average
    RMSD with one-standard-deviation error bars is assembled.
    """
    curves = np.asarray(curves, dtype=float)
    if curves.ndim != 2 or curves.shape[0] < 2:
        raise ConfigurationError(
            f"curves must be (n_members >= 2, n_points), got {curves.shape}"
        )
    return curves.mean(axis=0), curves.std(axis=0, ddof=1)

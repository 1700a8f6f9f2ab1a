"""Folding observables: folded fraction and half times.

The paper's kinetic claims (Fig. 4) rest on two observables: the
fraction of the ensemble within an RMSD threshold of native (3.5 A for
all-atom villin) and the half-time of its rise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.util.errors import ConfigurationError


def half_time(
    curve: np.ndarray, times: np.ndarray, plateau: Optional[float] = None
) -> Optional[float]:
    """Time at which a rising curve first reaches half its plateau.

    Parameters
    ----------
    curve:
        Monotone-ish rising observable (e.g. folded population).
    times:
        Matching time axis.
    plateau:
        Asymptotic value; defaults to the curve's final value.

    Returns
    -------
    Linear-interpolated crossing time, or ``None`` if never reached.
    """
    curve = np.asarray(curve, dtype=float)
    times = np.asarray(times, dtype=float)
    if curve.shape != times.shape or curve.size < 2:
        raise ConfigurationError("curve and times must align (length >= 2)")
    target = 0.5 * (plateau if plateau is not None else curve[-1])
    above = curve >= target
    idx = np.flatnonzero(above)
    if len(idx) == 0:
        return None
    k = idx[0]
    if k == 0:
        return float(times[0])
    # linear interpolation between the bracketing samples
    frac = (target - curve[k - 1]) / max(curve[k] - curve[k - 1], 1e-300)
    return float(times[k - 1] + frac * (times[k] - times[k - 1]))

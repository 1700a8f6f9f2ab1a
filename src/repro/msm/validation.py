"""MSM validation: implied-timescale scans and Chapman-Kolmogorov tests.

The paper validates its villin model with a lag-time sensitivity
analysis ("the system became Markovian for lag times of 20 ns or
greater"); these are the tools that produce that statement.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.msm.analysis import implied_timescales, propagate
from repro.msm.connectivity import trim_counts
from repro.msm.counts import count_matrix_multi
from repro.msm.estimation import estimate_transition_matrix
from repro.util.errors import EstimationError


def implied_timescale_scan(
    dtrajs: Sequence[np.ndarray],
    n_states: int,
    lags: Sequence[int],
    frame_time: float = 1.0,
    k: int = 3,
) -> Dict[int, np.ndarray]:
    """Implied timescales as a function of lag time.

    Returns ``{lag: timescales}``; the model is Markovian at the first
    lag where the timescales plateau.  Timescales are reported in
    physical units (``lag * frame_time``).
    """
    if not lags:
        raise EstimationError("no lags supplied")
    out: Dict[int, np.ndarray] = {}
    for lag in lags:
        counts = count_matrix_multi(dtrajs, n_states, lag)
        trimmed, _ = trim_counts(counts)
        T = estimate_transition_matrix(trimmed)
        out[int(lag)] = implied_timescales(T, lag * frame_time, k=k)
    return out


def markovian_lag(
    scan: Dict[int, np.ndarray], tolerance: float = 0.25
) -> int:
    """Smallest lag whose slowest timescale is within *tolerance* of the
    next lag's — the plateau criterion.

    Returns the largest scanned lag if no plateau is detected.
    """
    lags = sorted(scan)
    if len(lags) < 2:
        raise EstimationError("need at least two lags to detect a plateau")
    for a, b in zip(lags[:-1], lags[1:]):
        t_a, t_b = scan[a][0], scan[b][0]
        if not (np.isfinite(t_a) and np.isfinite(t_b)) or t_a <= 0:
            continue
        if abs(t_b - t_a) / t_a <= tolerance:
            return a
    return lags[-1]


def chapman_kolmogorov(
    dtrajs: Sequence[np.ndarray],
    n_states: int,
    lag: int,
    factors: Sequence[int] = (2, 3, 4),
) -> Dict[int, float]:
    """Chapman–Kolmogorov test: compare ``T(lag)^k`` with ``T(k * lag)``.

    Returns ``{k: max_abs_difference}`` over the states shared by both
    estimations.  Small values mean the lag-``lag`` model propagates
    correctly to longer times — the definition of Markovianity.
    """
    if lag < 1:
        raise EstimationError(f"lag must be >= 1, got {lag}")
    counts = count_matrix_multi(dtrajs, n_states, lag)
    trimmed, kept = trim_counts(counts)
    T = estimate_transition_matrix(trimmed)
    result: Dict[int, float] = {}
    for k in factors:
        if k < 2:
            raise EstimationError("CK factors must be >= 2")
        counts_k = count_matrix_multi(dtrajs, n_states, lag * k)
        direct_full = estimate_transition_matrix(counts_k)
        direct = direct_full[np.ix_(kept, kept)]
        # re-normalise rows restricted to the kept set
        row = direct.sum(axis=1)
        good = row > 0
        direct[good] = direct[good] / row[good, None]
        powered = np.linalg.matrix_power(T, k)
        result[int(k)] = float(np.abs(powered[good] - direct[good]).max())
    return result

"""Transition counting from discrete trajectories."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.util.errors import ConfigurationError, EstimationError


def count_transitions(
    dtraj: np.ndarray, n_states: int, lag: int, sliding: bool = True
) -> np.ndarray:
    """Count matrix of one discrete trajectory at lag *lag*.

    Parameters
    ----------
    dtraj:
        Integer state sequence.
    n_states:
        Matrix dimension (states never visited get zero rows).
    lag:
        Lag time in frames.
    sliding:
        Sliding window (every pair ``(t, t+lag)``) versus disjoint
        sampling (pairs ``(k*lag, (k+1)*lag)``).  Sliding uses all the
        data; disjoint gives independent counts.

    Returns
    -------
    ``(n_states, n_states)`` integer count matrix ``C[i, j]``.
    """
    dtraj = np.asarray(dtraj, dtype=int)
    if lag < 1:
        raise ConfigurationError(f"lag must be >= 1, got {lag}")
    if n_states < 1:
        raise ConfigurationError(f"n_states must be >= 1, got {n_states}")
    if dtraj.size and (dtraj.min() < 0 or dtraj.max() >= n_states):
        raise ConfigurationError("dtraj contains states out of range")
    counts = np.zeros((n_states, n_states), dtype=np.int64)
    if len(dtraj) <= lag:
        return counts
    if sliding:
        src = dtraj[:-lag]
        dst = dtraj[lag:]
    else:
        strided = dtraj[::lag]
        src = strided[:-1]
        dst = strided[1:]
    np.add.at(counts, (src, dst), 1)
    return counts


def count_matrix_multi(
    dtrajs: Iterable[np.ndarray],
    n_states: int,
    lag: int,
    sliding: bool = True,
) -> np.ndarray:
    """Summed count matrix over several trajectories.

    Counting never crosses trajectory boundaries — exactly the property
    that lets an MSM stitch together hundreds of short independent
    simulations (the heart of the paper's approach).
    """
    total = np.zeros((n_states, n_states), dtype=np.int64)
    any_data = False
    for dtraj in dtrajs:
        any_data = True
        total += count_transitions(dtraj, n_states, lag, sliding=sliding)
    if not any_data:
        raise EstimationError("no trajectories supplied")
    return total

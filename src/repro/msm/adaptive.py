"""Adaptive-sampling weight schemes for spawning new trajectories.

The Copernicus MSM controller chooses, at every clustering step, how
many new trajectories to start from each microstate (paper section
3.2).  Two regimes:

* **even weighting** — uniform over discovered states; right when the
  state partitioning itself is still unstable (early generations);
* **adaptive weighting** — proportional to the statistical uncertainty
  of each state's outgoing transition probabilities; optimises
  convergence of the kinetics once states are stable, and "can boost
  sampling efficiency twofold compared to even weighting".

The uncertainty weight uses the Dirichlet posterior of each row: a row
observed ``n_i`` times has total transition-probability variance
``sum_j p_ij (1 - p_ij) / (n_i + K + 1)`` under a uniform prior with
``K`` states — the `mincounts` variant keeps only the ``1/n`` scaling,
the classic "explore least-visited states" heuristic.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ConfigurationError, EstimationError
from repro.util.rng import RandomStream, ensure_stream


def _check_counts(counts: np.ndarray) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise EstimationError(f"count matrix must be square, got {counts.shape}")
    return counts


def even_weights(counts: np.ndarray) -> np.ndarray:
    """Uniform weights over discovered (visited) states."""
    counts = _check_counts(counts)
    visited = (counts.sum(axis=1) + counts.sum(axis=0)) > 0
    if not visited.any():
        raise EstimationError("no visited states")
    w = visited.astype(float)
    return w / w.sum()


def mincounts_weights(counts: np.ndarray) -> np.ndarray:
    """Weights inversely proportional to visit counts (exploration)."""
    return weighted_counts_weights(counts, n=1.0)


def weighted_counts_weights(counts: np.ndarray, n: float = 1.0) -> np.ndarray:
    """Weights proportional to ``(1 + visits)^(-n)`` over visited states.

    MAccelerator's weighted-counts family: the exponent *n* trades
    exploration against refinement — ``n = 0`` reproduces even
    weighting over visited states, ``n = 1`` is the classic min-counts
    heuristic, and larger *n* concentrates spawns ever harder on the
    least-visited states (the ratio of a rare state's weight to a
    popular state's grows monotonically with *n*).
    """
    counts = _check_counts(counts)
    if n < 0:
        raise ConfigurationError(f"exponent n must be >= 0, got {n}")
    visits = counts.sum(axis=1) + counts.sum(axis=0)
    visited = visits > 0
    if not visited.any():
        raise EstimationError("no visited states")
    with np.errstate(over="ignore"):
        w = np.where(visited, (1.0 + visits) ** (-float(n)), 0.0)
    return w / w.sum()


def uncertainty_weights(counts: np.ndarray, prior: float = 1.0) -> np.ndarray:
    """Weights from the Dirichlet posterior variance of each row.

    ``w_i proportional to sum_j p_ij (1 - p_ij) / (n_i + prior + 1)``
    with posterior means ``p_ij = (c_ij + prior/K) / (n_i + prior)``.
    States with no outgoing counts get the largest weight, so newly
    discovered states are sampled first — which is what makes the
    scheme *adaptive* rather than merely refining: such a row is the
    bare prior (``p_ij = 1/K``, the largest ``sum_j p_ij (1 - p_ij)``)
    over the smallest denominator.  With ``K >= 2`` and ``prior > 0``
    every ``p_ij`` lies strictly inside (0, 1), so every visited row
    has positive weight; a single state is certain and gets weight 1.
    """
    if prior <= 0:
        raise ConfigurationError(f"prior must be positive, got {prior}")
    counts = _check_counts(counts)
    n_states = counts.shape[0]
    visited = (counts.sum(axis=1) + counts.sum(axis=0)) > 0
    if not visited.any():
        raise EstimationError("no visited states")
    if n_states == 1:
        return np.ones(1)
    row_totals = counts.sum(axis=1)
    alpha = counts + prior / n_states
    alpha_total = row_totals + prior
    p = alpha / alpha_total[:, None]
    variance = (p * (1.0 - p)).sum(axis=1) / (alpha_total + 1.0)
    w = np.where(visited, variance, 0.0)
    return w / w.sum()


#: Spawning schemes by name: each maps a transition count matrix (plus
#: its own keyword arguments) to normalised weights over visited states.
WEIGHTINGS = {
    "uniform": even_weights,
    "min-counts": mincounts_weights,
    "weighted-counts": weighted_counts_weights,
    "uncertainty": uncertainty_weights,
}


def check_weighting(name: str, params: dict | None = None) -> str:
    """Return *name* if it names a scheme in :data:`WEIGHTINGS`.

    With *params*, also evaluate the scheme once on a tiny count matrix
    so an out-of-range parameter (``n < 0``, ``prior <= 0``) raises now,
    at configuration time, rather than at the first generation boundary.

    Raises
    ------
    ConfigurationError
        If *name* is not a scheme (the message lists the known names) or
        a parameter is out of range.
    """
    if not isinstance(name, str) or name not in WEIGHTINGS:
        raise ConfigurationError(
            f"unknown weighting scheme {name!r}; known schemes: "
            f"{sorted(WEIGHTINGS)}"
        )
    if params is not None:
        WEIGHTINGS[name](np.ones((2, 2)), **params)
    return name


def allocate_starts(
    weights: np.ndarray,
    n_trajectories: int,
    rng: int | RandomStream | None = 0,
) -> np.ndarray:
    """Turn state weights into integer trajectory counts per state.

    Uses largest-remainder apportionment with random tie-breaking, so
    the allocation is exact (sums to ``n_trajectories``), proportional
    and reproducible.  Weights must have a positive sum: an all-zero
    vector has no proportional apportionment and is rejected.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or len(weights) == 0:
        raise ConfigurationError("weights must be a non-empty 1-D array")
    if np.any(~np.isfinite(weights)) or np.any(weights < 0):
        raise ConfigurationError("weights must be finite and non-negative")
    if n_trajectories < 0:
        raise ConfigurationError("n_trajectories must be >= 0")
    total = weights.sum()
    if total <= 0:
        raise ConfigurationError("weights must not all be zero")
    stream = ensure_stream(rng)
    quota = weights / total * n_trajectories
    base = np.floor(quota).astype(int)
    remaining = n_trajectories - int(base.sum())
    if remaining > 0:
        remainders = quota - base
        # random jitter breaks exact ties reproducibly
        order = np.argsort(-(remainders + 1e-12 * stream.uniform(size=len(weights))))
        base[order[:remaining]] += 1
    return base

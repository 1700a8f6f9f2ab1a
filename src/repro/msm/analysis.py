"""Spectral analysis of transition matrices.

Implements the quantities the paper reads off its villin MSM:
equilibrium (stationary) populations for blind native-state prediction,
implied timescales for the Markovian-lag-time check, and the population
propagation ``p(t + tau) = p(t) T(tau)`` behind Fig. 4.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.util.errors import EstimationError


def _check_T(T: np.ndarray) -> np.ndarray:
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise EstimationError(f"transition matrix must be square, got {T.shape}")
    if not np.allclose(T.sum(axis=1), 1.0, atol=1e-6):
        raise EstimationError("rows of the transition matrix must sum to 1")
    return T


def stationary_distribution(T: np.ndarray) -> np.ndarray:
    """Stationary distribution: the left eigenvector with eigenvalue 1.

    The paper predicts the native state blind as "the largest-population
    cluster at equilibrium" — i.e. ``argmax`` of this vector.
    """
    T = _check_T(T)
    vals, vecs = np.linalg.eig(T.T)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    if abs(vals[idx] - 1.0) > 1e-6:
        raise EstimationError("no eigenvalue 1 found; matrix is not stochastic")
    pi = np.real(vecs[:, idx])
    # Fix sign and normalise; clip tiny negative numerical noise.
    if pi.sum() < 0:
        pi = -pi
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise EstimationError("degenerate stationary vector")
    return pi / total


def eigenvalues(T: np.ndarray, k: Optional[int] = None) -> np.ndarray:
    """Eigenvalues sorted by decreasing magnitude (optionally top *k*)."""
    T = _check_T(T)
    vals = np.linalg.eigvals(T)
    order = np.argsort(-np.abs(vals))
    vals = vals[order]
    return vals[:k] if k is not None else vals


def implied_timescales(
    T: np.ndarray, lag_time: float, k: int = 5
) -> np.ndarray:
    """Implied timescales ``t_i = -lag / ln |lambda_i|`` (excluding lambda_1=1).

    Returned in the same unit as *lag_time*.  Non-positive or complex
    eigenvalues yield ``nan`` entries (they indicate a too-short lag).
    """
    if lag_time <= 0:
        raise EstimationError(f"lag_time must be positive, got {lag_time}")
    vals = eigenvalues(T, k=k + 1)[1:]
    mags = np.abs(vals)
    out = np.full(len(vals), np.nan)
    good = (mags > 1e-12) & (mags < 1.0 - 1e-12)
    out[good] = -lag_time / np.log(mags[good])
    return out


def propagate(p0: np.ndarray, T: np.ndarray, n_steps: int) -> np.ndarray:
    """Evolve a distribution: returns ``(n_steps + 1, n_states)``.

    Row ``k`` is ``p0 T^k`` — equation (1) of the paper.
    """
    T = _check_T(T)
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (T.shape[0],):
        raise EstimationError(
            f"p0 shape {p0.shape} does not match T {T.shape}"
        )
    if not np.isclose(p0.sum(), 1.0, atol=1e-8):
        raise EstimationError("p0 must be a probability distribution")
    if n_steps < 0:
        raise EstimationError("n_steps must be >= 0")
    out = np.empty((n_steps + 1, T.shape[0]))
    out[0] = p0
    for k in range(1, n_steps + 1):
        out[k] = out[k - 1] @ T
    return out


def population_evolution(
    p0: np.ndarray,
    T: np.ndarray,
    n_steps: int,
    lag_time: float,
    member_mask: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Time axis plus (masked) population curve.

    Parameters
    ----------
    member_mask:
        Boolean mask of states whose populations are summed (e.g. the
        folded states); ``None`` returns all state populations.

    Returns
    -------
    ``(times, curve)`` where times has length ``n_steps + 1``.
    """
    traj = propagate(p0, T, n_steps)
    times = np.arange(n_steps + 1) * float(lag_time)
    if member_mask is None:
        return times, traj
    member_mask = np.asarray(member_mask, dtype=bool)
    if member_mask.shape != (T.shape[0],):
        raise EstimationError("member_mask shape mismatch")
    return times, traj[:, member_mask].sum(axis=1)

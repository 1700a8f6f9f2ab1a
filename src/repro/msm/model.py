"""High-level MarkovStateModel: one object tying the MSM pipeline together."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.msm.analysis import (
    implied_timescales,
    population_evolution,
    propagate,
    stationary_distribution,
)
from repro.msm.connectivity import trim_counts
from repro.msm.counts import count_matrix_multi
from repro.msm.estimation import (
    estimate_transition_matrix,
    reversible_transition_matrix,
)
from repro.util.errors import EstimationError


class MarkovStateModel:
    """An estimated MSM over a microstate partitioning.

    Parameters
    ----------
    lag:
        Lag time in frames.
    frame_time:
        Physical time per frame (any unit; timescales inherit it).
    reversible:
        Estimate under detailed balance (maximum-likelihood reversible).
    prior:
        Pseudocount for the non-reversible estimator.

    Example
    -------
    >>> import numpy as np
    >>> from repro.msm import MarkovStateModel
    >>> dtrajs = [np.array([0, 0, 1, 1, 0, 0, 1, 1, 0])]
    >>> msm = MarkovStateModel(lag=1).fit(dtrajs, n_states=2)
    >>> msm.transition_matrix.shape
    (2, 2)
    """

    def __init__(
        self,
        lag: int = 1,
        frame_time: float = 1.0,
        reversible: bool = False,
        prior: float = 0.0,
    ) -> None:
        if lag < 1:
            raise EstimationError(f"lag must be >= 1, got {lag}")
        if frame_time <= 0:
            raise EstimationError("frame_time must be positive")
        self.lag = int(lag)
        self.frame_time = float(frame_time)
        self.reversible = bool(reversible)
        self.prior = float(prior)
        self._T: Optional[np.ndarray] = None
        self._counts: Optional[np.ndarray] = None
        self._kept: Optional[np.ndarray] = None
        self._n_states_full: Optional[int] = None

    # -- fitting ------------------------------------------------------------

    def fit(
        self, dtrajs: Sequence[np.ndarray], n_states: Optional[int] = None
    ) -> "MarkovStateModel":
        """Estimate the MSM from discrete trajectories.

        Counting is restricted to the largest strongly connected set;
        :attr:`active_set` maps model states back to input states.
        """
        dtrajs = [np.asarray(d, dtype=int) for d in dtrajs]
        if n_states is None:
            n_states = 1 + max((int(d.max()) for d in dtrajs if d.size), default=0)
        raw = count_matrix_multi(dtrajs, n_states, self.lag)
        trimmed, kept = trim_counts(raw)
        if self.reversible:
            self._T = reversible_transition_matrix(trimmed)
        else:
            self._T = estimate_transition_matrix(trimmed, prior=self.prior)
        self._counts = trimmed
        self._kept = kept
        self._n_states_full = n_states
        return self

    def _require_fit(self) -> None:
        if self._T is None:
            raise EstimationError("model has not been fitted")

    # -- properties -----------------------------------------------------------

    @property
    def transition_matrix(self) -> np.ndarray:
        """The estimated transition matrix on the active set."""
        self._require_fit()
        return self._T

    @property
    def active_set(self) -> np.ndarray:
        """Original state indices retained after ergodic trimming."""
        self._require_fit()
        return self._kept

    @property
    def n_states(self) -> int:
        """Number of active states."""
        self._require_fit()
        return self._T.shape[0]

    @property
    def lag_time(self) -> float:
        """Lag in physical units."""
        return self.lag * self.frame_time

    # -- analysis ------------------------------------------------------------

    def stationary_distribution(self) -> np.ndarray:
        """Equilibrium populations over the active set."""
        self._require_fit()
        return stationary_distribution(self._T)

    def equilibrium_state(self) -> int:
        """The active-set index of the most populated equilibrium state.

        This is the paper's blind native-state prediction: "the lowest
        free energy conformation can be predicted from the largest-
        population cluster at equilibrium".
        """
        return int(np.argmax(self.stationary_distribution()))

    def timescales(self, k: int = 5) -> np.ndarray:
        """Implied timescales in physical units."""
        self._require_fit()
        return implied_timescales(self._T, self.lag_time, k=k)

    def propagate(self, p0: np.ndarray, n_steps: int) -> np.ndarray:
        """Evolve a distribution over the active set."""
        self._require_fit()
        return propagate(p0, self._T, n_steps)

    def population_curve(self, p0, n_steps: int, member_mask):
        """Times and summed population of a state subset."""
        self._require_fit()
        return population_evolution(
            p0, self._T, n_steps, self.lag_time, member_mask
        )

    def map_to_active(self, states: np.ndarray) -> np.ndarray:
        """Map original state indices to active-set indices (-1 if trimmed)."""
        self._require_fit()
        mapping = np.full(self._n_states_full, -1, dtype=int)
        mapping[self._kept] = np.arange(len(self._kept))
        return mapping[np.asarray(states, dtype=int)]

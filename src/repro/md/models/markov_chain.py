"""Exact-ground-truth toy systems: discrete Markov chains as MD models.

The adaptive-strategy laboratory needs systems whose kinetics are
*known exactly*, so a model built from sampled trajectories can be
scored against truth instead of against another estimate.  A
:class:`MarkovChainSpec` is that truth: an explicit row-stochastic
transition matrix over ``K`` discrete states, each state embedded at a
distinct point in 1-D/2-D space.  Wrapping the spec in a
:class:`MarkovChainSystem` (one massless-dynamics "particle" whose
position is the current state's embedding) lets the *unchanged*
engine/worker/controller stack run the chain: the ``markov-chain``
integrator jumps the particle between embedding points by drawing from
the known matrix, and every downstream consumer (clustering, counting,
checkpointing) sees an ordinary trajectory of coordinates.

Two chains ship as registered models:

``markov-ala20``
    A 20-state, 1-D Metropolis chain on a periodic-cosine energy
    profile with four metastable basins — an alanine-like torsion
    landscape with near-zero compute per step.
``markov-mb``
    A Metropolis chain over the low-energy cells of a discretized
    Müller–Brown surface (largest connected component of an
    ``n_bins x n_bins`` grid), embedded at the 2-D cell centres.

Both are exactly reversible (symmetric uniform proposals over a
neighbour graph, Metropolis acceptance), so the stationary
distribution is ``exp(-beta * E)`` up to normalisation and every
eigenvalue/timescale is computable from the spec.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.md.models.muller_brown import MINIMA, MullerBrownForce
from repro.md.system import State, System
from repro.util.errors import ConfigurationError

__all__ = [
    "MarkovChainSpec",
    "MarkovChainSystem",
    "metropolis_transition_matrix",
    "alanine_chain_spec",
    "muller_brown_chain_spec",
    "build_markov_chain",
    "MARKOV_CHAIN_MODELS",
]


@dataclass
class MarkovChainSpec:
    """The exact truth: a transition matrix plus a state embedding.

    Attributes
    ----------
    transition_matrix:
        ``(K, K)`` row-stochastic matrix; one application = one
        integrator step.
    embedding:
        ``(K, dim)`` distinct coordinates, one row per state; the
        particle's position *is* the embedding of its current state.
    energies:
        Per-state energies the chain was built from (reporting only).
    default_start:
        State index used when a task gives no initial positions.
    name:
        Registered model name (reporting only).
    """

    transition_matrix: np.ndarray
    embedding: np.ndarray
    energies: np.ndarray = field(default_factory=lambda: np.zeros(0))
    default_start: int = 0
    name: str = "markov-chain"

    def __post_init__(self) -> None:
        self.transition_matrix = np.asarray(self.transition_matrix, dtype=float)
        self.embedding = np.asarray(self.embedding, dtype=float)
        if self.embedding.ndim == 1:
            self.embedding = self.embedding[:, None]
        T = self.transition_matrix
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise ConfigurationError(
                f"transition matrix must be square, got {T.shape}"
            )
        if np.any(T < 0) or not np.allclose(T.sum(axis=1), 1.0):
            raise ConfigurationError("transition matrix must be row-stochastic")
        if self.embedding.shape[0] != T.shape[0]:
            raise ConfigurationError(
                f"embedding has {self.embedding.shape[0]} states but the "
                f"matrix has {T.shape[0]}"
            )
        if self.embedding.shape[1] not in (1, 2, 3):
            raise ConfigurationError("embedding dim must be 1, 2 or 3")
        if len(np.unique(self.embedding, axis=0)) != T.shape[0]:
            raise ConfigurationError("embedding points must be distinct")
        if not 0 <= self.default_start < T.shape[0]:
            raise ConfigurationError(
                f"default_start {self.default_start} out of range"
            )
        self.energies = np.asarray(self.energies, dtype=float)
        # cumulative rows make each step one bisection, and pinning the
        # last column kills float round-off at u ~ 1; kept as lists of
        # Python floats because a step looks up one number in one row,
        # where bisect is several times faster than a numpy call
        cumulative = np.cumsum(T, axis=1)
        cumulative[:, -1] = 1.0
        self._cumulative = cumulative.tolist()

    @property
    def n_states(self) -> int:
        """Number of discrete states."""
        return self.transition_matrix.shape[0]

    @property
    def dim(self) -> int:
        """Embedding dimensionality."""
        return self.embedding.shape[1]

    def sample_next(self, state: int, u: float) -> int:
        """Next state from uniform draw *u* in [0, 1) (inverse CDF):
        the number of cumulative entries of row *state* that are <= u."""
        return bisect_right(self._cumulative[state], u)

    def position_of(self, state: int) -> np.ndarray:
        """Embedding coordinates of *state*, shaped ``(1, dim)``."""
        return self.embedding[int(state)][None, :].copy()

    def positions_of(self, states: Sequence[int]) -> np.ndarray:
        """Embedding coordinates of R *states*, shaped ``(R, 1, dim)``."""
        return self.embedding[states][:, None, :]

    def discretize(self, frames: np.ndarray) -> np.ndarray:
        """Map trajectory frames back to exact state indices.

        Accepts ``(n, dim)`` or the engine's ``(n, 1, dim)`` frame
        stacks; nearest-embedding assignment is exact here because the
        integrator only ever emits embedding points.
        """
        pts = np.asarray(frames, dtype=float).reshape(len(frames), -1)
        if pts.shape[1] != self.dim:
            raise ConfigurationError(
                f"frames have {pts.shape[1]} coordinates, expected {self.dim}"
            )
        d2 = ((pts[:, None, :] - self.embedding[None, :, :]) ** 2).sum(axis=2)
        return d2.argmin(axis=1)

    def state_of(self, positions: np.ndarray) -> int:
        """Exact state index of one particle position."""
        return int(self.discretize(np.asarray(positions).reshape(1, -1))[0])

    def stationary_distribution(self) -> np.ndarray:
        """Exact stationary distribution of the chain."""
        from repro.msm.analysis import stationary_distribution

        return stationary_distribution(self.transition_matrix)

    def frame_matrix(self, stride: int) -> np.ndarray:
        """Truth at frame resolution: ``T^stride``.

        Trajectories store one frame every ``report_interval`` steps,
        so models estimated from frames at lag ``L`` must be compared
        against ``T^(report_interval * L)`` — implied timescales are
        invariant under this power, transition probabilities are not.
        """
        if stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {stride}")
        return np.linalg.matrix_power(self.transition_matrix, int(stride))


class MarkovChainSystem(System):
    """A one-particle force-free system carrying a chain spec.

    The particle's position is the embedding of the chain's current
    state; the ``markov-chain`` integrator reads ``system.spec`` to
    advance it.  No forces are registered, so the generic force loop
    returns zeros and any thermostat bookkeeping stays harmless.
    """

    def __init__(self, spec: MarkovChainSpec, mass: float = 1.0) -> None:
        super().__init__(masses=[mass], dim=spec.dim)
        self.spec = spec


def metropolis_transition_matrix(
    energies: np.ndarray,
    neighbors: List[List[int]],
    beta: float = 1.0,
) -> np.ndarray:
    """Reversible Metropolis chain over a neighbour graph.

    Proposals are uniform over ``max_degree`` slots (symmetric, so
    detailed balance holds exactly); acceptance is the Metropolis rule
    ``min(1, exp(-beta * dE))``; rejected/unused proposal mass becomes
    a self-loop.  The stationary distribution is exactly
    ``exp(-beta * E) / Z``.
    """
    energies = np.asarray(energies, dtype=float)
    n = len(energies)
    if beta <= 0:
        raise ConfigurationError(f"beta must be positive, got {beta}")
    max_degree = max((len(nbrs) for nbrs in neighbors), default=0)
    if max_degree == 0:
        raise ConfigurationError("neighbour graph has no edges")
    T = np.zeros((n, n))
    for i, nbrs in enumerate(neighbors):
        for j in nbrs:
            accept = min(1.0, float(np.exp(-beta * (energies[j] - energies[i]))))
            T[i, j] = accept / max_degree
        T[i, i] = 1.0 - T[i].sum()
    return T


def alanine_chain_spec(
    n_states: int = 20,
    beta: float = 1.0,
    barrier: float = 6.5,
    tilt: float = 3.0,
) -> MarkovChainSpec:
    """The 20-state alanine-like 1-D chain.

    Energy profile ``E(t) = barrier * (1 - cos(6 pi t)) / 2 - tilt * t``
    over ``t in [0, 1]``: four metastable basins (t = 0, 1/3, 2/3, 1)
    separated by barriers of height ~*barrier* (in kT when beta = 1),
    tilted so each basin is *tilt*/3 deeper than the last.  States are
    embedded at ``x = 0..n_states-1``; proposals are +-1 with
    reflecting ends.  The default start is state 0 — the *shallowest*
    basin — so most of the stationary mass sits behind three barriers
    that must be discovered in sequence: the regime where
    frontier-weighted adaptive schemes compound their advantage over
    even respawning, generation after generation.
    """
    if n_states < 2:
        raise ConfigurationError(f"n_states must be >= 2, got {n_states}")
    t = np.arange(n_states) / (n_states - 1)
    energies = 0.5 * barrier * (1.0 - np.cos(6.0 * np.pi * t)) - tilt * t
    neighbors = [
        [j for j in (i - 1, i + 1) if 0 <= j < n_states]
        for i in range(n_states)
    ]
    T = metropolis_transition_matrix(energies, neighbors, beta=beta)
    return MarkovChainSpec(
        transition_matrix=T,
        embedding=np.arange(n_states, dtype=float)[:, None],
        energies=energies,
        default_start=0,
        name="markov-ala20",
    )


def _largest_component(n: int, neighbors: List[List[int]]) -> np.ndarray:
    """Indices of the largest connected component (deterministic BFS)."""
    seen = np.full(n, -1)
    component = 0
    for root in range(n):
        if seen[root] >= 0:
            continue
        queue = [root]
        seen[root] = component
        while queue:
            node = queue.pop()
            for nxt in neighbors[node]:
                if seen[nxt] < 0:
                    seen[nxt] = component
                    queue.append(nxt)
        component += 1
    sizes = np.bincount(seen)
    return np.flatnonzero(seen == sizes.argmax())


def muller_brown_chain_spec(
    n_bins: int = 8,
    beta: float = 0.4,
    scale: float = 0.05,
    energy_cutoff: float = 9.0,
) -> MarkovChainSpec:
    """Metropolis chain on a discretized Müller–Brown surface.

    The surface is binned into ``n_bins x n_bins`` cells over the
    canonical landscape window; cells within *energy_cutoff* (kJ/mol)
    of the global minimum are kept, the rest (the huge-energy walls)
    are dropped, and the chain lives on the largest connected
    component with 4-neighbour proposals.  Embedding = 2-D cell
    centres, so k-centers clustering recovers the cells exactly.  The
    default start is the cell nearest minimum B (lower right), leaving
    the A basin across the saddles to be discovered.
    """
    if n_bins < 2:
        raise ConfigurationError(f"n_bins must be >= 2, got {n_bins}")
    xs = np.linspace(-1.5, 1.1, n_bins)
    ys = np.linspace(-0.2, 2.0, n_bins)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    energies = MullerBrownForce(scale).energy_grid(gx, gy).ravel()
    keep = np.flatnonzero(energies <= energies.min() + energy_cutoff)
    index_of = {int(cell): k for k, cell in enumerate(keep)}
    neighbors: List[List[int]] = [[] for _ in keep]
    for k, cell in enumerate(keep):
        i, j = divmod(int(cell), n_bins)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < n_bins and 0 <= nj < n_bins:
                other = index_of.get(ni * n_bins + nj)
                if other is not None:
                    neighbors[k].append(other)
    component = _largest_component(len(keep), neighbors)
    relabel = {int(old): new for new, old in enumerate(component)}
    kept_cells = keep[component]
    kept_neighbors = [
        [relabel[j] for j in neighbors[int(old)] if int(j) in relabel]
        for old in component
    ]
    kept_energies = energies[kept_cells]
    embedding = np.stack(
        [gx.ravel()[kept_cells], gy.ravel()[kept_cells]], axis=1
    )
    T = metropolis_transition_matrix(kept_energies, kept_neighbors, beta=beta)
    start = int(((embedding - MINIMA[1][None, :]) ** 2).sum(axis=1).argmin())
    return MarkovChainSpec(
        transition_matrix=T,
        embedding=embedding,
        energies=kept_energies,
        default_start=start,
        name="markov-mb",
    )


#: Registered chain models: name -> spec factory.
MARKOV_CHAIN_MODELS: Dict[str, Callable[..., MarkovChainSpec]] = {
    "markov-ala20": alanine_chain_spec,
    "markov-mb": muller_brown_chain_spec,
}


def build_markov_chain(model: str, mass: float = 1.0, **spec_params) -> MarkovChainSystem:
    """Build the :class:`MarkovChainSystem` for a registered chain model."""
    try:
        factory = MARKOV_CHAIN_MODELS[model]
    except KeyError:
        raise ConfigurationError(
            f"unknown markov-chain model {model!r}; "
            f"known: {sorted(MARKOV_CHAIN_MODELS)}"
        ) from None
    return MarkovChainSystem(factory(**spec_params), mass=mass)


def markov_chain_initial_state(
    system: MarkovChainSystem,
    state_index: int | None = None,
) -> State:
    """A state sitting exactly on one embedding point (zero velocities)."""
    spec = system.spec
    index = spec.default_start if state_index is None else int(state_index)
    if not 0 <= index < spec.n_states:
        raise ConfigurationError(f"state_index {index} out of range")
    positions = spec.position_of(index)
    return State(positions, np.zeros_like(positions))

"""Kinetic clustering: k-centers.

The paper's MSM plugin clusters pooled trajectory snapshots into
microstates (10,000 clusters for villin).  K-centers is the standard
choice for that first pass: it is deterministic given a seed, runs in
``O(k n)`` metric evaluations and guarantees every frame lies within
the final cover radius of its centre.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.msm.metrics import EuclideanMetric
from repro.util.errors import ConfigurationError
from repro.util.rng import RandomStream, ensure_stream


@dataclass
class ClusterResult:
    """Output of a clustering pass.

    Attributes
    ----------
    assignments:
        ``(n_frames,)`` microstate index per frame.
    centers:
        Coordinates of each cluster centre (frames subset).
    center_indices:
        Frame index of each centre in the input array.
    distances:
        Distance of every frame to its assigned centre.
    """

    assignments: np.ndarray
    centers: np.ndarray
    center_indices: np.ndarray
    distances: np.ndarray

    @property
    def n_clusters(self) -> int:
        """Number of clusters."""
        return len(self.center_indices)

    @property
    def cover_radius(self) -> float:
        """Largest frame-to-centre distance."""
        return float(self.distances.max()) if len(self.distances) else 0.0

    def populations(self) -> np.ndarray:
        """Frame counts per cluster."""
        return np.bincount(self.assignments, minlength=self.n_clusters)

    def assign(self, frames: np.ndarray, metric=None) -> np.ndarray:
        """Assign new frames to the nearest existing centre."""
        metric = metric or EuclideanMetric()
        dist = np.full(len(frames), np.inf)
        labels = np.zeros(len(frames), dtype=int)
        for c, center in enumerate(self.centers):
            d = metric.to_target(frames, center)
            closer = d < dist
            dist[closer] = d[closer]
            labels[closer] = c
        return labels


class KCentersClustering:
    """Gonzalez k-centers: repeatedly promote the farthest frame to a centre.

    Parameters
    ----------
    n_clusters:
        Number of centres, or ``None`` to grow until ``radius_cutoff``.
    radius_cutoff:
        Stop when the cover radius falls below this value.
    metric:
        Distance metric (default Euclidean).
    seed:
        Picks the first centre; later centres are deterministic.
    """

    def __init__(
        self,
        n_clusters: Optional[int] = None,
        radius_cutoff: Optional[float] = None,
        metric=None,
        seed: int | RandomStream = 0,
    ) -> None:
        if n_clusters is None and radius_cutoff is None:
            raise ConfigurationError(
                "specify n_clusters and/or radius_cutoff"
            )
        if n_clusters is not None and n_clusters < 1:
            raise ConfigurationError(f"n_clusters must be >= 1, got {n_clusters}")
        if radius_cutoff is not None and radius_cutoff <= 0:
            raise ConfigurationError("radius_cutoff must be positive")
        self.n_clusters = n_clusters
        self.radius_cutoff = radius_cutoff
        self.metric = metric or EuclideanMetric()
        self.rng = ensure_stream(seed)

    def fit(self, frames: np.ndarray) -> ClusterResult:
        """Cluster *frames*; returns assignments, centres and distances."""
        frames = np.asarray(frames, dtype=float)
        n = len(frames)
        if n == 0:
            raise ConfigurationError("cannot cluster zero frames")
        max_k = min(self.n_clusters or n, n)

        center_indices = [int(self.rng.integers(0, n))]
        dist = self.metric.to_target(frames, frames[center_indices[0]])
        labels = np.zeros(n, dtype=int)

        while True:
            radius = float(dist.max())
            if self.radius_cutoff is not None and radius <= self.radius_cutoff:
                break
            if len(center_indices) >= max_k:
                break
            new_idx = int(np.argmax(dist))
            center_indices.append(new_idx)
            d_new = self.metric.to_target(frames, frames[new_idx])
            closer = d_new < dist
            dist[closer] = d_new[closer]
            labels[closer] = len(center_indices) - 1

        idx = np.asarray(center_indices)
        return ClusterResult(
            assignments=labels,
            centers=frames[idx],
            center_indices=idx,
            distances=dist,
        )

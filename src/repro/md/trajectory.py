"""Trajectory storage: in-memory frames with npz save/load."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.util.errors import ConfigurationError


class Trajectory:
    """A sequence of coordinate frames with times.

    Frames are appended during a run and consolidated lazily into one
    ``(n_frames, n_atoms, dim)`` array — appends stay O(1), analysis
    gets a contiguous block (cache-friendly for the vectorised RMSD and
    clustering kernels downstream).
    """

    def __init__(
        self,
        frames: Optional[np.ndarray] = None,
        times: Optional[np.ndarray] = None,
    ) -> None:
        self._chunks: List[np.ndarray] = []
        self._times: List[float] = []
        self._consolidated: Optional[np.ndarray] = None
        if frames is not None:
            frames = np.asarray(frames, dtype=float)
            if frames.ndim != 3:
                raise ConfigurationError(
                    f"frames must be (n_frames, n_atoms, dim), got {frames.shape}"
                )
            if times is None:
                times = np.arange(len(frames), dtype=float)
            times = np.asarray(times, dtype=float)
            if len(times) != len(frames):
                raise ConfigurationError("times and frames length mismatch")
            for frame, t in zip(frames, times):
                self.append(frame, t)

    def append(self, positions: np.ndarray, time: float) -> None:
        """Store a snapshot (copied)."""
        self._chunks.append(np.array(positions, dtype=float, copy=True))
        self._times.append(float(time))
        self._consolidated = None

    def __len__(self) -> int:
        return len(self._chunks)

    @property
    def frames(self) -> np.ndarray:
        """All frames as one ``(n_frames, n_atoms, dim)`` array."""
        if not self._chunks:
            return np.zeros((0, 0, 0))
        if self._consolidated is None:
            self._consolidated = np.stack(self._chunks)
        return self._consolidated

    @property
    def times(self) -> np.ndarray:
        """Frame times (ps)."""
        return np.asarray(self._times)

    def __getitem__(self, index):
        return self._chunks[index]

    def extend(self, other: "Trajectory") -> None:
        """Append every frame of *other* (times must continue forward)."""
        if len(other) and len(self) and other.times[0] < self._times[-1]:
            raise ConfigurationError(
                "cannot extend: appended trajectory starts in the past"
            )
        for frame, t in zip(other._chunks, other._times):
            self.append(frame, t)

    def subsample(self, stride: int) -> "Trajectory":
        """Every ``stride``-th frame as a new trajectory."""
        if stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {stride}")
        return Trajectory(frames=self.frames[::stride], times=self.times[::stride])

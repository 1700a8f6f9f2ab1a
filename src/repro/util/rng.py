"""Deterministic random-number streams.

Everything stochastic in the package (initial velocities, Langevin
noise, clustering seeds, scheduler jitter) draws from a
:class:`RandomStream` so that experiments are reproducible end to end.
A stream wraps :class:`numpy.random.Generator` and can spawn
statistically independent child streams, which is how a project seeds
hundreds of trajectories without correlated noise.
"""

from __future__ import annotations

from typing import List

import numpy as np


class RandomStream:
    """A seeded random stream with hierarchical spawning.

    Parameters
    ----------
    seed:
        Any value acceptable to :class:`numpy.random.SeedSequence`,
        or an existing ``SeedSequence``.
    """

    def __init__(self, seed: int | np.random.SeedSequence | None = 0) -> None:
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(seed)
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator."""
        return self._gen

    def spawn(self, n: int) -> List["RandomStream"]:
        """Spawn *n* independent child streams."""
        if n < 0:
            raise ValueError(f"cannot spawn {n} streams")
        return [RandomStream(seq) for seq in self._seq.spawn(n)]

    # -- convenience passthroughs (the hot paths use .generator directly) --

    def normal(self, *args, **kwargs):
        """Draw from a normal distribution (see numpy docs)."""
        return self._gen.normal(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        """Draw from a uniform distribution (see numpy docs)."""
        return self._gen.uniform(*args, **kwargs)

    def integers(self, *args, **kwargs):
        """Draw random integers (see numpy docs)."""
        return self._gen.integers(*args, **kwargs)

    def choice(self, *args, **kwargs):
        """Draw a random sample from a given array (see numpy docs)."""
        return self._gen.choice(*args, **kwargs)


def ensure_stream(seed_or_stream: int | RandomStream | None) -> RandomStream:
    """Coerce an int seed / ``None`` / existing stream to a stream."""
    if isinstance(seed_or_stream, RandomStream):
        return seed_or_stream
    return RandomStream(seed_or_stream)

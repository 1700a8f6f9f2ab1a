"""Pluggable adaptive-sampling strategies: the ``Adapter`` protocol.

MAccelerator's thesis is that the *selection scheme* — which
microstates new trajectories are spawned from — is a first-class
design axis of adaptive sampling, alongside adaptive frequency and
degree of parallelization.  This module turns the MSM controller's
weighting step into that axis: an :class:`Adapter` maps a transition
count matrix to spawning weights, a registry maps scheme names to
adapter factories, and :func:`register_adapter` lets third parties add
schemes without touching :mod:`repro.core`.

Shipped schemes (the MAccelerator set):

``uniform``
    Even weights over discovered states (the paper's *even* regime).
``min-counts``
    Weights ``1 / (1 + visits)`` — explore least-visited states.
``weighted-counts``
    ``(1 + visits)^(-n)`` with tunable exponent *n*: ``n = 0`` is
    uniform, ``n = 1`` is min-counts, larger *n* explores harder.
``uncertainty``
    Dirichlet-posterior transition-uncertainty weights (the paper's
    *adaptive* regime).
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Union

import numpy as np

from repro.msm.adaptive import (
    even_weights,
    mincounts_weights,
    uncertainty_weights,
    weighted_counts_weights,
)
from repro.util.errors import ConfigurationError

__all__ = [
    "Adapter",
    "UniformAdapter",
    "MinCountsAdapter",
    "WeightedCountsAdapter",
    "UncertaintyAdapter",
    "register_adapter",
    "registered_adapters",
    "normalize_scheme",
    "resolve_adapter",
]


class Adapter(abc.ABC):
    """One adaptive-sampling selection scheme.

    Given the generation's transition count matrix, produce the
    normalised spawning weights the controller hands to
    :func:`repro.msm.adaptive.allocate_starts`.  Adapters must be
    deterministic functions of their inputs — all randomness in the
    adaptive loop lives in the controller's seeded streams — so a
    sweep over schemes is reproducible bit for bit.
    """

    #: Canonical scheme name (set per subclass; used in reports).
    name: str = "adapter"

    @abc.abstractmethod
    def weights(self, counts: np.ndarray) -> np.ndarray:
        """Spawning weights (non-negative, summing to 1) from counts."""

    def describe(self) -> Dict:
        """Report-friendly description (name plus tunable parameters)."""
        return {"scheme": self.name}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.describe()})"


class UniformAdapter(Adapter):
    """Even weights over discovered states (the paper's early regime)."""

    name = "uniform"

    def weights(self, counts: np.ndarray) -> np.ndarray:
        """Uniform over visited states."""
        return even_weights(counts)


class MinCountsAdapter(Adapter):
    """Explore least-visited states: weights ``1 / (1 + visits)``."""

    name = "min-counts"

    def weights(self, counts: np.ndarray) -> np.ndarray:
        """Inverse-visit-count weights."""
        return mincounts_weights(counts)


class WeightedCountsAdapter(Adapter):
    """``(1 + visits)^(-n)`` with a tunable exploration exponent *n*."""

    name = "weighted-counts"

    def __init__(self, n: float = 1.0) -> None:
        if n < 0:
            raise ConfigurationError(f"exponent n must be >= 0, got {n}")
        self.n = float(n)

    def weights(self, counts: np.ndarray) -> np.ndarray:
        """Weighted-counts weights at this adapter's exponent."""
        return weighted_counts_weights(counts, n=self.n)

    def describe(self) -> Dict:
        """Scheme name plus the exponent."""
        return {"scheme": self.name, "n": self.n}


class UncertaintyAdapter(Adapter):
    """Transition-uncertainty weights (the paper's *adaptive* regime)."""

    name = "uncertainty"

    def __init__(self, prior: float = 1.0) -> None:
        if prior <= 0:
            raise ConfigurationError(f"prior must be positive, got {prior}")
        self.prior = float(prior)

    def weights(self, counts: np.ndarray) -> np.ndarray:
        """Dirichlet-posterior row-variance weights."""
        return uncertainty_weights(counts, prior=self.prior)

    def describe(self) -> Dict:
        """Scheme name plus the Dirichlet prior strength."""
        return {"scheme": self.name, "prior": self.prior}


#: Scheme registry: canonical name -> adapter factory (kwargs allowed).
_ADAPTER_REGISTRY: Dict[str, Callable[..., Adapter]] = {
    "uniform": UniformAdapter,
    "min-counts": MinCountsAdapter,
    "weighted-counts": WeightedCountsAdapter,
    "uncertainty": UncertaintyAdapter,
}


def register_adapter(
    name: str, factory: Callable[..., Adapter], overwrite: bool = False
) -> None:
    """Register an adapter *factory* under a canonical scheme *name*.

    The plugin hook: once registered, the scheme is accepted anywhere a
    weighting name is (``MSMProjectConfig.weighting``, the sweep
    harness, the CLI) without touching core code.

    Raises
    ------
    ConfigurationError
        If *name* collides with an existing scheme and *overwrite* is
        not set, or *factory* is not callable.
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError("adapter name must be a non-empty string")
    if not callable(factory):
        raise ConfigurationError("adapter factory must be callable")
    if not overwrite and name in _ADAPTER_REGISTRY:
        raise ConfigurationError(
            f"adapter {name!r} is already registered; pass overwrite=True "
            f"to replace it"
        )
    _ADAPTER_REGISTRY[name] = factory


def registered_adapters() -> List[str]:
    """Canonical scheme names, sorted."""
    return sorted(_ADAPTER_REGISTRY)


def normalize_scheme(scheme: str) -> str:
    """Check that *scheme* names a registered adapter and return it.

    Raises
    ------
    ConfigurationError
        If *scheme* names no registered adapter; the message lists the
        registered scheme names so the fix is in the traceback.
    """
    if scheme not in _ADAPTER_REGISTRY:
        raise ConfigurationError(
            f"unknown weighting scheme {scheme!r}; registered adapters: "
            f"{registered_adapters()}"
        )
    return scheme


def resolve_adapter(
    scheme: Union[str, Adapter], **params
) -> Adapter:
    """Coerce a scheme name (or pass through an instance) to an Adapter.

    ``params`` are forwarded to the registered factory (e.g.
    ``resolve_adapter("weighted-counts", n=2.0)``); passing params with
    an :class:`Adapter` instance is an error, since the instance is
    already configured.
    """
    if isinstance(scheme, Adapter):
        if params:
            raise ConfigurationError(
                "cannot apply weighting_params to an Adapter instance"
            )
        return scheme
    if not isinstance(scheme, str):
        raise ConfigurationError(
            f"weighting must be a scheme name or Adapter instance, "
            f"got {type(scheme).__name__}"
        )
    canonical = normalize_scheme(scheme)
    return _ADAPTER_REGISTRY[canonical](**params)

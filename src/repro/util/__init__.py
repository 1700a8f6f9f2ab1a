"""Shared utility substrate: units, RNG streams, errors, serialization."""

from repro.util.errors import (
    ReproError,
    ConfigurationError,
    CommunicationError,
    AuthenticationError,
    SchedulingError,
    SimulationError,
    EstimationError,
)
from repro.util.rng import RandomStream
from repro.util.units import (
    KB,
    PS_PER_NS,
    NS_PER_US,
)
from repro.util.serialization import encode_message, decode_message

__all__ = [
    "ReproError",
    "ConfigurationError",
    "CommunicationError",
    "AuthenticationError",
    "SchedulingError",
    "SimulationError",
    "EstimationError",
    "RandomStream",
    "KB",
    "PS_PER_NS",
    "NS_PER_US",
    "encode_message",
    "decode_message",
]

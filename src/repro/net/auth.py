"""Key-based trust between overlay endpoints.

Real Copernicus servers authenticate with SSL certificates exchanged by
the operator.  The simulation keeps the trust *semantics* — a link only
carries traffic between endpoints that have imported each other's
public keys — without actual cryptography: a keypair is an opaque
random token pair, which is exactly as much structure as the framework
logic needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from repro.util.errors import AuthenticationError
from repro.util.rng import RandomStream


@dataclass(frozen=True)
class KeyPair:
    """An endpoint identity: public fingerprint plus private secret."""

    public: str
    _private: str

    @classmethod
    def generate(cls, rng: RandomStream, owner: str = "") -> "KeyPair":
        """Create a fresh keypair (deterministic given the stream)."""
        bits = rng.integers(0, 2**63 - 1, size=2)
        return cls(
            public=f"pub-{owner}-{bits[0]:016x}",
            _private=f"prv-{owner}-{bits[1]:016x}",
        )


class TrustStore:
    """The set of public keys an endpoint accepts connections from."""

    def __init__(self) -> None:
        self._trusted: Set[str] = set()

    def add(self, public_key: str) -> None:
        """Import a peer's public key."""
        self._trusted.add(public_key)

    def remove(self, public_key: str) -> None:
        """Revoke a previously imported key."""
        self._trusted.discard(public_key)

    def is_trusted(self, public_key: str) -> bool:
        """Whether a key has been imported."""
        return public_key in self._trusted

    def __len__(self) -> int:
        return len(self._trusted)


def mutual_handshake(
    a_key: KeyPair, a_store: TrustStore, b_key: KeyPair, b_store: TrustStore
) -> None:
    """Verify both sides trust each other, as at link establishment.

    Raises
    ------
    AuthenticationError
        If either side does not trust the other's public key.
    """
    if not a_store.is_trusted(b_key.public):
        raise AuthenticationError(
            f"local endpoint does not trust peer key {b_key.public!r}"
        )
    if not b_store.is_trusted(a_key.public):
        raise AuthenticationError(
            f"peer does not trust local key {a_key.public!r}"
        )


def exchange_keys(
    a_key: KeyPair, a_store: TrustStore, b_key: KeyPair, b_store: TrustStore
) -> None:
    """Operator-initiated key exchange establishing mutual trust."""
    a_store.add(b_key.public)
    b_store.add(a_key.public)

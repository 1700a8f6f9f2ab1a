"""Consistent-hash sharding of projects onto the server overlay.

The paper's overlay aggregates heterogeneous resources behind one head
node; the multi-tenant service plane reuses that fabric as a *shard
fabric*: every project server is a shard, and project ids are mapped
onto shards with a consistent-hash ring so that

* keys spread uniformly across shards (within tolerance), and
* a shard joining or leaving moves only ~K/n keys — every other
  project keeps its origin server, its journal directory and its
  queue untouched.

Hashing is deterministic (BLAKE2b over the literal key bytes), so a
deployment's shard layout is a pure function of its server names —
independent of Python's per-process hash randomisation, reproducible
across runs and machines.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
from typing import Dict, Iterable, List, Optional, Sequence

from repro.util.errors import ConfigurationError, UnknownShardError

#: Virtual nodes per shard.  More points smooth the key distribution
#: (the classic consistent-hashing variance fix); 64 keeps ring
#: operations cheap while holding per-shard load within a few percent
#: of uniform for realistic shard counts.
DEFAULT_REPLICAS = 64


@functools.lru_cache(maxsize=4096)
def stable_hash(key: str) -> int:
    """A 64-bit position on the ring for *key* (process-independent).

    Memoised: every message a shard routes hashes its project id."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """A consistent-hash ring over named nodes.

    Each node is planted at ``replicas`` seeded points on a 64-bit
    ring; a key routes to the first node point at or clockwise of the
    key's own hash.  Ties on ring position (vanishingly rare with a
    64-bit space) break by node name so the layout stays total-ordered
    and deterministic.
    """

    def __init__(
        self,
        nodes: Iterable[str] = (),
        replicas: int = DEFAULT_REPLICAS,
    ) -> None:
        if replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        self.replicas = int(replicas)
        self._nodes: List[str] = []
        #: Sorted ring positions and the node planted at each.
        self._points: List[int] = []
        self._owners: List[str] = []
        for node in nodes:
            self.add(node)

    # -- membership --------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        """Current ring members, in insertion order."""
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def _node_points(self, node: str) -> List[int]:
        return [
            stable_hash(f"{node}#{replica}")
            for replica in range(self.replicas)
        ]

    def add(self, node: str) -> None:
        """Plant *node*'s virtual points on the ring."""
        if not node:
            raise ConfigurationError("ring nodes need a non-empty name")
        if node in self._nodes:
            raise ConfigurationError(f"node {node!r} already on the ring")
        self._nodes.append(node)
        for point in self._node_points(node):
            index = bisect.bisect_left(self._points, point)
            # same-position collisions order by name for determinism
            while (
                index < len(self._points)
                and self._points[index] == point
                and self._owners[index] < node
            ):
                index += 1
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        """Withdraw *node*; its keys redistribute to ring successors."""
        if node not in self._nodes:
            raise UnknownShardError(f"node {node!r} not on the ring")
        self._nodes.remove(node)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != node
        ]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    # -- routing -----------------------------------------------------------

    def node_for(self, key: str) -> str:
        """The node owning *key* (first point clockwise of its hash)."""
        if not self._points:
            raise ConfigurationError("hash ring has no nodes")
        index = bisect.bisect_right(self._points, stable_hash(key))
        if index == len(self._points):
            index = 0  # wrap around the ring
        return self._owners[index]

    def assignments(self, keys: Sequence[str]) -> Dict[str, str]:
        """Key -> owning node, for a batch of keys."""
        return {key: self.node_for(key) for key in keys}

    def load(self, keys: Sequence[str]) -> Dict[str, int]:
        """Keys per node (every member listed, even at zero load)."""
        counts = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.node_for(key)] += 1
        return counts


class ShardRouter:
    """Routes project ids onto a deployment's project servers.

    A thin, named wrapper over :class:`HashRing` so call sites read as
    routing ("which shard hosts this project?") rather than hashing.
    The router is consulted at submit time; once a project is hosted,
    results keep flowing to its origin server via the command's
    ``origin_server`` stamp, exactly as in the single-server plane.
    """

    def __init__(
        self,
        shards: Iterable[str],
        replicas: int = DEFAULT_REPLICAS,
    ) -> None:
        self.ring = HashRing(shards, replicas=replicas)
        if len(self.ring) == 0:
            raise ConfigurationError("a shard router needs >= 1 shard")
        #: Shards withdrawn from the ring (failover), so a racing
        #: second remove is an idempotent no-op instead of an error.
        self._removed: set = set()

    @property
    def shards(self) -> List[str]:
        """Shard (server) names on the ring."""
        return self.ring.nodes

    def route(self, project_id: str) -> str:
        """The shard server hosting *project_id*."""
        if not project_id:
            raise ConfigurationError("cannot route an empty project id")
        return self.ring.node_for(project_id)

    def add_shard(self, name: str) -> None:
        """Join a shard (new projects may route to it; existing
        projects keep their origin)."""
        self.ring.add(name)
        self._removed.discard(name)

    def remove_shard(self, name: str) -> None:
        """Withdraw a shard from *future* routing decisions.

        Removing a shard that was already withdrawn is a no-op —
        failover paths may race (monitor sweep vs. explicit drain) and
        both must converge on the same membership.  Removing a shard
        that was *never* a member raises :class:`UnknownShardError`.
        """
        if name in self.ring:
            self.ring.remove(name)
            self._removed.add(name)
        elif name not in self._removed:
            raise UnknownShardError(f"shard {name!r} is not a member")

    def plan(self, project_ids: Sequence[str]) -> Dict[str, str]:
        """project id -> shard, for a batch of submissions."""
        return self.ring.assignments(project_ids)

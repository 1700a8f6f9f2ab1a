"""Pre-built overlay topologies.

Deployment recipes from the paper: a single server with local workers
(a workstation), a cluster with a head-node relay, and the full Fig. 1
multi-site layout (two project servers behind a gateway, three clusters
— one of them intercontinental).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.net.transport import Network
from repro.server.server import CopernicusServer
from repro.util.errors import ConfigurationError
from repro.worker.platform import SMPPlatform
from repro.worker.worker import Worker

#: Latency presets (seconds) for common link classes.
LATENCY_LOCAL = 0.0005       # node to head-node
LATENCY_CAMPUS = 0.005       # within a data centre
LATENCY_WAN = 0.03           # between nearby sites
LATENCY_INTERCONTINENTAL = 0.15


@dataclass
class Deployment:
    """A constructed overlay plus handles to its parts."""

    network: Network
    project_servers: List[CopernicusServer]
    relay_servers: List[CopernicusServer] = field(default_factory=list)
    workers: List[Worker] = field(default_factory=list)

    @property
    def project_server(self) -> CopernicusServer:
        """The first (often only) project server."""
        return self.project_servers[0]

    @property
    def gateway(self) -> CopernicusServer:
        """The gateway relay (the probe endpoint a
        :class:`~repro.server.shardmon.ShardMonitor` runs from).
        Raises :class:`ConfigurationError` on gateway-less topologies.
        """
        for relay in self.relay_servers:
            if relay.name == "gateway":
                return relay
        raise ConfigurationError("this deployment has no gateway relay")

    def announce_all(self, now: float = 0.0) -> None:
        """Announce every worker to its server.

        Each worker announces at ``now + poll_offset`` — with jitter
        applied (see :func:`apply_poll_jitter`) the fleet arrives
        staggered instead of stampeding the server at the same instant.
        """
        for worker in self.workers:
            worker.announce(now + worker.poll_offset)


def apply_poll_jitter(
    net: Network,
    workers: List[Worker],
    heartbeat_interval: float,
    poll_jitter: float,
) -> None:
    """Give every worker a seeded offset for its heartbeat/poll schedule.

    Real fleets never beat in lockstep; with every worker announcing at
    ``now=0.0`` and polling on the same cycle boundary, the thundering
    herd both hammers the server and hides liveness-ordering bugs.
    Offsets are drawn from the *network's* seeded stream, so a
    deployment is still a pure function of its seed.
    """
    if poll_jitter < 0.0 or poll_jitter >= 1.0:
        raise ConfigurationError(
            f"poll_jitter must be in [0, 1), got {poll_jitter}"
        )
    if poll_jitter == 0.0:
        return
    span = poll_jitter * heartbeat_interval
    for worker in workers:
        worker.poll_offset = float(net.rng.uniform(0.0, span))


def _local_worker(net: Network, name: str, server: str, cores: int) -> Worker:
    """A worker of *cores* cores on a local link to *server*."""
    worker = Worker(name, net, server=server, platform=SMPPlatform(cores=cores))
    net.connect(server, name, latency=LATENCY_LOCAL)
    return worker


def workstation(
    n_workers: int = 1,
    cores_per_worker: int = 2,
    seed: int = 0,
    heartbeat_interval: float = 120.0,
    poll_jitter: float = 0.1,
) -> Deployment:
    """A single server with directly attached workers."""
    if n_workers < 1:
        raise ConfigurationError("need at least one worker")
    net = Network(seed=seed)
    server = CopernicusServer("server", net, heartbeat_interval=heartbeat_interval)
    workers = [
        _local_worker(net, f"w{k}", "server", cores_per_worker)
        for k in range(n_workers)
    ]
    apply_poll_jitter(net, workers, heartbeat_interval, poll_jitter)
    deployment = Deployment(net, [server], [], workers)
    deployment.announce_all()
    return deployment


def cluster(
    n_nodes: int = 4,
    cores_per_node: int = 2,
    seed: int = 0,
    heartbeat_interval: float = 120.0,
    shared_filesystem: bool = True,
    poll_jitter: float = 0.1,
) -> Deployment:
    """A project server plus a cluster behind a head-node relay.

    With ``shared_filesystem=True`` the head node and its workers mount
    a common filesystem, so trajectory data never crosses the wire to
    the head node (paper section 2.3).
    """
    if n_nodes < 1:
        raise ConfigurationError("need at least one node")
    net = Network(seed=seed)
    project = CopernicusServer(
        "project-server", net, heartbeat_interval=heartbeat_interval
    )
    head = CopernicusServer("head-node", net, heartbeat_interval=heartbeat_interval)
    net.connect("project-server", "head-node", latency=LATENCY_WAN)
    workers = [
        _local_worker(net, f"node{k}", "head-node", cores_per_node)
        for k in range(n_nodes)
    ]
    if shared_filesystem:
        net.attach_filesystem(
            "cluster-fs", ["head-node"] + [f"node{k}" for k in range(n_nodes)]
        )
    apply_poll_jitter(net, workers, heartbeat_interval, poll_jitter)
    deployment = Deployment(net, [project], [head], workers)
    deployment.announce_all()
    return deployment


def sharded(
    n_shards: int = 3,
    workers_per_shard: int = 2,
    cores_per_worker: int = 2,
    seed: int = 0,
    heartbeat_interval: float = 120.0,
    poll_jitter: float = 0.1,
    network: Optional[Network] = None,
) -> Deployment:
    """A multi-tenant shard fabric: N project servers behind a gateway.

    Each shard hosts the projects that consistent-hash to it
    (:class:`~repro.net.sharding.ShardRouter` over the shard names) and
    owns a worker pool.  An idle shard's workers pull cross-shard work
    through the gateway via wildcard fetches, guarded by the per-peer
    circuit breakers — the same relay/head-node fabric as
    :func:`figure1`, reused as a service plane.

    The fabric is built on *network* when one is passed (the chaos
    harness hands in its fault-injecting overlay; *seed* is then
    unused), else on a fresh ``Network(seed=seed)``.  Endpoint names are
    ``gateway``, ``shard{s}`` and ``s{s}w{w}``.
    """
    if n_shards < 1:
        raise ConfigurationError("need at least one shard")
    if workers_per_shard < 1:
        raise ConfigurationError("need at least one worker per shard")
    net = network if network is not None else Network(seed=seed)
    gateway = CopernicusServer(
        "gateway", net, heartbeat_interval=heartbeat_interval
    )
    shards, workers = [], []
    for s in range(n_shards):
        shard = CopernicusServer(
            f"shard{s}", net, heartbeat_interval=heartbeat_interval
        )
        shards.append(shard)
        net.connect("gateway", f"shard{s}", latency=LATENCY_CAMPUS)
        workers += [
            _local_worker(net, f"s{s}w{w}", f"shard{s}", cores_per_worker)
            for w in range(workers_per_shard)
        ]
    apply_poll_jitter(net, workers, heartbeat_interval, poll_jitter)
    deployment = Deployment(net, shards, [gateway], workers)
    deployment.announce_all()
    return deployment


def figure1(
    workers_per_cluster: int = 2,
    cores_per_worker: int = 2,
    seed: int = 0,
    heartbeat_interval: float = 120.0,
    poll_jitter: float = 0.1,
) -> Deployment:
    """The paper's Fig. 1: two project servers, a gateway, three clusters.

    Clusters 0 and 1 share a site with the gateway; cluster 2 sits on
    another continent behind a high-latency link.
    """
    net = Network(seed=seed)
    villin = CopernicusServer(
        "server-villin", net, heartbeat_interval=heartbeat_interval
    )
    titin = CopernicusServer(
        "server-titin", net, heartbeat_interval=heartbeat_interval
    )
    gateway = CopernicusServer("gateway", net, heartbeat_interval=heartbeat_interval)
    net.connect("server-villin", "gateway", latency=LATENCY_CAMPUS)
    net.connect("server-titin", "gateway", latency=LATENCY_CAMPUS)
    relays, workers = [gateway], []
    for c in range(3):
        head = CopernicusServer(
            f"cluster{c}-head", net, heartbeat_interval=heartbeat_interval
        )
        relays.append(head)
        latency = LATENCY_INTERCONTINENTAL if c == 2 else LATENCY_CAMPUS
        net.connect("gateway", f"cluster{c}-head", latency=latency)
        names = [f"c{c}w{w}" for w in range(workers_per_cluster)]
        workers += [
            _local_worker(net, name, f"cluster{c}-head", cores_per_worker)
            for name in names
        ]
        net.attach_filesystem(f"cluster{c}-fs", [f"cluster{c}-head"] + names)
    apply_poll_jitter(net, workers, heartbeat_interval, poll_jitter)
    deployment = Deployment(net, [villin, titin], relays, workers)
    deployment.announce_all()
    return deployment

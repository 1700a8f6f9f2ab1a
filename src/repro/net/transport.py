"""The overlay message fabric: endpoints, links, routing, accounting.

Endpoints register with a :class:`Network` and connect through
:class:`Link` objects carrying latency and bandwidth parameters.  A
message to a named endpoint is routed along the overlay's shortest
path (by latency); a message to :data:`~repro.net.protocol.ANY_SERVER`
walks outward until some endpoint accepts it — the paper's "routing of
requests both to specific servers, and to the first server with
available commands".

Delivery is synchronous (the reply returns to the caller), but every
link records the bytes and virtual seconds it carried, so bandwidth
analyses can read real traffic numbers off a functional run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.auth import KeyPair, TrustStore, exchange_keys, mutual_handshake
from repro.net.circuit import BreakerPolicy, BreakerState, CircuitBreaker
from repro.net.protocol import ANY_SERVER, Message, MessageType
from repro.obs import Observability
from repro.util.errors import (
    CommunicationError,
    CommunicationTimeout,
    FencedError,
    TransientCommunicationError,
    WildcardUnclaimedError,
)
from repro.util.rng import RandomStream
from repro.util.serialization import message_size


@dataclass
class Link:
    """A bidirectional overlay edge with latency/bandwidth accounting."""

    a: str
    b: str
    latency: float = 0.01  # seconds per traversal
    bandwidth: float = 100e6  # bytes per second
    bytes_carried: int = 0
    messages_carried: int = 0
    busy_seconds: float = 0.0

    def other(self, name: str) -> str:
        """The far end of this link."""
        if name == self.a:
            return self.b
        if name == self.b:
            return self.a
        raise CommunicationError(f"{name!r} is not on link {self.a}<->{self.b}")

    def record(self, n_bytes: int) -> float:
        """Account one traversal; returns the virtual transfer time."""
        self.bytes_carried += n_bytes
        self.messages_carried += 1
        duration = self.latency + n_bytes / self.bandwidth
        self.busy_seconds += duration
        return duration


@dataclass
class RetryPolicy:
    """Bounded-retry schedule with exponential backoff (virtual seconds).

    Attempt *k* (0-based) that fails transiently waits
    ``backoff_base * backoff_factor ** k`` virtual seconds before the
    next try; after ``max_retries`` retries the transient error
    propagates to the caller.
    """

    max_retries: int = 3
    backoff_base: float = 0.5
    backoff_factor: float = 2.0

    def backoff(self, attempt: int) -> float:
        """Virtual seconds to wait after failed attempt *attempt*."""
        return self.backoff_base * self.backoff_factor ** attempt


class Endpoint:
    """A named participant on the overlay (server, worker or client).

    Subclasses (or composition users) provide ``handler(message) ->
    payload | None``; returning ``None`` from a wildcard-routed message
    means "not mine, keep walking".
    """

    def __init__(
        self,
        name: str,
        network: "Network",
        handler: Optional[Callable[[Message], Optional[dict]]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
    ) -> None:
        self.name = name
        self.network = network
        #: The deployment's shared observability hub (metrics + tracer).
        self.obs = network.obs
        self.keypair = KeyPair.generate(network.rng, owner=name)
        self.trust = TrustStore()
        self.retry_policy = retry_policy or RetryPolicy()
        #: Retry accounting, surfaced through ``Network.traffic_report``.
        self.send_retries = 0
        self.send_failures = 0
        self.send_timeouts = 0
        self.backoff_seconds = 0.0
        #: Latest virtual timestamp this endpoint has observed; the
        #: time base for its circuit breakers (servers advance it from
        #: message/liveness-check timestamps).
        self.clock = 0.0
        #: Per-peer circuit breakers, created lazily on wildcard walks.
        self.breaker_policy = breaker_policy or BreakerPolicy()
        self.peer_breakers: Dict[str, CircuitBreaker] = {}
        #: Extra breaker-transition observers (beyond the metrics
        #: counter): ``hook(breaker, state)``.  The shard monitor
        #: registers here so breaker-open evidence toward a shard
        #: feeds its liveness score.
        self.breaker_hooks: List[
            Callable[[CircuitBreaker, BreakerState], None]
        ] = []
        self._handler = handler
        network._register(self)

    def breaker_for(self, peer: str) -> CircuitBreaker:
        """This endpoint's circuit breaker toward *peer* (lazily built)."""
        breaker = self.peer_breakers.get(peer)
        if breaker is None:
            breaker = CircuitBreaker(peer, self.breaker_policy)
            breaker.observer = self._on_breaker_transition
            self.peer_breakers[peer] = breaker
        return breaker

    def _on_breaker_transition(
        self, breaker: CircuitBreaker, state: BreakerState
    ) -> None:
        """Fold breaker state changes into the metrics registry."""
        self.obs.metrics.inc(
            "repro_net_breaker_transitions_total",
            help="Circuit-breaker state transitions per endpoint/peer.",
            endpoint=self.name,
            peer=breaker.peer,
            to=state.value,
        )
        for hook in self.breaker_hooks:
            hook(breaker, state)

    def handle(self, message: Message) -> Optional[dict]:
        """Process an inbound request; override or pass ``handler=``."""
        if self._handler is None:
            raise CommunicationError(
                f"endpoint {self.name!r} has no message handler"
            )
        return self._handler(message)

    def send(
        self,
        dst: str,
        type: MessageType,
        payload: Optional[dict] = None,
        timeout: Optional[float] = None,
        headers: Optional[dict] = None,
    ) -> dict:
        """Send a request and return the response payload.

        Transient failures (dropped messages, partitioned links,
        crashed peers — :class:`TransientCommunicationError`) are
        retried up to ``retry_policy.max_retries`` times with
        exponential backoff charged to the network's virtual clock.
        Permanent routing errors raise immediately.

        ``timeout`` bounds the *virtual* transfer seconds of one
        delivery attempt; exceeding it raises
        :class:`CommunicationTimeout` (itself transient, so it is
        retried within the same budget).  Note that a timed-out
        request may still have reached its destination — receivers
        must treat retried messages idempotently.

        ``headers`` carries out-of-band metadata (e.g. a trace
        context); retransmissions re-send the same headers.
        """
        attempt = 0
        metrics = self.obs.metrics
        while True:
            message = Message(
                type=type, src=self.name, dst=dst, payload=payload or {},
                headers=dict(headers) if headers else {},
                attempt=attempt,
            )
            clock_before = self.network.total_transfer_seconds
            try:
                response = self.network.deliver(message)
                elapsed = self.network.total_transfer_seconds - clock_before
                if timeout is not None and elapsed > timeout:
                    self.send_timeouts += 1
                    self.network.timeouts_total += 1
                    metrics.inc(
                        "repro_net_send_timeouts_total",
                        help="Per-message virtual-time timeouts by sender.",
                        endpoint=self.name,
                    )
                    raise CommunicationTimeout(
                        f"{self.name!r} -> {dst!r} took {elapsed:.3f}s virtual "
                        f"(timeout {timeout:.3f}s)"
                    )
                return response
            except FencedError:
                # an authoritative ownership verdict, not a transport
                # fault: the epoch only moves forward, so retrying
                # cannot change the answer — permanent and quiet, like
                # WildcardUnclaimedError in the peer-fetch triage
                raise
            except TransientCommunicationError:
                if attempt >= self.retry_policy.max_retries:
                    self.send_failures += 1
                    metrics.inc(
                        "repro_net_send_failures_total",
                        help="Sends abandoned after exhausting retries.",
                        endpoint=self.name,
                    )
                    raise
                wait = self.retry_policy.backoff(attempt)
                attempt += 1
                self.send_retries += 1
                self.backoff_seconds += wait
                metrics.inc(
                    "repro_net_send_retries_total",
                    help="Transient-failure retries by sender.",
                    endpoint=self.name,
                )
                self.network.note_backoff(wait)


#: Wire cost of passing a data *reference* instead of the data itself
#: when both ends see the same filesystem (paper section 2.3).
SHARED_FS_REF_BYTES = 256


class Network:
    """The overlay graph plus its delivery engine."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = RandomStream(seed)
        #: The deployment-wide observability hub; every endpoint built
        #: on this network shares it (``endpoint.obs``).
        self.obs = Observability()
        self._endpoints: Dict[str, Endpoint] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._adjacency: Dict[str, List[str]] = {}
        #: (src, dst) -> shortest path; cleared whenever the graph grows
        self._routes: Dict[Tuple[str, str], List[str]] = {}
        #: filesystem name -> set of endpoint names mounting it
        self._filesystems: Dict[str, set] = {}
        #: (a, b) -> whether they share a filesystem; cleared with
        #: ``_routes`` and whenever a mount changes
        self._shares: Dict[Tuple[str, str], bool] = {}
        #: Virtual clock accumulating transfer time of the longest path
        #: seen; useful for latency reports.
        self.total_transfer_seconds = 0.0
        self.messages_delivered = 0
        #: Bytes saved by shared-filesystem data passing.
        self.bytes_saved_by_shared_fs = 0
        #: Aggregate retry accounting (see :meth:`Endpoint.send`).
        self.retries_total = 0
        self.timeouts_total = 0
        self.retry_backoff_seconds = 0.0

    def note_backoff(self, seconds: float) -> None:
        """Charge one retry backoff wait to the virtual clock."""
        self.retries_total += 1
        self.retry_backoff_seconds += seconds
        self.total_transfer_seconds += seconds
        self.obs.metrics.inc(
            "repro_net_backoff_seconds_total",
            amount=seconds,
            help="Virtual seconds charged to retry backoff waits.",
        )

    # -- construction ----------------------------------------------------

    def _register(self, endpoint: Endpoint) -> None:
        if endpoint.name in self._endpoints:
            raise CommunicationError(f"duplicate endpoint name {endpoint.name!r}")
        self._endpoints[endpoint.name] = endpoint
        self._adjacency[endpoint.name] = []
        self._forget_routes()

    def endpoint(self, name: str) -> Endpoint:
        """Look up an endpoint by name."""
        try:
            return self._endpoints[name]
        except KeyError:
            raise CommunicationError(f"unknown endpoint {name!r}") from None

    def endpoints(self) -> List[str]:
        """All registered endpoint names."""
        return list(self._endpoints)

    def connect(
        self,
        a: str,
        b: str,
        latency: float = 0.01,
        bandwidth: float = 100e6,
    ) -> Link:
        """Create a trusted link between two endpoints (key exchange included)."""
        if a == b:
            raise CommunicationError("cannot link an endpoint to itself")
        ep_a, ep_b = self.endpoint(a), self.endpoint(b)
        key = (min(a, b), max(a, b))
        if key in self._links:
            raise CommunicationError(f"link {a}<->{b} already exists")
        exchange_keys(ep_a.keypair, ep_a.trust, ep_b.keypair, ep_b.trust)
        link = Link(a=key[0], b=key[1], latency=latency, bandwidth=bandwidth)
        self._links[key] = link
        self._adjacency[a].append(b)
        self._adjacency[b].append(a)
        self._forget_routes()
        return link

    def attach_filesystem(self, fs_name: str, endpoints: List[str]) -> None:
        """Declare that *endpoints* all mount the filesystem *fs_name*.

        Traffic between two endpoints sharing a filesystem passes a
        small data reference instead of the payload — the paper's
        shared-filesystem detection ("Copernicus can detect and take
        advantage of shared file systems to reduce communication").
        """
        for name in endpoints:
            self.endpoint(name)  # validates existence
        self._filesystems.setdefault(fs_name, set()).update(endpoints)
        self._shares.clear()

    def share_filesystem(self, a: str, b: str) -> bool:
        """Whether two endpoints mount a common filesystem."""
        shared = self._shares.get((a, b))
        if shared is None:
            shared = self._shares[(a, b)] = any(
                a in members and b in members
                for members in self._filesystems.values()
            )
        return shared

    def link(self, a: str, b: str) -> Link:
        """The link between *a* and *b*."""
        try:
            return self._links[(min(a, b), max(a, b))]
        except KeyError:
            raise CommunicationError(f"no link {a}<->{b}") from None

    def links(self) -> List[Link]:
        """All links."""
        return list(self._links.values())

    # -- routing -----------------------------------------------------------

    def shortest_path(self, src: str, dst: str) -> List[str]:
        """Lowest-latency path between two endpoints (Dijkstra).

        Paths are memoised per ``(src, dst)`` until an endpoint or link
        is added (link latencies are read as they were when the route
        was found); each call returns a fresh list.

        Raises
        ------
        CommunicationError
            If no path exists.
        """
        route = self._routes.get((src, dst))
        if route is None:
            route = self._routes[(src, dst)] = self._dijkstra(src, dst)
        return list(route)

    def _forget_routes(self) -> None:
        """The graph changed: drop every memoised path and share."""
        self._routes.clear()
        self._shares.clear()

    def _dijkstra(self, src: str, dst: str) -> List[str]:
        import heapq

        if src not in self._endpoints or dst not in self._endpoints:
            raise CommunicationError(f"unknown endpoint in {src!r} -> {dst!r}")
        dist = {src: 0.0}
        prev: Dict[str, str] = {}
        heap = [(0.0, src)]
        seen = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in seen:
                continue
            seen.add(node)
            if node == dst:
                break
            for nbr in self._adjacency[node]:
                nd = d + self.link(node, nbr).latency
                if nd < dist.get(nbr, float("inf")):
                    dist[nbr] = nd
                    prev[nbr] = node
                    heapq.heappush(heap, (nd, nbr))
        if dst not in dist:
            raise CommunicationError(f"no route from {src!r} to {dst!r}")
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        return path[::-1]

    def _traverse(self, message: Message, path: List[str]) -> None:
        """Account a message over every hop, verifying trust per link."""
        size = message_size(message.payload)
        if len(path) >= 2 and self.share_filesystem(path[0], path[-1]):
            # payload stays on disk; only a reference crosses the wire
            if size > SHARED_FS_REF_BYTES:
                self.bytes_saved_by_shared_fs += size - SHARED_FS_REF_BYTES
                size = SHARED_FS_REF_BYTES
        transfer_seconds = 0.0
        for hop_src, hop_dst in zip(path[:-1], path[1:]):
            ep_s, ep_d = self.endpoint(hop_src), self.endpoint(hop_dst)
            mutual_handshake(ep_s.keypair, ep_s.trust, ep_d.keypair, ep_d.trust)
            duration = self.link(hop_src, hop_dst).record(size)
            self.total_transfer_seconds += duration
            transfer_seconds += duration
            message.hops.append(hop_dst)
        if len(path) >= 2:
            self.obs.metrics.inc(
                "repro_net_bytes_total",
                amount=size * (len(path) - 1),
                help="Bytes carried across overlay links.",
            )
            self.obs.metrics.observe(
                "repro_net_transfer_seconds",
                transfer_seconds,
                help="Virtual seconds per message traversal.",
            )

    # -- delivery ------------------------------------------------------------

    def deliver(self, message: Message) -> dict:
        """Route *message* and return the handler's response payload.

        Wildcard destination (:data:`ANY_SERVER`) walks the overlay
        breadth-first from the source until an endpoint's handler
        accepts (returns non-``None``).
        """
        self.messages_delivered += 1
        self.obs.metrics.inc(
            "repro_net_messages_total",
            help="Messages delivered over the overlay, by request kind.",
            type=message.type.value,
        )
        if message.dst == ANY_SERVER:
            return self._deliver_any(message)
        path = self.shortest_path(message.src, message.dst)
        self._traverse(message, path)
        response = self.endpoint(message.dst).handle(message)
        if response is None:
            response = {}
        # account the response travelling back
        back = Message(
            type=MessageType.RESPONSE,
            src=message.dst,
            dst=message.src,
            payload=response,
        )
        self._traverse(back, path[::-1])
        return response

    def _wildcard_candidates(self, src: str) -> List[str]:
        """Breadth-first probe order for wildcard routing (deterministic:
        nodes appear in link-creation order, nearest hop count first)."""
        visited = {src}
        frontier = list(self._adjacency[src])
        order: List[str] = []
        while frontier:
            node = frontier.pop(0)
            if node in visited:
                continue
            visited.add(node)
            order.append(node)
            frontier.extend(
                n for n in self._adjacency[node] if n not in visited
            )
        return order

    def _candidate_fault(self, probe: Message, candidate: str) -> None:
        """Hook: raise to fail one wildcard probe (chaos injection)."""

    def _deliver_any(self, message: Message) -> dict:
        """Walk the wildcard candidates, tolerating sick peers.

        A candidate that fails transiently (partitioned path, injected
        fault) no longer aborts the whole walk: its failure feeds the
        *sender's* circuit breaker toward that peer and the walk moves
        on.  While a breaker is open its peer is skipped outright —
        one flaky relay stops stalling every workload request.  If the
        walk ends with no acceptor, a transient failure seen along the
        way propagates (so ``Endpoint.send`` retries); otherwise the
        walk was genuinely unclaimed.
        """
        sender = self.endpoint(message.src)
        last_transient: Optional[TransientCommunicationError] = None
        for candidate in self._wildcard_candidates(message.src):
            breaker = sender.breaker_for(candidate)
            if not breaker.allow(sender.clock):
                continue
            probe = Message(
                type=message.type,
                src=message.src,
                dst=candidate,
                payload=message.payload,
                headers=dict(message.headers),
            )
            try:
                path = self.shortest_path(message.src, candidate)
                self._candidate_fault(probe, candidate)
                self._traverse(probe, path)
                response = self.endpoint(candidate).handle(probe)
            except FencedError:
                # a fencing rejection is the *peer's* authoritative
                # verdict on a stale epoch, not evidence the peer is
                # unhealthy: it must never feed the breaker or count
                # as a probe failure
                raise
            except TransientCommunicationError as exc:
                breaker.record_failure(sender.clock)
                self.obs.metrics.inc(
                    "repro_net_wildcard_probe_failures_total",
                    help="Wildcard-walk probes that failed transiently.",
                    endpoint=message.src,
                    peer=candidate,
                )
                last_transient = exc
                continue
            breaker.record_success(sender.clock)
            if response is not None:
                back = Message(
                    type=MessageType.RESPONSE,
                    src=candidate,
                    dst=message.src,
                    payload=response,
                )
                self._traverse(back, path[::-1])
                return response
        if last_transient is not None:
            raise last_transient
        raise WildcardUnclaimedError(
            f"no endpoint accepted wildcard {message.type} from {message.src!r}"
        )

    # -- reporting ------------------------------------------------------------

    def traffic_report(self) -> List[dict]:
        """Per-link traffic summary.

        Endpoints that retried, timed out or gave up on sends append
        ``endpoint:<name>`` rows carrying their retry accounting, so a
        chaos run's recovery work shows up next to the raw traffic.
        """
        report = [
            {
                "link": f"{link.a}<->{link.b}",
                "bytes": link.bytes_carried,
                "messages": link.messages_carried,
                "busy_seconds": link.busy_seconds,
            }
            for link in self.links()
        ]
        for name, endpoint in self._endpoints.items():
            if endpoint.send_retries or endpoint.send_failures or endpoint.send_timeouts:
                report.append(
                    {
                        "link": f"endpoint:{name}",
                        "retries": endpoint.send_retries,
                        "failures": endpoint.send_failures,
                        "timeouts": endpoint.send_timeouts,
                        "backoff_seconds": endpoint.backoff_seconds,
                    }
                )
            for peer, breaker in sorted(endpoint.peer_breakers.items()):
                if breaker.opens or breaker.skips:
                    report.append(
                        {
                            "link": f"breaker:{name}->{peer}",
                            "state": breaker.state.value,
                            "opens": breaker.opens,
                            "closes": breaker.closes,
                            "skips": breaker.skips,
                        }
                    )
        return report

    def total_bytes(self) -> int:
        """Total bytes carried across all links."""
        return sum(link.bytes_carried for link in self.links())

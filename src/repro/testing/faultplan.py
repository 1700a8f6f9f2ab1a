"""Declarative, seeded fault schedules for chaos testing.

A :class:`FaultPlan` is a list of :class:`Fault` rules plus one
:class:`~repro.util.rng.RandomStream`.  Each rule names a fault kind
(message drop, delay, duplication, link partition, worker crash
mid-segment, server crash, slow-worker degradation) and a *match*: by
endpoint name, message type and/or a half-open delivery-index window
``[after_index, until_index)``.  Probabilistic rules draw from the
plan's seeded stream at match time, so a chaos run is a pure function
of ``(topology, workload, plan seed)`` — a failing seed replays
exactly.

The plan is consulted by :class:`repro.testing.chaos.ChaosNetwork`;
it never touches production code paths on its own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.net.protocol import Message, MessageType
from repro.util.errors import ConfigurationError
from repro.util.rng import RandomStream


class FaultKind(enum.Enum):
    """Every injectable fault."""

    #: Message never arrives; the sender sees a transient error.
    DROP = "drop"
    #: Message arrives but the virtual clock is charged extra seconds
    #: (can trip per-message timeouts).
    DELAY = "delay"
    #: Message is delivered twice (tests receiver idempotency).
    DUPLICATE = "duplicate"
    #: A specific link refuses all traffic while active.
    PARTITION = "partition"
    #: A worker endpoint dies mid-segment and never heartbeats again.
    WORKER_CRASH = "worker_crash"
    #: A server endpoint refuses all traffic while active.
    SERVER_CRASH = "server_crash"
    #: A worker executes only ``factor`` of its segment steps per pass.
    SLOW_WORKER = "slow_worker"
    #: The project server process dies (losing all in-memory state)
    #: after ``after_results`` results were durably applied, then
    #: restarts from its on-disk journal.  Consumed by the
    #: server-restart scenario, not by :class:`ChaosNetwork`: a process
    #: death is a deployment-level event, not a message-level one.
    SERVER_RESTART = "server_restart"
    #: A worker keeps heartbeating but makes glacial progress: its
    #: segment throughput is throttled by ``factor`` *and* it executes
    #: only ``segments_per_cycle`` segments per work cycle, so commands
    #: take many cycles of virtual time.  Trips lease deadlines, not
    #: death detection.
    STRAGGLER = "straggler"
    #: A worker's connectivity oscillates: all its traffic (both
    #: directions) is dropped for ``down_deliveries`` out of every
    #: ``up_deliveries + down_deliveries`` deliveries.  The server sees
    #: repeated dead/revived cycles — flaps — feeding health scoring.
    FLAPPING_WORKER = "flapping_worker"
    #: A peer server answers wildcard probes with transient failures
    #: while active — exercising the prober's circuit breaker.
    SICK_PEER = "sick_peer"
    #: A shard server process dies for good (no restart) once
    #: ``after_results`` results are durably journaled fleet-wide.
    #: Consumed by the shard-crash scenario, which then arms a
    #: permanent :attr:`SERVER_CRASH` window for the victim and lets
    #: the gateway's shard monitor detect the death and fail over —
    #: like :attr:`SERVER_RESTART`, a deployment-level event, not a
    #: message-level one.
    SHARD_CRASH = "shard_crash"


@dataclass
class Fault:
    """One fault rule.  Build via the :class:`FaultPlan` helpers.

    Attributes
    ----------
    kind:
        What to inject.
    src / dst / message_type:
        Message matchers (``None`` matches anything).  For endpoint
        faults (crashes, slow worker) ``dst`` names the victim.
    link:
        For :attr:`FaultKind.PARTITION`: the (a, b) edge to sever.
    directed:
        For :attr:`FaultKind.PARTITION`: when true, only the
        ``link[0] -> link[1]`` direction is severed; traffic the other
        way still flows.  Built via :meth:`FaultPlan.partition_link`.
    after_index / until_index:
        Half-open delivery-index window in which the rule is active;
        ``until_index=None`` means "forever".  Endpoint faults use the
        window as their activation span (a server crash with an
        ``until_index`` reboots afterwards).
    probability:
        Chance the rule fires on a matching delivery, drawn from the
        plan's seeded stream (1.0 = always).
    count:
        Maximum number of firings (``None`` = unlimited).
    delay_seconds / factor / command_id / at_segment:
        Kind-specific parameters.
    """

    kind: FaultKind
    src: Optional[str] = None
    dst: Optional[str] = None
    message_type: Optional[MessageType] = None
    link: Optional[Tuple[str, str]] = None
    directed: bool = False
    after_index: int = 0
    until_index: Optional[int] = None
    probability: float = 1.0
    count: Optional[int] = None
    delay_seconds: float = 0.0
    factor: float = 1.0
    command_id: Optional[str] = None
    at_segment: Optional[int] = None
    #: For :attr:`FaultKind.SERVER_RESTART`: kill the server once this
    #: many results have been durably applied to its journal.
    after_results: Optional[int] = None
    #: For :attr:`FaultKind.STRAGGLER`: segments the victim executes
    #: per work cycle (making command execution take virtual time).
    segments_per_cycle: Optional[int] = None
    #: For :attr:`FaultKind.FLAPPING_WORKER`: deliveries up, then down,
    #: repeating over the activation window.
    up_deliveries: int = 0
    down_deliveries: int = 0
    #: Firings so far (mutated by the plan).
    fired: int = 0

    def active_at(self, index: int) -> bool:
        """Whether the delivery-index window covers *index*."""
        if index < self.after_index:
            return False
        if self.until_index is not None and index >= self.until_index:
            return False
        return self.count is None or self.fired < self.count

    def matches_message(self, message: Message) -> bool:
        """Whether the matchers accept *message*."""
        if self.src is not None and message.src != self.src:
            return False
        if self.dst is not None and message.dst != self.dst:
            return False
        if self.message_type is not None and message.type != self.message_type:
            return False
        return True

    def matches_link(self, a: str, b: str) -> bool:
        """Whether this (partition) rule severs the a->b traversal.

        Symmetric rules (the default) sever both directions of the
        edge; directed rules sever only the ``link[0] -> link[1]``
        traversal, so the reverse direction still delivers.
        """
        if self.link is None:
            return False
        if self.directed:
            return (a, b) == tuple(self.link)
        return set(self.link) == {a, b}

    def describe(self) -> dict:
        """Schema-stable summary (used by reports and TESTING.md docs)."""
        out = {"kind": self.kind.value, "fired": self.fired}
        if self.directed:
            out["directed"] = True
        for key in (
            "src", "dst", "message_type", "link", "after_index",
            "until_index", "probability", "count", "delay_seconds",
            "factor", "command_id", "at_segment", "after_results",
            "segments_per_cycle", "up_deliveries", "down_deliveries",
        ):
            value = getattr(self, key)
            if key == "message_type" and value is not None:
                value = value.value
            if key in ("after_results", "segments_per_cycle"):
                if value is not None:  # 1 is a meaningful threshold here
                    out[key] = value
            elif value not in (None, 0, 1.0) or key == "after_index":
                out[key] = value
        return out


class FaultPlan:
    """A seeded schedule of faults.

    Parameters
    ----------
    seed:
        Seed for the probability draws; two plans built the same way
        with the same seed inject identical fault sequences.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = RandomStream(seed)
        self.faults: List[Fault] = []
        #: Log of (delivery_index, fault) firings, for post-mortems.
        self.firings: List[Tuple[int, Fault]] = []

    # -- builders ----------------------------------------------------------

    def add(self, fault: Fault) -> Fault:
        """Append a pre-built rule."""
        if fault.probability < 0.0 or fault.probability > 1.0:
            raise ConfigurationError(
                f"fault probability must be in [0, 1], got {fault.probability}"
            )
        self.faults.append(fault)
        return fault

    def drop(self, **kwargs) -> Fault:
        """Drop matching messages (see :class:`Fault` for matchers)."""
        return self.add(Fault(kind=FaultKind.DROP, **kwargs))

    def delay(self, delay_seconds: float, **kwargs) -> Fault:
        """Charge matching deliveries *delay_seconds* extra virtual time."""
        return self.add(
            Fault(kind=FaultKind.DELAY, delay_seconds=delay_seconds, **kwargs)
        )

    def duplicate(self, **kwargs) -> Fault:
        """Deliver matching messages twice."""
        return self.add(Fault(kind=FaultKind.DUPLICATE, **kwargs))

    def partition(
        self,
        a: str,
        b: str,
        after_index: int = 0,
        until_index: Optional[int] = None,
        **kwargs,
    ) -> Fault:
        """Sever the a<->b link for a delivery-index window."""
        return self.add(
            Fault(
                kind=FaultKind.PARTITION,
                link=(a, b),
                after_index=after_index,
                until_index=until_index,
                **kwargs,
            )
        )

    def partition_link(
        self,
        src: str,
        dst: str,
        after_index: int = 0,
        heal_after: Optional[int] = None,
        **kwargs,
    ) -> Fault:
        """Sever only the ``src -> dst`` direction of a link.

        Unlike :meth:`partition`, the reverse direction keeps
        delivering — the asymmetric shape real partitions take (a
        gateway that cannot reach a shard whose own uplink still
        works).  ``heal_after`` schedules the heal: the partition
        lifts ``heal_after`` deliveries after it activates
        (``until_index = after_index + heal_after``); ``None`` means
        the link never heals.
        """
        if heal_after is not None and heal_after < 1:
            raise ConfigurationError(
                f"heal_after must be >= 1 or None, got {heal_after}"
            )
        until_index = None if heal_after is None else after_index + heal_after
        return self.add(
            Fault(
                kind=FaultKind.PARTITION,
                link=(src, dst),
                directed=True,
                after_index=after_index,
                until_index=until_index,
                **kwargs,
            )
        )

    def crash_worker(
        self,
        worker: str,
        command_id: Optional[str] = None,
        at_segment: Optional[int] = None,
    ) -> Fault:
        """Kill *worker* mid-segment (optionally on a specific command
        and/or segment index)."""
        return self.add(
            Fault(
                kind=FaultKind.WORKER_CRASH,
                dst=worker,
                command_id=command_id,
                at_segment=at_segment,
            )
        )

    def crash_server(
        self,
        server: str,
        after_index: int = 0,
        until_index: Optional[int] = None,
    ) -> Fault:
        """Make *server* refuse all traffic over a delivery window
        (``until_index=None`` = never reboots)."""
        return self.add(
            Fault(
                kind=FaultKind.SERVER_CRASH,
                dst=server,
                after_index=after_index,
                until_index=until_index,
            )
        )

    def restart_server(self, server: str, after_results: int = 1) -> Fault:
        """Kill the project server *server* (total in-memory state loss)
        once *after_results* results are durably journaled, then restart
        it from disk.  Consumed by
        :func:`repro.testing.scenarios.run_swarm_with_server_restart`."""
        if after_results < 1:
            raise ConfigurationError(
                f"after_results must be >= 1, got {after_results}"
            )
        return self.add(
            Fault(
                kind=FaultKind.SERVER_RESTART,
                dst=server,
                after_results=after_results,
            )
        )

    def crash_shard(self, shard: str, after_results: int = 1) -> Fault:
        """Kill shard server *shard* permanently (no restart — its
        projects must migrate) once *after_results* results are durably
        journaled across the fleet.  Consumed by
        :func:`repro.testing.soak.run_multitenant_with_shard_crash`."""
        if after_results < 1:
            raise ConfigurationError(
                f"after_results must be >= 1, got {after_results}"
            )
        return self.add(
            Fault(
                kind=FaultKind.SHARD_CRASH,
                dst=shard,
                after_results=after_results,
            )
        )

    def slow_worker(self, worker: str, factor: float) -> Fault:
        """Throttle *worker* to *factor* of its segment steps."""
        if not 0.0 < factor <= 1.0:
            raise ConfigurationError(
                f"slow-worker factor must be in (0, 1], got {factor}"
            )
        return self.add(
            Fault(kind=FaultKind.SLOW_WORKER, dst=worker, factor=factor)
        )

    def straggler(
        self,
        worker: str,
        factor: float = 0.1,
        segments_per_cycle: int = 1,
    ) -> Fault:
        """Make *worker* a straggler: alive and heartbeating, but doing
        only ``factor`` of its segment steps and ``segments_per_cycle``
        segments per work cycle — commands now span many virtual-time
        ticks, eventually blowing their lease deadlines."""
        if not 0.0 < factor <= 1.0:
            raise ConfigurationError(
                f"straggler factor must be in (0, 1], got {factor}"
            )
        if segments_per_cycle < 1:
            raise ConfigurationError(
                f"segments_per_cycle must be >= 1, got {segments_per_cycle}"
            )
        return self.add(
            Fault(
                kind=FaultKind.STRAGGLER,
                dst=worker,
                factor=factor,
                segments_per_cycle=segments_per_cycle,
            )
        )

    def flapping_worker(
        self,
        worker: str,
        up_deliveries: int,
        down_deliveries: int,
        after_index: int = 0,
        until_index: Optional[int] = None,
    ) -> Fault:
        """Oscillate *worker*'s connectivity: within the activation
        window, traffic flows for ``up_deliveries`` deliveries, then is
        dropped for ``down_deliveries``, repeating."""
        if up_deliveries < 1 or down_deliveries < 1:
            raise ConfigurationError(
                "up_deliveries and down_deliveries must be >= 1"
            )
        return self.add(
            Fault(
                kind=FaultKind.FLAPPING_WORKER,
                dst=worker,
                up_deliveries=up_deliveries,
                down_deliveries=down_deliveries,
                after_index=after_index,
                until_index=until_index,
            )
        )

    def sick_peer(
        self,
        peer: str,
        after_index: int = 0,
        until_index: Optional[int] = None,
        probability: float = 1.0,
    ) -> Fault:
        """Make wildcard probes to server *peer* fail transiently while
        the window is active (the prober's circuit breaker should open
        and skip it)."""
        return self.add(
            Fault(
                kind=FaultKind.SICK_PEER,
                dst=peer,
                after_index=after_index,
                until_index=until_index,
                probability=probability,
            )
        )

    # -- consultation ------------------------------------------------------

    def _fires(self, fault: Fault, index: int) -> bool:
        if fault.probability < 1.0:
            # one seeded draw per candidate firing keeps the stream
            # aligned across replays of the same run
            if float(self.rng.uniform()) >= fault.probability:
                return False
        fault.fired += 1
        self.firings.append((index, fault))
        return True

    def message_faults(self, message: Message, index: int) -> List[Fault]:
        """Message-level rules (drop/delay/duplicate) firing on this
        delivery.  Mutates firing counters — call exactly once per
        delivery attempt."""
        fired = []
        for fault in self.faults:
            if fault.kind not in (
                FaultKind.DROP, FaultKind.DELAY, FaultKind.DUPLICATE
            ):
                continue
            if fault.active_at(index) and fault.matches_message(message):
                if self._fires(fault, index):
                    fired.append(fault)
        return fired

    def link_severed(self, a: str, b: str, index: int) -> Optional[Fault]:
        """The partition rule (if any) severing a<->b at *index*."""
        for fault in self.faults:
            if fault.kind is FaultKind.PARTITION and fault.active_at(index):
                if fault.matches_link(a, b):
                    if self._fires(fault, index):
                        return fault
        return None

    def server_crashed(self, name: str, index: int) -> Optional[Fault]:
        """The crash rule (if any) keeping server *name* down at *index*."""
        for fault in self.faults:
            if fault.kind is FaultKind.SERVER_CRASH and fault.dst == name:
                # a crash window is state, not a consumable firing:
                # ignore count, just check the index span
                if index >= fault.after_index and (
                    fault.until_index is None or index < fault.until_index
                ):
                    return fault
        return None

    def should_crash_worker(
        self, worker: str, command_id: str, segment: int
    ) -> bool:
        """Whether *worker* dies before this segment (crash-hook query)."""
        for fault in self.faults:
            if fault.kind is not FaultKind.WORKER_CRASH or fault.dst != worker:
                continue
            if fault.command_id is not None and fault.command_id != command_id:
                continue
            if fault.at_segment is not None and fault.at_segment != segment:
                continue
            if fault.count is not None and fault.fired >= fault.count:
                continue
            fault.fired += 1
            return True
        return False

    def server_restart_point(self, name: str) -> Optional[Fault]:
        """The restart rule (if any) scheduled for server *name*."""
        for fault in self.faults:
            if fault.kind is FaultKind.SERVER_RESTART and fault.dst == name:
                return fault
        return None

    def shard_crash_point(self, name: Optional[str] = None) -> Optional[Fault]:
        """The shard-crash rule (if any) — for *name*, or the first
        scheduled rule when *name* is ``None`` (scenario drivers ask
        "whose turn is it to die?")."""
        for fault in self.faults:
            if fault.kind is FaultKind.SHARD_CRASH and (
                name is None or fault.dst == name
            ):
                return fault
        return None

    def throttle_for(self, worker: str) -> float:
        """Combined slow-worker factor for *worker* (1.0 = unimpaired)."""
        factor = 1.0
        for fault in self.faults:
            if fault.kind is FaultKind.SLOW_WORKER and fault.dst == worker:
                factor *= fault.factor
        return factor

    def worker_flapping(self, name: str, index: int) -> Optional[Fault]:
        """The flapping rule (if any) holding *name*'s link down at *index*.

        Like :meth:`server_crashed`, a flap phase is state rather than a
        consumable firing: within the activation window the worker is up
        for ``up_deliveries`` deliveries, then down for
        ``down_deliveries``, repeating.
        """
        for fault in self.faults:
            if fault.kind is not FaultKind.FLAPPING_WORKER or fault.dst != name:
                continue
            if index < fault.after_index:
                continue
            if fault.until_index is not None and index >= fault.until_index:
                continue
            period = fault.up_deliveries + fault.down_deliveries
            phase = (index - fault.after_index) % period
            if phase >= fault.up_deliveries:
                return fault
        return None

    def peer_sick(self, name: str, index: int) -> Optional[Fault]:
        """The sick-peer rule (if any) failing a probe to *name* at *index*."""
        for fault in self.faults:
            if fault.kind is FaultKind.SICK_PEER and fault.dst == name:
                if fault.active_at(index) and self._fires(fault, index):
                    return fault
        return None

    def describe(self) -> List[dict]:
        """Summaries of every rule (reporting / reproduction notes)."""
        return [fault.describe() for fault in self.faults]

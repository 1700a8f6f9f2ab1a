"""The Copernicus server.

Every server runs identical code (paper section 2); its role — project
server, relay on a cluster head node, or both — emerges from its
connectivity and from whether projects were submitted to it.  A server:

* queues commands and matches them to worker capabilities;
* relays workload requests to "the first server with available
  commands" when its own queue is empty;
* tracks worker heartbeats, declares silent workers dead and requeues
  their in-flight commands from the last reported checkpoint;
* propagates command results back to the project's origin server,
  where the registered result sink (the project controller) consumes
  them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.command import Command, scoped_command_id, split_scoped_id
from repro.core.events import EventKind, EventLog
from repro.net.protocol import ANY_SERVER, Message, MessageType
from repro.net.transport import Endpoint, Network
from repro.obs.trace import SpanContext, trace_id_for
from repro.server.fairshare import FairShareScheduler
from repro.server.health import HealthPolicy, HealthRegistry
from repro.server.heartbeat import DEFAULT_INTERVAL, HeartbeatMonitor
from repro.server.lease import LeasePolicy, LeaseTracker
from repro.server.matching import WorkerCapabilities
from repro.server.queue import CommandQueue
from repro.server.wal import ServerJournal
from repro.util.errors import (
    FencedError,
    SchedulingError,
    TransientCommunicationError,
    WildcardUnclaimedError,
)


class CopernicusServer(Endpoint):
    """A server node on the overlay."""

    def __init__(
        self,
        name: str,
        network: Network,
        heartbeat_interval: float = DEFAULT_INTERVAL,
        lease_policy: Optional[LeasePolicy] = None,
        health_policy: Optional[HealthPolicy] = None,
    ) -> None:
        super().__init__(name, network)
        self.queue = CommandQueue()
        self.monitor = HeartbeatMonitor(heartbeat_interval)
        #: Deadline derivation for issued commands.  The default floor
        #: is two death-detection windows, so a worker is never called
        #: a straggler faster than it could be declared dead.
        self.lease_policy = lease_policy or LeasePolicy(
            min_seconds=max(240.0, 4.0 * heartbeat_interval)
        )
        #: The one record of in-flight work: a (worker, command) lease
        #: holds the command, its deadline and its latest checkpoint.
        self.leases = LeaseTracker()
        #: Per-worker EWMA health scores, probation and quarantine.
        self.health = HealthRegistry(health_policy)
        #: Commands under speculative re-execution: {scoped command
        #: key: the straggling worker whose late result loses the race}.
        self.speculated: Dict[str, str] = {}
        #: Liveness accounting.
        self.stragglers_detected = 0
        self.speculations_started = 0
        self.speculations_won = 0
        self.speculations_lost = 0
        #: Workload requests refused because the worker is quarantined.
        self.workloads_denied = 0
        #: Worker capabilities by worker name (workers attached here).
        self.worker_caps: Dict[str, WorkerCapabilities] = {}
        #: Result sinks per locally hosted project.
        self._sinks: Dict[str, Callable[[Command, dict], None]] = {}
        #: Count of commands requeued after worker failures.
        self.requeued_after_failure = 0
        #: Scoped keys of commands whose results already reached their
        #: sink here; a retransmitted or duplicated result is dropped,
        #: keeping completion exactly-once even under message
        #: duplication — and per tenant, since the keys are scoped.
        self.completed_ids: Set[str] = set()
        #: Count of duplicate results dropped by the dedup barrier.
        self.duplicates_dropped = 0
        #: Optional audit trail (attached by :class:`ProjectRunner`).
        self.events: Optional[EventLog] = None
        #: Latest virtual timestamp observed in messages/failure checks,
        #: used to stamp events that arrive without their own clock.
        self.clock = 0.0
        #: Optional durable journal (see :meth:`attach_journal`).  When
        #: set, every transition a resume reads of a hosted project —
        #: issue, checkpoint, result, epoch — is journaled *before* it
        #: is acknowledged, so a restarted server can resume.  Leases
        #: stay in memory: a resume requeues every outstanding command.
        self.journal: Optional[ServerJournal] = None
        #: Virtual enqueue time per queued command, by scoped key
        #: (feeds the ``queue.wait`` spans and the queue-wait histogram).
        self._queued_at: Dict[str, float] = {}
        #: The one workload builder and admission gate: every dispatch,
        #: submission and release goes through this scheduler (default
        #: policy until a deployment assigns one with quotas, weights
        #: or backpressure).
        self.fairshare = FairShareScheduler()
        #: Route overrides: {project_id: current origin server}.  A
        #: migrated project's commands still carry the dead shard's
        #: ``origin_server`` stamp; this table (flipped atomically by
        #: the failover driver) wins over the stamp when forwarding,
        #: and lets a stale peer answer a forward with a retryable
        #: redirect instead of a dead-end error.
        self.routes: Dict[str, str] = {}
        #: Ownership epochs: {project_id: the newest epoch this server
        #: knows}.  For hosted projects this is the authoritative
        #: regime every effectful write is fenced against; issued
        #: commands are stamped with it.  Absent entries mean epoch 0
        #: (first ownership), so epoch-unaware deployments see no
        #: fencing at all.
        self.epochs: Dict[str, int] = {}
        #: Demotion reports for projects this server lost to a newer
        #: epoch: {project_id: report dict}.  A fenced project is no
        #: longer hosted, dispatched or journaled here.
        self.fenced: Dict[str, dict] = {}
        #: Stale-epoch writes this server rejected as current owner.
        self.fencing_rejections = 0
        self.leases.bind_metrics(self.obs.metrics, self.name)
        self.health.bind_metrics(self.obs.metrics, self.name)

    def _record(self, kind: EventKind, **details) -> None:
        if self.events is not None:
            self.events.record(self.clock, kind, **details)

    def _count(self, name: str, amount: float = 1.0, help: str = "", **labels) -> None:
        """Increment a server-labelled counter on the shared registry."""
        self.obs.metrics.inc(name, amount, help=help, server=self.name, **labels)

    def _count_result(self, outcome: str) -> None:
        self._count(
            "repro_server_results_total",
            help="Results routed, by outcome.",
            outcome=outcome,
        )

    def _count_speculation(self, outcome: str) -> None:
        self._count(
            "repro_server_speculations_total",
            help="Speculative re-executions by race outcome.",
            outcome=outcome,
        )

    def _trace_ctx(self, command: Command) -> Dict:
        """The command's trace context, minted deterministically if absent."""
        if not command.trace or not command.trace.get("trace_id"):
            command.trace = {
                "trace_id": trace_id_for(command.project_id, command.command_id)
            }
        return command.trace

    # -- durability --------------------------------------------------------

    def attach_journal(self, journal: ServerJournal) -> None:
        """Make this server journal its hosted projects' transitions."""
        self.journal = journal

    def _journal_for(self, project_id: str):
        """The project's journal, or None when not journaling/hosting."""
        if self.journal is None or project_id not in self._sinks:
            return None
        return self.journal.project(project_id)

    # -- scheduling --------------------------------------------------------

    def _schedule(
        self, caps: WorkerCapabilities, max_commands: Optional[int] = None
    ):
        """Local workload construction through the fair-share scheduler."""
        workload = self.fairshare.build(
            self.queue,
            caps,
            now=self.clock,
            queued_at=self._queued_at,
            max_commands=max_commands,
        )
        for tenant, command_id, waited in self.fairshare.pop_violations():
            self._count(
                "repro_server_aging_violations_total",
                help="Aged admissible commands bypassed by the scheduler "
                "(must stay zero; invariant 12).",
                project=tenant,
            )
            self._record(
                EventKind.AGING_VIOLATED,
                command=command_id,
                project_id=tenant,
                server=self.name,
                waited=round(waited, 3),
            )
        return workload

    def _drain_deferred(self) -> None:
        """Admit deferred submissions whose tenants drained below the
        backpressure limit (deterministic: tenant name order, FIFO)."""
        for command in self.fairshare.drain(self.queue):
            self._queued_at[command.scoped_id] = self.clock
            self.queue.push(command)
            self._count(
                "repro_server_admissions_released_total",
                help="Deferred commands admitted after queues drained.",
                project=command.project_id,
            )
            self._record(
                EventKind.ADMISSION_RELEASED,
                command=command.command_id,
                project_id=command.project_id,
                server=self.name,
            )

    # -- project hosting ---------------------------------------------------

    def host_project(
        self, project_id: str, sink: Callable[[Command, dict], None]
    ) -> None:
        """Register this server as *project_id*'s origin with a result sink."""
        self._sinks[project_id] = sink

    def submit_commands(self, commands: List[Command]) -> None:
        """Queue commands for a project hosted here (stamps origin).

        With a journal attached the issuance is durable before any
        command becomes visible to workers: a server that crashes right
        after this call requeues them on recovery.
        """
        for command in commands:
            if command.project_id in self.fenced:
                # this server lost the project to a newer owner; a
                # late controller submission here is a stale writer
                raise FencedError(
                    f"project {command.project_id!r} is fenced on "
                    f"{self.name!r} (owned by "
                    f"{self.fenced[command.project_id]['owner']!r} at epoch "
                    f"{self.fenced[command.project_id]['epoch']})",
                    project_id=command.project_id,
                    stale_epoch=self.fenced[command.project_id]["stale_epoch"],
                    current_epoch=self.fenced[command.project_id]["epoch"],
                )
            if not command.origin_server:
                command.origin_server = self.name
            # stamp the ownership regime the command is issued under;
            # every downstream write derived from it is fenced on this
            command.epoch = self.epochs.get(command.project_id, 0)
        if self.journal is not None:
            by_project: Dict[str, List[Command]] = {}
            for command in commands:
                by_project.setdefault(command.project_id, []).append(command)
            for project_id, group in by_project.items():
                journal = self._journal_for(project_id)
                if journal is not None:
                    journal.record_issued(group)
        for command in commands:
            trace_id = trace_id_for(command.project_id, command.command_id)
            issue = self.obs.tracer.record(
                "command.issue",
                self.clock,
                self.clock,
                trace_id,
                component=self.name,
                command=command.command_id,
            )
            command.trace = {"trace_id": trace_id, "span_id": issue.span_id}
            if self.fairshare.should_defer(command, self.queue):
                # journaled (durable) but held back: the tenant's queue
                # is at its backpressure limit; released FIFO by
                # _drain_deferred as the queue drains
                self.fairshare.defer(command)
                self._count(
                    "repro_server_admissions_deferred_total",
                    help="Submissions deferred by queue-depth backpressure.",
                    project=command.project_id,
                )
                self._record(
                    EventKind.ADMISSION_DEFERRED,
                    command=command.command_id,
                    project_id=command.project_id,
                    server=self.name,
                )
                continue
            self._queued_at[command.scoped_id] = self.clock
            self.queue.push(command)
        self._count(
            "repro_server_commands_submitted_total",
            amount=len(commands),
            help="Commands submitted to this server by hosted controllers.",
        )

    def restore_commands(
        self,
        project_id: str,
        commands: List[Command],
        completed_ids: Set[str],
        epoch: Optional[int] = None,
    ) -> None:
        """Re-adopt a recovered project's state after a server restart.

        Seeds the exactly-once barrier with the journaled completions
        (so a late duplicate of a pre-crash result is still dropped)
        and requeues the outstanding commands *without* re-journaling
        them as issued — their issuance is already on disk.

        When *epoch* is given (the journal's recovered ownership
        epoch), it is adopted first — validated against anything this
        server already knows and journaled — and the restored commands
        are re-stamped with it, so work reissued by the new owner is
        distinguishable from the dead regime's in-flight copies.
        """
        if epoch is not None:
            self.adopt_epoch(project_id, int(epoch))
        current = self.epochs.get(project_id, 0)
        self.completed_ids.update(
            scoped_command_id(project_id, command_id)
            for command_id in completed_ids
        )
        for command in commands:
            if not command.origin_server:
                command.origin_server = self.name
            command.epoch = current
            self._trace_ctx(command)
            self._queued_at[command.scoped_id] = self.clock
            self.queue.push(command)
        self._count(
            "repro_server_commands_restored_total",
            amount=len(commands),
            help="Commands requeued from the journal after a restart.",
        )

    # -- ownership epochs (fencing) ----------------------------------------

    def adopt_epoch(self, project_id: str, epoch: int) -> None:
        """Adopt *epoch* as *project_id*'s current ownership regime.

        Epochs only move forward: adopting the known epoch again is an
        idempotent no-op (a plain restart), a newer epoch is journaled
        before any command is stamped with it, and an *older* one —
        a resurrected owner trying to re-adopt a project it lost —
        raises :class:`FencedError`.
        """
        epoch = int(epoch)
        current = self.epochs.get(project_id, 0)
        if epoch < current:
            self._reject_fenced(project_id, "", epoch, current, "adopt")
            raise FencedError(
                f"cannot adopt epoch {epoch} for project {project_id!r} "
                f"on {self.name!r}: current epoch is {current}",
                project_id=project_id,
                stale_epoch=epoch,
                current_epoch=current,
            )
        if epoch == current:
            self.epochs[project_id] = epoch
            return
        self.epochs[project_id] = epoch
        journal = self._journal_for(project_id)
        if journal is not None:
            # durable before any command carries the new stamp: a
            # restarted owner resumes under the same regime
            journal.record_epoch(epoch)
        self._count(
            "repro_epoch_bumps_total",
            help="Ownership epoch adoptions (one per regime change).",
            project=project_id,
        )
        self._record(
            EventKind.EPOCH_BUMPED,
            project_id=project_id,
            server=self.name,
            epoch=epoch,
            previous=current,
        )

    def _fenced(self, command: Command, path: str) -> bool:
        """Whether *command* was issued under a dead ownership regime.

        The one epoch fence of every effectful path (checkpoint, lease,
        forward, result): a stale write is counted and recorded as
        rejected on *path* before the caller drops it.
        """
        current = self.epochs.get(command.project_id, 0)
        stale = int(command.epoch) < current
        if stale:
            self._reject_fenced(
                command.project_id, command.command_id, int(command.epoch),
                current, path,
            )
        return stale

    def _reject_fenced(
        self, project_id: str, command_id: str, stale: int, current: int, path: str
    ) -> None:
        """Count and record one stale-epoch write rejection."""
        self.fencing_rejections += 1
        self._count(
            "repro_fencing_rejections_total",
            help="Stale-epoch writes rejected by the project's "
            "current owner, by path.",
            project=project_id,
            path=path,
        )
        self._record(
            EventKind.FENCING_REJECTED,
            command=command_id,
            project_id=project_id,
            server=self.name,
            path=path,
            stale_epoch=stale,
            current_epoch=current,
        )

    def demote_project(self, project_id: str, epoch: int, owner: str) -> dict:
        """Stand down as *project_id*'s owner: it now lives at *owner*
        under *epoch*.

        The zombie path: a partitioned shard heals and learns — from a
        probe's fence table or its first rejected write — that the
        project was migrated away under a newer epoch while it was
        unreachable.  The shard stops dispatching the project, voids
        its leases, forwards its locally-journaled completions to the
        new owner still stamped with the dead regime's epoch (the
        owner's dedup barrier drops what it already has; its fence
        rejects and counts the rest — either way nothing is applied
        twice), releases the project's journal, and flips its route
        table.  Idempotent; returns the demotion report.
        """
        if project_id in self.fenced:
            return self.fenced[project_id]
        epoch = int(epoch)
        stale = self.epochs.get(project_id, 0)
        # 1. stop dispatch: purge the project's queued commands
        purged = self.queue.remove_project(project_id)
        for key in [
            k for k in self._queued_at if split_scoped_id(k)[0] == project_id
        ]:
            del self._queued_at[key]
        # 2. void leases — they belong to the dead regime; any results
        #    they still produce will be fenced
        voided = 0
        for lease in self.leases.active():
            command = lease.command
            if command.project_id != project_id:
                continue
            self.leases.clear(lease.worker, command.scoped_id)
            self.fairshare.release(command)
            self.speculated.pop(command.scoped_id, None)
            voided += 1
        # 3. forward locally-journaled completions to the new owner,
        #    still carrying their stale stamps: exactly-once is decided
        #    there (dedup drop or fencing rejection), never here
        journal = self._journal_for(project_id)
        results = list(journal.state.results) if journal is not None else []
        forwarded = rejected = duplicates = 0
        for command, result in results:
            forwarded += 1
            try:
                response = self.send(
                    owner,
                    MessageType.RESULT_FORWARD,
                    {"command": command.to_payload(), "result": result},
                )
            except FencedError:
                rejected += 1
                continue
            except TransientCommunicationError:
                # the owner is momentarily unreachable; the completion
                # is still in the shipped journal, so nothing is lost
                continue
            if response.get("duplicate"):
                duplicates += 1
        # 4. release ownership: unhost, free the journal handle, flip
        #    the route so anything still arriving here is redirected
        self._sinks.pop(project_id, None)
        if self.journal is not None:
            self.journal.release(project_id)
        self.routes[project_id] = owner
        self.epochs[project_id] = epoch
        report = {
            "project_id": project_id,
            "server": self.name,
            "owner": owner,
            "stale_epoch": stale,
            "epoch": epoch,
            "queue_purged": purged,
            "leases_voided": voided,
            "results_forwarded": forwarded,
            "forwards_rejected": rejected,
            "forwards_duplicate": duplicates,
        }
        self.fenced[project_id] = report
        self._count(
            "repro_projects_fenced_total",
            help="Projects this server stood down from after losing "
            "ownership to a newer epoch.",
            project=project_id,
        )
        self._record(
            EventKind.PROJECT_FENCED,
            project_id=project_id,
            server=self.name,
            owner=owner,
            stale_epoch=stale,
            epoch=epoch,
            queue_purged=purged,
            leases_voided=voided,
            results_forwarded=forwarded,
            forwards_rejected=rejected,
            forwards_duplicate=duplicates,
        )
        return report

    def update_route(self, project_id: str, server: str) -> None:
        """Point *project_id*'s results at *server* (post-migration)."""
        self.routes[project_id] = server

    def hosts(self, project_id: str) -> bool:
        """Whether this server is the origin of *project_id*."""
        return project_id in self._sinks

    # -- message handling ---------------------------------------------------

    def handle(self, message: Message) -> Optional[dict]:
        """Dispatch one inbound request."""
        if message.type == MessageType.WORKER_ANNOUNCE:
            return self._on_announce(message)
        if message.type == MessageType.HEARTBEAT:
            return self._on_heartbeat(message)
        if message.type == MessageType.WORKLOAD_REQUEST:
            return self._on_workload_request(message)
        if message.type == MessageType.COMMAND_FETCH:
            return self._on_command_fetch(message)
        if message.type == MessageType.COMMAND_RESULT:
            return self._on_command_result(message)
        if message.type == MessageType.RESULT_FORWARD:
            return self._on_result_forward(message)
        if message.type == MessageType.PROJECT_STATUS:
            return self._on_project_status(message)
        raise SchedulingError(
            f"server {self.name!r} cannot handle {message.type}"
        )

    def _on_announce(self, message: Message) -> dict:
        caps = WorkerCapabilities.from_payload(message.payload)
        self.worker_caps[caps.worker] = caps
        now = float(message.payload.get("now", 0.0))
        self.clock = max(self.clock, now)
        revived = self.monitor.register(caps.worker, now)
        if revived:
            # a re-announce after a declared death is a flap: record
            # the revival (so requeue accounting stays consistent) and
            # penalize the worker's health score
            self._record(EventKind.WORKER_REVIVED, worker=caps.worker, server=self.name)
            self._observe_failure(caps.worker, "flap")
        return {"ok": True, "server": self.name}

    def _on_heartbeat(self, message: Message) -> dict:
        worker = message.payload["worker"]
        now = float(message.payload["now"])
        self.clock = max(self.clock, now)
        if self.monitor.beat(worker, now):
            self._record(EventKind.WORKER_REVIVED, worker=worker, server=self.name)
            self._observe_failure(worker, "flap")
        for key, checkpoint in (message.payload.get("checkpoints") or {}).items():
            project_id, command_id = split_scoped_id(key)
            lease = self.leases.get(worker, key)
            command = lease.command if lease is not None else None
            if command is not None:
                if self._fenced(command, "checkpoint"):
                    # a checkpoint for a dead regime's command: never
                    # journal, keep or acknowledge it — the new owner
                    # resumed the command under a fresher epoch elsewhere
                    continue
                lease.checkpoint = checkpoint
                journal = self._journal_for(command.project_id)
                if journal is not None and isinstance(checkpoint, dict):
                    # durable before the ack: a restarted server requeues
                    # this command from the acknowledged checkpoint
                    # (journals are per project, so the plain id is the
                    # right key there)
                    journal.record_checkpoint(
                        worker, command.command_id, checkpoint
                    )
            step = checkpoint.get("step") if isinstance(checkpoint, dict) else None
            self._record(
                EventKind.CHECKPOINT_REPORTED,
                worker=worker,
                command=command_id,
                project_id=project_id,
                step=step,
            )
            self._count(
                "repro_server_checkpoints_total",
                help="Checkpoints acknowledged from worker heartbeats.",
            )
            if command is not None:
                ctx = self._trace_ctx(command)
                self.obs.tracer.record(
                    "checkpoint.ack",
                    now,
                    now,
                    ctx["trace_id"],
                    component=self.name,
                    parent_id=ctx.get("span_id"),
                    command=command_id,
                    worker=worker,
                    step=step,
                )
        return {"ok": True}

    def _on_workload_request(self, message: Message) -> dict:
        caps = WorkerCapabilities.from_payload(message.payload)
        now = float(message.payload.get("now", self.clock))
        self.clock = max(self.clock, now)
        allowed, max_commands, transition = self.health.admit(
            caps.worker, self.clock
        )
        if transition == "readmitted":
            self._record(
                EventKind.WORKER_READMITTED,
                worker=caps.worker,
                server=self.name,
                score=round(self.health.score(caps.worker), 4),
            )
        if not allowed:
            self.workloads_denied += 1
            self._count(
                "repro_server_workloads_denied_total",
                help="Workload requests refused (worker quarantined).",
            )
            return {"commands": [], "cores": []}
        workload = self._schedule(caps, max_commands=max_commands)
        if not workload:
            workload = self._fetch_from_peers(caps, max_commands=max_commands)
        # a stale-regime command (e.g. fetched from a zombie peer's
        # queue) must never be leased: drop it before the grant
        workload = [
            (command, cores)
            for command, cores in workload
            if not self._fenced(command, "lease")
        ]
        out_commands, out_cores = [], []
        for command, cores in workload:
            deadline = self.lease_policy.deadline_for(command, cores, self.clock)
            self.leases.grant(caps.worker, command, self.clock, deadline)
            ctx = self._trace_ctx(command)
            queued_at = self._queued_at.pop(command.scoped_id, self.clock)
            self.obs.tracer.record(
                "queue.wait",
                queued_at,
                self.clock,
                ctx["trace_id"],
                component=self.name,
                parent_id=ctx.get("span_id"),
                command=command.command_id,
                worker=caps.worker,
                deadline=deadline,
            )
            self.obs.metrics.observe(
                "repro_server_queue_wait_seconds",
                self.clock - queued_at,
                help="Virtual seconds commands waited in the queue.",
                server=self.name,
            )
            out_commands.append(command.to_payload())
            out_cores.append(cores)
        if workload:
            self._record(
                EventKind.WORKLOAD_ASSIGNED,
                worker=caps.worker,
                server=self.name,
                commands=[c.command_id for c, _ in workload],
                projects=sorted({c.project_id for c, _ in workload}),
            )
            self._count(
                "repro_server_workloads_assigned_total",
                help="Workloads handed to workers.",
            )
            self._count(
                "repro_server_commands_assigned_total",
                amount=len(workload),
                help="Commands handed to workers inside workloads.",
            )
        # queue depth dropped: deferred submissions may now be admitted
        self._drain_deferred()
        return {"commands": out_commands, "cores": out_cores}

    def _fetch_from_peers(
        self, caps: WorkerCapabilities, max_commands: Optional[int] = None
    ) -> List[Tuple[Command, int]]:
        """Ask the overlay for commands when the local queue is empty.

        "No server has work" (the wildcard walked the whole overlay
        unclaimed) is an expected, quiet outcome.  Transient transport
        failures are recorded as ``PEER_FETCH_FAILED`` and the worker
        idles this cycle.  Permanent errors (unknown endpoints, broken
        trust) indicate a misconfigured overlay and propagate.  A peer
        that keeps failing transiently trips this server's circuit
        breaker toward it and is skipped (see
        :meth:`~repro.net.transport.Network._deliver_any`).
        """
        payload = caps.to_payload()
        if max_commands is not None:
            # probation sizing travels with the fetch so a peer's queue
            # respects the health cap too
            payload["max_commands"] = max_commands
        try:
            response = self.send(
                ANY_SERVER, MessageType.COMMAND_FETCH, payload
            )
        except WildcardUnclaimedError:
            return []
        except TransientCommunicationError as exc:
            self._record(
                EventKind.PEER_FETCH_FAILED,
                server=self.name,
                worker=caps.worker,
                error=type(exc).__name__,
            )
            return []
        return [
            (Command.from_payload(p), int(c))
            for p, c in zip(response.get("commands", []), response.get("cores", []))
        ]

    def _on_command_fetch(self, message: Message) -> Optional[dict]:
        caps = WorkerCapabilities.from_payload(message.payload)
        max_commands = message.payload.get("max_commands")
        workload = self._schedule(caps, max_commands=max_commands)
        if not workload:
            return None  # keep walking the overlay
        for command, _ in workload:
            # it left this queue: a stale stamp would only send the
            # fair-share aging pass scanning for nothing
            self._queued_at.pop(command.scoped_id, None)
        self._drain_deferred()
        return {
            "commands": [c.to_payload() for c, _ in workload],
            "cores": [k for _, k in workload],
        }

    def _on_command_result(self, message: Message) -> dict:
        worker = message.payload["worker"]
        command = Command.from_payload(message.payload["command"])
        result = message.payload["result"]
        # route FIRST: if forwarding to the origin fails transiently the
        # error propagates to the worker (which parks and resubmits)
        # while the lease and its checkpoint stay intact — clearing it
        # before a failed forward would drop the result with no requeue
        # path left.
        outcome = self._route_result(command, result)
        ctx = SpanContext.extract(message.headers)
        if ctx is not None:
            # the worker stamped its execution-end time so the span
            # covers the result's journey home (incl. parked retries)
            exec_end = float(message.headers.get("exec_end", self.clock))
            self.obs.tracer.record(
                "result.transfer",
                exec_end,
                max(self.clock, exec_end),
                ctx.trace_id,
                component=self.name,
                parent_id=ctx.span_id or None,
                command=command.command_id,
                worker=worker,
                outcome=outcome,
            )
        self.leases.clear(worker, command.scoped_id)
        # membership-guarded: a no-op for commands this server's queue
        # never dispatched (peer-stolen work)
        self.fairshare.release(command)
        if outcome == "duplicate":
            straggler = self.speculated.get(command.scoped_id)
            if straggler is not None:
                # the slower copy of a speculated command came home
                # after the race was decided: journal the loss, drop
                # the result (the dedup barrier already did), and ding
                # only the worker that actually straggled
                self.speculations_lost += 1
                self._count_speculation("lost")
                self._record(
                    EventKind.SPECULATION_LOST,
                    command=command.command_id,
                    project_id=command.project_id,
                    worker=worker,
                    server=self.name,
                )
                del self.speculated[command.scoped_id]
                if worker == straggler:
                    self._observe_failure(worker, "speculation_loss")
        elif outcome == "fenced":
            # a dead regime's result: rejected, never applied.  The
            # worker is innocent — it ran what it was handed — so no
            # health penalty, but no success credit either.
            pass
        else:
            self.health.observe_success(worker, self.clock)
            straggler = self.speculated.get(command.scoped_id)
            if straggler is not None and worker != straggler:
                # the speculative copy beat the straggler home; keep the
                # entry so the straggler's late copy is recognized (and
                # journaled) as the race's loser when it arrives
                self.speculations_won += 1
                self._count_speculation("won")
        # the worker's ack carries no duplicate flag — the race outcome
        # is the server's business (and the ack shape is a wire contract)
        return {"ok": True}

    def _on_result_forward(self, message: Message) -> dict:
        command = Command.from_payload(message.payload["command"])
        result = message.payload["result"]
        if command.project_id in self._sinks and self._fenced(command, "forward"):
            # a stale writer (a healed zombie, or a relay holding its
            # results) forwarded a dead regime's result: answer with the
            # typed, authoritative rejection — distinct from the
            # retryable redirect, never retried
            current = self.epochs[command.project_id]
            raise FencedError(
                f"result for {command.command_id!r} carries stale "
                f"epoch {command.epoch} (project "
                f"{command.project_id!r} is at epoch {current} on "
                f"{self.name!r})",
                project_id=command.project_id,
                stale_epoch=int(command.epoch),
                current_epoch=current,
            )
        if command.project_id not in self._sinks:
            route = self.routes.get(command.project_id)
            if route and route != self.name:
                # stale route: the project migrated away from here (or
                # was never ours post-failover).  Answer with a
                # retryable redirect so the sender re-forwards to the
                # successor itself rather than trusting us to relay.
                self._count(
                    "repro_shard_route_redirects_total",
                    help="Result forwards answered with a migration redirect.",
                    project=command.project_id,
                )
                return {"ok": False, "duplicate": False, "redirect": route}
        outcome = self._route_result(command, result)
        return {"ok": True, "duplicate": outcome == "duplicate"}

    def _route_result(self, command: Command, result: dict) -> str:
        """Deliver a result to its sink (or forward toward the origin).

        Returns ``"completed"`` when the sink consumed it,
        ``"duplicate"`` when the dedup barrier dropped it (here or at
        the origin), ``"fenced"`` when a stale ownership epoch kept it
        from ever reaching the sink, or ``"forwarded"`` otherwise.
        """
        ctx = self._trace_ctx(command)
        if command.project_id in self._sinks:
            if self._fenced(command, "result"):
                # a dead regime's result reached the owner directly
                # (worker delivery): fence it out *before* the dedup
                # barrier so it is rejected, counted and never applied
                self._count_result("fenced")
                return "fenced"
            if command.scoped_id in self.completed_ids:
                # a retried/duplicated COMMAND_RESULT, or a command that
                # was falsely requeued and finished twice: exactly-once
                self.duplicates_dropped += 1
                self._count(
                    "repro_server_duplicates_dropped_total",
                    help="Results dropped by the exactly-once dedup barrier.",
                )
                self._count_result("duplicate")
                self._record(
                    EventKind.DUPLICATE_RESULT_DROPPED,
                    command=command.command_id,
                    project_id=command.project_id,
                    server=self.name,
                )
                self.obs.tracer.record(
                    "result.duplicate",
                    self.clock,
                    self.clock,
                    ctx["trace_id"],
                    component=self.name,
                    parent_id=ctx.get("span_id"),
                    command=command.command_id,
                )
                return "duplicate"
            journal = self._journal_for(command.project_id)
            if journal is not None:
                # durable before the sink applies it: a crash after this
                # point replays the result instead of losing it
                journal.record_result(command, result)
            self.completed_ids.add(command.scoped_id)
            # the origin's ledger resolves here, covering commands stolen
            # cross-shard (their results only come home via
            # RESULT_FORWARD, never through _on_command_result)
            self.fairshare.release(command)
            self._sinks[command.project_id](command, result)
            self._count_result("completed")
            self.obs.tracer.record(
                "result.apply",
                self.clock,
                self.clock,
                ctx["trace_id"],
                component=self.name,
                parent_id=ctx.get("span_id"),
                command=command.command_id,
            )
            return "completed"
        # the route table (flipped on migration) wins over the
        # command's origin stamp, which may name a dead shard
        origin = self.routes.get(command.project_id, command.origin_server)
        if not origin or origin == self.name:
            raise SchedulingError(
                f"no sink for project {command.project_id!r} on {self.name!r}"
            )
        # no explicit trace headers: the forwarded command's payload
        # already carries its trace context end to end.  A peer whose
        # route is staler than ours answers with a redirect; follow it
        # (each hop visited at most once, so a routing cycle fails
        # loudly instead of looping).
        visited = {self.name}
        while True:
            if origin in visited:
                raise SchedulingError(
                    f"redirect cycle routing {command.project_id!r} "
                    f"result via {sorted(visited)}"
                )
            visited.add(origin)
            try:
                response = self.send(
                    origin,
                    MessageType.RESULT_FORWARD,
                    {"command": command.to_payload(), "result": result},
                )
            except FencedError:
                # the owner's authoritative verdict: our stamp is from
                # a dead regime.  Drop the relay quietly — the owner
                # counted the rejection, and the epoch only moves
                # forward, so retrying cannot change the answer.
                self._count_result("fenced")
                return "fenced"
            redirect = response.get("redirect")
            if not redirect:
                break
            self.routes[command.project_id] = redirect
            self._count(
                "repro_shard_route_retries_total",
                help="Result/dispatch re-routes after a shard moved or "
                "went unreachable.",
                project=command.project_id,
                reason="redirect",
            )
            origin = redirect
        self._count_result("forwarded")
        return "duplicate" if response.get("duplicate") else "forwarded"

    def _on_project_status(self, message: Message) -> dict:
        # the gateway's probe carries its fence table: {project_id:
        # {"epoch", "owner"}} for every project migrated away from a
        # shard it declared dead.  A healed zombie learns here — from
        # its first answered probe — that it lost those projects and
        # demotes itself synchronously; the demotion reports ride back
        # in the response.  A live owner hosting at the same (or a
        # newer) epoch is untouched.
        demoted = []
        for project_id, fence in (message.payload.get("fenced") or {}).items():
            if not isinstance(fence, dict):
                continue
            epoch = int(fence.get("epoch", 0))
            if (
                project_id in self._sinks
                and self.epochs.get(project_id, 0) < epoch
            ):
                demoted.append(
                    self.demote_project(
                        project_id, epoch, str(fence.get("owner", ""))
                    )
                )
        in_flight: Dict[str, List[str]] = {}
        for lease in self.leases.active():
            in_flight.setdefault(lease.worker, []).append(lease.command.command_id)
        return {
            "server": self.name,
            "queued": len(self.queue),
            "queued_ids": [c.command_id for c in self.queue.commands()],
            "workers": self.monitor.workers(),
            "in_flight": {w: sorted(ids) for w, ids in in_flight.items()},
            "fenced_projects": sorted(self.fenced),
            "demoted": demoted,
        }

    # -- failure & liveness handling ---------------------------------------

    def _observe_failure(self, worker: str, kind: str) -> None:
        """Fold a failure into the worker's health; record transitions."""
        transition = self.health.observe_failure(worker, kind, self.clock)
        self._count(
            "repro_server_worker_failures_total",
            help="Worker failures folded into health scores, by kind.",
            kind=kind,
        )
        if transition == "quarantined":
            self._count(
                "repro_server_quarantines_total",
                help="Workers quarantined by the health policy.",
            )
            record = self.health.record_for(worker)
            self._record(
                EventKind.WORKER_QUARANTINED,
                worker=worker,
                server=self.name,
                cause=kind,
                score=round(record.score, 4),
                until=record.quarantined_until,
            )

    def check_liveness(self, now: float) -> List[str]:
        """One liveness sweep: dead workers *and* stragglers.

        Dead workers (no heartbeat within the death window) get their
        in-flight commands requeued from the last checkpoint, exactly
        as before.  Stragglers — workers that heartbeat happily but
        hold a lease past its perfmodel-derived deadline — keep
        running, while a speculative copy of the command (resuming
        from the straggler's last reported checkpoint) is queued for
        another worker.  The exactly-once dedup barrier decides the
        race: the first result wins, the loser's is dropped and
        journaled as ``SPECULATION_LOST``.

        Returns the names of workers newly declared dead.
        """
        self.clock = max(self.clock, now)
        dead = self.monitor.check(now)
        for worker in dead:
            self._count(
                "repro_server_workers_dead_total",
                help="Workers declared dead after missed heartbeats.",
            )
            self._record(EventKind.WORKER_DEAD, worker=worker, server=self.name)
            self._observe_failure(worker, "crash")
            for lease in self.leases.clear_worker(worker):
                command, checkpoint = lease.command, lease.checkpoint
                key = command.scoped_id
                if key in self.completed_ids:
                    # its result already reached the barrier (the worker
                    # died right after delivering): nothing to requeue
                    continue
                if checkpoint is not None:
                    command.checkpoint = checkpoint
                # back on the queue: no longer in flight, and its
                # eventual re-dispatch counts afresh
                self.fairshare.release(command)
                self._queued_at[key] = self.clock
                self.queue.push(command)
                self.requeued_after_failure += 1
                self._count(
                    "repro_server_requeues_total",
                    help="Commands requeued after worker deaths.",
                )
                self._record(
                    EventKind.COMMAND_REQUEUED,
                    worker=worker,
                    command=command.command_id,
                    project_id=command.project_id,
                    server=self.name,
                    has_checkpoint=checkpoint is not None,
                )
        self._check_stragglers(now)
        return dead

    def _check_stragglers(self, now: float) -> None:
        """Speculatively re-queue commands whose leases are overdue."""
        for lease in self.leases.overdue(now):
            worker, command = lease.worker, lease.command
            key, command_id = command.scoped_id, command.command_id
            if not self.monitor.is_alive(worker):
                continue  # the dead path owns this lease
            if key in self.completed_ids:
                self.leases.clear(worker, key)
                continue
            lease.speculated = True
            self.stragglers_detected += 1
            self._count(
                "repro_server_stragglers_total",
                help="Leases overdue on live workers (stragglers).",
            )
            self._record(
                EventKind.STRAGGLER_DETECTED,
                worker=worker,
                command=command_id,
                project_id=command.project_id,
                server=self.name,
                deadline=lease.deadline,
            )
            self._observe_failure(worker, "straggler")
            # clone the command from the straggler's latest checkpoint;
            # the original keeps running — first result home wins
            clone = Command.from_payload(command.to_payload())
            if lease.checkpoint is not None:
                clone.checkpoint = lease.checkpoint
            self.speculated[key] = worker
            self.speculations_started += 1
            self._count_speculation("started")
            self._queued_at[key] = now
            self.queue.push(clone)
            self._record(
                EventKind.SPECULATION_STARTED,
                command=command_id,
                project_id=command.project_id,
                worker=worker,
                server=self.name,
                has_checkpoint=lease.checkpoint is not None,
            )

"""Recovery invariants, checked by replaying a runner's event log.

The paper's fault-tolerance story (section 2.3) reduces to promises
that must hold no matter which workers died or which links flapped:

1. **No command is lost** — every issued command is completed, still
   queued, or still in flight; completed projects completed *all*
   their commands.
2. **No command completes twice** — duplicated/retried results are
   deduplicated before they reach the project controller.
3. **Checkpoints are monotone** — per command, reported checkpoint
   steps and report times never move backwards (a resumed command
   continues, it does not restart behind its own checkpoint).
4. **Requeue accounting matches observed crashes** — every
   ``COMMAND_REQUEUED`` follows a ``WORKER_DEAD`` for that worker, a
   worker is declared dead at most once per outage (deaths must be
   separated by a revival), and the servers'
   ``requeued_after_failure`` counters equal the logged requeues.
5. **Recovery accounting is exact** — after a journal-based server
   restart (``SERVER_RECOVERED``), every command the recovery re-issued
   is either replayed-complete or restored to the queue (nothing lost,
   nothing invented across the restart boundary), and commands are
   only restored as part of a recovery.
6. **Speculation is exactly-once** — a ``SPECULATION_LOST`` implies a
   prior ``SPECULATION_STARTED`` *and* a prior completion of the same
   command (the race was decided before the loss was journaled), a
   speculated command still completes at most once, and the servers'
   speculation counters match the logged events.
7. **Quarantine is respected** — between a worker's
   ``WORKER_QUARANTINED`` and its ``WORKER_READMITTED`` the same server
   assigns it no workload, and readmissions only follow quarantines.
8. **Breaker accounting is consistent** — every peer circuit breaker's
   open/close/skip counters describe a realisable automaton history
   (skips require an open, a closed breaker has closed as often as it
   opened).
9. **Fault accounting matches observations** — the chaos harness's
   labelled fault counters in the shared metrics registry
   (``chaos_faults_total``, ``chaos_messages_dropped_total``,
   ``chaos_delay_seconds_total``) agree with the network's own
   drop/delay totals: every injected fault was observed, none were
   invented.

The multi-tenant service plane adds three more:

10. **Tenant isolation** — a completion is only ever delivered to the
    tenant that issued the command, every project's result log holds
    only its own command ids, and no queued or assigned command
    belongs to a tenant the deployment does not know.
11. **Exact quota accounting** — every fair-share scheduler's ledger
    balances (``dispatched == released + in_flight`` per tenant),
    ``peak_in_flight`` never exceeded the quota, a zero-quota tenant
    never dispatched, and the ledgers' deferral/release totals match
    the ``ADMISSION_DEFERRED`` / ``ADMISSION_RELEASED`` events.
12. **Starvation-free aging** — no admissible command that aged past
    the fair-share ``max_wait_seconds`` was ever bypassed by a
    workload build (zero ``AGING_VIOLATED`` events), and the
    schedulers' violation counters agree with the log.
13. **Migration accounting is exact** — every ``PROJECT_MIGRATED``
    follows a ``SHARD_DEAD`` for its source shard and lands on a live
    shard, and the displaced/migrated counts agree across the event
    log, the runner's migration reports and the metrics registry.
14. **Epoch fencing holds** — per-project ownership epochs
    (``EPOCH_BUMPED``) move strictly forward, the current owner's
    journal never accepted an effectful write stamped below the epoch
    in force at that point of its history, and the fencing-rejection
    counts agree across the event log, the shared metrics registry,
    the live servers' counters and the zombies' demotion reports —
    so a partitioned old owner can never smuggle a stale write past
    a failover.

When the event log spans more than one project, all command identity
is *scoped* by project id, so two tenants reusing a command id (say,
``ensemble/r0``) never alias in the checker; single-project logs keep
plain ids, so checks behave exactly as before.

:class:`Invariants` replays a :class:`~repro.core.events.EventLog`
(plus end-state from the runner's servers) and returns human-readable
violations; :meth:`Invariants.assert_ok` raises
:class:`~repro.util.errors.InvariantViolation` listing them all.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional, Set

from repro.core.command import scoped_command_id
from repro.core.events import EventKind, EventLog
from repro.core.project import ProjectStatus
from repro.net.circuit import BreakerState
from repro.server.wal import WriteAheadLog
from repro.util.errors import InvariantViolation
from repro.util.serialization import decode_message


class Invariants:
    """Replay-based invariant checker for one :class:`ProjectRunner`."""

    def __init__(self, runner) -> None:
        self.runner = runner
        self.events: EventLog = runner.events

    @property
    def _servers(self) -> list:
        """The runner's servers via the public accessor, falling back
        to the private list for bare test doubles."""
        servers = getattr(self.runner, "servers", None)
        if servers is None:
            servers = self.runner._servers
        return list(servers)

    # -- identity scoping --------------------------------------------------

    def _scoper(self) -> Callable[[str, str], str]:
        """Command-identity namer: plain ids for a single-project log,
        project-scoped ids when the log spans tenants (so two tenants
        reusing a command id never alias in any check)."""
        projects = {
            record.project_id
            for record in self.events.filter(kind=EventKind.COMMANDS_ISSUED)
        }
        if len(projects) <= 1:
            return lambda pid, cid: cid
        return lambda pid, cid: scoped_command_id(pid, cid) if pid else cid

    # -- individual checks -------------------------------------------------

    def _issued_ids(self, scope: Callable[[str, str], str]) -> Set[str]:
        issued: Set[str] = set()
        for record in self.events.filter(kind=EventKind.COMMANDS_ISSUED):
            for cid in record.details.get("ids", []):
                issued.add(scope(record.project_id, cid))
        return issued

    def _completed_ids(
        self,
        scope: Callable[[str, str], str],
        include_replayed: bool = True,
    ) -> List[str]:
        """Completions in the log.  ``include_replayed=False`` drops
        journal-replay re-deliveries (``replayed=True`` completions): a
        result completed live and later replayed on a recovered or
        migrated server is one completion, not two."""
        return [
            scope(record.project_id, record.details.get("command"))
            for record in self.events.filter(kind=EventKind.COMMAND_COMPLETED)
            if include_replayed or not record.details.get("replayed")
        ]

    def _dead_servers(self) -> Set[str]:
        """Shards declared dead by the shard monitor.  Their in-memory
        counters vanished with the process, so counter-vs-event
        cross-checks must not charge survivors for the corpse's log."""
        return {
            record.details.get("server")
            for record in self.events.filter(kind=EventKind.SHARD_DEAD)
        }

    def check_no_lost_commands(self) -> List[str]:
        """Invariant 1: issued == completed + queued + in-flight.

        Deferred submissions (fair-share backpressure) are journaled
        but intentionally not yet queued; they count as queued here so
        backpressure is never mistaken for loss.
        """
        scope = self._scoper()
        issued = self._issued_ids(scope)
        completed = set(self._completed_ids(scope))
        queued: Set[str] = set()
        in_flight: Set[str] = set()
        for server in self._servers:
            for c in server.queue.commands():
                queued.add(scope(getattr(c, "project_id", ""), c.command_id))
            fairshare = getattr(server, "fairshare", None)
            if fairshare is not None:
                for c in fairshare.deferred_commands():
                    queued.add(scope(c.project_id, c.command_id))
            for lease in server.leases.active():
                c = lease.command
                in_flight.add(scope(c.project_id, c.command_id))
        violations = []
        lost = issued - completed - queued - in_flight
        if lost:
            violations.append(
                f"commands lost (issued but neither completed, queued nor "
                f"in flight): {sorted(lost)}"
            )
        phantom = completed - issued
        if phantom:
            violations.append(
                f"commands completed that were never issued: {sorted(phantom)}"
            )
        for pid, project in self.runner._projects.items():
            if (
                project.status is ProjectStatus.COMPLETE
                and project.completed > project.issued
            ):
                violations.append(
                    f"project {pid!r} recorded more completions "
                    f"({project.completed}) than issues ({project.issued})"
                )
        return violations

    def check_no_double_completion(self) -> List[str]:
        """Invariant 2: each command completes at most once.

        Replayed completions are excluded: a journal replay re-delivers
        already-completed results to the fresh controller by design
        (restart and migration), which is idempotent, not a double.
        """
        seen: Dict[str, int] = {}
        for command_id in self._completed_ids(
            self._scoper(), include_replayed=False
        ):
            seen[command_id] = seen.get(command_id, 0) + 1
        return [
            f"command {command_id!r} completed {n} times"
            for command_id, n in sorted(seen.items())
            if n > 1
        ]

    def check_checkpoint_monotonicity(self) -> List[str]:
        """Invariant 3: per-command checkpoint steps/times never regress.

        A speculated command legitimately has two workers reporting
        checkpoints concurrently (the straggler and its speculative
        copy), so commands named in ``SPECULATION_STARTED`` events are
        tracked per ``(command, worker)`` stream instead of globally.

        A ``COMMAND_RESTORED`` event starts a new execution regime for
        its command: when the restore carried no journaled checkpoint
        (``has_checkpoint=False`` — e.g. the checkpoint was only ever
        reported to a peer shard that fetched the command, never to the
        owner's journal) the command legitimately restarts from scratch
        and its stream resets.  When a checkpoint *was* journaled, the
        stream is reseeded at the journaled step instead — the restored
        command must resume at or past it.
        """
        violations = []
        scope = self._scoper()
        speculated = {
            scope(record.project_id, record.details.get("command"))
            for record in self.events.filter(kind=EventKind.SPECULATION_STARTED)
        }
        last: Dict[tuple, tuple] = {}
        for record in self.events.all():
            if record.kind is EventKind.COMMAND_RESTORED:
                command = scope(record.project_id, record.details.get("command"))
                for key in [k for k in last if k[0] == command]:
                    del last[key]
                step = record.details.get("step")
                if record.details.get("has_checkpoint") and step is not None:
                    last[(command, None)] = (record.time, step)
                continue
            if record.kind is not EventKind.CHECKPOINT_REPORTED:
                continue
            if record.details.get("command") is None:
                continue
            command = scope(record.project_id, record.details["command"])
            step = record.details.get("step")
            if step is None:
                continue
            key = (
                (command, record.details.get("worker"))
                if command in speculated
                else (command, None)
            )
            prev = last.get(key)
            if prev is not None:
                prev_time, prev_step = prev
                if record.time < prev_time or step < prev_step:
                    violations.append(
                        f"checkpoint regression for {command!r}: "
                        f"(t={prev_time}, step={prev_step}) -> "
                        f"(t={record.time}, step={step})"
                    )
            last[key] = (record.time, step)
        return violations

    def check_requeue_accounting(self) -> List[str]:
        """Invariant 4: requeues <-> observed crashes, deaths <-> outages.

        Events recorded by a shard later declared dead are excluded:
        its counters died with it, and its workers were re-homed — the
        successor legitimately opens a fresh outage for a worker the
        corpse had already declared dead.
        """
        violations = []
        dead_servers = self._dead_servers()
        requeued = [
            record
            for record in self.events.filter(kind=EventKind.COMMAND_REQUEUED)
            if record.details.get("server") not in dead_servers
        ]
        counter_total = sum(
            server.requeued_after_failure for server in self._servers
        )
        if counter_total != len(requeued):
            violations.append(
                f"servers count {counter_total} requeues after failure but the "
                f"event log records {len(requeued)}"
            )
        # replay death/revival interleaving per worker
        declared_dead: Dict[str, bool] = {}
        for record in self.events.all():
            worker: Optional[str] = record.details.get("worker")
            if (
                record.kind in (
                    EventKind.WORKER_DEAD,
                    EventKind.WORKER_REVIVED,
                    EventKind.COMMAND_REQUEUED,
                )
                and record.details.get("server") in dead_servers
            ):
                continue
            if record.kind is EventKind.WORKER_DEAD:
                if declared_dead.get(worker):
                    violations.append(
                        f"worker {worker!r} declared dead twice in one outage "
                        f"(t={record.time})"
                    )
                declared_dead[worker] = True
            elif record.kind is EventKind.WORKER_REVIVED:
                if not declared_dead.get(worker):
                    violations.append(
                        f"worker {worker!r} revived without a preceding death "
                        f"(t={record.time})"
                    )
                declared_dead[worker] = False
            elif record.kind is EventKind.COMMAND_REQUEUED:
                if not declared_dead.get(worker):
                    violations.append(
                        f"command {record.details.get('command')!r} requeued "
                        f"from {worker!r} which was not declared dead "
                        f"(t={record.time})"
                    )
        return violations

    def check_recovery_accounting(self) -> List[str]:
        """Invariant 5: journal recovery neither loses nor invents work."""
        violations = []
        recovered_projects: Set[str] = set()
        for record in self.events.all():
            pid = record.project_id
            if record.kind is EventKind.SERVER_RECOVERED:
                recovered_projects.add(pid)
            elif record.kind is EventKind.COMMAND_RESTORED:
                if pid not in recovered_projects:
                    violations.append(
                        f"command {record.details.get('command')!r} restored "
                        f"for {pid!r} without a preceding server recovery "
                        f"(t={record.time})"
                    )
        # aggregate per project: a project may recover more than once
        # in one log (server restart, then a shard migration), and
        # each recovery's numbers must jointly balance the re-issues
        totals: Dict[str, Dict[str, int]] = {}
        for record in self.events.filter(kind=EventKind.SERVER_RECOVERED):
            agg = totals.setdefault(
                record.project_id, {"replayed": 0, "restored": 0}
            )
            agg["replayed"] += record.details.get("replayed", 0)
            agg["restored"] += record.details.get("restored", 0)
        for pid, agg in sorted(totals.items()):
            replayed = agg["replayed"]
            restored = agg["restored"]
            reissued = sum(
                r.details.get("count", 0)
                for r in self.events.filter(
                    kind=EventKind.COMMANDS_ISSUED, project_id=pid
                )
                if r.details.get("generation") == "recovered"
            )
            if replayed + restored != reissued:
                violations.append(
                    f"recovery of {pid!r} re-issued {reissued} commands but "
                    f"accounts for {replayed} replayed + {restored} restored"
                )
            restored_events = self.events.filter(
                kind=EventKind.COMMAND_RESTORED, project_id=pid
            )
            if len(restored_events) != restored:
                violations.append(
                    f"recovery of {pid!r} reports {restored} restored "
                    f"commands but {len(restored_events)} restore events "
                    f"were logged"
                )
            replayed_events = [
                r
                for r in self.events.filter(
                    kind=EventKind.COMMAND_COMPLETED, project_id=pid
                )
                if r.details.get("replayed")
            ]
            if len(replayed_events) != replayed:
                violations.append(
                    f"recovery of {pid!r} reports {replayed} replayed "
                    f"results but {len(replayed_events)} replayed "
                    f"completions were logged"
                )
        return violations

    def check_speculation_exactly_once(self) -> List[str]:
        """Invariant 6: speculative re-execution never double-completes."""
        violations = []
        scope = self._scoper()
        dead_servers = self._dead_servers()
        started: Set[str] = set()
        completed_live: Dict[str, int] = {}
        completed_any: Dict[str, int] = {}
        lost: Dict[str, int] = {}
        lost_live = 0
        started_live = 0
        for record in self.events.all():
            command = record.details.get("command")
            if command is not None:
                command = scope(record.project_id, command)
            if record.kind is EventKind.SPECULATION_STARTED:
                started.add(command)
                if record.details.get("server") not in dead_servers:
                    started_live += 1
            elif record.kind is EventKind.COMMAND_COMPLETED:
                completed_any[command] = completed_any.get(command, 0) + 1
                if not record.details.get("replayed"):
                    completed_live[command] = (
                        completed_live.get(command, 0) + 1
                    )
            elif record.kind is EventKind.SPECULATION_LOST:
                lost[command] = lost.get(command, 0) + 1
                if record.details.get("server") not in dead_servers:
                    lost_live += 1
                if command not in started:
                    violations.append(
                        f"speculation lost for {command!r} without a "
                        f"preceding speculation start (t={record.time})"
                    )
                if completed_any.get(command, 0) < 1:
                    violations.append(
                        f"speculation lost for {command!r} before any copy "
                        f"completed — the race was not decided "
                        f"(t={record.time})"
                    )
        for command in sorted(started):
            if completed_live.get(command, 0) > 1:
                violations.append(
                    f"speculated command {command!r} completed "
                    f"{completed_live[command]} times"
                )
            if lost.get(command, 0) > 1:
                violations.append(
                    f"speculated command {command!r} journaled "
                    f"{lost[command]} losses (at most one copy can lose)"
                )
        counter_lost = sum(
            getattr(server, "speculations_lost", 0)
            for server in self._servers
        )
        if counter_lost != lost_live:
            violations.append(
                f"servers count {counter_lost} speculation losses but the "
                f"event log records {lost_live}"
            )
        counter_started = sum(
            getattr(server, "speculations_started", 0)
            for server in self._servers
        )
        if counter_started != started_live:
            violations.append(
                f"servers count {counter_started} speculations started but "
                f"the event log disagrees"
            )
        return violations

    def check_quarantine_respected(self) -> List[str]:
        """Invariant 7: quarantined workers receive no workload."""
        violations = []
        quarantined: Set[tuple] = set()
        ever_quarantined: Set[tuple] = set()
        for record in self.events.all():
            worker = record.details.get("worker")
            server = record.details.get("server")
            key = (server, worker)
            if record.kind is EventKind.WORKER_QUARANTINED:
                quarantined.add(key)
                ever_quarantined.add(key)
            elif record.kind is EventKind.WORKER_READMITTED:
                if key not in ever_quarantined:
                    violations.append(
                        f"worker {worker!r} readmitted by {server!r} without "
                        f"a preceding quarantine (t={record.time})"
                    )
                quarantined.discard(key)
            elif record.kind is EventKind.WORKLOAD_ASSIGNED:
                if key in quarantined:
                    violations.append(
                        f"server {server!r} assigned workload to quarantined "
                        f"worker {worker!r} (t={record.time})"
                    )
        return violations

    def check_breaker_accounting(self) -> List[str]:
        """Invariant 8: circuit-breaker counters form a valid history."""
        violations = []
        network = getattr(self.runner, "network", None)
        endpoints = getattr(network, "endpoints", None)
        if endpoints is None:
            return violations
        for name in network.endpoints():
            endpoint = network.endpoint(name)
            for peer, breaker in getattr(endpoint, "peer_breakers", {}).items():
                label = f"breaker {name!r}->{peer!r}"
                if breaker.skips > 0 and breaker.opens == 0:
                    violations.append(
                        f"{label} skipped {breaker.skips} calls but never "
                        f"opened"
                    )
                if breaker.closes > breaker.opens:
                    violations.append(
                        f"{label} closed {breaker.closes} times but only "
                        f"opened {breaker.opens}"
                    )
                if (
                    breaker.state is BreakerState.CLOSED
                    and breaker.closes != breaker.opens
                ):
                    violations.append(
                        f"{label} ended closed with {breaker.opens} opens "
                        f"but {breaker.closes} closes (a re-closed breaker "
                        f"must balance its opens)"
                    )
        return violations

    def check_fault_accounting(self) -> List[str]:
        """Invariant 9: chaos fault counters match network observations.

        Applies only when the runner's network is a
        :class:`~repro.testing.chaos.ChaosNetwork` exporting its
        injections to the shared metrics registry; plain networks (and
        bare test doubles) have nothing to cross-check.
        """
        violations = []
        network = getattr(self.runner, "network", None)
        obs = getattr(network, "obs", None)
        if obs is None or not hasattr(network, "messages_dropped"):
            return violations
        metrics = obs.metrics
        counted_dropped = metrics.total("chaos_messages_dropped_total")
        if counted_dropped != network.messages_dropped:
            violations.append(
                f"chaos metrics count {counted_dropped:.0f} dropped messages "
                f"but the network observed {network.messages_dropped}"
            )
        counted_delay = metrics.total("chaos_delay_seconds_total")
        observed_delay = getattr(network, "chaos_delay_seconds", 0.0)
        if abs(counted_delay - observed_delay) > 1e-9:
            violations.append(
                f"chaos metrics count {counted_delay}s of injected delay but "
                f"the network observed {observed_delay}s"
            )
        fault_kinds_dropping = (
            "server_crash", "flapping_worker", "drop", "partition", "sick_peer"
        )
        dropping_faults = sum(
            metrics.value("chaos_faults_total", kind=kind)
            for kind in fault_kinds_dropping
        )
        if dropping_faults != counted_dropped:
            violations.append(
                f"chaos fault counters record {dropping_faults:.0f} "
                f"drop-class injections but {counted_dropped:.0f} messages "
                f"were counted dropped"
            )
        return violations

    def _fairshare_schedulers(self) -> List[tuple]:
        """``(server_name, scheduler)`` for every fair-share server."""
        out = []
        for server in self._servers:
            fairshare = getattr(server, "fairshare", None)
            if fairshare is not None:
                out.append((getattr(server, "name", "?"), fairshare))
        return out

    def check_tenant_isolation(self) -> List[str]:
        """Invariant 10: no work or results leak across tenants."""
        violations = []
        issued_by_pid: Dict[str, Set[str]] = {}
        for record in self.events.filter(kind=EventKind.COMMANDS_ISSUED):
            issued_by_pid.setdefault(record.project_id, set()).update(
                record.details.get("ids", [])
            )
        # completions must reach the tenant that issued the command
        for record in self.events.filter(kind=EventKind.COMMAND_COMPLETED):
            pid = record.project_id
            cid = record.details.get("command")
            if cid is None or cid in issued_by_pid.get(pid, set()):
                continue
            leakers = sorted(
                p for p, ids in issued_by_pid.items() if cid in ids and p != pid
            )
            if leakers:
                violations.append(
                    f"cross-tenant leak: completion of {cid!r} delivered to "
                    f"{pid!r} but issued by {leakers[0]!r} (t={record.time})"
                )
        # a project's result log holds only its own command ids
        for pid, project in self.runner._projects.items():
            results_log = getattr(project, "results_log", None)
            if not results_log or pid not in issued_by_pid:
                continue
            foreign = {cid for cid, _ in results_log} - issued_by_pid[pid]
            if foreign:
                violations.append(
                    f"project {pid!r} holds results for commands it never "
                    f"issued: {sorted(foreign)[:5]}"
                )
        # queued/assigned work belongs to known tenants only
        known = set(self.runner._projects) | set(issued_by_pid)
        if known:
            for server in self._servers:
                name = getattr(server, "name", "?")
                for c in server.queue.commands():
                    pid = getattr(c, "project_id", "")
                    if pid and pid not in known:
                        violations.append(
                            f"server {name!r} queues command "
                            f"{c.command_id!r} for unknown tenant {pid!r}"
                        )
                for lease in server.leases.active():
                    c = lease.command
                    if c.project_id and c.project_id not in known:
                        violations.append(
                            f"server {name!r} assigned command "
                            f"{c.command_id!r} for unknown tenant "
                            f"{c.project_id!r}"
                        )
        return violations

    def check_quota_accounting(self) -> List[str]:
        """Invariant 11: fair-share ledgers are exact and match the log.

        Servers without a fair-share scheduler attached have no quota
        promises to keep, so single-tenant deployments pass trivially.
        """
        violations = []
        schedulers = self._fairshare_schedulers()
        if not schedulers:
            return violations
        for name, scheduler in schedulers:
            for message in scheduler.check_ledger():
                violations.append(f"server {name!r}: {message}")
        # cross-check deferral accounting against the event log; a
        # dead shard's ledger vanished with its process, so its logged
        # deferrals/releases are excluded from the comparison
        dead_servers = self._dead_servers()
        deferred_events: Dict[str, int] = {}
        for record in self.events.filter(kind=EventKind.ADMISSION_DEFERRED):
            if record.details.get("server") in dead_servers:
                continue
            pid = record.project_id
            deferred_events[pid] = deferred_events.get(pid, 0) + 1
        released_events: Dict[str, int] = {}
        for record in self.events.filter(kind=EventKind.ADMISSION_RELEASED):
            if record.details.get("server") in dead_servers:
                continue
            pid = record.project_id
            released_events[pid] = released_events.get(pid, 0) + 1
        totals: Dict[str, Dict[str, int]] = {}
        for _, scheduler in schedulers:
            for tenant, snap in scheduler.snapshot().items():
                agg = totals.setdefault(
                    tenant, {"deferred_total": 0, "deferred_pending": 0}
                )
                agg["deferred_total"] += snap["deferred_total"]
                agg["deferred_pending"] += snap["deferred_pending"]
        for tenant in sorted(set(deferred_events) | set(totals)):
            agg = totals.get(
                tenant, {"deferred_total": 0, "deferred_pending": 0}
            )
            logged = deferred_events.get(tenant, 0)
            if agg["deferred_total"] != logged:
                violations.append(
                    f"tenant {tenant!r}: ledgers count "
                    f"{agg['deferred_total']} deferrals but the event log "
                    f"records {logged}"
                )
            ledger_released = agg["deferred_total"] - agg["deferred_pending"]
            logged_released = released_events.get(tenant, 0)
            if ledger_released != logged_released:
                violations.append(
                    f"tenant {tenant!r}: ledgers account for "
                    f"{ledger_released} released deferrals but the event "
                    f"log records {logged_released}"
                )
        return violations

    def check_starvation_free_aging(self) -> List[str]:
        """Invariant 12: no aged admissible command was ever bypassed."""
        violations = []
        aged = self.events.filter(kind=EventKind.AGING_VIOLATED)
        for record in aged:
            violations.append(
                f"aged command {record.details.get('command')!r} of tenant "
                f"{record.project_id!r} was bypassed after waiting "
                f"{record.details.get('waited', '?')}s (t={record.time})"
            )
        schedulers = self._fairshare_schedulers()
        if schedulers:
            counted = sum(s.aging_violations for _, s in schedulers)
            if counted != len(aged):
                violations.append(
                    f"schedulers count {counted} aging violations but the "
                    f"event log records {len(aged)}"
                )
        return violations

    def check_migration_accounting(self) -> List[str]:
        """Invariant 13: shard failover is exactly accounted.

        Every ``PROJECT_MIGRATED`` follows a ``SHARD_DEAD`` for its
        source shard, lands on a live shard the runner still knows,
        and the counts agree everywhere they are recorded: the
        ``SHARD_DEAD`` events' displaced totals, the runner's
        migration reports, and the observability counters
        (``repro_shard_failovers_total``,
        ``repro_projects_migrated_total``).  Result-set equality with
        the crash-free run is the scenario's job (the checker sees
        only one run); this check pins the accounting half.
        """
        violations = []
        dead: Set[str] = set()
        displaced_total = 0
        migrations = []
        for record in self.events.all():
            if record.kind is EventKind.SHARD_DEAD:
                dead.add(record.details.get("server"))
                displaced_total += record.details.get("displaced", 0)
            elif record.kind is EventKind.PROJECT_MIGRATED:
                migrations.append(record)
                src = record.details.get("from_shard")
                dst = record.details.get("to_shard")
                pid = record.project_id
                if src not in dead:
                    violations.append(
                        f"project {pid!r} migrated from {src!r} which was "
                        f"never declared dead (t={record.time})"
                    )
                if dst in dead or dst == src:
                    violations.append(
                        f"project {pid!r} migrated to {dst!r}, which is "
                        f"dead or the source shard itself (t={record.time})"
                    )
                if pid not in self.runner._projects:
                    violations.append(
                        f"migrated project {pid!r} is unknown to the runner"
                    )
        if not dead and not migrations:
            return violations
        if displaced_total != len(migrations):
            violations.append(
                f"shard deaths displaced {displaced_total} projects but "
                f"{len(migrations)} migrations were logged"
            )
        reports = getattr(self.runner, "migrations", None)
        if reports is not None and len(reports) != len(migrations):
            violations.append(
                f"the runner holds {len(reports)} migration reports but "
                f"the event log records {len(migrations)}"
            )
        obs = getattr(self.runner, "obs", None)
        if obs is not None:
            failovers = obs.metrics.total("repro_shard_failovers_total")
            if failovers != len(dead):
                violations.append(
                    f"metrics count {failovers:.0f} shard failovers but "
                    f"{len(dead)} shards were declared dead"
                )
            migrated = obs.metrics.total("repro_projects_migrated_total")
            if migrated != len(migrations):
                violations.append(
                    f"metrics count {migrated:.0f} migrated projects but "
                    f"the event log records {len(migrations)}"
                )
        live_shards = {getattr(s, "name", "?") for s in self._servers}
        for record in migrations:
            dst = record.details.get("to_shard")
            if dst not in live_shards:
                violations.append(
                    f"project {record.project_id!r} migrated to {dst!r} "
                    f"which is not a live server"
                )
        return violations

    def check_epoch_fencing(self) -> List[str]:
        """Invariant 14: ownership epochs fence every stale regime.

        Three promises, cross-checked against independent recordings:
        per-project ``EPOCH_BUMPED`` events move strictly forward; the
        *current owner's* journal never accepted an effectful write
        stamped below the epoch in force at that point of its history
        (replayed record by record from disk); and the
        fencing-rejection counts agree everywhere they are kept — the
        event log, ``repro_fencing_rejections_total`` in the metrics
        registry, the live servers' ``fencing_rejections`` counters,
        and the demotion reports healed zombies answered probes with.
        """
        violations = []
        last_epoch: Dict[str, int] = {}
        for record in self.events.filter(kind=EventKind.EPOCH_BUMPED):
            pid = record.project_id
            epoch = int(record.details.get("epoch", 0))
            prev = last_epoch.get(pid)
            if prev is not None and epoch <= prev:
                violations.append(
                    f"epoch of {pid!r} bumped to {epoch} after {prev} "
                    f"(epochs must move strictly forward; t={record.time})"
                )
            last_epoch[pid] = max(epoch, prev or 0)
        violations += self._scan_owner_journals()
        rejections = self.events.filter(kind=EventKind.FENCING_REJECTED)
        obs = getattr(self.runner, "obs", None)
        if obs is not None:
            counted = obs.metrics.total("repro_fencing_rejections_total")
            if counted != len(rejections):
                violations.append(
                    f"metrics count {counted:.0f} fencing rejections but "
                    f"the event log records {len(rejections)}"
                )
        counter_total = sum(
            getattr(server, "fencing_rejections", 0)
            for server in self._servers
        )
        if counter_total != len(rejections):
            violations.append(
                f"live servers count {counter_total} fencing rejections "
                f"but the event log records {len(rejections)}"
            )
        if rejections and not last_epoch:
            violations.append(
                f"{len(rejections)} fencing rejections logged but no epoch "
                f"was ever bumped (nothing to be stale against)"
            )
        # demotion reports: internally consistent, and their rejected
        # forwards can never exceed the owners' forward-path rejections
        monitor = getattr(self.runner, "monitor", None)
        reports = list(getattr(monitor, "demotions", None) or [])
        forward_rejections = sum(
            1 for r in rejections if r.details.get("path") == "forward"
        )
        reported_rejected = 0
        for report in reports:
            pid = report.get("project_id")
            rejected = int(report.get("forwards_rejected", 0))
            duplicate = int(report.get("forwards_duplicate", 0))
            forwarded = int(report.get("results_forwarded", 0))
            reported_rejected += rejected
            if rejected + duplicate > forwarded:
                violations.append(
                    f"demotion of {pid!r} at {report.get('server')!r} "
                    f"accounts for {rejected} rejected + {duplicate} "
                    f"duplicate forwards out of only {forwarded} forwarded "
                    f"results"
                )
            if int(report.get("epoch", 0)) <= int(
                report.get("stale_epoch", 0)
            ):
                violations.append(
                    f"demotion of {pid!r} fenced stale epoch "
                    f"{report.get('stale_epoch')} with a non-newer epoch "
                    f"{report.get('epoch')}"
                )
        if reported_rejected > forward_rejections:
            violations.append(
                f"demotion reports account for {reported_rejected} rejected "
                f"forwards but owners logged only {forward_rejections} "
                f"forward-path rejections"
            )
        return violations

    def _scan_owner_journals(self) -> List[str]:
        """Replay each project's *current owner's* journal directory.

        A fenced zombie's own directory legitimately holds
        stale-stamped writes — its whole regime was fenced and
        discarded at demotion — so only the owner of record is held to
        the no-stale-writes promise.  Runners without journals (or
        without a shard router) have no durable history to scan.
        """
        violations = []
        root = getattr(self.runner, "_journal_root", None)
        router = getattr(self.runner, "router", None)
        if root is None or router is None:
            return violations
        for pid in sorted(getattr(self.runner, "_projects", {})):
            try:
                owner = router.route(pid)
            except Exception:
                continue  # every shard parked/dead: no owner to hold
            directory = Path(root) / owner / pid
            if directory.is_dir():
                violations += self._scan_journal_dir(pid, owner, directory)
        return violations

    def _scan_journal_dir(
        self, pid: str, owner: str, directory: Path
    ) -> List[str]:
        """One journal directory, replayed record by record: epoch
        records strictly advance, and no result record carries a stamp
        below the epoch in force when it was accepted."""
        violations = []
        epoch = 0
        snapshot_seq = -1
        snapshots = sorted(directory.glob("snapshot-*.bin"))
        if snapshots:
            try:
                payload = decode_message(snapshots[-1].read_bytes())
            except Exception as exc:
                return [
                    f"journal of {pid!r} at {owner!r}: snapshot "
                    f"{snapshots[-1].name} unreadable ({exc})"
                ]
            epoch = int(payload.get("epoch", 0))
            snapshot_seq = int(payload.get("last_seq", -1))
        wal_dir = directory / "wal"
        if not wal_dir.is_dir():
            return violations
        wal = WriteAheadLog(wal_dir, fsync=False)
        try:
            for record in wal.take_recovered():
                if int(record.get("seq", -1)) <= snapshot_seq:
                    continue  # already folded into the snapshot
                kind = record.get("type")
                if kind == "epoch":
                    bumped = int(record.get("epoch", 0))
                    if bumped <= epoch:
                        violations.append(
                            f"journal of {pid!r} at {owner!r}: epoch record "
                            f"{bumped} does not advance past {epoch}"
                        )
                    epoch = max(epoch, bumped)
                elif kind == "result":
                    command = record.get("command") or {}
                    stamp = int(command.get("epoch", 0))
                    if stamp < epoch:
                        violations.append(
                            f"journal of {pid!r} at {owner!r}: result for "
                            f"{command.get('command_id')!r} accepted at "
                            f"stale epoch {stamp} < {epoch}"
                        )
        finally:
            wal.close()
        return violations

    # -- entry points ------------------------------------------------------

    def check(self) -> List[str]:
        """All violations across every invariant (empty = green)."""
        return (
            self.check_no_lost_commands()
            + self.check_no_double_completion()
            + self.check_checkpoint_monotonicity()
            + self.check_requeue_accounting()
            + self.check_recovery_accounting()
            + self.check_speculation_exactly_once()
            + self.check_quarantine_respected()
            + self.check_breaker_accounting()
            + self.check_fault_accounting()
            + self.check_tenant_isolation()
            + self.check_quota_accounting()
            + self.check_starvation_free_aging()
            + self.check_migration_accounting()
            + self.check_epoch_fencing()
        )

    def assert_ok(self) -> None:
        """Raise :class:`InvariantViolation` if any invariant fails."""
        violations = self.check()
        if violations:
            raise InvariantViolation(
                "recovery invariants violated:\n  - "
                + "\n  - ".join(violations)
            )

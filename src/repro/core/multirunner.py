"""MultiProjectRunner: many concurrent projects over a sharded overlay.

The paper's service plane hosts many users' projects on one server
overlay.  This runner drives that shape: project ids are
consistent-hashed onto *shards* (project servers) by a
:class:`~repro.net.sharding.ShardRouter`, every shard keeps its own
queue, lease tracker, heartbeat monitor, fair-share scheduler and
(optionally) its own :class:`~repro.server.wal.ServerJournal`, and a
shared :class:`~repro.server.fairshare.FairSharePolicy` can be applied
to every shard's scheduler so no tenant starves another.

It *is* a :class:`~repro.core.runner.ProjectRunner` — the only routing
decision, "which server hosts this project", is the ``_origin_for``
hook, so submission, recovery, the drive loop, liveness sweeps and the
event log are shared code.  A deployment with one shard and no policy
therefore behaves exactly like the classic runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.controller import Controller
from repro.core.events import EventKind
from repro.core.project import Project
from repro.core.runner import ProjectRunner
from repro.net.circuit import BreakerState
from repro.net.protocol import MessageType
from repro.net.sharding import DEFAULT_REPLICAS, ShardRouter
from repro.net.transport import Network
from repro.obs.trace import trace_id_for
from repro.server.fairshare import FairSharePolicy, FairShareScheduler
from repro.server.server import CopernicusServer
from repro.server.shardmon import ShardMonitor, ShardProbePolicy
from repro.server.wal import (
    ProjectJournal,
    ServerJournal,
    ship_project_journal,
)
from repro.util.errors import (
    CommunicationError,
    ConfigurationError,
    TransientCommunicationError,
    UnknownShardError,
)
from repro.worker.worker import Worker


@dataclass(frozen=True)
class MigrationReport:
    """Accounting for one project's failover migration."""

    project_id: str
    from_shard: str
    to_shard: str
    #: Results replayed from the shipped journal on the successor.
    replayed: int
    #: Outstanding commands requeued on the successor.
    restored: int
    #: Snapshot + WAL files shipped.
    files_shipped: int
    bytes_shipped: int
    #: The ownership epoch the successor adopted (bumped past the dead
    #: shard's regime before the journal shipped; fences stale writers).
    epoch: int = 0


class MultiProjectRunner(ProjectRunner):
    """Drives many projects, each hosted on its hashed shard.

    Parameters
    ----------
    network:
        The overlay.
    shards:
        The project servers acting as shard fabric.  Workers may be
        attached to any of them (or to relays); cross-shard wildcard
        fetches keep every worker busy, guarded by the per-peer
        circuit breakers of :mod:`repro.net.transport`.
    workers:
        Worker clients, already linked on the overlay.
    tick:
        Logical seconds per runner cycle.
    replicas:
        Virtual nodes per shard on the consistent-hash ring.
    """

    def __init__(
        self,
        network: Network,
        shards: List[CopernicusServer],
        workers: List[Worker],
        tick: float = 60.0,
        replicas: int = DEFAULT_REPLICAS,
    ) -> None:
        if not shards:
            raise ConfigurationError("a multi-project runner needs >= 1 shard")
        super().__init__(network, shards[0], workers, tick=tick)
        self.shards = list(shards)
        self._shards_by_name: Dict[str, CopernicusServer] = {
            shard.name: shard for shard in shards
        }
        if len(self._shards_by_name) != len(shards):
            raise ConfigurationError("shard server names must be unique")
        self.router = ShardRouter(
            [shard.name for shard in shards], replicas=replicas
        )
        #: Journal root handed to :meth:`attach_journals` (failover
        #: ships journal files between per-shard subdirectories of it).
        self._journal_root: Optional[Path] = None
        #: Fresh-controller factories per project (needed to replay a
        #: shipped journal deterministically on the successor shard).
        self._factories: Dict[str, Callable[[], Controller]] = {}
        #: Gateway-side shard liveness (see :meth:`attach_shard_monitor`).
        self.monitor: Optional[ShardMonitor] = None
        self.gateway = None
        #: Completed failovers, in order (invariant 13 cross-checks
        #: these against the event log and the metrics registry).
        self.migrations: List[MigrationReport] = []
        #: The fair-share policy shards were configured with, so a
        #: joining shard adopting migrated tenants uses the same policy
        #: (``None``: the default policy).
        self._fairshare_policy: Optional[FairSharePolicy] = None
        #: Projects displaced by a failover that found no surviving
        #: successor: {project_id: the dead shard whose journal holds
        #: its state}.  Unparked by :meth:`add_shard`.
        self._parked: Dict[str, str] = {}
        #: Names of shards failed over so far (workers still pointing
        #: at one are re-homed when a replacement shard joins).
        self._dead_shards: set = set()
        #: (outstanding, completed, shard) last exported per tenant, so
        #: a status refresh sets only the gauges that changed.
        self._gauged: Dict[str, Tuple[int, int, str]] = {}

    # -- routing -------------------------------------------------------------

    def _origin_for(self, project_id: str) -> CopernicusServer:
        """The shard server hosting *project_id* (consistent hash)."""
        return self._shards_by_name[self.router.route(project_id)]

    def shard_of(self, project_id: str) -> str:
        """The shard name a project routes to (stable across runs)."""
        return self.router.route(project_id)

    def shard(self, name: str) -> Optional[CopernicusServer]:
        """The live shard server called *name* (``None`` once it was
        failed over, or if it never was a shard)."""
        return self._shards_by_name.get(name)

    # -- tenancy plumbing ----------------------------------------------------

    def apply_fairshare(
        self, policy: Optional[FairSharePolicy] = None
    ) -> Dict[str, FairShareScheduler]:
        """Give every shard a fresh fair-share scheduler under *policy*.

        One shared policy, one scheduler (ledger) per shard — quotas
        bound each tenant's in-flight load per shard, which is also
        its total bound since a project lives on exactly one shard.
        Returns the schedulers by shard name for tests/monitoring.
        """
        schedulers: Dict[str, FairShareScheduler] = {}
        self._fairshare_policy = policy
        for shard in self.shards:
            shard.fairshare = FairShareScheduler(policy)
            schedulers[shard.name] = shard.fairshare
        return schedulers

    def attach_journals(self, root) -> None:
        """Give every shard its own write-ahead journal under *root*."""
        self._journal_root = Path(root)
        for shard in self.shards:
            shard.attach_journal(ServerJournal(Path(root) / shard.name))

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        project: Project,
        controller: Controller,
        controller_factory: Optional[Callable[[], Controller]] = None,
    ) -> None:
        """Submit a project to its hashed shard.

        ``controller_factory`` builds a *fresh* equivalent controller;
        it is what makes the project eligible for shard failover —
        replaying a shipped journal needs a clean deterministic
        controller, exactly like :meth:`ProjectRunner.resume` after a
        restart.  Without one the project still runs, but a shard
        crash strands it.
        """
        if controller_factory is not None:
            self._factories[project.project_id] = controller_factory
        super().submit(project, controller)

    # -- shard failover ------------------------------------------------------

    def attach_shard_monitor(
        self,
        gateway,
        policy: Optional[ShardProbePolicy] = None,
    ) -> ShardMonitor:
        """Probe shard liveness from *gateway*; fail over the dead.

        The monitor runs inside the normal drive loop (the liveness
        sweep of :meth:`ProjectRunner.advance`), so a shard crashed
        mid-run is detected and failed over without any out-of-band
        driver.
        """
        self.gateway = gateway
        self.monitor = ShardMonitor(
            gateway, [shard.name for shard in self.shards], policy
        )
        gateway.breaker_hooks.append(self._on_shard_breaker)
        return self.monitor

    def _on_shard_breaker(self, breaker, state) -> None:
        """Breaker-open toward a shard = a re-route is coming; count it."""
        if state is BreakerState.OPEN and breaker.peer in self._shards_by_name:
            self.obs.metrics.inc(
                "repro_shard_route_retries_total",
                help="Result/dispatch re-routes after a shard moved or "
                "went unreachable.",
                project="",
                reason="breaker_open",
            )

    def _liveness_sweep(self) -> None:
        super()._liveness_sweep()
        if self.monitor is not None:
            for dead in self.monitor.check(self.now):
                self.fail_over(dead)

    def dispatch(self, project_id: str, commands) -> str:
        """Queue *commands* on the project's shard, riding out an
        unreachable shard instead of failing the submission.

        With a gateway attached the shard is first probed over the
        wire; a transiently unreachable shard is retried with the
        transport's capped backoff (inside
        :meth:`~repro.net.transport.Endpoint.send`), each exhausted
        probe counted in ``repro_shard_route_retries_total``.  If the
        shard stays unreachable it is declared dead and the project
        fails over — the commands queue on the successor.  Returns the
        name of the shard that accepted the commands.
        """
        origin = self._origin_for(project_id)
        if self.gateway is not None:
            try:
                before = self.gateway.send_retries
                self.gateway.send(
                    origin.name,
                    MessageType.PROJECT_STATUS,
                    {"project_id": project_id},
                )
            except TransientCommunicationError:
                self.obs.metrics.inc(
                    "repro_shard_route_retries_total",
                    amount=max(1, self.gateway.send_retries - before),
                    help="Result/dispatch re-routes after a shard moved "
                    "or went unreachable.",
                    project=project_id,
                    reason="dispatch",
                )
                if self.monitor is None or len(self.shards) < 2:
                    raise
                self.fail_over(origin.name)
                origin = self._origin_for(project_id)
        origin.submit_commands(commands)
        return origin.name

    def fail_over(self, dead: str) -> List[MigrationReport]:
        """Remove the dead shard and migrate its projects.

        The sequence per displaced project: ship its WAL snapshot +
        log segments from the dead shard's journal directory to the
        successor's, replay them through a fresh controller with the
        shared :meth:`ProjectRunner.resume` machinery (which reseeds
        the exactly-once barrier, restores checkpoints and requeues
        outstanding commands under scoped ids), then flip the route
        table on every live server so in-flight results re-route.
        Workers homed on the dead shard are re-pointed at the
        successor fabric.  Calling this twice for the same shard is a
        no-op (the double-remove is idempotent).

        When the dead shard was the *last* one, there is no successor
        to migrate to: the displaced projects are parked
        (``PROJECT_PARKED``) with their journals intact, and resume
        automatically when a replacement shard joins the ring via
        :meth:`add_shard` — instead of failing the whole sweep.
        """
        shard = self._shards_by_name.get(dead)
        if shard is None:
            # already failed over (or never a member): the router
            # distinguishes the two, raising UnknownShardError for
            # names that were never shards
            self.router.remove_shard(dead)
            return []
        if self._journal_root is None or shard.journal is None:
            raise ConfigurationError(
                f"cannot fail over {dead!r}: shards run without journals "
                f"(attach_journals first)"
            )
        t0 = self.now
        displaced = sorted(
            pid for pid in self._projects if self.router.route(pid) == dead
        )
        self.router.remove_shard(dead)
        shard.journal.close()
        self.events.record(
            self.now,
            EventKind.SHARD_DEAD,
            server=dead,
            displaced=len(displaced),
        )
        self.obs.metrics.inc(
            "repro_shard_failovers_total",
            help="Shards declared dead and failed over.",
            shard=dead,
        )
        # the dead server's in-memory state is gone with the process;
        # drop it from every fleet-wide view (liveness, invariants,
        # stall detection must not consult a corpse)
        self.shards = [s for s in self.shards if s.name != dead]
        del self._shards_by_name[dead]
        self._servers = [s for s in self._servers if s.name != dead]
        self._dead_shards.add(dead)
        if self.project_server.name == dead and self.shards:
            self.project_server = self.shards[0]
        if self.monitor is not None:
            # keep the corpse on the zombie watch: if it was merely
            # partitioned and heals, the fence table riding on the
            # probes demotes it (PROJECT_FENCED) instead of leaving a
            # split-brain owner running
            self.monitor.mark_dead(dead)
        self._rehome_workers(dead)
        if not self.shards:
            # no surviving successor: park the displaced projects with
            # their journals intact; add_shard unparks them
            for pid in displaced:
                self._parked[pid] = dead
                self.events.record(
                    self.now, EventKind.PROJECT_PARKED, pid, from_shard=dead
                )
                self.obs.metrics.inc(
                    "repro_projects_parked_total",
                    help="Projects parked awaiting a replacement shard.",
                    project=pid,
                )
            self.obs.tracer.record(
                "shard.failover",
                t0,
                self.now,
                trace_id_for("__fleet__", f"failover-{dead}"),
                component="gateway",
                shard=dead,
                migrated=0,
                parked=len(displaced),
            )
            return []
        reports: List[MigrationReport] = []
        for pid in displaced:
            reports.append(self._migrate_project(pid, dead))
        self._finish_migrations(reports)
        self.obs.tracer.record(
            "shard.failover",
            t0,
            self.now,
            trace_id_for("__fleet__", f"failover-{dead}"),
            component="gateway",
            shard=dead,
            migrated=len(reports),
        )
        return reports

    def _finish_migrations(self, reports: List[MigrationReport]) -> None:
        """Route flips + fence recording for completed migrations."""
        for report in reports:
            # atomic route flip: every live server (the gateway
            # included) now answers/forwards toward the successor, so
            # results carried by in-flight workers re-route instead of
            # chasing the dead origin stamp
            for server in self._servers:
                server.update_route(report.project_id, report.to_shard)
            if self.monitor is not None:
                # every future probe carries the fence, so the old
                # owner — if it turns out to be a healed zombie rather
                # than a corpse — demotes itself on first contact
                self.monitor.record_fence(
                    report.project_id, report.epoch, report.to_shard
                )
        self.migrations.extend(reports)

    def add_shard(self, shard: CopernicusServer) -> List[MigrationReport]:
        """Join a replacement shard to the ring mid-run.

        The shard is wired up exactly like a constructor-time shard —
        journal under the shared root, a fair-share scheduler when the
        fleet runs one, liveness monitoring, the shared event log —
        and workers stranded on dead shards are re-pointed at it.
        Projects parked by a successor-less failover are then migrated
        onto the ring (``PROJECT_UNPARKED``) from the dead shard's
        journals; the migration reports are returned.
        """
        if shard.name in self._shards_by_name:
            raise ConfigurationError(
                f"shard {shard.name!r} is already on the ring"
            )
        if shard.name in self._dead_shards:
            raise ConfigurationError(
                f"shard name {shard.name!r} belonged to a dead shard; "
                f"replacements join under a fresh name"
            )
        self.shards.append(shard)
        self._shards_by_name[shard.name] = shard
        if all(s.name != shard.name for s in self._servers):
            self._servers.append(shard)
        self.router.add_shard(shard.name)
        shard.events = self.events
        shard.clock = max(shard.clock, self.now)
        if self._journal_root is not None and shard.journal is None:
            shard.attach_journal(
                ServerJournal(self._journal_root / shard.name)
            )
        shard.fairshare = FairShareScheduler(self._fairshare_policy)
        if self.monitor is not None:
            self.monitor.watch(shard.name)
        if self.project_server.name not in self._shards_by_name:
            self.project_server = shard
        for dead in sorted(self._dead_shards):
            self._rehome_workers(dead)
        reports: List[MigrationReport] = []
        for pid in sorted(self._parked):
            source = self._parked.pop(pid)
            report = self._migrate_project(pid, source)
            reports.append(report)
            self.events.record(
                self.now,
                EventKind.PROJECT_UNPARKED,
                pid,
                from_shard=source,
                to_shard=report.to_shard,
                epoch=report.epoch,
            )
            self.obs.metrics.inc(
                "repro_projects_unparked_total",
                help="Parked projects resumed on a replacement shard.",
                project=pid,
            )
        self._finish_migrations(reports)
        return reports

    def _rehome_workers(self, dead: str) -> None:
        """Point the dead shard's workers at a surviving shard."""
        survivors = [s.name for s in self.shards]
        if not survivors:
            # nowhere to re-home to; add_shard re-homes them when a
            # replacement joins
            return
        for index, worker in enumerate(self.workers):
            if worker.server != dead:
                continue
            worker.server = survivors[index % len(survivors)]
            try:
                worker.announce(self.now)
            except CommunicationError:
                # the worker's own uplink may be flaky; heartbeats
                # auto-register it with the new shard on next contact
                pass

    def _migrate_project(self, pid: str, dead: str) -> MigrationReport:
        factory = self._factories.get(pid)
        if factory is None:
            raise ConfigurationError(
                f"project {pid!r} has no controller factory; submit with "
                f"controller_factory= to make it migratable"
            )
        # bump the ownership epoch *in the source journal, before the
        # ship*: the successor recovers the new epoch atomically with
        # the state it adopts, and anything the dead shard's regime
        # still writes is fenced as stale (invariant 14)
        source = ProjectJournal(
            self._journal_root / dead / pid, snapshot_every=None
        )
        new_epoch = source.state.epoch + 1
        source.record_epoch(new_epoch)
        source.close()
        shipment = ship_project_journal(
            self._journal_root / dead,
            self._journal_root / self.router.route(pid),
            pid,
        )
        successor = self.router.route(pid)
        # resume() refuses projects it already knows — forget the
        # pre-crash registration first; the journal replay rebuilds it
        self._projects.pop(pid, None)
        self._controllers.pop(pid, None)
        self.resume(pid, factory())
        recovered = [
            e for e in self.events.filter(EventKind.SERVER_RECOVERED)
            if e.project_id == pid
        ][-1]
        report = MigrationReport(
            project_id=pid,
            from_shard=dead,
            to_shard=successor,
            replayed=recovered.details.get("replayed", 0),
            restored=recovered.details.get("restored", 0),
            files_shipped=shipment.snapshots + shipment.segments,
            bytes_shipped=shipment.bytes,
            epoch=new_epoch,
        )
        self.events.record(
            self.now,
            EventKind.PROJECT_MIGRATED,
            pid,
            from_shard=dead,
            to_shard=successor,
            replayed=report.replayed,
            restored=report.restored,
            epoch=new_epoch,
        )
        self.obs.metrics.inc(
            "repro_projects_migrated_total",
            help="Projects migrated off dead shards.",
            project=pid,
            to=successor,
        )
        self.obs.tracer.record(
            "project.migrate",
            self.now,
            self.now,
            trace_id_for(pid, "migration"),
            component="gateway",
            from_shard=dead,
            to_shard=successor,
            replayed=report.replayed,
            restored=report.restored,
        )
        return report

    # -- per-tenant telemetry ------------------------------------------------

    def _refresh_status(self) -> None:
        super()._refresh_status()
        for pid, project in self._projects.items():
            shard = self.shard_of(pid)
            gauged = (project.outstanding, project.completed, shard)
            if self._gauged.get(pid) == gauged:
                continue
            self._gauged[pid] = gauged
            self.obs.metrics.set_gauge(
                "repro_tenant_commands_outstanding",
                project.outstanding,
                help="Issued-minus-completed commands per tenant.",
                project=pid,
                shard=shard,
            )
            self.obs.metrics.set_gauge(
                "repro_tenant_commands_completed",
                project.completed,
                help="Completed commands per tenant.",
                project=pid,
                shard=shard,
            )

    def tenant_report(self) -> Dict[str, Dict]:
        """Per-tenant rollup: shard placement, progress, scheduler ledger."""
        ledgers: Dict[str, Dict] = {}
        for shard in self.shards:
            ledgers.update(shard.fairshare.snapshot())
        out: Dict[str, Dict] = {}
        for pid, project in self._projects.items():
            out[pid] = {
                "shard": self.shard_of(pid),
                "status": project.status.value,
                "issued": project.issued,
                "completed": project.completed,
                "ledger": ledgers.get(pid, {}),
            }
        return out

"""ProjectRunner: binds network, servers, workers and controllers.

The runner is the driver a user's ``cpc`` command would start: it
submits a project to its origin server, then cycles workers (each cycle
a worker requests a workload, executes it in checkpointed segments and
returns results), advances the logical clock, and runs failure
detection on every server.  Command results reaching the origin server
trigger the controller, whose follow-up commands are queued
immediately — adaptivity in action.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.command import Command
from repro.core.controller import Controller
from repro.core.events import EventKind, EventLog
from repro.core.project import Project, ProjectStatus
from repro.net.transport import Network
from repro.server.server import CopernicusServer
from repro.util.errors import (
    ConfigurationError,
    JournalCorruptionError,
    SchedulingError,
)
from repro.worker.worker import Worker


def replay_results(
    project_id: str,
    results: Iterable[Tuple[Command, dict]],
    controller: Controller,
) -> Tuple[Project, List[Command], Set[str]]:
    """Feed an ordered result history through a fresh controller.

    Deterministic controllers re-issue the same commands in the same
    order, so replaying the recorded results reconstructs the pre-crash
    project state exactly (:meth:`ProjectRunner.resume`).

    Returns ``(project, outstanding_commands, completed_ids)``: every
    command issued but never completed (what must be requeued), and the
    ids of the completed ones, which reseed the server's exactly-once
    barrier so a late or duplicated result is still dropped.
    """
    project = Project(project_id)
    issued = {c.command_id: c for c in controller.on_project_start(project)}
    project.record_issue(list(issued.values()))
    completed_ids: Set[str] = set()
    for command, result in results:
        project.record_result(command, result)
        follow_ups = controller.on_command_finished(project, command, result)
        issued.pop(command.command_id, None)
        completed_ids.add(command.command_id)
        for follow_up in follow_ups:
            issued[follow_up.command_id] = follow_up
        project.record_issue(follow_ups)
    return project, list(issued.values()), completed_ids


class ProjectRunner:
    """Drives one or more projects over a Copernicus deployment.

    Parameters
    ----------
    network:
        The overlay.
    project_server:
        The server projects are submitted to.
    workers:
        Worker clients (already linked on the overlay).
    tick:
        Logical seconds per runner cycle (heartbeat timestamps advance
        by this much).
    """

    def __init__(
        self,
        network: Network,
        project_server: CopernicusServer,
        workers: List[Worker],
        tick: float = 60.0,
    ) -> None:
        if tick <= 0:
            raise SchedulingError("tick must be positive")
        self.network = network
        self.project_server = project_server
        self.workers = list(workers)
        self.tick = float(tick)
        self.now = 0.0
        #: Audit trail of everything that happened on this runner.
        self.events = EventLog()
        self._projects: Dict[str, Project] = {}
        self._controllers: Dict[str, Controller] = {}
        #: All servers observed on the overlay (for failure checks).
        self._servers: List[CopernicusServer] = []
        for name in network.endpoints():
            endpoint = network.endpoint(name)
            if isinstance(endpoint, CopernicusServer):
                self._servers.append(endpoint)

    # -- public accessors ----------------------------------------------------

    @property
    def servers(self) -> List[CopernicusServer]:
        """Every server on the overlay (monitoring/invariant checkers
        read this instead of reaching into private state)."""
        return list(self._servers)

    @property
    def projects(self) -> List[Project]:
        """Every submitted project, in submission order."""
        return list(self._projects.values())

    def project(self, project_id: str) -> Project:
        """One submitted project by id (raises KeyError when unknown)."""
        return self._projects[project_id]

    def controller(self, project_id: str) -> Controller:
        """The live controller for a project.  After a resume or a
        shard-failover migration this is the fresh replay controller,
        not the one originally submitted."""
        return self._controllers[project_id]

    @property
    def obs(self):
        """The deployment's observability hub (shared via the network)."""
        return self.network.obs

    # -- routing -------------------------------------------------------------

    def _origin_for(self, project_id: str) -> CopernicusServer:
        """The server hosting *project_id*.

        The single-project runner always answers with its one project
        server; :class:`~repro.core.multirunner.MultiProjectRunner`
        overrides this with a consistent-hash shard lookup.  Every
        submission/forwarding path routes through here, so the two
        runners share all other machinery.
        """
        return self.project_server

    # -- submission ----------------------------------------------------------

    def submit(self, project: Project, controller: Controller) -> None:
        """Submit a project: host it and queue its initial commands."""
        if project.project_id in self._projects:
            raise SchedulingError(
                f"project {project.project_id!r} already submitted"
            )
        self._projects[project.project_id] = project
        self._controllers[project.project_id] = controller
        controller.bind_obs(self.network.obs)

        def sink(command: Command, result: dict) -> None:
            self._on_result(project, controller, command, result)

        origin = self._origin_for(project.project_id)
        # Attach the audit trail before the first submission so events
        # raised at admission time (e.g. backpressure deferrals) land
        # in the same log run() later re-attaches fleet-wide.
        origin.events = self.events
        origin.clock = max(origin.clock, self.now)
        origin.host_project(project.project_id, sink)
        initial = controller.on_project_start(project)
        project.record_issue(initial)
        origin.submit_commands(initial)
        project.status = ProjectStatus.RUNNING
        self.events.record(
            self.now, EventKind.PROJECT_SUBMITTED, project.project_id
        )
        self.events.record(
            self.now,
            EventKind.COMMANDS_ISSUED,
            project.project_id,
            count=len(initial),
            ids=[c.command_id for c in initial],
            generation="initial",
        )

    def resume(self, project_id: str, controller: Controller) -> Project:
        """Restart a journaled project after a project-server crash.

        The project server must have a journal attached
        (:meth:`~repro.server.server.CopernicusServer.attach_journal`)
        whose directory survived the crash.  The journal's snapshot+log
        is replayed through the *fresh* ``controller`` (controllers are
        deterministic, so this reconstructs the exact pre-crash state),
        the exactly-once barrier is reseeded from the journaled
        completions, and every outstanding command — issued, leased or
        requeued before the crash but never completed — goes back on
        the queue, resuming from its last journaled checkpoint when one
        was reported.  Afterwards :meth:`run` continues the project to
        completion as if the crash had not happened.

        Returns the reconstructed :class:`Project`.
        """
        if project_id in self._projects:
            raise SchedulingError(
                f"project {project_id!r} already submitted"
            )
        origin = self._origin_for(project_id)
        server_journal = origin.journal
        if server_journal is None:
            raise ConfigurationError(
                f"server {origin.name!r} has no journal "
                f"attached; nothing to resume from"
            )
        state = server_journal.project(project_id).recover()
        project, outstanding, completed_ids = replay_results(
            project_id, state.results, controller
        )
        # determinism cross-check: every command the journal saw issued
        # must be explained by the fresh controller's re-issue
        replayed_ids = completed_ids | {c.command_id for c in outstanding}
        unexplained = state.issued_ids - replayed_ids
        if unexplained:
            raise JournalCorruptionError(
                f"journal for {project_id!r} holds issued commands the "
                f"fresh controller did not re-issue (controller not "
                f"deterministic?): {sorted(unexplained)[:5]}"
            )
        for command in outstanding:
            checkpoint = state.checkpoints.get(command.command_id)
            if checkpoint is not None:
                command.checkpoint = checkpoint
        self._projects[project_id] = project
        self._controllers[project_id] = controller
        controller.bind_obs(self.network.obs)

        def sink(command: Command, result: dict) -> None:
            self._on_result(project, controller, command, result)

        origin.events = self.events
        origin.clock = max(origin.clock, self.now)
        origin.host_project(project_id, sink)
        # reseed the journaled ownership epoch before the outstanding
        # commands are queued, so they are restamped under the regime
        # the recovering owner actually holds (invariant 14)
        origin.restore_commands(
            project_id, outstanding, completed_ids, epoch=state.epoch
        )
        self.events.record(
            self.now,
            EventKind.SERVER_RECOVERED,
            project_id,
            server=origin.name,
            replayed=len(state.results),
            restored=len(outstanding),
            issued=project.issued,
        )
        self.events.record(
            self.now,
            EventKind.COMMANDS_ISSUED,
            project_id,
            count=len(replayed_ids),
            ids=sorted(replayed_ids),
            generation="recovered",
        )
        for command, _result in state.results:
            self.events.record(
                self.now,
                EventKind.COMMAND_COMPLETED,
                project_id,
                command=command.command_id,
                replayed=True,
            )
        for command in outstanding:
            checkpoint = command.checkpoint
            self.events.record(
                self.now,
                EventKind.COMMAND_RESTORED,
                project_id,
                command=command.command_id,
                has_checkpoint=checkpoint is not None,
                step=(
                    checkpoint.get("step")
                    if isinstance(checkpoint, dict)
                    else None
                ),
            )
        project.status = ProjectStatus.RUNNING
        self._refresh_status()  # already-complete projects finish here
        return project

    def _on_result(
        self,
        project: Project,
        controller: Controller,
        command: Command,
        result: dict,
    ) -> None:
        project.record_result(command, result)
        self.events.record(
            self.now,
            EventKind.COMMAND_COMPLETED,
            project.project_id,
            command=command.command_id,
        )
        follow_ups = controller.on_command_finished(project, command, result)
        ctx = command.trace or {}
        self.network.obs.tracer.record(
            "controller.update",
            self.now,
            self.now,
            ctx.get("trace_id") or "",
            component="controller",
            parent_id=ctx.get("span_id"),
            command=command.command_id,
            follow_ups=len(follow_ups or ()),
        )
        self.network.obs.metrics.inc(
            "repro_controller_results_total",
            help="Results folded into projects by controllers.",
            project=project.project_id,
        )
        if follow_ups:
            project.record_issue(follow_ups)
            self._origin_for(project.project_id).submit_commands(follow_ups)
            self.network.obs.metrics.inc(
                "repro_controller_follow_ups_total",
                amount=len(follow_ups),
                help="Follow-up commands issued by controllers.",
                project=project.project_id,
            )
            self.events.record(
                self.now,
                EventKind.COMMANDS_ISSUED,
                project.project_id,
                count=len(follow_ups),
                ids=[c.command_id for c in follow_ups],
                trigger=command.command_id,
            )

    # -- main loop ------------------------------------------------------------

    def journaled_results(self) -> int:
        """Results durably applied across every server's journal."""
        return sum(
            server.journal.project(pid).results_applied
            for server in self._servers
            if server.journal is not None
            for pid in server.journal.project_ids()
        )

    def _queued_anywhere(self) -> int:
        return sum(len(server.queue) for server in self._servers)

    def adopt_servers(self) -> None:
        """Point the overlay's servers at this runner's audit trail, so
        failure handling (deaths, requeues, checkpoints, duplicate
        drops) lands in the same log the invariant checker replays.
        :meth:`run` does this itself; call it before cycling by hand."""
        for server in self._servers:
            server.events = self.events
            server.clock = max(server.clock, self.now)

    def cycle(
        self, interrupt: Optional[Callable[[], bool]] = None
    ) -> Optional[int]:
        """One drive cycle: every live worker takes its turn (heartbeat,
        then fetch and execute), then :meth:`advance`.  Returns the
        number of commands completed.

        *interrupt* is polled after each worker's turn.  When it holds
        the cycle is abandoned there — later workers get no turn, the
        clock does not advance — and ``None`` is returned: how a fault
        lands *inside* a cycle (the chaos harness's "after N journaled
        results" triggers).  The next cycle starts over from the first
        worker at the same virtual time.
        """
        progress = 0
        for worker in self.workers:
            if worker.crashed:
                continue
            # each worker beats/polls at its own jittered offset
            # within the cycle, not in lockstep at the boundary
            worker_now = self.now + worker.poll_offset
            worker.heartbeat(worker_now)
            progress += worker.work_once(now=worker_now)
            if interrupt is not None and interrupt():
                return None
        self.advance()
        return progress

    def advance(self) -> None:
        """Close a cycle: one tick of virtual time, then failure
        detection across the fleet."""
        self.now += self.tick
        self._liveness_sweep()

    def run(self, max_cycles: int = 10000) -> None:
        """Cycle until every project completes (or no progress is possible).

        Raises
        ------
        SchedulingError
            If commands remain but no live worker can make progress
            (deadlock), or ``max_cycles`` is exhausted.
        """
        self.adopt_servers()
        for _ in range(max_cycles):
            if self.all_complete():
                return
            progress = self.cycle()
            self._refresh_status()
            if progress == 0:
                if self.all_complete():
                    return
                if self._queued_anywhere() == 0 and not self._any_in_flight():
                    raise SchedulingError(
                        "no queued commands and no progress; project stalled"
                    )
                if all(w.crashed for w in self.workers):
                    raise SchedulingError("every worker has crashed")
        if not self.all_complete():
            raise SchedulingError(f"projects unfinished after {max_cycles} cycles")

    def _liveness_sweep(self) -> None:
        """Per-cycle failure detection across the fleet.

        The single-server runner checks worker liveness on every
        server; :class:`~repro.core.multirunner.MultiProjectRunner`
        extends this with shard-level probes and failover.
        """
        for server in self._servers:
            server.check_liveness(self.now)

    def _any_in_flight(self) -> bool:
        return any(len(server.leases) for server in self._servers)

    def all_complete(self) -> bool:
        """Whether every submitted project is complete (statuses are
        refreshed first, so completions are logged as of now)."""
        self._refresh_status()
        return all(
            p.status is ProjectStatus.COMPLETE for p in self._projects.values()
        )

    def _refresh_status(self) -> None:
        for pid, project in self._projects.items():
            if project.status is ProjectStatus.RUNNING and self._controllers[
                pid
            ].is_complete(project):
                project.status = ProjectStatus.COMPLETE
                self.events.record(
                    self.now, EventKind.PROJECT_COMPLETED, pid
                )

    # -- monitoring ------------------------------------------------------------

    def status(self) -> List[dict]:
        """Controller summaries for every project (the web-UI view)."""
        return [
            self._controllers[pid].summary(project)
            for pid, project in self._projects.items()
        ]

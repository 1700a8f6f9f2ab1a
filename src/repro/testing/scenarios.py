"""Canned chaos scenarios: a small Copernicus deployment under fire.

:func:`run_swarm_under_faults` builds the same deployment as
``examples/failure_recovery.py`` — one server, a swarm of short MD
commands, a couple of workers — but over a
:class:`~repro.testing.chaos.ChaosNetwork`, runs it to completion and
returns everything a test needs to assert recovery: the runner (with
its event log), the server, the workers and the chaos report.

:func:`run_swarm_with_server_restart` goes further: it kills the
*project server* mid-project (total in-memory state loss — queue,
leases, dedup barrier, controller), restarts it from its on-disk
journal (:mod:`repro.server.wal`) on a fresh overlay, and runs the
project to completion — the paper's claim that the single long-lived
job survives the loss of any component, including the orchestrator.

The liveness scenarios exercise degradation rather than death:
:func:`run_swarm_with_straggler` pins one worker at a glacial pace so
its lease deadline blows and a speculative copy races it home;
:func:`run_swarm_with_flapping_worker` oscillates a worker's link until
health scoring quarantines it, then watches the timed re-admission; and
:func:`run_relay_with_sick_peer` makes a relay's wildcard peer fail
probes until the relay's circuit breaker opens, skips it, and re-closes
through half-open probes once the peer recovers.

Every runner is the same three moves: describe the fleet to
:func:`_deploy_swarm` (shape, policies, pacing, journal) with its
faults armed on the plan, drive it — :meth:`ProjectRunner.run`, or
:func:`drive` when the scenario stops somewhere other than "every
project complete" — and hand back :func:`pack_result` of it.  The
multi-tenant runners of :mod:`repro.testing.soak` use the same two
helpers.

Reproducibility contract: the returned
:meth:`~repro.core.events.EventLog.to_text` transcript is a pure
function of the arguments, so asserting transcript equality across two
runs with the same seed *is* the determinism test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.core.command import Command
from repro.core.controller import Controller
from repro.core.project import Project
from repro.core.runner import ProjectRunner
from repro.md.engine import MDTask
from repro.net.circuit import BreakerPolicy
from repro.server.health import HealthPolicy
from repro.server.lease import LeasePolicy
from repro.server.server import CopernicusServer
from repro.server.wal import ServerJournal
from repro.testing.chaos import ChaosNetwork
from repro.testing.faultplan import FaultPlan
from repro.util.errors import SchedulingError
from repro.worker.executable import ExecutableRegistry
from repro.worker.platform import SMPPlatform
from repro.worker.worker import Worker


@dataclass
class ScenarioResult:
    """What a chaos/liveness scenario hands back to its assertions:
    the deployment (``result.server``, ``result.workers`` ...), what it
    recorded once driven (``transcript``, ``chaos``), and per-scenario
    extras defaulting to ``None``."""

    runner: ProjectRunner
    server: CopernicusServer
    workers: List[Worker]
    controller: Controller
    network: ChaosNetwork
    #: the ``swarm`` project (resumed, in the server-restart scenario)
    project: Project
    #: the event log as text and the chaos report, filled by
    #: :func:`pack_result` after the drive
    transcript: str = ""
    chaos: Optional[Dict] = None
    # -- per-scenario extras --------------------------------------------
    #: phase-1 summary dict (server-restart scenario)
    pre: Optional[Dict] = None
    #: the deliberately slow worker (straggler scenario)
    straggler: Optional[Worker] = None
    #: the link-flapping worker (flapping-worker scenario)
    flapper: Optional[Worker] = None
    #: relay / sick peer servers and the relay's breaker (relay scenario)
    relay: Optional[CopernicusServer] = None
    sick: Optional[CopernicusServer] = None
    breaker: Any = None
    #: virtual time at project completion (straggler scenario)
    completed_at: Optional[float] = None
    #: cycles spent draining the straggler's doomed copy
    drain_cycles: Optional[int] = None

    @property
    def events(self):
        """The runner's event log (``runner.events`` shorthand)."""
        return self.runner.events

    @property
    def obs(self):
        """The deployment's observability hub (shared via the network)."""
        return self.network.obs


class SwarmController(Controller):
    """A flat swarm of MD commands; complete when all have returned."""

    def __init__(
        self,
        n_commands: int,
        n_steps: int,
        model: str = "villin-fast",
        report_interval: int = 200,
    ) -> None:
        self.n_commands = n_commands
        self.n_steps = n_steps
        self.model = model
        self.report_interval = report_interval
        self.finished: List = []

    def on_project_start(self, project):
        return [
            Command(
                command_id=f"cmd{k}",
                project_id=project.project_id,
                executable="mdrun",
                payload=MDTask(
                    model=self.model,
                    n_steps=self.n_steps,
                    report_interval=self.report_interval,
                    seed=k,
                    task_id=f"cmd{k}",
                ).to_payload(),
            )
            for k in range(self.n_commands)
        ]

    def on_command_finished(self, project, command, result):
        self.finished.append((command.command_id, result["steps_completed"]))
        return []

    def is_complete(self, project):
        return len(self.finished) >= self.n_commands


# -- the three moves every runner is made of --------------------------------


def _deploy_swarm(
    plan: FaultPlan,
    seed: int,
    n_commands: int,
    n_steps: int,
    n_workers: int,
    segment_steps: int,
    heartbeat_interval: float,
    tick: float,
    lease_policy: Optional[LeasePolicy] = None,
    health_policy: Optional[HealthPolicy] = None,
    pacing: Callable[[int], Optional[int]] = lambda k: None,
    journal: Optional[ServerJournal] = None,
    sick_peer: bool = False,
    resume: bool = False,
) -> ScenarioResult:
    """Build the swarm fleet on a fresh chaos overlay and start the project.

    Project server ``srv`` (journaled when *journal* is given) and
    workers ``w0 .. w{n-1}``, worker ``k`` paced at ``pacing(k)``
    segments per cycle.  The workers do not install ``mdrun_batch``:
    they run one command at a time, so a fault aimed at a single
    command (a restart after one result, a speculated straggler) lands
    mid-project.  With *sick_peer* the workers hang off a
    ``relay`` server instead, linked to a third server ``sick``
    *before* ``srv`` — link order pins the BFS probe order of wildcard
    fetches.  The ``swarm`` project is submitted to a fresh
    :class:`SwarmController`, or resumed from the journal.  Returns
    the deployment as a not-yet-driven :class:`ScenarioResult`.
    """
    network = ChaosNetwork(plan=plan, seed=seed)
    server = CopernicusServer(
        "srv",
        network,
        heartbeat_interval=heartbeat_interval,
        lease_policy=lease_policy,
        health_policy=health_policy,
    )
    if journal is not None:
        server.attach_journal(journal)
    relay = sick = None
    if sick_peer:
        relay = CopernicusServer(
            "relay", network, heartbeat_interval=heartbeat_interval
        )
        sick = CopernicusServer(
            "sick", network, heartbeat_interval=heartbeat_interval
        )
        network.connect("relay", "sick")
        network.connect("relay", "srv")
    uplink = "relay" if sick_peer else "srv"
    workers = [
        Worker(
            f"w{k}",
            network,
            server=uplink,
            platform=SMPPlatform(cores=1),
            executables=ExecutableRegistry(["mdrun", "fepsample"]),
            segment_steps=segment_steps,
            segments_per_cycle=pacing(k),
        )
        for k in range(n_workers)
    ]
    for worker in workers:
        network.connect(uplink, worker.name)
    for worker in workers:
        worker.announce(0.0)

    controller = SwarmController(n_commands=n_commands, n_steps=n_steps)
    runner = ProjectRunner(network, server, workers, tick=tick)
    if resume:
        project = runner.resume("swarm", controller)
    else:
        project = Project("swarm")
        runner.submit(project, controller)
    return ScenarioResult(
        runner, server, workers, controller, network, project,
        relay=relay, sick=sick,
    )


def drive(
    cycle: Callable[[], Optional[int]],
    until: Callable[[], bool],
    max_cycles: int,
) -> Optional[int]:
    """The one drive loop for scenarios that stop short of (or go on
    past) "every project complete", which is
    :meth:`~repro.core.runner.ProjectRunner.run`'s job.

    Calls *cycle* — :meth:`~repro.core.runner.ProjectRunner.cycle`,
    bound to an ``interrupt`` when the stop can land mid-cycle — until
    it reports an interrupt (``None``) or *until* holds after it.
    Returns how many cycles that took, ``None`` when *max_cycles* ran
    out first.
    """
    for n in range(1, max_cycles + 1):
        if cycle() is None or until():
            return n
    return None


def pack_result(deployed, **parts):
    """The one result packer: the driven deployment plus what its
    runner and network recorded — the event transcript and the chaos
    report — and the *parts* only this scenario's assertions need."""
    return replace(
        deployed,
        transcript=deployed.runner.events.to_text(),
        chaos=deployed.network.chaos_report(),
        **parts,
    )


# -- the canned runners ------------------------------------------------------


def run_swarm_under_faults(
    plan: Optional[FaultPlan] = None,
    configure: Optional[Callable[[FaultPlan], None]] = None,
    n_commands: int = 3,
    n_steps: int = 5000,
    n_workers: int = 2,
    segment_steps: int = 1000,
    heartbeat_interval: float = 60.0,
    tick: float = 90.0,
    max_cycles: int = 10000,
    seed: int = 0,
) -> ScenarioResult:
    """Run the failure-recovery swarm under a fault plan.

    Parameters
    ----------
    plan:
        The fault schedule (default: a fresh plan seeded with *seed* —
        i.e. no faults unless *configure* adds some).
    configure:
        Callback receiving the plan before the run, for adding faults
        that reference the scenario's endpoint names (``srv``,
        ``w0`` ... ``w{n-1}``).
    seed:
        Seeds the network and (when *plan* is ``None``) the plan.

    Returns a :class:`ScenarioResult` with ``runner``, ``server``,
    ``workers``, ``controller``, ``network``, ``transcript`` and
    ``chaos`` populated.
    """
    plan = plan or FaultPlan(seed=seed)
    if configure is not None:
        configure(plan)
    swarm = _deploy_swarm(
        plan, seed, n_commands, n_steps, n_workers, segment_steps,
        heartbeat_interval, tick,
    )
    swarm.runner.run(max_cycles=max_cycles)
    return pack_result(swarm)


def run_swarm_with_server_restart(
    journal_root: str | Path,
    plan: Optional[FaultPlan] = None,
    configure: Optional[Callable[[FaultPlan], None]] = None,
    crash_after_results: Optional[int] = None,
    mutate_journal: Optional[Callable[[Path], None]] = None,
    n_commands: int = 3,
    n_steps: int = 3000,
    n_workers: int = 2,
    segment_steps: int = 1000,
    heartbeat_interval: float = 60.0,
    tick: float = 90.0,
    max_cycles: int = 10000,
    seed: int = 0,
    segment_bytes: int = 1 << 16,
    snapshot_every: Optional[int] = 2,
) -> ScenarioResult:
    """Kill the project server mid-project; restart it from its journal.

    Phase 1 builds the failure-recovery swarm with a
    :class:`~repro.server.wal.ServerJournal` under *journal_root* and
    drives worker cycles until ``crash_after_results`` results are
    durably applied (default: the plan's
    :meth:`~repro.testing.faultplan.FaultPlan.restart_server` rule, or
    1).  Then the whole deployment — server, queue, leases, dedup
    barrier, controller, workers — is discarded, exactly what a host
    loss looks like.

    Phase 2 builds a *fresh* deployment with the same endpoint names
    over a new overlay, resumes the project from the surviving journal
    directory via :meth:`~repro.core.runner.ProjectRunner.resume`, and
    runs it to completion.

    ``mutate_journal`` (called with the journal root between the
    phases) lets tests corrupt or truncate the on-disk state the way a
    mid-write crash would.

    Returns a :class:`ScenarioResult` with the phase-2 ``runner``/
    ``server``/``workers``/``controller``/``network``/``project``/
    ``transcript``/``chaos`` attributes (so recovery assertions read
    like the other scenarios') plus ``pre`` holding the phase-1 runner,
    server, transcript and the number of results applied before the
    kill.
    """
    journal_root = Path(journal_root)
    plan = plan or FaultPlan(seed=seed)
    if configure is not None:
        configure(plan)
    restart_rule = plan.server_restart_point("srv")
    if crash_after_results is None:
        crash_after_results = (
            restart_rule.after_results if restart_rule is not None else 1
        )

    def deploy(plan: FaultPlan, seed: int, resume: bool) -> ScenarioResult:
        journal = ServerJournal(
            journal_root,
            segment_bytes=segment_bytes,
            snapshot_every=snapshot_every,
        )
        return _deploy_swarm(
            plan, seed, n_commands, n_steps, n_workers, segment_steps,
            heartbeat_interval, tick, journal=journal, resume=resume,
        )

    # ---- phase 1: run until the crash point, then lose everything ------
    pre = deploy(plan, seed, resume=False)
    pre.runner.adopt_servers()
    # the kill lands on a cycle boundary: every worker finishes its turn
    drive(
        pre.runner.cycle,
        lambda: pre.runner.journaled_results() >= crash_after_results,
        max_cycles,
    )
    results_applied = pre.runner.journaled_results()
    if results_applied < crash_after_results:
        raise SchedulingError(
            f"project finished before {crash_after_results} results could "
            f"trigger the server kill; lower crash_after_results"
        )
    if restart_rule is not None:
        restart_rule.fired += 1
        plan.firings.append((pre.network.delivery_index, restart_rule))
    pre.server.journal.close()  # the "crash": nothing unflushed survives
    pre_summary = {
        "runner": pre.runner,
        "server": pre.server,
        "transcript": pre.runner.events.to_text(),
        "results_applied": results_applied,
    }

    if mutate_journal is not None:
        mutate_journal(journal_root)

    # ---- phase 2: fresh deployment, resume from the journal ------------
    post = deploy(FaultPlan(seed=seed + 1), seed + 1, resume=True)
    post.runner.run(max_cycles=max_cycles)
    return pack_result(post, pre=pre_summary)


def run_swarm_with_straggler(
    n_commands: int = 3,
    n_steps: int = 3000,
    n_workers: int = 3,
    straggler_factor: float = 0.1,
    segment_steps: int = 1000,
    heartbeat_interval: float = 60.0,
    tick: float = 90.0,
    max_cycles: int = 10000,
    max_drain_cycles: int = 200,
    seed: int = 0,
) -> ScenarioResult:
    """One worker is 10x slow but heartbeats happily; speculation wins.

    Worker ``w0`` is armed as a :attr:`FaultKind.STRAGGLER`: it runs
    ``straggler_factor`` of its segment steps, one segment per cycle,
    so its command spans dozens of virtual-time ticks while its
    heartbeats stay perfectly healthy — invisible to death detection.
    The server's lease policy (tuned so perfmodel deadlines land within
    a few ticks) flags the overdue lease, queues a speculative copy
    from the straggler's last checkpoint, and a healthy worker races it
    home.  The project completes in bounded virtual time.

    After the project completes, the straggler is drained — cycled
    (with everyone still heartbeating) until its parked command
    finishes — so the losing result comes home and is journaled as
    ``SPECULATION_LOST`` while the dedup barrier drops it.
    """
    plan = FaultPlan(seed=seed)
    plan.straggler("w0", factor=straggler_factor, segments_per_cycle=1)
    swarm = _deploy_swarm(
        plan, seed, n_commands, n_steps, n_workers, segment_steps,
        heartbeat_interval, tick,
        # shrink the hours->virtual-seconds calibration so a healthy
        # command's deadline lands within ~2 ticks of its grant
        lease_policy=LeasePolicy(
            slack=2.0, min_seconds=tick, hours_to_seconds=300.0
        ),
    )
    runner, straggler = swarm.runner, swarm.workers[0]
    runner.run(max_cycles=max_cycles)
    completed_at = runner.now

    def drain_cycle() -> int:
        # the straggler is still grinding its doomed copy: the fleet
        # keeps heartbeating, but only the straggler polls and works
        for worker in swarm.workers:
            if not worker.crashed:
                worker.heartbeat(runner.now)
        done = straggler.work_once(now=runner.now)
        runner.advance()
        return done

    drain_cycles = 0
    if not straggler.idle:
        drain_cycles = drive(
            drain_cycle, lambda: straggler.idle, max_drain_cycles
        )
    if drain_cycles is None:
        raise SchedulingError(
            f"straggler still mid-command after {max_drain_cycles} "
            f"drain cycles"
        )
    return pack_result(
        swarm,
        straggler=straggler,
        completed_at=completed_at,
        drain_cycles=drain_cycles,
    )


def run_swarm_with_flapping_worker(
    n_commands: int = 10,
    n_steps: int = 4000,
    n_workers: int = 3,
    up_deliveries: int = 30,
    down_deliveries: int = 40,
    flap_after_index: int = 0,
    segment_steps: int = 1000,
    heartbeat_interval: float = 60.0,
    tick: float = 90.0,
    quarantine_seconds: float = 270.0,
    max_cycles: int = 10000,
    seed: int = 0,
) -> ScenarioResult:
    """A worker's link flaps until health scoring quarantines it.

    Worker ``w0``'s connectivity oscillates (one
    :attr:`FaultKind.FLAPPING_WORKER` down-phase long enough to be
    declared dead, then the link stays up): the server sees a death —
    requeueing its in-flight work — then a revival, and the combined
    crash+flap penalties push the worker's EWMA health score through
    the quarantine threshold.  While quarantined, its workload requests
    are denied; once the timed cooldown expires it is re-admitted on
    probation (one command at a time) and earns its way back to
    healthy by delivering.

    The healthy workers are paced (one segment per cycle) so the
    project outlives the whole quarantine/re-admission arc.
    """
    plan = FaultPlan(seed=seed)
    plan.flapping_worker(
        "w0",
        up_deliveries=up_deliveries,
        down_deliveries=down_deliveries,
        after_index=flap_after_index,
        until_index=flap_after_index + up_deliveries + down_deliveries,
    )
    swarm = _deploy_swarm(
        plan, seed, n_commands, n_steps, n_workers, segment_steps,
        heartbeat_interval, tick,
        # keep lease deadlines out of the way: this scenario is about
        # health scoring, not stragglers
        lease_policy=LeasePolicy(min_seconds=100000.0),
        # one death+revival flap is enough to quarantine, and the
        # cooldown expires within a few ticks
        health_policy=HealthPolicy(
            alpha=0.5,
            quarantine_seconds=quarantine_seconds,
        ),
        # pace the healthy workers so the run is long enough for the
        # quarantine to expire; the flapper stays unpaced so a revival
        # never interleaves checkpoints with a requeued copy
        pacing=lambda k: None if k == 0 else 1,
    )
    swarm.runner.run(max_cycles=max_cycles)
    return pack_result(swarm, flapper=swarm.workers[0])


def run_relay_with_sick_peer(
    n_commands: int = 8,
    n_steps: int = 3000,
    sick_until_index: int = 20,
    segment_steps: int = 1000,
    heartbeat_interval: float = 60.0,
    tick: float = 90.0,
    cooldown_seconds: float = 200.0,
    max_cycles: int = 10000,
    seed: int = 0,
) -> ScenarioResult:
    """A relay's sick wildcard peer trips its circuit breaker.

    Topology: project server ``srv`` holds the queue, worker ``w0``
    hangs off relay ``relay``, and a third server ``sick`` is linked to
    the relay *first* — so every wildcard fetch probes it before
    reaching ``srv``.  A :attr:`FaultKind.SICK_PEER` fault makes those
    probes fail transiently until ``sick_until_index``: the relay's
    per-peer breaker counts the failures, opens, and skips the peer
    (fetches keep succeeding via ``srv``).  When the cooldown expires
    the breaker goes half-open, the now-healthy peer answers its
    probes, and the breaker re-closes — all visible in the returned
    breaker counters.
    """
    plan = FaultPlan(seed=seed)
    plan.sick_peer("sick", until_index=sick_until_index)
    swarm = _deploy_swarm(
        plan, seed, n_commands, n_steps, 1, segment_steps,
        heartbeat_interval, tick, sick_peer=True,
    )
    # a short cooldown so the open -> half-open -> closed arc completes
    # within the project's lifetime
    swarm.relay.breaker_policy = BreakerPolicy(
        cooldown_seconds=cooldown_seconds
    )
    swarm.runner.run(max_cycles=max_cycles)
    return pack_result(swarm, breaker=swarm.relay.breaker_for("sick"))

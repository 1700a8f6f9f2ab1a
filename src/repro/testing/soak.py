"""Multi-tenant soak: 100+ tenants on a sharded fabric under fire.

The service-plane claim ("one overlay, many users") needs a test shape
of its own: not one project surviving faults, but *hundreds of
tenants* sharing shard servers, quotas, weights and backpressure
limits while the chaos layer drops, delays and duplicates messages —
and all fourteen recovery invariants still holding at the end, with zero
cross-tenant leakage and exact quota ledgers.

:func:`run_multitenant_soak` builds that world deterministically from
a seed: a :func:`~repro.net.topology.sharded`-shaped fabric over a
:class:`~repro.testing.chaos.ChaosNetwork`, ``n_tenants`` projects
with a heterogeneous workload mix (models, command counts, quotas,
weights, backpressure caps all derived from the tenant index), every
tenant deliberately reusing the *same* command ids (``cmd0``,
``cmd1``, ...) so any identity-scoping bug aliases instantly, and a
default fault plan of probabilistic heartbeat drops, result
duplications and delivery delays.

The result carries the live runner plus the pre-computed invariant
verdict; CI runs it across seeds via ``python -m repro soak``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.events import EventKind, EventLog
from repro.core.multirunner import MigrationReport, MultiProjectRunner
from repro.core.project import Project, ProjectStatus
from repro.net.protocol import MessageType
from repro.net.topology import sharded
from repro.server.fairshare import (
    DEFAULT_MAX_WAIT_SECONDS,
    FairSharePolicy,
    FairShareScheduler,
    TenantPolicy,
)
from repro.server.server import CopernicusServer
from repro.server.shardmon import ShardProbePolicy
from repro.testing.chaos import ChaosNetwork
from repro.testing.faultplan import FaultPlan
from repro.testing.invariants import Invariants
from repro.testing.scenarios import SwarmController, drive, pack_result
from repro.util.errors import ConfigurationError, SchedulingError
from repro.worker.worker import Worker

#: The two cheap models the tenant mix alternates between.
SOAK_MODELS = ("double-well", "muller-brown")


@dataclass
class TenantSpec:
    """One soak tenant's workload and fair-share knobs."""

    name: str
    model: str
    n_commands: int
    n_steps: int
    quota: Optional[int] = None
    weight: float = 1.0
    max_queued: Optional[int] = None

    def policy(self) -> TenantPolicy:
        return TenantPolicy(
            quota=self.quota, weight=self.weight, max_queued=self.max_queued
        )


class TenantSwarmController(SwarmController):
    """A flat per-tenant swarm whose command ids collide across tenants.

    Every tenant issues ``cmd0 .. cmd{n-1}`` on purpose: the scoped
    command identity (:attr:`repro.core.command.Command.scoped_id`)
    must keep them apart in every server table, so the soak doubles as
    a fleet-wide aliasing regression test.
    """

    def __init__(self, spec: TenantSpec) -> None:
        super().__init__(
            spec.n_commands, spec.n_steps, model=spec.model,
            report_interval=max(1, spec.n_steps // 2),
        )
        self.spec = spec

    def on_command_finished(self, project, command, result):
        self.finished.append(command.command_id)
        return []


def default_tenant_mix(n_tenants: int, n_steps: int = 300) -> List[TenantSpec]:
    """A heterogeneous-but-deterministic tenant population.

    Derived purely from the tenant index: command counts cycle 1..3,
    models alternate, every 5th tenant is quota-capped, every 3rd
    carries double weight, every 7th has a backpressure cap small
    enough that its later submissions are deferred and released.
    """
    specs = []
    for k in range(n_tenants):
        specs.append(
            TenantSpec(
                name=f"tenant{k:03d}",
                model=SOAK_MODELS[k % len(SOAK_MODELS)],
                n_commands=1 + (k % 3),
                n_steps=n_steps,
                quota=2 if k % 5 == 0 else None,
                weight=2.0 if k % 3 == 0 else 1.0,
                max_queued=1 if k % 7 == 0 else None,
            )
        )
    return specs


def default_soak_faults(plan: FaultPlan) -> None:
    """The standing fault weather for a soak run.

    Probabilistic, seeded by the plan: heartbeat drops (death/revival
    churn), duplicated results (dedup-barrier pressure), and delivery
    delays (timeout pressure).  All three are recoverable by design —
    the soak asserts the *invariants*, not fault-free execution.
    """
    plan.drop(message_type=MessageType.HEARTBEAT, probability=0.05, count=40)
    plan.duplicate(
        message_type=MessageType.COMMAND_RESULT, probability=0.1, count=25
    )
    plan.delay(
        5.0, message_type=MessageType.WORKLOAD_REQUEST,
        probability=0.1, count=50,
    )


def live_completions(events: EventLog) -> List[Tuple[str, str]]:
    """The ``(project, command)`` completion multiset of a run.

    Counts only *live* deliveries — journal-replay re-deliveries
    (``replayed=True``) bridge a controller across a migration and are
    excluded, exactly as invariant 2 treats them.  Two runs completed
    exactly-once produce the identical sorted multiset, so comparing a
    failover run against a crash-free baseline proves "no result lost,
    none duplicated" in one equality.
    """
    return sorted(
        (record.project_id, record.details.get("command", ""))
        for record in events.filter(kind=EventKind.COMMAND_COMPLETED)
        if not record.details.get("replayed")
    )


@dataclass
class SoakResult:
    """Everything a soak assertion (or the CI artifact) needs: the
    deployment, and — filled by :func:`_verdict` once driven — what it
    recorded and whether the invariants held."""

    runner: MultiProjectRunner
    network: ChaosNetwork
    workers: List[Worker]
    schedulers: Dict[str, FairShareScheduler]
    specs: List[TenantSpec]
    #: All fourteen invariants, checked post-run (empty = green).
    violations: Optional[List[str]] = None
    #: Per-tenant rollup (shard, status, issue/complete, ledger).
    report: Optional[Dict[str, Dict]] = None
    transcript: str = ""
    chaos: Optional[Dict] = None

    @property
    def shards(self) -> List[CopernicusServer]:
        """The live shard servers (a failover removes its victim)."""
        return self.runner.shards

    @property
    def controllers(self) -> Dict[str, TenantSwarmController]:
        """The *live* controllers — for migrated tenants the fresh
        replay controller, not the one originally submitted."""
        return {
            spec.name: self.runner.controller(spec.name)
            for spec in self.specs
        }

    @property
    def events(self):
        return self.runner.events

    @property
    def obs(self):
        return self.network.obs

    def completed_tenants(self) -> int:
        return sum(
            1 for r in self.report.values() if r["status"] == "complete"
        )


def _deploy_soak(
    result_type,
    specs: Optional[List[TenantSpec]],
    n_tenants: int,
    n_steps: int,
    plan: Optional[FaultPlan],
    configure: Optional[Callable[[FaultPlan], None]],
    seed: int,
    n_shards: int,
    workers_per_shard: int,
    cores_per_worker: int,
    heartbeat_interval: float,
    segment_steps: int,
    segments_per_cycle: Optional[int],
    tick: float,
    max_wait_seconds: float,
    journal_root: Optional[Path] = None,
    probe_policy: Optional[ShardProbePolicy] = None,
) -> SoakResult:
    """The wiring all three soak runners share; returns the deployment
    as a not-yet-driven *result_type*.

    Tenant population (*specs*, default :func:`default_tenant_mix`),
    chaos overlay with its fault weather (*plan* / *configure*, default
    :func:`default_soak_faults`), the :func:`~repro.net.topology.sharded`
    fabric on that overlay, the runner, fair-share, and every tenant
    submitted with a controller factory.  With *journal_root* the
    shards are journaled and the gateway's shard monitor attached: a
    fabric that can fail over.
    """
    specs = specs if specs is not None else default_tenant_mix(
        n_tenants, n_steps=n_steps
    )
    if not specs:
        raise ConfigurationError("a soak needs at least one tenant")
    if len({spec.name for spec in specs}) != len(specs):
        raise ConfigurationError("tenant names must be unique")

    network = ChaosNetwork(plan=plan or FaultPlan(seed=seed), seed=seed)
    if plan is None and configure is None:
        default_soak_faults(network.plan)
    if configure is not None:
        configure(network.plan)

    fabric = sharded(
        n_shards, workers_per_shard, cores_per_worker,
        heartbeat_interval=heartbeat_interval, poll_jitter=0.0,
        network=network,
    )
    for worker in fabric.workers:
        worker.segment_steps = segment_steps
        worker.segments_per_cycle = segments_per_cycle
    runner = MultiProjectRunner(
        network, fabric.project_servers, fabric.workers, tick=tick
    )
    if journal_root is not None:
        runner.attach_journals(journal_root)
    schedulers = runner.apply_fairshare(
        FairSharePolicy(
            tenants={spec.name: spec.policy() for spec in specs},
            max_wait_seconds=max_wait_seconds,
        )
    )
    if journal_root is not None:
        runner.attach_shard_monitor(fabric.gateway, probe_policy)
    for spec in specs:
        runner.submit(
            Project(spec.name),
            TenantSwarmController(spec),
            controller_factory=lambda spec=spec: TenantSwarmController(spec),
        )
    return result_type(runner, network, fabric.workers, schedulers, specs)


def _verdict(fleet: SoakResult, **story) -> SoakResult:
    """Check all fourteen invariants and pack the driven *fleet*
    (*story*: the churn runners' extra fields)."""
    return pack_result(
        fleet,
        violations=Invariants(fleet.runner).check(),
        report=fleet.runner.tenant_report(),
        **story,
    )


def run_multitenant_soak(
    n_tenants: int = 100,
    n_shards: int = 4,
    workers_per_shard: int = 3,
    cores_per_worker: int = 2,
    n_steps: int = 300,
    specs: Optional[List[TenantSpec]] = None,
    plan: Optional[FaultPlan] = None,
    configure: Optional[Callable[[FaultPlan], None]] = None,
    max_wait_seconds: float = DEFAULT_MAX_WAIT_SECONDS,
    heartbeat_interval: float = 120.0,
    tick: float = 60.0,
    segment_steps: int = 1000,
    segments_per_cycle: Optional[int] = None,
    max_cycles: int = 20000,
    seed: int = 0,
) -> SoakResult:
    """Drive ``n_tenants`` concurrent projects through seeded chaos.

    Builds the sharded fabric (gateway + ``n_shards`` shard servers +
    per-shard worker pools) over a :class:`ChaosNetwork` carrying
    *plan* (default: :func:`default_soak_faults` seeded with *seed*),
    submits every tenant's project to its consistent-hashed shard
    under the assembled fair-share policy, runs the fleet to
    completion, and checks **all fourteen invariants** before returning.

    The returned :class:`SoakResult` is a pure function of the
    arguments: same seed, same transcript, same verdict.

    Parameters
    ----------
    specs:
        Explicit tenant population (default:
        :func:`default_tenant_mix` of *n_tenants*).
    configure:
        Callback to add faults to the plan (endpoint names are
        ``gateway``, ``shard{s}``, ``s{s}w{w}``).
    """
    fleet = _deploy_soak(
        SoakResult, specs, n_tenants, n_steps, plan, configure, seed,
        n_shards, workers_per_shard, cores_per_worker, heartbeat_interval,
        segment_steps, segments_per_cycle, tick, max_wait_seconds,
    )
    fleet.runner.run(max_cycles=max_cycles)
    return _verdict(fleet)


@dataclass
class ShardCrashResult(SoakResult):
    """A :class:`SoakResult` plus the failover story."""

    #: Event kinds that make up :meth:`migration_timeline`.
    TIMELINE_KINDS = frozenset({
        EventKind.SHARD_DEAD,
        EventKind.SERVER_RECOVERED,
        EventKind.COMMAND_RESTORED,
        EventKind.PROJECT_MIGRATED,
    })

    #: The crash-free run of the same seed (None when skipped).
    baseline: Optional[SoakResult] = None
    #: The shard that was killed.
    victim: str = ""
    #: Delivery index at which the victim started refusing traffic.
    crash_delivery_index: int = 0
    #: Fleet-wide journaled results at the crash moment.
    results_before_crash: int = 0

    @property
    def migrations(self) -> List[MigrationReport]:
        """Per-project failover accounting, in migration order."""
        return list(self.runner.migrations)

    @property
    def completions(self) -> List[Tuple[str, str]]:
        """``(project, command)`` live-completion multiset of this run."""
        return live_completions(self.runner.events)

    @property
    def baseline_completions(self) -> Optional[List[Tuple[str, str]]]:
        """The baseline's live-completion multiset (None when skipped)."""
        if self.baseline is None:
            return None
        return live_completions(self.baseline.runner.events)

    @property
    def exactly_once(self) -> bool:
        """Whether the post-failover result set equals the crash-free
        run's — no result lost, none duplicated, none leaked across
        tenants (vacuously true when the baseline was skipped)."""
        return self.baseline is None or (
            self.completions == self.baseline_completions
        )

    def _timeline_records(self):
        return self.runner.events.all()

    def migration_timeline(self) -> List[Dict[str, Any]]:
        """The failover as an ordered record list (the CI artifact):
        shard death, per-project recovery/replay, migration flips and
        post-crash requeues."""
        return [
            {
                "time": record.time,
                "kind": record.kind.value,
                "project": record.project_id,
                **record.details,
            }
            for record in self._timeline_records()
            if record.kind in self.TIMELINE_KINDS
        ]


def _deploy_churn(
    result_type,
    journal_root: str | Path,
    baseline: bool,
    max_cycles: int,
    plan: Optional[FaultPlan],
    configure: Optional[Callable[[FaultPlan], None]],
    probe_policy: Optional[ShardProbePolicy],
    **soak,
) -> ShardCrashResult:
    """Act 1 of a churn scenario: the fault-free baseline of the same
    seed and tenants (*soak*: arguments :func:`run_multitenant_soak`
    and :func:`_deploy_soak` share) unless skipped, then the journaled,
    monitored fleet the fault will hit."""
    if soak["n_shards"] < 2:
        raise ConfigurationError(
            "shard failover needs >= 2 shards (a successor must exist)"
        )
    base = None
    if baseline:
        base = run_multitenant_soak(max_cycles=max_cycles, **soak)
    fleet = _deploy_soak(
        result_type, plan=plan, configure=configure,
        journal_root=Path(journal_root), probe_policy=probe_policy, **soak,
    )
    fleet.baseline = base
    return fleet


def _reach_fault_point(
    fleet: ShardCrashResult,
    victim: Optional[str],
    threshold: int,
    max_cycles: int,
    fault: str,
    knob: str,
) -> None:
    """Act 2 of a churn scenario: drive the fleet until *threshold*
    results are durably journaled fleet-wide, then record the moment
    (``victim``, ``results_before_crash``, ``crash_delivery_index``).

    The threshold is polled after every worker's turn, not once per
    cycle: one full worker sweep can journal many results, and the
    fault should land as close to the threshold as the delivery stream
    allows.  A *victim* left to the scenario is decided at that moment:
    the shard hosting the most still-incomplete tenants (ties by
    name), so the failover always has live work to migrate.
    """
    runner = fleet.runner
    if victim is not None and runner.shard(victim) is None:
        raise ConfigurationError(f"victim {victim!r} is not a shard")

    def reached() -> bool:
        return runner.journaled_results() >= threshold

    runner.adopt_servers()
    drive(
        lambda: runner.cycle(interrupt=reached), runner.all_complete,
        max_cycles,
    )
    if not reached():
        raise SchedulingError(
            f"tenants finished before {threshold} results could trigger "
            f"{fault}; lower {knob}"
        )
    if victim is None:
        if runner.all_complete():
            raise SchedulingError(
                f"every tenant finished before {fault}; lower {knob}"
            )
        incomplete: Dict[str, int] = {}
        for spec in fleet.specs:
            if runner.project(spec.name).status is not ProjectStatus.COMPLETE:
                home = runner.shard_of(spec.name)
                incomplete[home] = incomplete.get(home, 0) + 1
        victim = max(sorted(incomplete), key=lambda name: incomplete[name])
    fleet.victim = victim
    fleet.results_before_crash = runner.journaled_results()
    fleet.crash_delivery_index = fleet.network.delivery_index


def run_multitenant_with_shard_crash(
    journal_root: str | Path,
    n_tenants: int = 12,
    n_shards: int = 3,
    workers_per_shard: int = 2,
    cores_per_worker: int = 2,
    n_steps: int = 300,
    specs: Optional[List[TenantSpec]] = None,
    plan: Optional[FaultPlan] = None,
    configure: Optional[Callable[[FaultPlan], None]] = None,
    victim: Optional[str] = None,
    crash_after_results: Optional[int] = None,
    baseline: bool = True,
    probe_policy: Optional[ShardProbePolicy] = None,
    max_wait_seconds: float = DEFAULT_MAX_WAIT_SECONDS,
    heartbeat_interval: float = 120.0,
    tick: float = 60.0,
    segment_steps: int = 1000,
    max_cycles: int = 20000,
    seed: int = 0,
) -> ShardCrashResult:
    """Kill a shard mid-soak; its projects must migrate and finish.

    The canned failover scenario behind invariant 13.  It runs in (up
    to) three acts:

    1. **Baseline** (unless ``baseline=False``): the identical tenant
       population runs crash-free under the same seed, capturing the
       expected :func:`live_completions` multiset.
    2. **Soak until the crash point**: the journaled multi-tenant
       fabric (gateway + shards + workers, fair-share applied, shard
       monitor attached) is driven cycle by cycle until
       ``crash_after_results`` results are durably journaled
       fleet-wide.  Then the victim's :meth:`FaultPlan.crash_shard`
       rule fires: a permanent server-crash window is armed and the
       network refuses all the victim's traffic from that delivery on.
    3. **Detection and failover**: the normal drive loop continues;
       the gateway's :class:`~repro.server.shardmon.ShardMonitor`
       misses its probes, declares the shard dead, and
       :meth:`~repro.core.multirunner.MultiProjectRunner.fail_over`
       ships journals, replays projects on their successors, re-homes
       the orphaned workers and flips routes — organically, inside
       :meth:`_liveness_sweep`, with no scenario-side intervention.

    The victim defaults to the plan's scheduled
    :meth:`~repro.testing.faultplan.FaultPlan.crash_shard` rule, or —
    when none is scheduled — to the shard hosting the most
    still-incomplete tenants at the crash moment (ties broken by
    name), so the failover always has live work to migrate.

    Returns a :class:`ShardCrashResult`; ``exactly_once`` is the
    headline verdict and ``violations`` covers all fourteen
    invariants.
    """
    fleet = _deploy_churn(
        ShardCrashResult, journal_root, baseline, max_cycles,
        plan, configure, probe_policy,
        n_tenants=n_tenants, n_shards=n_shards,
        workers_per_shard=workers_per_shard,
        cores_per_worker=cores_per_worker, n_steps=n_steps, specs=specs,
        max_wait_seconds=max_wait_seconds,
        heartbeat_interval=heartbeat_interval, tick=tick,
        segment_steps=segment_steps, segments_per_cycle=None, seed=seed,
    )
    plan = fleet.network.plan
    crash_rule = plan.shard_crash_point(victim)
    if crash_rule is not None:
        victim = crash_rule.dst
    threshold = crash_after_results
    if threshold is None:
        threshold = (
            crash_rule.after_results if crash_rule is not None else None
        ) or 3

    # ---- act 2: drive until the crash point, then pull the plug --------
    _reach_fault_point(
        fleet, victim, threshold, max_cycles,
        "the shard kill", "crash_after_results",
    )
    if crash_rule is None:
        crash_rule = plan.crash_shard(fleet.victim, after_results=threshold)
    crash_rule.fired += 1
    plan.firings.append((fleet.crash_delivery_index, crash_rule))
    # the actual kill: a permanent crash window — from this delivery
    # on the victim's process is gone and every message to or from it
    # raises, exactly what the monitor's probes will run into
    plan.crash_server(fleet.victim, after_index=fleet.crash_delivery_index)

    # ---- act 3: detection, failover and completion ---------------------
    fleet.runner.run(max_cycles=max_cycles)
    return _verdict(fleet)


@dataclass
class PartitionResult(ShardCrashResult):
    """A :class:`ShardCrashResult` whose victim never died.

    The shard was *partitioned* from the gateway: the fleet declared
    it dead and failed over, but on the island side of the cut the
    shard kept running — a zombie owner serving its local workers
    under the old ownership epoch.  When the partition heals, the
    fence table riding the gateway's probes demotes it
    (``PROJECT_FENCED``), and every write of its stale regime is
    rejected (``FENCING_REJECTED``) rather than applied.
    """

    TIMELINE_KINDS = ShardCrashResult.TIMELINE_KINDS | {
        EventKind.EPOCH_BUMPED,
        EventKind.FENCING_REJECTED,
        EventKind.PROJECT_FENCED,
        EventKind.PROJECT_PARKED,
        EventKind.PROJECT_UNPARKED,
    }

    #: Delivery index at which the gateway<->victim link was severed
    #: (both directions, as two directed rules).
    partition_index: int = 0
    #: Delivery index at which the partition healed.
    heal_index: int = 0
    #: ``(project, command)`` completions the zombie applied locally
    #: during split-brain — journaled under its stale epoch, fenced at
    #: demotion, never delivered to a live controller.
    zombie_completions: List[Tuple[str, str]] = field(default_factory=list)
    #: The zombie's detached event log: its split-brain story
    #: (PROJECT_FENCED included) lands here, not in the fleet's log.
    zombie_events: EventLog = field(default_factory=EventLog)
    #: Demotion reports the gateway's monitor collected from the
    #: healed zombie's probe answers.
    demotions: List[Dict] = None  # type: ignore[assignment]
    #: End-of-run fencing counters from the shared metrics registry.
    fencing: Dict[str, float] = None  # type: ignore[assignment]

    def _timeline_records(self):
        """:meth:`migration_timeline` here also tells the epoch bumps,
        the fencing rejections and the zombie's demotion: the fleet's
        log and the zombie's detached one, merged in time order."""
        merged = list(self.runner.events.all())
        merged.extend(self.zombie_events.all())
        # stable by time only: same-tick events keep their causal
        # insertion order (shard_dead before the restores it caused)
        return sorted(merged, key=lambda record: record.time)


def run_multitenant_with_partitioned_shard(
    journal_root: str | Path,
    n_tenants: int = 12,
    n_shards: int = 3,
    workers_per_shard: int = 2,
    cores_per_worker: int = 2,
    n_steps: int = 300,
    specs: Optional[List[TenantSpec]] = None,
    plan: Optional[FaultPlan] = None,
    configure: Optional[Callable[[FaultPlan], None]] = None,
    victim: Optional[str] = None,
    partition_after_results: int = 3,
    heal_after: int = 1500,
    baseline: bool = True,
    probe_policy: Optional[ShardProbePolicy] = None,
    max_wait_seconds: float = DEFAULT_MAX_WAIT_SECONDS,
    heartbeat_interval: float = 120.0,
    tick: float = 60.0,
    segment_steps: int = 100,
    segments_per_cycle: Optional[int] = 2,
    max_cycles: int = 20000,
    seed: int = 0,
) -> PartitionResult:
    """Partition a shard mid-soak, fail over, heal — and fence the zombie.

    The canned scenario behind invariant 14 (epoch fencing).  Where
    :func:`run_multitenant_with_shard_crash` kills its victim outright,
    this scenario only *cuts the victim off from the gateway* — the
    worst case for ownership, because the old owner stays alive and
    keeps accepting work from the workers on its side of the cut.  It
    runs in three acts:

    1. **Baseline** (unless ``baseline=False``): the identical tenant
       population runs partition-free under the same seed, capturing
       the expected :func:`live_completions` multiset.
    2. **Partition and failover**: once ``partition_after_results``
       results are journaled fleet-wide, two directed
       :meth:`~repro.testing.faultplan.FaultPlan.partition_link` rules
       sever ``gateway -> victim`` and ``victim -> gateway`` for
       ``heal_after`` deliveries.  The monitor's probes miss, the
       fleet fails over — per-project epochs bump in the source
       journal before shipping — and the victim's tenants resume on
       their successors.  Meanwhile the scenario detaches the zombie's
       island: its workers point back at it, its events land in a
       private log and its result sinks record locally, so the zombie
       genuinely runs a split-brain regime under the stale epoch.
    3. **Heal and demotion**: the partition lifts; the zombie answers
       its next probe, finds every hosted project fenced at a higher
       epoch, and demotes itself — voiding leases, purging queues and
       forwarding its journaled results stale-stamped to the new
       owners, where each is rejected and counted
       (``repro_fencing_rejections_total``), never applied.  The loop
       runs until every tenant completes *and* the demotion reports
       arrive.

    Returns a :class:`PartitionResult`; ``exactly_once`` (live
    completions equal to the partition-free baseline's, zombie
    completions excluded) is the headline verdict, ``violations``
    covers all fourteen invariants.
    """
    if heal_after < 1:
        raise ConfigurationError(
            f"heal_after must be >= 1, got {heal_after}"
        )
    # paced execution by default (segments_per_cycle): commands span
    # several work cycles, so the island genuinely has work in flight
    # when the failover happens — the split-brain regime completes it
    # under the stale epoch instead of having drained before the cut
    # mattered
    fleet = _deploy_churn(
        PartitionResult, journal_root, baseline, max_cycles,
        plan, configure, probe_policy,
        n_tenants=n_tenants, n_shards=n_shards,
        workers_per_shard=workers_per_shard,
        cores_per_worker=cores_per_worker, n_steps=n_steps, specs=specs,
        max_wait_seconds=max_wait_seconds,
        heartbeat_interval=heartbeat_interval, tick=tick,
        segment_steps=segment_steps,
        segments_per_cycle=segments_per_cycle, seed=seed,
    )
    runner, network = fleet.runner, fleet.network

    # ---- act 2: drive to the partition point, then cut the link --------
    _reach_fault_point(
        fleet, victim, partition_after_results, max_cycles,
        "the partition", "partition_after_results",
    )
    victim = fleet.victim
    zombie = runner.shard(victim)
    island_workers = [w for w in fleet.workers if w.server == victim]
    partition_index = fleet.crash_delivery_index
    heal_index = partition_index + heal_after
    # the actual cut: both directions of the gateway<->victim edge go
    # dark for heal_after deliveries.  The victim's own workers stay
    # connected — that asymmetry is the whole point.
    network.plan.partition_link(
        "gateway", victim, after_index=partition_index, heal_after=heal_after
    )
    network.plan.partition_link(
        victim, "gateway", after_index=partition_index, heal_after=heal_after
    )

    # ---- act 3: failover, split-brain, heal, demotion -------------------
    rewired = False

    def settled() -> bool:
        nonlocal rewired
        if not rewired and runner.migrations:
            # The fleet just failed over, but the zombie is alive on
            # its island.  Detach it (see the docstring): the failover
            # re-homed its workers at a successor they cannot reach,
            # and the live controllers now run on the successors —
            # feeding them from the stale regime would falsify the
            # exactly-once comparison this scenario exists to make.
            for worker in island_workers:
                worker.server = victim
            zombie.events = fleet.zombie_events
            for spec in fleet.specs:
                if zombie.hosts(spec.name):
                    zombie.host_project(
                        spec.name,
                        lambda command, result, pid=spec.name:
                        fleet.zombie_completions.append(
                            (pid, command.command_id)
                        ),
                    )
            rewired = True
        return bool(
            rewired
            and network.delivery_index >= heal_index
            and runner.monitor.demotions
            and runner.all_complete()
        )

    if drive(runner.cycle, settled, max_cycles) is None:
        raise SchedulingError(
            f"partition scenario did not converge within {max_cycles} "
            f"cycles (rewired={rewired}, "
            f"healed={network.delivery_index >= heal_index}, "
            f"demotions={len(runner.monitor.demotions)})"
        )

    metrics = network.obs.metrics
    return _verdict(
        fleet,
        partition_index=partition_index,
        heal_index=heal_index,
        demotions=[dict(r) for r in runner.monitor.demotions],
        fencing={
            "rejections_total": metrics.total(
                "repro_fencing_rejections_total"
            ),
            "projects_fenced_total": metrics.total(
                "repro_projects_fenced_total"
            ),
            "epoch_bumps_total": metrics.total("repro_epoch_bumps_total"),
        },
    )

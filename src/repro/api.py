"""The public API: one documented way in to the whole framework.

Everything a paper-style workload needs — declaring an ensemble of
replicas, standing up a simulated Copernicus deployment, running a
project to completion and reading the results — previously required
importing from half a dozen subpackages (``repro.net``,
``repro.server``, ``repro.worker``, ``repro.core``) and wiring them by
hand.  This module is the facade over that construction:

>>> from repro.api import Ensemble, run
>>> outcome = run(Ensemble(model="villin-fast", n_replicas=8, steps=2000))
>>> outcome.md_results()["ensemble/r0"].steps_completed
2000

Three entry points:

``Ensemble``
    A declarative replica set: *R* independent trajectories of one
    registered model, one seed stream apart.  Compiles to ``mdrun``
    commands — which the deployment's workers stack into batched kernel
    calls (:mod:`repro.worker.coalesce`), up to
    :data:`~repro.worker.coalesce.MAX_STACK` per call.
``Project``
    A named unit of work: one or more ensembles (run under a built-in
    flat controller) *or* any custom
    :class:`~repro.core.controller.Controller` (e.g. the adaptive MSM
    controller).  :meth:`Project.run` builds the deployment, drives it
    to completion and returns a :class:`RunOutcome`.
``run()``
    One-call convenience wrapping both.

Multi-tenant runs add two more:

``Tenant``
    A named user of the shared service plane: their workload (ensembles
    or a custom controller) plus their fair-share policy knobs (quota,
    weight, queue-depth bound).
``run_tenants()``
    Stand up a sharded deployment
    (:func:`repro.net.topology.sharded`), consistent-hash every
    tenant's project onto a shard, apply the fair-share policy, and
    drive all projects concurrently with one
    :class:`~repro.core.multirunner.MultiProjectRunner`.  Returns a
    :class:`MultiRunOutcome`.

The single-process simulation entry point is
:meth:`repro.md.simulation.Simulation.configure`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core.command import Command
from repro.core.controller import Controller
from repro.core.multirunner import MultiProjectRunner
from repro.core.project import Project as _CoreProject
from repro.core.runner import ProjectRunner
from repro.md.engine import MDResult, MDTask, resolve_model
from repro.net import topology
from repro.net.transport import Network
from repro.server.fairshare import (
    DEFAULT_MAX_WAIT_SECONDS,
    FairSharePolicy,
    FairShareScheduler,
    TenantPolicy,
)
from repro.server.server import CopernicusServer
from repro.util.errors import ConfigurationError
from repro.worker.platform import SMPPlatform
from repro.worker.worker import Worker

__all__ = [
    "Ensemble",
    "Project",
    "RunOutcome",
    "run",
    "Tenant",
    "MultiRunOutcome",
    "run_tenants",
]

@dataclass
class Ensemble:
    """R independent replicas of one model, declared in one place.

    Replica *r* gets seed ``seed + r`` and task id ``{name}/r{r}``;
    everything else is shared, which makes the replicas batch-compatible
    (:data:`repro.md.engine.BATCH_COMPATIBLE_FIELDS`) — a deployment
    with coalescing workers propagates them in one kernel call, the
    list of their :class:`~repro.md.engine.MDTask` given to
    :meth:`~repro.md.engine.MDEngine.run_batched`.
    """

    model: str
    n_replicas: int = 1
    steps: int = 1000
    report_interval: int = 100
    integrator: str = "langevin"
    temperature: float = 300.0
    friction: float = 1.0
    timestep: float = 0.02
    seed: int = 0
    model_params: Dict = field(default_factory=dict)
    name: str = "ensemble"

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ConfigurationError("n_replicas must be >= 1")
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")
        # Fail at declaration time, not when a worker unpacks the task.
        resolve_model(self.model, self.model_params)

    def tasks(self) -> List[MDTask]:
        """The per-replica :class:`~repro.md.engine.MDTask` specs."""
        return [
            MDTask(
                model=self.model,
                n_steps=self.steps,
                report_interval=self.report_interval,
                integrator=self.integrator,
                temperature=self.temperature,
                friction=self.friction,
                timestep=self.timestep,
                seed=self.seed + r,
                model_params=dict(self.model_params),
                task_id=f"{self.name}/r{r}",
            )
            for r in range(self.n_replicas)
        ]

    def commands(self, project_id: str) -> List[Command]:
        """Compile to queueable ``mdrun`` commands."""
        return [
            Command(
                command_id=task.task_id,
                project_id=project_id,
                executable="mdrun",
                payload=task.to_payload(),
            )
            for task in self.tasks()
        ]


class _EnsembleController(Controller):
    """Flat controller: issue every ensemble command, wait for all."""

    def __init__(self, ensembles: Sequence[Ensemble]) -> None:
        self.ensembles = list(ensembles)
        self.results: Dict[str, dict] = {}
        self._expected = sum(e.n_replicas for e in self.ensembles)

    def on_project_start(self, project):
        return [
            command
            for ensemble in self.ensembles
            for command in ensemble.commands(project.project_id)
        ]

    def on_command_finished(self, project, command, result):
        self.results[command.command_id] = result
        return []

    def is_complete(self, project):
        return len(self.results) >= self._expected


@dataclass
class RunOutcome:
    """Everything :meth:`Project.run` produced.

    The deployment objects (runner, server, workers, network) are the
    live instances, so anything the layered API exposes — event logs,
    observability, journals — remains reachable from here.
    """

    project: _CoreProject
    controller: Controller
    runner: ProjectRunner
    server: CopernicusServer
    workers: List[Worker]
    network: Network

    @property
    def status(self) -> str:
        """Final project lifecycle state (``complete``, ``failed``...)."""
        return self.project.status.value

    @property
    def obs(self):
        """The deployment's observability hub (metrics + tracer)."""
        return self.network.obs

    @property
    def transcript(self) -> str:
        """Deterministic event-log transcript of the whole run."""
        return self.runner.events.to_text()

    def md_results(self) -> Dict[str, MDResult]:
        """Completed MD results keyed by command id.

        Non-MD command results (e.g. free-energy windows) are skipped;
        read ``project.results_log`` for the raw payloads.
        """
        out: Dict[str, MDResult] = {}
        for command_id, payload in self.project.results_log:
            if isinstance(payload, dict) and "frames" in payload:
                out[command_id] = MDResult.from_payload(payload)
        return out

    def ensemble_results(self, ensemble: Ensemble) -> List[MDResult]:
        """One ensemble's results, in replica order."""
        by_id = self.md_results()
        return [by_id[task.task_id] for task in ensemble.tasks()]


class Project:
    """A named unit of work and the one-stop way to run it.

    Parameters
    ----------
    name:
        Project id (appears in journals, traces and transcripts).
    ensembles:
        Ensembles to run under the built-in flat controller.
    controller:
        A custom controller instead (adaptive MSM, free energy, ...).
        Mutually exclusive with *ensembles*.
    """

    def __init__(
        self,
        name: str = "project",
        *,
        ensembles: Optional[Sequence[Ensemble]] = None,
        controller: Optional[Controller] = None,
    ) -> None:
        if controller is not None and ensembles:
            raise ConfigurationError(
                "pass ensembles or a custom controller, not both"
            )
        self.name = name
        self.ensembles: List[Ensemble] = list(ensembles or [])
        self.controller = controller

    def add_ensemble(self, ensemble: Ensemble) -> "Project":
        """Append an ensemble (chainable)."""
        if self.controller is not None:
            raise ConfigurationError(
                "this project runs a custom controller; it takes no ensembles"
            )
        self.ensembles.append(ensemble)
        return self

    def run(
        self,
        *,
        n_workers: int = 1,
        cores: int = 1,
        seed: int = 0,
        tick: float = 60.0,
        segment_steps: int = 2000,
        max_cycles: int = 100000,
    ) -> RunOutcome:
        """Build a deployment, run the project to completion.

        Parameters
        ----------
        n_workers / cores:
            Fleet shape: workers on the overlay, cores each.
        seed:
            Seeds the simulated network.
        tick / segment_steps / max_cycles:
            Runner cadence, checkpoint granularity, cycle budget.
        """
        if n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        controller = self.controller
        if controller is None:
            if not self.ensembles:
                raise ConfigurationError(
                    "project has no ensembles and no controller"
                )
            controller = _EnsembleController(self.ensembles)

        network = Network(seed=seed)
        server = CopernicusServer("srv", network)
        workers = [
            Worker(
                f"w{k}",
                network,
                server="srv",
                platform=SMPPlatform(cores=cores),
                segment_steps=segment_steps,
            )
            for k in range(n_workers)
        ]
        for worker in workers:
            network.connect("srv", worker.name)
        for worker in workers:
            worker.announce(0.0)

        runner = ProjectRunner(network, server, workers, tick=tick)
        core_project = _CoreProject(self.name)
        runner.submit(core_project, controller)
        runner.run(max_cycles=max_cycles)
        return RunOutcome(
            project=core_project,
            controller=controller,
            runner=runner,
            server=server,
            workers=workers,
            network=network,
        )


@dataclass
class Tenant:
    """One user of a shared multi-tenant deployment.

    Couples the workload (ensembles, or a custom controller) with the
    fair-share policy the service plane should enforce for it:

    quota:
        Max commands in flight at once (``None`` = unlimited, ``0`` =
        admit nothing — a suspended tenant).
    weight:
        Relative share when tenants compete for the same cores.
    max_queued:
        Queue-depth backpressure bound; submissions past it are
        deferred (journaled first, so nothing is lost) until the
        backlog drains.
    """

    name: str
    ensembles: Sequence[Ensemble] = field(default_factory=list)
    controller: Optional[Controller] = None
    quota: Optional[int] = None
    weight: float = 1.0
    max_queued: Optional[int] = None

    def __post_init__(self) -> None:
        if self.controller is not None and self.ensembles:
            raise ConfigurationError(
                f"tenant {self.name!r}: pass ensembles or a custom "
                f"controller, not both"
            )
        self.ensembles = list(self.ensembles)

    def policy(self) -> TenantPolicy:
        """This tenant's admission policy (validated)."""
        return TenantPolicy(
            quota=self.quota, weight=self.weight, max_queued=self.max_queued
        )

    def build_controller(self) -> Controller:
        if self.controller is not None:
            return self.controller
        if not self.ensembles:
            raise ConfigurationError(
                f"tenant {self.name!r} has no ensembles and no controller"
            )
        return _EnsembleController(self.ensembles)


@dataclass
class MultiRunOutcome:
    """Everything :func:`run_tenants` produced.

    Per-tenant views go through :meth:`project` /
    :meth:`md_results`; fleet-wide state (event log, metrics,
    schedulers) hangs off the live ``runner`` / ``network``.
    """

    runner: MultiProjectRunner
    network: Network
    shards: List[CopernicusServer]
    workers: List[Worker]
    projects: Dict[str, _CoreProject]
    controllers: Dict[str, Controller]
    schedulers: Dict[str, FairShareScheduler]

    def project(self, tenant: str) -> _CoreProject:
        """One tenant's project (raises KeyError when unknown)."""
        return self.projects[tenant]

    def status(self, tenant: str) -> str:
        """One tenant's final lifecycle state."""
        return self.projects[tenant].status.value

    @property
    def obs(self):
        """The deployment's observability hub (metrics + tracer)."""
        return self.network.obs

    @property
    def transcript(self) -> str:
        """Deterministic event-log transcript of the whole run."""
        return self.runner.events.to_text()

    def shard_of(self, tenant: str) -> str:
        """Which shard a tenant's project was hashed onto."""
        return self.runner.shard_of(tenant)

    def md_results(self, tenant: str) -> Dict[str, MDResult]:
        """One tenant's completed MD results keyed by command id."""
        out: Dict[str, MDResult] = {}
        for command_id, payload in self.projects[tenant].results_log:
            if isinstance(payload, dict) and "frames" in payload:
                out[command_id] = MDResult.from_payload(payload)
        return out

    def tenant_report(self) -> Dict[str, Dict]:
        """Per-tenant rollup: shard, progress, fair-share ledger."""
        return self.runner.tenant_report()


def run_tenants(
    tenants: Sequence[Tenant],
    *,
    n_shards: int = 3,
    workers_per_shard: int = 2,
    cores: int = 1,
    seed: int = 0,
    tick: float = 60.0,
    max_wait_seconds: float = DEFAULT_MAX_WAIT_SECONDS,
    max_cycles: int = 100000,
    journal_root=None,
) -> MultiRunOutcome:
    """Run many tenants' projects concurrently on one shard fabric.

    Builds :func:`repro.net.topology.sharded`, attaches one
    fair-share scheduler per shard (policy assembled from each
    tenant's quota/weight/max_queued), hashes every tenant's project
    onto its shard and drives them all to completion together.

    Workers stack compatible ``mdrun`` commands into batched kernel
    calls exactly as under :meth:`Project.run`, but only ever within
    one tenant: every member
    keeps its own lease, journal record and result, and counts against
    its tenant's quota.

    Parameters
    ----------
    tenants:
        The workloads; tenant names must be unique (each becomes a
        project id).
    n_shards / workers_per_shard / cores:
        Fabric shape.
    seed / tick / max_cycles:
        As in :meth:`Project.run`.
    max_wait_seconds:
        Starvation bound: a command queued longer than this jumps the
        fair-share order (aged-first dispatch).
    journal_root:
        When given, each shard journals to ``journal_root/<shard>``.
    """
    if not tenants:
        raise ConfigurationError("run_tenants needs at least one tenant")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ConfigurationError("tenant names must be unique")

    deployment = topology.sharded(
        n_shards=n_shards,
        workers_per_shard=workers_per_shard,
        cores_per_worker=cores,
        seed=seed,
    )
    runner = MultiProjectRunner(
        deployment.network,
        deployment.project_servers,
        deployment.workers,
        tick=tick,
    )
    policy = FairSharePolicy(
        tenants={t.name: t.policy() for t in tenants},
        max_wait_seconds=max_wait_seconds,
    )
    schedulers = runner.apply_fairshare(policy)
    if journal_root is not None:
        runner.attach_journals(journal_root)

    projects: Dict[str, _CoreProject] = {}
    controllers: Dict[str, Controller] = {}
    for tenant in tenants:
        controller = tenant.build_controller()
        core_project = _CoreProject(tenant.name)
        runner.submit(core_project, controller)
        projects[tenant.name] = core_project
        controllers[tenant.name] = controller
    runner.run(max_cycles=max_cycles)
    return MultiRunOutcome(
        runner=runner,
        network=deployment.network,
        shards=deployment.project_servers,
        workers=deployment.workers,
        projects=projects,
        controllers=controllers,
        schedulers=schedulers,
    )


def run(
    ensembles: Union[Ensemble, Sequence[Ensemble], None] = None,
    *,
    name: str = "project",
    controller: Optional[Controller] = None,
    **deployment,
) -> RunOutcome:
    """Run ensembles (or a custom controller) in one call.

    ``run(Ensemble(...))``, ``run([e1, e2])`` or
    ``run(controller=AdaptiveMSMController(config))``; keyword
    arguments are forwarded to :meth:`Project.run`.
    """
    if isinstance(ensembles, Ensemble):
        ensembles = [ensembles]
    project = Project(name, ensembles=ensembles, controller=controller)
    return project.run(**deployment)

"""Multi-tenant service plane: sharded runner, isolation, parity.

Covers the tentpole wiring end to end: consistent-hash placement via
:class:`~repro.core.multirunner.MultiProjectRunner`, the
``repro.api`` tenant surface, the scoped-identity regression (two
tenants reusing a command id on one server must never alias in the
assignment, lease or heartbeat tables), and byte-for-byte parity of a
single-tenant run with and without a fair-share scheduler attached.
"""

import pytest

from repro.api import Ensemble, Project as ApiProject, Tenant, run_tenants
from repro.core.command import Command
from repro.core.controller import Controller
from repro.core.events import EventKind
from repro.core.multirunner import MultiProjectRunner
from repro.core.project import Project
from repro.core.runner import ProjectRunner
from repro.md.engine import MDEngine, MDTask
from repro.net import topology
from repro.server.fairshare import FairSharePolicy, FairShareScheduler
from repro.testing import (
    ChaosNetwork,
    FaultPlan,
    Invariants,
    TenantSpec,
    TenantSwarmController,
    live_completions,
)
from repro.testing.scenarios import drive
from repro.util.errors import ConfigurationError
from repro.util.serialization import encode_message
from repro.worker.coalesce import BatchCommand


class TinySwarm(Controller):
    """n commands with ids cmd0..cmd{n-1} running *model*."""

    def __init__(self, n_commands=2, model="double-well", n_steps=200):
        self.n_commands = n_commands
        self.model = model
        self.n_steps = n_steps
        self.results = {}

    def on_project_start(self, project):
        return [
            Command(
                command_id=f"cmd{k}",
                project_id=project.project_id,
                executable="mdrun",
                payload=MDTask(
                    model=self.model, n_steps=self.n_steps,
                    report_interval=100, seed=k, task_id=f"cmd{k}",
                ).to_payload(),
            )
            for k in range(self.n_commands)
        ]

    def on_command_finished(self, project, command, result):
        self.results[command.command_id] = result
        return []

    def is_complete(self, project):
        return len(self.results) >= self.n_commands


# -- shard placement -------------------------------------------------------

def test_multirunner_routes_projects_to_stable_shards():
    deployment = topology.sharded(n_shards=3, seed=0)
    runner = MultiProjectRunner(
        deployment.network, deployment.project_servers, deployment.workers
    )
    shard = runner.shard_of("alice")
    assert shard in {s.name for s in deployment.project_servers}
    # placement is a pure function of the name — a rebuilt deployment
    # routes identically (journals and queues stay put across restarts)
    rebuilt = topology.sharded(n_shards=3, seed=99)
    runner2 = MultiProjectRunner(
        rebuilt.network, rebuilt.project_servers, rebuilt.workers
    )
    assert runner2.shard_of("alice") == shard
    assert runner._origin_for("alice").name == shard


def test_multirunner_validates_shards():
    deployment = topology.sharded(n_shards=2, seed=0)
    with pytest.raises(ConfigurationError):
        MultiProjectRunner(deployment.network, [], deployment.workers)
    with pytest.raises(ConfigurationError):
        MultiProjectRunner(
            deployment.network,
            [deployment.project_servers[0], deployment.project_servers[0]],
            deployment.workers,
        )


def test_projects_complete_on_their_hashed_shards():
    deployment = topology.sharded(n_shards=3, workers_per_shard=2, seed=1)
    runner = MultiProjectRunner(
        deployment.network, deployment.project_servers, deployment.workers
    )
    controllers = {}
    for name in ("alpha", "beta", "gamma", "delta"):
        controllers[name] = TinySwarm(n_commands=2)
        runner.submit(Project(name), controllers[name])
    runner.run()
    for name, controller in controllers.items():
        assert len(controller.results) == 2, name
        origin = runner._origin_for(name)
        # completions landed on (and were deduped by) the origin shard
        assert any(
            cid.startswith(f"{name}::") for cid in origin.completed_ids
        )
    assert Invariants(runner).check() == []


# -- scoped-identity regression (the key-collision fix) --------------------

def test_two_tenants_reusing_command_ids_never_alias():
    """Regression: before (project, command) namespacing, two projects
    sharing a server and a command id collided in the assignment map,
    lease tracker and heartbeat checkpoints — the second project's
    lease overwrote the first's.  With scoped ids both complete with
    their own results."""
    deployment = topology.sharded(n_shards=1, workers_per_shard=2, seed=2)
    runner = MultiProjectRunner(
        deployment.network, deployment.project_servers, deployment.workers
    )
    fast = TinySwarm(n_commands=2, model="double-well", n_steps=100)
    slow = TinySwarm(n_commands=2, model="muller-brown", n_steps=400)
    runner.submit(Project("p1"), fast)   # both on the single shard,
    runner.submit(Project("p2"), slow)   # both issuing cmd0/cmd1
    runner.run()
    assert set(fast.results) == {"cmd0", "cmd1"}
    assert set(slow.results) == {"cmd0", "cmd1"}
    # the results really are each tenant's own work, not the other's
    assert fast.results["cmd0"]["steps_completed"] == 100
    assert slow.results["cmd0"]["steps_completed"] == 400
    server = deployment.project_servers[0]
    # server tables key by scoped id — all four completions distinct
    scoped = {"p1::cmd0", "p1::cmd1", "p2::cmd0", "p2::cmd1"}
    assert scoped <= server.completed_ids
    assert Invariants(runner).check() == []


# -- single-tenant parity --------------------------------------------------

def _run_workstation(with_fairshare: bool) -> str:
    deployment = topology.workstation(n_workers=2, seed=7)
    if with_fairshare:
        deployment.project_server.fairshare = FairShareScheduler()
    runner = ProjectRunner(
        deployment.network, deployment.project_server, deployment.workers
    )
    runner.submit(Project("solo"), TinySwarm(n_commands=3))
    runner.run()
    return runner.events.to_text()


def test_fairshare_default_policy_is_transcript_identical():
    # a single-tenant run with a freshly assigned default scheduler is
    # byte-for-byte the run with the server's own
    assert _run_workstation(False) == _run_workstation(True)


# -- api surface -----------------------------------------------------------

def test_run_tenants_end_to_end():
    tenants = [
        Tenant("alice", ensembles=[
            Ensemble(model="double-well", n_replicas=2, steps=200, name="a")
        ], quota=1),
        Tenant("bob", ensembles=[
            Ensemble(model="muller-brown", n_replicas=2, steps=200, name="b")
        ], weight=2.0),
    ]
    out = run_tenants(tenants, n_shards=2, workers_per_shard=1, seed=4)
    assert out.status("alice") == "complete"
    assert out.status("bob") == "complete"
    assert set(out.md_results("alice")) == {"a/r0", "a/r1"}
    assert set(out.md_results("bob")) == {"b/r0", "b/r1"}
    report = out.tenant_report()
    assert report["alice"]["ledger"]["peak_in_flight"] <= 1  # quota held
    assert report["alice"]["shard"] == out.shard_of("alice")
    assert Invariants(out.runner).check() == []


def test_run_tenants_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        run_tenants([])
    with pytest.raises(ConfigurationError):
        run_tenants([
            Tenant("dup", ensembles=[Ensemble(model="double-well")]),
            Tenant("dup", ensembles=[Ensemble(model="double-well")]),
        ])
    with pytest.raises(ConfigurationError):
        Tenant("t", ensembles=[Ensemble(model="double-well")],
               controller=TinySwarm())


def test_tenant_metrics_are_labelled_per_project():
    tenants = [
        Tenant("m1", ensembles=[Ensemble(model="double-well", steps=100)]),
        Tenant("m2", ensembles=[Ensemble(model="double-well", steps=100)]),
    ]
    out = run_tenants(tenants, n_shards=2, workers_per_shard=1, seed=6)
    metrics = out.obs.metrics
    for name in ("m1", "m2"):
        completed = metrics.value(
            "repro_tenant_commands_completed",
            project=name, shard=out.shard_of(name),
        )
        assert completed == 1.0


def test_api_single_project_still_runs_unchanged():
    # the classic facade is untouched by the tenant surface
    outcome = ApiProject(
        "classic",
        ensembles=[Ensemble(model="double-well", n_replicas=2, steps=200)],
    ).run(n_workers=2)
    assert outcome.status == "complete"
    assert len(outcome.md_results()) == 2


# -- command coalescing on the shard fabric ---------------------------------

@pytest.fixture
def batches(monkeypatch):
    """Every batch any worker makes during the test, as lists of
    ``(project, command id)`` — a batch never leaves its worker, so the
    fleet's only other trace of one is a counter."""
    import repro.worker.worker as worker_module

    made = []
    coalesce = worker_module.coalesce_commands

    def recording(commands, capacity):
        out = coalesce(commands, capacity)
        made.extend(
            [(m.project_id, m.command_id) for m in c.members]
            for c in out
            if isinstance(c, BatchCommand)
        )
        return out

    monkeypatch.setattr(worker_module, "coalesce_commands", recording)
    return made


def swarm_tenants():
    """The bench's ``serial_swarm --quick`` in shape: one tenant per
    small-model family plus villin-fast, the first under ``quota=2`` —
    with three replicas, so the quota has something to hold back."""
    tenants = []
    for k, model in enumerate(
        ("double-well", "muller-brown", "markov-ala20", "villin-fast")
    ):
        replicas, steps = (2, 100) if model == "villin-fast" else (3, 300)
        ensemble = Ensemble(
            model=model, n_replicas=replicas, steps=steps,
            report_interval=steps // 10,
            integrator="markov-chain" if model.startswith("markov") else "langevin",
            seed=10 * k,
        )
        tenants.append(
            Tenant(f"t{k:02d}", ensembles=[ensemble], quota=2 if k == 0 else None)
        )
    return tenants


FABRIC = dict(n_shards=3, workers_per_shard=2, seed=0)


def run_on_uncoalescing_fabric(tenants):
    """What ``run_tenants`` does, on workers that never coalesce."""
    deployment = topology.sharded(cores_per_worker=2, batch_capacity=1, **FABRIC)
    runner = MultiProjectRunner(
        deployment.network, deployment.project_servers, deployment.workers
    )
    runner.apply_fairshare(
        FairSharePolicy(tenants={t.name: t.policy() for t in tenants})
    )
    projects = {t.name: Project(t.name) for t in tenants}
    for tenant in tenants:
        runner.submit(projects[tenant.name], tenant.build_controller())
    runner.run()
    return projects


def result_bytes(project):
    """Every result payload of *project*, as bytes."""
    return {
        command_id: encode_message(result)
        for command_id, result in project.results_log
    }


def test_run_tenants_coalesces_each_tenants_replicas(batches):
    tenants = swarm_tenants()
    out = run_tenants(tenants, cores=2, **FABRIC)
    assert all(out.status(t.name) == "complete" for t in tenants)
    assert Invariants(out.runner).check() == []

    # one batch per tenant, never a member from anyone else
    assert all(len({project for project, _ in batch}) == 1 for batch in batches)
    sizes = {batch[0][0]: len(batch) for batch in batches}
    assert len(batches) == len(sizes)
    assert sizes == {"t00": 2, "t01": 3, "t02": 3, "t03": 2}
    coalesced = sum(
        out.obs.metrics.value("repro_worker_commands_coalesced_total", worker=w.name)
        for w in out.workers
    )
    assert coalesced == sum(sizes.values())
    records = [r for w in out.workers for r in w.history]
    assert len(records) == 11 and all(r.completed for r in records)

    # the quota held while riders were handed out: the third replica of
    # t00 waited for a release and ran alone
    ledger = out.schedulers[out.shard_of("t00")].snapshot()["t00"]
    assert ledger["peak_in_flight"] == 2 and ledger["dispatched"] == 3

    # and nothing a tenant receives says it happened
    plain = run_on_uncoalescing_fabric(swarm_tenants())
    for tenant in tenants:
        assert result_bytes(out.project(tenant.name)) == result_bytes(
            plain[tenant.name]
        )


def test_identical_tenants_on_one_worker_never_share_a_batch(batches):
    """Same model, parameters and seeds on one shard with one worker
    that fetches all four commands at once: the only thing keeping the
    tenants apart is the project id in the coalesce key."""
    def twins():
        return [
            Tenant(name, ensembles=[
                Ensemble(model="double-well", n_replicas=2, steps=100)
            ])
            for name in ("alice", "bob")
        ]

    out = run_tenants(twins(), n_shards=1, workers_per_shard=1, cores=4)
    assert sorted(batches) == [
        [("alice", "ensemble/r0"), ("alice", "ensemble/r1")],
        [("bob", "ensemble/r0"), ("bob", "ensemble/r1")],
    ]
    assert result_bytes(out.project("alice")) == result_bytes(out.project("bob"))

    # workers that never stack: no batch, the same bytes
    del batches[:]
    plain = run_on_uncoalescing_fabric(twins())
    assert batches == []
    for name in ("alice", "bob"):
        assert result_bytes(plain[name]) == result_bytes(out.project(name))


def chaos_fleet(journal_root, specs, batch_capacity, seed=3):
    """A journaled, monitored two-shard fabric on a chaos overlay whose
    workers pace one 100-step segment per cycle, so batches are in
    flight for several cycles."""
    network = ChaosNetwork(plan=FaultPlan(seed=seed), seed=seed)
    fabric = topology.sharded(
        n_shards=2, workers_per_shard=2, cores_per_worker=2, poll_jitter=0.0,
        network=network, batch_capacity=batch_capacity,
    )
    for worker in fabric.workers:
        worker.segment_steps = 100
        worker.segments_per_cycle = 1
    runner = MultiProjectRunner(network, fabric.project_servers, fabric.workers)
    runner.attach_journals(journal_root)
    schedulers = runner.apply_fairshare(
        FairSharePolicy(tenants={spec.name: spec.policy() for spec in specs})
    )
    runner.attach_shard_monitor(fabric.gateway)
    for spec in specs:
        runner.submit(
            Project(spec.name),
            TenantSwarmController(spec),
            controller_factory=lambda spec=spec: TenantSwarmController(spec),
        )
    return network, runner, schedulers


def test_coalesced_batches_survive_worker_and_shard_crashes(tmp_path, batches):
    """A worker dies mid-batch and a shard dies with riders in flight:
    all fourteen invariants hold, the completions are the crash-free
    multiset, and every member finished the trajectory it started."""
    specs = [
        TenantSpec(
            name=f"tenant{k}", n_commands=3, n_steps=400,
            model=("double-well", "muller-brown")[k % 2],
            quota=2 if k == 4 else None,
        )
        for k in range(6)
    ]
    _, calm, _ = chaos_fleet(tmp_path / "calm", specs, batch_capacity=1)
    calm.run()
    assert batches == []

    network, runner, schedulers = chaos_fleet(tmp_path / "storm", specs, 3)
    victim = runner.shard_of("tenant0")
    doomed = next(w for w in runner.workers if w.server != victim)
    network.plan.crash_worker(doomed.name, at_segment=1)
    runner.adopt_servers()
    drive(
        lambda: runner.cycle(interrupt=lambda: runner.journaled_results() >= 2),
        runner.all_complete,
        200,
    )
    # the worker died holding a whole batch, one segment in
    cut_short = [r.command_id for r in doomed.history if not r.completed]
    assert doomed.crashed and len(cut_short) >= 2
    # and the shard goes down while a batch it leased is still running
    in_flight = {
        tenant: ledger["in_flight"]
        for tenant, ledger in schedulers[victim].snapshot().items()
    }
    assert max(in_flight.values()) >= 2, in_flight
    network.plan.crash_server(victim, after_index=network.delivery_index)
    runner.run()

    assert Invariants(runner).check() == []
    assert live_completions(runner.events) == live_completions(calm.events)
    assert len(runner.migrations) >= 1
    for kind in (EventKind.COMMAND_REQUEUED, EventKind.COMMAND_RESTORED):
        # the dead worker's members, then the dead shard's
        resumed = [
            r for r in runner.events.filter(kind=kind)
            if r.details.get("has_checkpoint")
        ]
        assert len(resumed) >= 2, kind
    assert any(len(batch) == 3 for batch in batches)
    # each member resumed from its *own* checkpoint: the state every
    # command ended in is the state of an uninterrupted run of its task
    for spec in specs:
        issued = TenantSwarmController(spec).on_project_start(Project(spec.name))
        results = dict(runner.project(spec.name).results_log)
        for command in issued:
            straight = MDEngine().run(MDTask.from_payload(command.payload))
            assert encode_message(
                results[command.command_id]["checkpoint"]
            ) == encode_message(straight.checkpoint), (spec.name, command.command_id)

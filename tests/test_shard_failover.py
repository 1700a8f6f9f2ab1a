"""Shard failover: dead-shard detection, migration, exactly-once.

The robustness promise of the multi-tenant plane: a shard server dying
for good must not strand the projects consistent-hashed onto it.  The
gateway's :class:`~repro.server.shardmon.ShardMonitor` detects the
death from missed liveness probes, the runner ships the victim's WAL
to successor shards, replays each displaced project through a fresh
deterministic controller, reseeds the exactly-once barrier and flips
the route tables — and the post-failover result set equals the
crash-free run's (invariant 13), proven here both by direct failover
calls and by the canned chaos scenario across seeds.
"""

import pytest

from repro.core.command import Command
from repro.core.controller import Controller
from repro.core.events import EventKind
from repro.core.multirunner import MultiProjectRunner
from repro.core.project import Project
from repro.md.engine import MDTask
from repro.net.protocol import MessageType
from repro.net.topology import sharded, workstation
from repro.net.transport import Network
from repro.server.server import CopernicusServer
from repro.server.shardmon import ShardMonitor, ShardProbePolicy
from repro.testing import (
    ChaosNetwork,
    FaultPlan,
    Invariants,
    live_completions,
    run_multitenant_with_shard_crash,
)
from repro.util.errors import ConfigurationError, UnknownShardError
from repro.worker.executable import ExecutableRegistry
from repro.worker.platform import SMPPlatform
from repro.worker.worker import Worker


class TinySwarm(Controller):
    """A flat N-command swarm with deterministic re-issue."""

    def __init__(self, n_commands=3, n_steps=400):
        self.n_commands = n_commands
        self.n_steps = n_steps
        self.finished = []

    def on_project_start(self, project):
        return [
            Command(
                command_id=f"cmd{k}",
                project_id=project.project_id,
                executable="mdrun",
                payload=MDTask(
                    model="double-well",
                    n_steps=self.n_steps,
                    report_interval=self.n_steps // 2,
                    seed=k,
                    task_id=f"cmd{k}",
                ).to_payload(),
            )
            for k in range(self.n_commands)
        ]

    def on_command_finished(self, project, command, result):
        self.finished.append(command.command_id)
        return []

    def is_complete(self, project):
        return len(self.finished) >= self.n_commands


def build_fleet(tmp_path, n_shards=3, workers_per_shard=1, seed=0, plan=None):
    """Gateway + shards + workers over a (quiet) chaos overlay, with
    journals and the shard monitor attached.  The workers run one
    command at a time (no ``mdrun_batch``), so a project's commands
    spread over cycles and a shard dies with work still in flight."""
    network = ChaosNetwork(plan=plan or FaultPlan(seed=seed), seed=seed)
    gateway = CopernicusServer("gateway", network)
    shards, workers = [], []
    for s in range(n_shards):
        shard = CopernicusServer(f"shard{s}", network)
        shards.append(shard)
        network.connect("gateway", f"shard{s}")
        for w in range(workers_per_shard):
            worker = Worker(
                f"s{s}w{w}", network, server=f"shard{s}",
                platform=SMPPlatform(cores=2), segment_steps=200,
                executables=ExecutableRegistry(["mdrun", "fepsample"]),
            )
            network.connect(f"shard{s}", worker.name)
            workers.append(worker)
    for worker in workers:
        worker.announce(0.0)
    runner = MultiProjectRunner(network, shards, workers, tick=60.0)
    runner.attach_journals(tmp_path / "journals")
    runner.attach_shard_monitor(gateway)
    return network, gateway, runner


def submit_swarms(runner, pids, n_commands=3):
    for pid in pids:
        runner.submit(
            Project(pid),
            TinySwarm(n_commands=n_commands),
            controller_factory=lambda n=n_commands: TinySwarm(n_commands=n),
        )


def drive(runner, cycles):
    """A few manual drive cycles (the run() loop, without completion)."""
    for server in runner.servers:
        server.events = runner.events
        server.clock = max(server.clock, runner.now)
    for _ in range(cycles):
        for worker in runner.workers:
            if worker.crashed:
                continue
            now = runner.now + worker.poll_offset
            worker.heartbeat(now)
            worker.work_once(now=now)
        runner.now += runner.tick
        runner._liveness_sweep()


# -- detection ------------------------------------------------------------


def test_monitor_declares_dead_after_three_missed_probes(tmp_path):
    network, gateway, runner = build_fleet(tmp_path)
    network.plan.crash_server("shard0", after_index=0)
    monitor = runner.monitor
    # miss 1 and 2: suspicious, not yet dead
    assert monitor.check(0.0) == []
    assert monitor.check(60.0) == []
    # miss 3: score 0.6^3 = 0.216 < 0.5 and the miss streak is fatal
    assert monitor.check(120.0) == ["shard0"]
    record = monitor.describe()["shard0"]
    assert record["dead"]
    assert record["consecutive_misses"] == 3
    assert record["score"] < 0.5
    # dead is reported exactly once, and the healthy shards never were
    assert monitor.check(180.0) == []
    assert not monitor.describe()["shard1"]["dead"]
    misses = gateway.obs.metrics.value(
        "repro_shard_probes_total", shard="shard0", outcome="miss"
    )
    assert misses >= 3
    assert gateway.obs.metrics.value(
        "repro_shard_probes_total", shard="shard0", outcome="declared_dead"
    ) == 1


def test_monitor_recovers_score_when_probes_answer(tmp_path):
    network, gateway, runner = build_fleet(tmp_path)
    # two missed probes (4 send attempts each), then answers again —
    # suspicion must reset instead of accumulating toward a verdict
    network.plan.drop(
        dst="shard1", message_type=MessageType.PROJECT_STATUS, count=8
    )
    monitor = runner.monitor
    monitor.check(0.0)
    monitor.check(60.0)
    assert monitor.describe()["shard1"]["consecutive_misses"] == 2
    monitor.check(120.0)
    assert not monitor.describe()["shard1"]["dead"]
    assert monitor.describe()["shard1"]["consecutive_misses"] == 0


def test_probe_policy_validation():
    with pytest.raises(ConfigurationError):
        ShardProbePolicy(alpha=0.0)
    with pytest.raises(ConfigurationError):
        ShardProbePolicy(probe_interval=0.0)
    with pytest.raises(ConfigurationError):
        ShardProbePolicy(dead_after_misses=0)
    with pytest.raises(ConfigurationError):
        ShardProbePolicy(dead_threshold=1.0)
    net = Network(seed=0)
    gateway = CopernicusServer("gw", net)
    with pytest.raises(ConfigurationError):
        ShardMonitor(gateway, [])


# -- direct failover ------------------------------------------------------


def test_failover_migrates_and_finishes_exactly_once(tmp_path):
    network, gateway, runner = build_fleet(tmp_path, workers_per_shard=2)
    pids = ["alpha", "beta", "gamma", "delta", "epsilon"]
    submit_swarms(runner, pids)
    drive(runner, 2)  # some results journal before the crash

    victim = runner.shard_of(pids[0])
    displaced = [p for p in pids if runner.shard_of(p) == victim]
    reports = runner.fail_over(victim)

    assert [r.project_id for r in reports] == sorted(displaced)
    assert all(r.from_shard == victim for r in reports)
    assert all(r.to_shard != victim for r in reports)
    # the ring only moved the victim's keys
    for pid in pids:
        if pid not in displaced:
            assert runner.shard_of(pid) != victim
    # every live server (gateway included) re-routes the migrated ids
    for report in reports:
        for server in runner.servers:
            assert server.routes[report.project_id] == report.to_shard
    # the orphaned workers were re-homed onto survivors
    assert all(worker.server != victim for worker in runner.workers)
    # journals actually shipped bytes
    assert all(r.files_shipped > 0 and r.bytes_shipped > 0 for r in reports)

    runner.run()
    assert Invariants(runner).check() == []
    # exactly-once across the move: every command completed live once
    expected = sorted((pid, f"cmd{k}") for pid in pids for k in range(3))
    assert live_completions(runner.events) == expected
    assert runner.obs.metrics.total("repro_shard_failovers_total") == 1
    assert runner.obs.metrics.total("repro_projects_migrated_total") == len(
        reports
    )


def test_failover_is_idempotent_and_typed(tmp_path):
    network, gateway, runner = build_fleet(tmp_path)
    submit_swarms(runner, ["alpha", "beta", "gamma"])
    drive(runner, 2)
    victim = runner.shard_of("alpha")
    assert runner.fail_over(victim)
    # double failover of the same shard: a no-op, not an error
    assert runner.fail_over(victim) == []
    # a shard that never existed: typed refusal
    with pytest.raises(UnknownShardError):
        runner.fail_over("ghost")


def test_failover_requires_journals_and_factories(tmp_path):
    # no journals: failover is impossible and must say so
    network = ChaosNetwork(plan=FaultPlan(seed=0), seed=0)
    gateway = CopernicusServer("gateway", network)
    shards = [CopernicusServer(f"shard{s}", network) for s in range(2)]
    for shard in shards:
        network.connect("gateway", shard.name)
    runner = MultiProjectRunner(network, shards, [], tick=60.0)
    runner.attach_shard_monitor(gateway)
    with pytest.raises(ConfigurationError):
        runner.fail_over("shard0")

    # journals but no controller factory: the displaced project cannot
    # be replayed deterministically — a typed configuration error
    network2, gateway2, runner2 = build_fleet(tmp_path)
    runner2.submit(Project("solo"), TinySwarm())
    drive(runner2, 1)
    with pytest.raises(ConfigurationError):
        runner2.fail_over(runner2.shard_of("solo"))


def test_liveness_sweep_drives_failover_organically(tmp_path):
    """A crashed shard is detected and failed over inside run()."""
    network, gateway, runner = build_fleet(tmp_path, workers_per_shard=1)
    # enough work that the fleet is still busy while the monitor needs
    # its three missed probes to declare the victim dead
    pids = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    submit_swarms(runner, pids, n_commands=4)
    drive(runner, 1)
    victim = runner.shard_of(pids[0])
    network.plan.crash_server(victim, after_index=network.delivery_index)
    runner.run()
    assert runner.migrations, "nothing migrated"
    assert all(m.from_shard == victim for m in runner.migrations)
    assert Invariants(runner).check() == []
    dead_events = runner.events.filter(kind=EventKind.SHARD_DEAD)
    assert [e.details["server"] for e in dead_events] == [victim]


# -- dispatch retry + redirect protocol -----------------------------------


def test_dispatch_rides_out_unreachable_shard(tmp_path):
    network, gateway, runner = build_fleet(tmp_path)
    submit_swarms(runner, ["alpha", "beta", "gamma"])
    drive(runner, 2)
    pid = "alpha"
    victim = runner.shard_of(pid)
    network.plan.crash_server(victim, after_index=network.delivery_index)
    extra = Command(
        command_id="extra",
        project_id=pid,
        executable="mdrun",
        payload=MDTask(
            model="double-well", n_steps=200, report_interval=100,
            seed=9, task_id="extra",
        ).to_payload(),
    )
    accepted = runner.dispatch(pid, [extra])
    assert accepted != victim
    assert accepted == runner.shard_of(pid)
    # the probe's exhausted retries were counted, not swallowed
    retried = runner.obs.metrics.value(
        "repro_shard_route_retries_total", project=pid, reason="dispatch"
    )
    assert retried >= 1
    # the submission landed on the successor, not in an exception
    successor = next(s for s in runner.shards if s.name == accepted)
    assert "extra" in [c.command_id for c in successor.queue.commands()]
    # and the unreachable shard was failed over along the way
    assert any(m.project_id == pid for m in runner.migrations)


def test_stale_result_forward_answers_redirect():
    net = Network(seed=0)
    stale = CopernicusServer("stale", net)
    successor = CopernicusServer("successor", net)
    carrier = CopernicusServer("carrier", net)
    net.connect("stale", "successor")
    net.connect("carrier", "stale")
    net.connect("carrier", "successor")
    received = []
    successor.host_project("p", lambda c, r: received.append(c.command_id))
    stale.update_route("p", "successor")

    command = Command("c1", "p", "mdrun", {})
    command.origin_server = "stale"
    # a direct forward to the stale origin is answered with a
    # retryable redirect, not silently relayed
    response = carrier.send(
        "stale",
        MessageType.RESULT_FORWARD,
        {"worker": "w0", "command": command.to_payload(), "result": {}},
    )
    assert response == {
        "ok": False, "duplicate": False, "redirect": "successor",
    }
    assert net.obs.metrics.value(
        "repro_shard_route_redirects_total", server="stale", project="p"
    ) == 1

    # the carrier's own routing follows the redirect to the sink and
    # learns the route for next time
    outcome = carrier._route_result(command, {"steps": 1})
    assert outcome == "forwarded"
    assert received == ["c1"]
    assert carrier.routes["p"] == "successor"
    assert net.obs.metrics.value(
        "repro_shard_route_retries_total",
        server="carrier", project="p", reason="redirect",
    ) == 1


# -- invariant 13 ----------------------------------------------------------


def test_invariant13_flags_fabricated_migration(tmp_path):
    network, gateway, runner = build_fleet(tmp_path)
    submit_swarms(runner, ["alpha", "beta"])
    runner.run()
    assert Invariants(runner).check() == []
    # a migration event with no preceding shard death must be caught
    runner.events.record(
        runner.now, EventKind.PROJECT_MIGRATED, "alpha",
        from_shard="shard0", to_shard="shard1", replayed=1, restored=0,
    )
    violations = Invariants(runner).check()
    assert violations
    assert any("migrat" in v for v in violations)


# -- the canned chaos scenario --------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shard_crash_scenario_is_exactly_once(tmp_path, seed):
    result = run_multitenant_with_shard_crash(
        tmp_path / f"seed{seed}", n_tenants=8, n_shards=3,
        workers_per_shard=2, seed=seed,
    )
    assert result.violations == []
    assert result.migrations, "the crash must displace live projects"
    assert result.completed_tenants() == len(result.specs)
    # the headline: the failover run's live-completion multiset equals
    # the crash-free baseline's — nothing lost, nothing doubled
    assert result.baseline_completions is not None
    assert result.exactly_once
    # the victim really died and really was failed over
    assert result.victim not in [s.name for s in result.shards]
    timeline = result.migration_timeline()
    assert timeline[0]["kind"] == "shard_dead"
    assert any(t["kind"] == "project_migrated" for t in timeline)
    # chaos weather was live while it happened
    assert result.chaos["firings"] > 0


def test_shard_crash_scenario_respects_explicit_victim(tmp_path):
    result = run_multitenant_with_shard_crash(
        tmp_path, n_tenants=8, n_shards=3, workers_per_shard=2,
        victim="shard2", baseline=False, seed=0,
    )
    assert result.victim == "shard2"
    assert result.baseline is None and result.baseline_completions is None
    assert result.exactly_once  # vacuous without a baseline
    assert result.violations == []


def test_shard_crash_scenario_rejects_bad_config(tmp_path):
    with pytest.raises(ConfigurationError):
        run_multitenant_with_shard_crash(tmp_path, n_shards=1)
    with pytest.raises(ConfigurationError):
        run_multitenant_with_shard_crash(
            tmp_path, n_tenants=4, victim="not-a-shard", baseline=False
        )


# -- topology accessor -----------------------------------------------------


def test_deployment_gateway_accessor():
    deployment = sharded(n_shards=2, workers_per_shard=1)
    assert deployment.gateway.name == "gateway"
    with pytest.raises(ConfigurationError):
        workstation().gateway

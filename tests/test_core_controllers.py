"""Tests for the controller framework: projects, runner, plugins."""

import numpy as np
import pytest

from repro.core import (
    AdaptiveMSMController,
    BARController,
    Command,
    Controller,
    FEPProjectConfig,
    MSMProjectConfig,
    Project,
    ProjectRunner,
    ProjectStatus,
)
from repro.md.engine import MDTask
from repro.net import Network
from repro.server import CopernicusServer
from repro.worker import SMPPlatform, Worker
from repro.util.errors import ConfigurationError, SchedulingError


class OneShotController(Controller):
    """Minimal controller: one command, complete when it returns."""

    def __init__(self, n_commands=1, n_steps=200):
        self.n_commands = n_commands
        self.n_steps = n_steps
        self.done = 0
        self.results = []

    def on_project_start(self, project):
        return [
            Command(
                command_id=f"c{k}",
                project_id=project.project_id,
                executable="mdrun",
                payload=MDTask(
                    model="muller-brown", n_steps=self.n_steps, seed=k, task_id=f"c{k}"
                ).to_payload(),
            )
            for k in range(self.n_commands)
        ]

    def on_command_finished(self, project, command, result):
        self.done += 1
        self.results.append(result)
        return []

    def is_complete(self, project):
        return self.done >= self.n_commands


def simple_rig(n_workers=1, cores=2, heartbeat=30.0, segment_steps=500):
    net = Network(seed=0)
    server = CopernicusServer("srv", net, heartbeat_interval=heartbeat)
    workers = []
    for k in range(n_workers):
        w = Worker(
            f"w{k}",
            net,
            server="srv",
            platform=SMPPlatform(cores=cores),
            segment_steps=segment_steps,
        )
        net.connect("srv", f"w{k}")
        w.announce(0.0)
        workers.append(w)
    return net, server, workers


# --------------------------------------------------------------- project


def test_project_bookkeeping():
    p = Project("p")
    cmds = [Command("a", "p", "mdrun"), Command("b", "p", "mdrun")]
    p.record_issue(cmds)
    assert p.outstanding == 2
    p.record_result(cmds[0], {"ok": 1})
    assert p.outstanding == 1
    assert p.completed == 1
    assert p.results_log[0][0] == "a"


# ----------------------------------------------------------------- runner


def test_runner_completes_simple_project():
    net, server, workers = simple_rig()
    runner = ProjectRunner(net, server, workers)
    project = Project("demo")
    controller = OneShotController(n_commands=3)
    runner.submit(project, controller)
    runner.run()
    assert project.status is ProjectStatus.COMPLETE
    assert controller.done == 3


def test_runner_rejects_duplicate_submission():
    net, server, workers = simple_rig()
    runner = ProjectRunner(net, server, workers)
    project = Project("demo")
    runner.submit(project, OneShotController())
    with pytest.raises(SchedulingError):
        runner.submit(project, OneShotController())


def test_runner_invalid_tick():
    net, server, workers = simple_rig()
    with pytest.raises(SchedulingError):
        ProjectRunner(net, server, workers, tick=0.0)


def test_runner_all_workers_crashed_raises():
    net, server, workers = simple_rig()
    runner = ProjectRunner(net, server, workers)
    runner.submit(Project("demo"), OneShotController())
    workers[0].crash()
    with pytest.raises(SchedulingError):
        runner.run()


def test_runner_survives_one_worker_crash():
    """A crashed worker's command is recovered and the project finishes."""
    net, server, workers = simple_rig(n_workers=2, cores=1, heartbeat=10.0)
    runner = ProjectRunner(net, server, workers, tick=30.0)
    project = Project("demo")
    controller = OneShotController(n_commands=2, n_steps=2000)
    # worker 0 dies mid-first-command
    workers[0].set_crash_hook(lambda cid, seg: seg == 1)
    runner.submit(project, controller)
    runner.run()
    assert project.status is ProjectStatus.COMPLETE
    assert controller.done == 2
    assert server.requeued_after_failure >= 1
    # recovered command resumed from a checkpoint rather than restarting
    resumed = [
        r for r in controller.results if r["steps_completed"] < 2000
    ]
    assert resumed, "recovery should resume from the dead worker's checkpoint"


def test_runner_status_reports():
    net, server, workers = simple_rig()
    runner = ProjectRunner(net, server, workers)
    runner.submit(Project("demo"), OneShotController())
    status = runner.status()
    assert status[0]["project"] == "demo"


def test_runner_multi_server_architecture():
    """Fig. 1-style: project server + relay; worker attached to the relay."""
    net = Network(seed=0)
    origin = CopernicusServer("origin", net, heartbeat_interval=30.0)
    relay = CopernicusServer("relay", net, heartbeat_interval=30.0)
    net.connect("origin", "relay", latency=0.1)
    worker = Worker("w0", net, server="relay", platform=SMPPlatform(cores=2))
    net.connect("relay", "w0", latency=0.001)
    worker.announce(0.0)
    runner = ProjectRunner(net, origin, [worker])
    project = Project("demo")
    controller = OneShotController(n_commands=2)
    runner.submit(project, controller)
    runner.run()
    assert project.status is ProjectStatus.COMPLETE
    # results crossed the inter-server link
    assert net.link("origin", "relay").messages_carried > 0


# ---------------------------------------------------------- MSM controller


def test_msm_config_validation():
    with pytest.raises(ConfigurationError):
        MSMProjectConfig(weighting="magic")
    with pytest.raises(ConfigurationError):
        MSMProjectConfig(n_generations=0)


def test_msm_config_trajectory_count():
    cfg = MSMProjectConfig(n_starting_conformations=9, trajectories_per_start=25)
    assert cfg.n_trajectories == 225  # the paper's first-generation size


@pytest.fixture(scope="module")
def mb_adaptive_run():
    """A completed adaptive project on Muller-Brown (module-scoped)."""
    net, server, workers = simple_rig(cores=4, segment_steps=2000)
    runner = ProjectRunner(net, server, workers)
    cfg = MSMProjectConfig(
        model="muller-brown",
        n_starting_conformations=2,
        trajectories_per_start=3,
        steps_per_command=1500,
        report_interval=25,
        n_clusters=15,
        lag_frames=2,
        n_generations=3,
        weighting="uncertainty",
        timestep=0.01,
        seed=3,
    )
    controller = AdaptiveMSMController(cfg)
    project = Project("msm_mb")
    runner.submit(project, controller)
    runner.run()
    return project, controller


def test_msm_project_completes(mb_adaptive_run):
    project, controller = mb_adaptive_run
    assert project.status is ProjectStatus.COMPLETE
    assert controller.generation == 2
    assert len(controller.history) == 3  # one clustering per generation


def test_msm_project_command_counts(mb_adaptive_run):
    project, controller = mb_adaptive_run
    # 6 commands per generation x 3 generations
    assert project.issued == 18
    assert project.completed == 18


def test_msm_generations_have_lineage(mb_adaptive_run):
    _, controller = mb_adaptive_run
    gen1 = [t for t in controller.trajectories.values() if t.generation == 1]
    assert gen1
    assert all(t.parent is not None for t in gen1)
    assert all(t.start_cluster is not None for t in gen1)


def test_msm_final_model_analysable(mb_adaptive_run):
    _, controller = mb_adaptive_run
    msm, clusters = controller.final_msm()
    pi = msm.stationary_distribution()
    assert pi.shape == (msm.n_states,)
    assert pi.sum() == pytest.approx(1.0)
    assert msm.n_states > 1


def test_msm_history_contains_weights(mb_adaptive_run):
    _, controller = mb_adaptive_run
    for record in controller.history:
        assert record["weights"].sum() == pytest.approx(1.0)
        assert record["counts"].shape[0] == record["n_states"]


def test_msm_survives_uncountable_first_generation():
    # commands shorter than the lag: generation 0 has zero countable
    # transitions, so every weight scheme raises internally and the
    # controller spawns evenly over all states instead of dying
    net, server, workers = simple_rig(cores=2, segment_steps=2000)
    runner = ProjectRunner(net, server, workers)
    cfg = MSMProjectConfig(
        model="markov-ala20",
        n_starting_conformations=2,
        trajectories_per_start=2,
        steps_per_command=200,
        report_interval=100,  # 3 frames/command < lag_frames=5
        lag_frames=5,
        n_clusters=8,
        n_generations=2,
        weighting="min-counts",
        seed=7,
    )
    controller = AdaptiveMSMController(cfg)
    project = Project("msm_short")
    runner.submit(project, controller)
    runner.run()
    assert project.status is ProjectStatus.COMPLETE
    gen0 = controller.history[0]
    assert gen0["counts"].sum() == 0
    np.testing.assert_array_equal(gen0["weights"], 1.0)
    # the even spawn still filled a full second generation
    assert project.completed == 2 * cfg.n_trajectories


def test_msm_villin_stop_criterion():
    """stop_rmsd fires as soon as a folded frame appears."""
    net, server, workers = simple_rig(cores=2, segment_steps=3000)
    runner = ProjectRunner(net, server, workers)
    cfg = MSMProjectConfig(
        model="villin-fast",
        n_starting_conformations=1,
        trajectories_per_start=2,
        steps_per_command=12000,
        report_interval=200,
        n_clusters=10,
        lag_frames=2,
        n_generations=5,
        temperature=300.0,  # folds quickly at this temperature
        stop_rmsd=0.15,
        seed=4,
    )
    controller = AdaptiveMSMController(cfg)
    project = Project("msm_villin_stop")
    runner.submit(project, controller)
    runner.run()
    assert project.status is ProjectStatus.COMPLETE
    assert controller._stop_hit
    assert min(controller.min_rmsd_per_generation().values()) < 0.15


# ---------------------------------------------------------- BAR controller


def test_fep_config_validation():
    with pytest.raises(ConfigurationError):
        FEPProjectConfig(n_windows=1)
    with pytest.raises(ConfigurationError):
        FEPProjectConfig(target_error=0.0)


def test_bar_project_converges_to_analytic():
    net, server, workers = simple_rig(cores=2)
    runner = ProjectRunner(net, server, workers)
    cfg = FEPProjectConfig(
        k_start=1.0, k_end=16.0, n_windows=5,
        samples_per_command=2000, target_error=0.04, seed=5,
    )
    controller = BARController(cfg)
    project = Project("fep")
    runner.submit(project, controller)
    runner.run()
    assert project.status is ProjectStatus.COMPLETE
    assert controller.error <= cfg.target_error
    exact = controller.analytic_reference()
    assert controller.estimate == pytest.approx(exact, abs=5 * controller.error)


def test_bar_project_adaptive_rounds():
    """With tiny commands the controller must issue extra rounds."""
    net, server, workers = simple_rig(cores=2)
    runner = ProjectRunner(net, server, workers)
    cfg = FEPProjectConfig(
        n_windows=3, samples_per_command=40, target_error=0.08,
        max_rounds=30, seed=6,
    )
    controller = BARController(cfg)
    project = Project("fep_rounds")
    runner.submit(project, controller)
    runner.run()
    assert controller.round >= 1  # needed more than one round
    assert controller.error <= cfg.target_error or controller.round == 30
    assert len(controller.history) == controller.round + 1

"""Replay recovery: a result history through a fresh controller."""

from repro.core import (
    AdaptiveMSMController,
    MSMProjectConfig,
    Project,
    ProjectRunner,
)
from repro.core.runner import replay_results
from repro.net import Network
from repro.server import CopernicusServer
from repro.server.wal import ServerJournal
from repro.worker import SMPPlatform, Worker


def _msm_config():
    return MSMProjectConfig(
        model="muller-brown",
        n_starting_conformations=2,
        trajectories_per_start=2,
        steps_per_command=800,
        report_interval=20,
        n_clusters=10,
        lag_frames=2,
        n_generations=3,
        timestep=0.01,
        seed=11,
    )


def run_with_journal(tmp_path, crash_after=None):
    """Run an MSM project on a journaling server; optionally stop early.

    Returns the project's recovered journal state with the live project
    and controller.
    """
    journal = ServerJournal(tmp_path)
    net = Network(seed=0)
    server = CopernicusServer("srv", net)
    server.attach_journal(journal)
    worker = Worker("w0", net, server="srv", platform=SMPPlatform(cores=2))
    net.connect("srv", "w0")
    worker.announce(0.0)
    controller = AdaptiveMSMController(_msm_config())
    runner = ProjectRunner(net, server, [worker])
    project = Project("msm")

    runner.submit(project, controller)
    if crash_after is None:
        runner.run()
    else:
        # run worker cycles until enough results landed, then "crash"
        for _ in range(1000):
            if project.completed >= crash_after:
                break
            worker.work_once(now=runner.now)
    return journal.project("msm").recover(), project, controller


def test_replay_reconstructs_completed_project(tmp_path):
    state, project, controller = run_with_journal(tmp_path)
    fresh = AdaptiveMSMController(_msm_config())
    replayed_project, outstanding, completed_ids = replay_results(
        "msm", state.results, fresh
    )
    assert outstanding == []  # everything completed
    assert len(completed_ids) == replayed_project.completed
    assert replayed_project.completed == project.completed
    assert fresh.generation == controller.generation
    assert len(fresh.trajectories) == len(controller.trajectories)


def test_replay_after_crash_resumes_to_completion(tmp_path):
    """Crash mid-project, replay into a fresh controller, finish."""
    state, crashed_project, _ = run_with_journal(tmp_path, crash_after=3)
    assert len(state.results) >= 3

    fresh = AdaptiveMSMController(_msm_config())
    replayed_project, outstanding, completed_ids = replay_results(
        "msm", state.results, fresh
    )
    assert outstanding, "crash left commands outstanding"
    assert completed_ids.isdisjoint(c.command_id for c in outstanding)

    # resume on a new deployment: requeue the outstanding commands
    net = Network(seed=1)
    server = CopernicusServer("srv2", net)
    worker = Worker("w0", net, server="srv2", platform=SMPPlatform(cores=2))
    net.connect("srv2", "w0")
    worker.announce(0.0)
    runner = ProjectRunner(net, server, [worker])

    # adopt the replayed project into the runner manually
    def sink(command, result):
        runner._on_result(replayed_project, fresh, command, result)

    server.host_project("msm", sink)
    runner._projects["msm"] = replayed_project
    runner._controllers["msm"] = fresh
    # reseed the exactly-once barrier so late duplicates stay dropped
    # (restore_commands scopes the journaled plain ids by project)
    server.restore_commands("msm", outstanding, completed_ids)
    from repro.core.project import ProjectStatus

    replayed_project.status = ProjectStatus.RUNNING
    runner.run()
    assert fresh._complete
    assert replayed_project.outstanding == 0
    assert fresh.generation == _msm_config().n_generations - 1



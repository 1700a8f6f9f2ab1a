"""Grand integration test: the whole system in one scenario.

A Fig. 1-style multi-site deployment runs an adaptive MSM project and
a BAR free-energy project simultaneously while one worker crashes
mid-command; the project server journals every transition; afterwards
the event log, the replayed journal and the final science are all
checked against each other.
"""

import numpy as np
import pytest

from repro.core import (
    AdaptiveMSMController,
    BARController,
    FEPProjectConfig,
    MSMProjectConfig,
    Project,
    ProjectRunner,
)
from repro.core.events import EventKind
from repro.core.project import ProjectStatus
from repro.core.runner import replay_results
from repro.net.topology import figure1
from repro.server.wal import ServerJournal


def msm_config():
    return MSMProjectConfig(
        model="muller-brown",
        n_starting_conformations=2,
        trajectories_per_start=3,
        steps_per_command=1200,
        report_interval=20,
        n_clusters=12,
        lag_frames=2,
        n_generations=3,
        weighting="uncertainty",
        timestep=0.01,
        seed=21,
    )


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    deployment = figure1(workers_per_cluster=2, heartbeat_interval=30.0)
    journal = ServerJournal(tmp_path_factory.mktemp("journal"))
    deployment.project_servers[0].attach_journal(journal)

    # the first worker dies as soon as it picks up work
    flaky = deployment.workers[0]
    flaky.set_crash_hook(lambda cid, seg: True)

    msm_runner = ProjectRunner(
        deployment.network, deployment.project_servers[0], deployment.workers,
        tick=45.0,
    )
    msm_controller = AdaptiveMSMController(msm_config())
    msm_project = Project("msm_villin")
    msm_runner.submit(msm_project, msm_controller)

    fep_runner = ProjectRunner(
        deployment.network, deployment.project_servers[1], deployment.workers,
        tick=45.0,
    )
    fep_controller = BARController(
        FEPProjectConfig(n_windows=4, samples_per_command=600, target_error=0.06)
    )
    fep_project = Project("free_energy")
    fep_runner.submit(fep_project, fep_controller)

    msm_runner.run()
    fep_runner.run()
    return {
        "deployment": deployment,
        "journal": journal,
        "flaky": flaky,
        "msm": (msm_runner, msm_controller, msm_project),
        "fep": (fep_runner, fep_controller, fep_project),
    }


def test_both_projects_complete(scenario):
    _, _, msm_project = scenario["msm"]
    _, _, fep_project = scenario["fep"]
    assert msm_project.status is ProjectStatus.COMPLETE
    assert fep_project.status is ProjectStatus.COMPLETE


def test_crash_was_survived_and_logged(scenario):
    runner, _, _ = scenario["msm"]
    assert scenario["flaky"].crashed
    dead = runner.events.filter(kind=EventKind.WORKER_DEAD)
    assert dead, "worker death never logged"
    # some server requeued the lost command
    total_requeued = sum(
        s.requeued_after_failure
        for s in runner._servers
    )
    assert total_requeued >= 1


def test_remote_cluster_contributed(scenario):
    net = scenario["deployment"].network
    remote_link = net.link("gateway", "cluster2-head")
    assert remote_link.messages_carried > 0


def test_shared_filesystems_saved_traffic(scenario):
    assert scenario["deployment"].network.bytes_saved_by_shared_fs > 0


def test_fep_result_validates(scenario):
    _, controller, _ = scenario["fep"]
    exact = controller.analytic_reference()
    assert controller.estimate == pytest.approx(
        exact, abs=6 * max(controller.error, 1e-6)
    )


def test_msm_science_consistent(scenario):
    _, controller, project = scenario["msm"]
    msm, clusters = controller.final_msm()
    pi = msm.stationary_distribution()
    assert pi.sum() == pytest.approx(1.0)
    # every completed command produced a stored trajectory
    done = [t for t in controller.trajectories.values() if t.frames is not None]
    assert len(done) == project.completed


def test_store_replay_matches_live_run(scenario):
    _, live_controller, live_project = scenario["msm"]
    fresh = AdaptiveMSMController(msm_config())
    state = scenario["journal"].project("msm_villin").recover()
    replayed_project, outstanding, completed_ids = replay_results(
        "msm_villin", state.results, fresh
    )
    assert outstanding == []
    assert len(completed_ids) == live_project.completed
    assert replayed_project.completed == live_project.completed
    assert fresh.generation == live_controller.generation
    # replay reproduces the clustering decisions exactly (same seeds)
    np.testing.assert_array_equal(
        fresh.cluster_model.center_indices,
        live_controller.cluster_model.center_indices,
    )


def test_event_log_accounting(scenario):
    runner, _, project = scenario["msm"]
    completed_events = runner.events.filter(
        kind=EventKind.COMMAND_COMPLETED, project_id="msm_villin"
    )
    assert len(completed_events) == project.completed
